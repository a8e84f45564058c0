# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test check batch chaos overload replicate bench bench-full figures export svg examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Consistency gauntlet: one seeded nemesis run (overload + split +
# merge + kill/restore mid-history) against a live cluster, checked
# for per-key linearizability.  Exit 1 on any violation.
check:
	REPRO_FAULT_SEED=20100607 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m repro check --seed 20100607 --clients 3 --ops 80 --nemesis mix

# Fault suites (chaos + property + fuzz), including the slow live tests
# that tier-1 skips, and the kill/recover availability timeline bench
# (report lands in benchmarks/results/bench_faults.txt).
# REPRO_FAULT_SEED pins the fault lottery.
chaos:
	REPRO_FAULT_SEED=20100607 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m pytest -m "slow or not slow" -q \
		tests/test_faults_live.py tests/test_faults_properties.py \
		tests/test_faults_unit.py tests/test_protocol_fuzz.py \
		tests/test_live_soak.py benchmarks/bench_faults.py

# Overload suite: admission-control/deadline/two-phase unit + wire
# tests, plus the 1x/2x/4x offered-load benchmark (slow-marked, so it
# needs the explicit -m).  REPRO_FAULT_SEED pins the workload.
overload:
	REPRO_FAULT_SEED=20100607 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m pytest -m "slow or not slow" -q \
		tests/test_overload.py benchmarks/bench_overload.py

# Batched hot path: multi-op unit/cluster/property tests, the multi-op
# fuzz cases, and the batch-size speedup bench (report lands in
# benchmarks/results/bench_batch.txt).
batch:
	REPRO_FAULT_SEED=20100607 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m pytest -m "slow or not slow" -q \
		tests/test_batch.py tests/test_protocol_fuzz.py \
		benchmarks/bench_batch.py

# Replication suite: the simulator's replication tests and node-loss
# bench (failover hands each bucket to its buddy there too), then
# buddy-placement and failover parity, hinted-handoff drain and
# rebuild tests, the availability-vs-overhead bench, then a seeded
# replica-kill nemesis run checked under the STRICT model (real process
# death, zero lost acked writes — the buddy must cover the dead range).
replicate:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m pytest -q -k "Replication or availability" \
		tests/test_extensions.py benchmarks/bench_ext_availability.py
	REPRO_FAULT_SEED=20100607 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m pytest -m "slow or not slow" -q -k replica \
		tests/test_replication_live.py tests/test_check_runner.py \
		benchmarks/bench_replication.py
	REPRO_FAULT_SEED=20100607 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),) \
	$(PYTHON) -m repro check --seed 20100607 --nemesis replica-kill

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro figures

export:
	$(PYTHON) -m repro export benchmarks/results/export --svg

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
