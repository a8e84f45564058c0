"""Configuration dataclasses for the cache system.

Identifiers follow Table I of the paper: ``r`` is the hash-line range, ``m``
the sliding-window length, ``α`` the decay, ``T_λ`` the eviction threshold,
``ε`` the contraction period.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Structural parameters of the cooperative cache.

    Parameters
    ----------
    ring_range:
        The paper's ``r``: size of the hash line ``[0, r)``.  With
        ``hash_mode="identity"`` this must be at least the keyspace size.
    hash_mode:
        ``"identity"`` — the paper's ``h'(k) = k mod r`` with ``r`` at
        least the keyspace, i.e. order-preserving: spatially adjacent
        linearized keys stay adjacent on the hash line (and in B+-tree
        leaves), which is what makes the median-split of Alg. 1 meaningful.
        ``"splitmix"`` — a bijective 64-bit mix for uniform load spreading
        (an ablation; trades B²-tree locality for balance).
    node_capacity_bytes:
        Override for ``⌈n⌉``.  ``None`` uses the instance type's usable
        memory; experiments set small capacities so the scaled keyspace
        exercises overflow exactly like the paper's 1.7 GB nodes did.
    initial_nodes:
        Cooperative cache size at cold start (the paper starts at 1).
    greedy:
        If true (GBA), overflow migrations prefer existing least-loaded
        nodes and allocate only as a last resort; if false, every overflow
        allocates a fresh node (ablation C in DESIGN.md).
    max_insert_retries:
        Safety bound on the Alg. 1 recursion (insert → split → reinsert).
    """

    ring_range: int = 1 << 16
    hash_mode: str = "identity"
    node_capacity_bytes: int | None = None
    initial_nodes: int = 1
    greedy: bool = True
    max_insert_retries: int = 8

    def __post_init__(self) -> None:
        if self.hash_mode not in ("identity", "splitmix"):
            raise ValueError(f"unknown hash_mode {self.hash_mode!r}")
        if self.ring_range < 2:
            raise ValueError("ring_range must be >= 2")
        if self.initial_nodes < 1:
            raise ValueError("initial_nodes must be >= 1")


@dataclass(frozen=True)
class EvictionConfig:
    """Sliding-window decay eviction (Sec. III-B).

    Parameters
    ----------
    window_slices:
        ``m``, the number of time slices in the window.  ``None`` disables
        eviction entirely — the paper's "infinite window" used for Fig. 3.
    alpha:
        The decay ``α ∈ (0, 1)``; higher keeps more keys.
    threshold:
        ``T_λ``; keys in the expired slice with ``λ(k) < T_λ`` are evicted.
        ``None`` uses the paper's baseline ``α**(m-1)``, which never evicts
        a key queried at least once within the window.  Fig. 7 holds this
        at the α=0.99 baseline while varying α.
    """

    window_slices: int | None = None
    alpha: float = 0.99
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.window_slices is not None and self.window_slices < 1:
            raise ValueError("window_slices must be >= 1 (or None to disable)")

    @property
    def enabled(self) -> bool:
        """Whether the window is finite (eviction active)."""
        return self.window_slices is not None

    @property
    def effective_threshold(self) -> float:
        """``T_λ`` with the baseline default applied."""
        if self.threshold is not None:
            return self.threshold
        m = self.window_slices or 1
        return self.alpha ** (m - 1)


@dataclass(frozen=True)
class ContractionConfig:
    """ε-periodic node-merge heuristic (Sec. III-B).

    Parameters
    ----------
    epsilon_slices:
        ``ε``: contraction is attempted after every ε slice expirations.
    merge_threshold:
        The churn-avoidance bound: merge only if the coalesced data fits
        within this fraction of the destination's capacity.  The paper
        sets 65 %.
    min_nodes:
        Never contract below this many nodes.
    enabled:
        Master switch (off for the static baselines and Fig. 3).
    """

    epsilon_slices: int = 5
    merge_threshold: float = 0.65
    min_nodes: int = 1
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.epsilon_slices < 1:
            raise ValueError("epsilon_slices must be >= 1")
        if not 0.0 < self.merge_threshold <= 1.0:
            raise ValueError("merge_threshold must be in (0, 1]")
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")


@dataclass(frozen=True)
class ExperimentTimings:
    """Virtual-time costs of the query path.

    Defaults reproduce Sec. IV-A: "the baseline execution time of this
    service ... typically takes approximately 23 seconds", plus a hit path
    that includes coordinator dispatch, B+-tree lookup, and result
    transfer back to the caller (sub-second but not free — this is what
    bounds the paper's observed ~15× rather than the 10⁴× a
    zero-cost hit would give).
    """

    service_time_s: float = 23.0
    hit_overhead_s: float = 0.5
    miss_overhead_s: float = 0.05
    result_bytes: int = 1024  #: "the derived shoreline result is < 1kb"
    record_overhead_bytes: int = 64  #: index + bookkeeping footprint per record
