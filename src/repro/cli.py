"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate paper figures (all, or a chosen subset) and print the
    report tables.
``trace``
    Materialize a workload trace to ``.npz`` for exact replay elsewhere.
``run``
    Drive one system (gba or static-N) over a workload and print the
    summary — the quickest way to poke at parameters without writing
    code.
``check``
    Boot a live cluster, hammer it with concurrent clients while a
    nemesis schedule injects faults, then check the recorded history
    for per-key linearizability.  Exit status 1 on a violation.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import run_fig5
    from repro.experiments.fig6 import run_fig6
    from repro.experiments.fig7 import run_fig7

    from repro.viz import bar_strip, line_chart

    wanted = set(args.figure or ["3", "4", "5", "6", "7"])
    scale34 = "mini" if args.fast else "scaled"
    scale567 = "mini" if args.fast else "full"
    windows = (12, 25, 50, 100) if args.fast else (50, 100, 200, 400)

    if "3" in wanted:
        fig3 = run_fig3(scale34, seed=args.seed)
        print(fig3.report(), "\n")
        series = {name: [sp for _, sp in pts]
                  for name, pts in fig3.speedup_series.items()}
        print(line_chart(series, log_y=True,
                         title="Fig. 3: per-interval speedup (log y)",
                         y_label="speedup"))
        print(bar_strip(fig3.gba_nodes, title="GBA node allocation over steps"),
              "\n")
    if "4" in wanted:
        print(run_fig4(scale34, seed=args.seed).report().splitlines()[-1], "\n")
    if "5" in wanted:
        if args.workers > 1:
            from repro.experiments.parallel import run_fig5_parallel

            fig5 = run_fig5_parallel(scale567, seed=args.seed,
                                     windows=windows, workers=args.workers)
        else:
            fig5 = run_fig5(scale567, seed=args.seed, windows=windows)
        print(fig5.report(), "\n")
        print(line_chart({f"m={m}": p.speedup for m, p in fig5.panels.items()},
                         title="Fig. 5: windowed speedup per step",
                         y_label="speedup"), "\n")
    if "6" in wanted:
        fig6 = run_fig6(scale567, seed=args.seed, windows=windows)
        print(fig6.report(), "\n")
        print(line_chart({f"m={m}": p.nodes for m, p in fig6.panels.items()},
                         title="Fig. 6: node allocation per step",
                         y_label="nodes"), "\n")
    if "7" in wanted:
        fig7 = run_fig7(scale567, seed=args.seed)
        print(fig7.report(), "\n")
        import numpy as np
        print(line_chart({f"α={a}": np.cumsum(c.hits)
                          for a, c in fig7.curves.items()},
                         title="Fig. 7: cumulative reuse",
                         y_label="hits"), "\n")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.configs import fig3_params, fig5_params
    from repro.experiments.harness import make_trace

    if args.workload == "fig3":
        params = fig3_params(args.scale, seed=args.seed)
    else:
        params = fig5_params(args.window, args.scale, seed=args.seed)
    trace = make_trace(params)
    trace.save(args.output)
    print(f"wrote {trace.total_queries} queries "
          f"({trace.distinct_keys()} distinct) over {trace.total_steps} "
          f"steps to {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.configs import fig3_params, fig5_params
    from repro.experiments.grid import GridSweep
    from repro.experiments.report import ascii_table

    if args.workload == "fig3":
        base = fig3_params(args.scale, seed=args.seed)
    else:
        base = fig5_params(args.window, args.scale, seed=args.seed)

    axes: dict[str, list] = {}
    for spec in args.axis:
        path, _, raw = spec.partition("=")
        if not raw:
            raise SystemExit(f"axis {spec!r} must look like field=v1,v2,...")
        values = []
        for token in raw.split(","):
            try:
                values.append(int(token))
            except ValueError:
                try:
                    values.append(float(token))
                except ValueError:
                    values.append(token)
        axes[path] = values

    rows = GridSweep(base, axes).run(workers=args.workers)
    columns = list(rows[0].keys())
    print(ascii_table(columns, [[row[c] for c in columns] for row in rows],
                      title=f"sweep over {base.name}"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.experiments.report import ascii_table
    from repro.viz import histogram
    from repro.workload.stats import (
        interarrival_gaps,
        lru_hit_curve,
        popularity_profile,
        reuse_distances,
    )
    from repro.workload.trace import QueryTrace

    trace = QueryTrace.load(args.trace)
    keys = trace.keys.tolist()
    prof = popularity_profile(keys)
    print(f"trace: {prof.total} queries over {trace.total_steps} steps, "
          f"{prof.distinct} distinct keys "
          f"(mean reuse {prof.mean_reuse:.1f}x)")
    print(f"popularity: zipf exponent ~ {prof.zipf_exponent:.2f}, "
          f"hottest key {prof.top1_share:.1%} of traffic\n")

    distances = reuse_distances(keys)
    warm = distances[distances >= 0]
    if warm.size:
        print(histogram(warm, bins=args.bins,
                        title="reuse-distance histogram (warm accesses)"))
        gaps = interarrival_gaps(keys)
        print(f"\ninter-arrival gaps: median {int(np.median(gaps))} queries, "
              f"p90 {int(np.percentile(gaps, 90))}\n")

    capacities = [int(c) for c in args.capacities.split(",")]
    curve = lru_hit_curve(distances, capacities)
    print(ascii_table(
        ["cache capacity (records)", "predicted LRU hit rate"],
        [[c, f"{h:.1%}"] for c, h in zip(capacities, curve)],
        title="capacity planning (exact for one LRU pool)"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.live.server import LiveCacheServer

    server = LiveCacheServer(host=args.host, port=args.port,
                             capacity_bytes=args.capacity,
                             max_workers=args.max_workers,
                             max_queue=args.max_queue).start()
    host, port = server.address
    print(f"cache server listening on {host}:{port} "
          f"(capacity {args.capacity} B, {args.max_workers} workers, "
          f"queue {args.max_queue}); "
          f"Ctrl-C to stop")
    stop = threading.Event()
    if args.run_seconds is not None:  # test hook: bounded lifetime
        stop.wait(args.run_seconds)
    else:  # pragma: no cover - interactive path
        try:
            while True:
                stop.wait(3600)
        except KeyboardInterrupt:
            pass
    server.stop()
    print("server stopped")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    scales = dict(scale34="mini", scale567="mini") if args.fast else {}
    paths = export_all(args.outdir, seed=args.seed, **scales)
    if args.svg:
        from repro.viz_svg import export_figure_svgs

        paths += export_figure_svgs(args.outdir, seed=args.seed, **scales)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.configs import fig3_params, fig5_params
    from repro.experiments.harness import (
        build_elastic,
        build_static,
        make_trace,
        run_trace,
    )

    if args.workload == "fig3":
        params = fig3_params(args.scale, seed=args.seed)
    else:
        params = fig5_params(args.window, args.scale, seed=args.seed)
    trace = make_trace(params)

    if args.system == "gba":
        bundle = build_elastic(params)
    else:
        n = int(args.system.split("-", 1)[1])
        bundle = build_static(params, n)

    metrics = run_trace(bundle, trace)
    summary = metrics.summary(params.timings.service_time_s)
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        shown = f"{value:.4g}" if isinstance(value, float) else value
        print(f"  {key.ljust(width)} : {shown}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CheckConfig, run_check

    config = CheckConfig(seed=args.seed, clients=args.clients,
                         ops_per_client=args.ops, servers=args.servers,
                         keyspace=args.keyspace, nemesis=args.nemesis)
    report = run_check(config)
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elastic cloud cache reproduction (SC'10 Chiu et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("--figure", "-f", action="append",
                       choices=["3", "4", "5", "6", "7"],
                       help="which figure(s); default all")
    p_fig.add_argument("--fast", action="store_true",
                       help="mini scale (seconds instead of ~20 s)")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--workers", type=int, default=1,
                       help="parallelize figure panels across processes")
    p_fig.set_defaults(func=_cmd_figures)

    p_trace = sub.add_parser("trace", help="materialize a workload trace")
    p_trace.add_argument("workload", choices=["fig3", "fig5"])
    p_trace.add_argument("output")
    p_trace.add_argument("--scale", default="mini")
    p_trace.add_argument("--window", type=int, default=100,
                         help="sliding-window m (fig5 workloads)")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser(
        "sweep", help="grid-sweep parameters over a workload")
    p_sweep.add_argument("axis", nargs="+",
                         help='e.g. "eviction.alpha=0.99,0.95" '
                              '"contraction.merge_threshold=0.5,0.65"')
    p_sweep.add_argument("--workload", choices=["fig3", "fig5"],
                         default="fig5")
    p_sweep.add_argument("--scale", default="mini")
    p_sweep.add_argument("--window", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser("analyze", help="redundancy analysis of a trace")
    p_an.add_argument("trace", help="a .npz written by `repro trace`")
    p_an.add_argument("--capacities", default="100,500,1000,4000",
                      help="comma-separated record capacities for the "
                           "LRU hit-rate table")
    p_an.add_argument("--bins", type=int, default=10)
    p_an.set_defaults(func=_cmd_analyze)

    p_serve = sub.add_parser("serve", help="run a live TCP cache server")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks an ephemeral port")
    p_serve.add_argument("--capacity", type=int, default=1 << 28,
                         help="cache capacity in bytes")
    p_serve.add_argument("--max-workers", type=int, default=16,
                         help="concurrent ops before requests queue")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="queued ops before requests are shed")
    p_serve.add_argument("--run-seconds", type=float, default=None,
                         help=argparse.SUPPRESS)  # test hook
    p_serve.set_defaults(func=_cmd_serve)

    p_export = sub.add_parser("export", help="write all figure series as CSV")
    p_export.add_argument("outdir")
    p_export.add_argument("--fast", action="store_true",
                          help="mini scale for a quick smoke export")
    p_export.add_argument("--svg", action="store_true",
                          help="also render the figures as SVG files")
    p_export.add_argument("--seed", type=int, default=0)
    p_export.set_defaults(func=_cmd_export)

    p_run = sub.add_parser("run", help="drive one system over a workload")
    p_run.add_argument("system",
                       help='"gba" or "static-N" (e.g. static-4)')
    p_run.add_argument("--workload", choices=["fig3", "fig5"], default="fig3")
    p_run.add_argument("--scale", default="mini")
    p_run.add_argument("--window", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    from repro.check.nemesis import NEMESES

    p_check = sub.add_parser(
        "check", help="run a nemesis schedule against a live cluster and "
                      "check the recorded history for per-key linearizability")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--clients", type=int, default=3,
                         help="concurrent workload clients")
    p_check.add_argument("--ops", type=int, default=80,
                         help="operations per client")
    p_check.add_argument("--servers", type=int, default=3,
                         help="initial cluster size")
    p_check.add_argument("--keyspace", type=int, default=16,
                         help="distinct keys the workload touches")
    p_check.add_argument("--nemesis", choices=NEMESES, default="mix",
                         help="fault schedule to run mid-history")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.system != "gba" \
            and not args.system.startswith("static-"):
        parser.error(f'unknown system {args.system!r}; use "gba" or "static-N"')
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
