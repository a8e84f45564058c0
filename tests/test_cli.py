"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures", "--fast"])
        assert args.fast
        assert args.figure is None

    def test_figures_subset(self):
        args = build_parser().parse_args(["figures", "-f", "3", "-f", "7"])
        assert args.figure == ["3", "7"]

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "-f", "9"])


class TestCommands:
    def test_run_gba(self, capsys):
        assert main(["run", "gba", "--scale", "mini"]) == 0
        out = capsys.readouterr().out
        assert "final_speedup" in out
        assert "hit_rate" in out

    def test_run_static(self, capsys):
        assert main(["run", "static-2", "--scale", "mini"]) == 0
        assert "hit_rate" in capsys.readouterr().out

    def test_run_bad_system(self):
        with pytest.raises(SystemExit):
            main(["run", "bogus", "--scale", "mini"])

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "trace.npz"
        assert main(["trace", "fig5", str(out_file), "--scale", "mini"]) == 0
        assert out_file.exists()
        from repro.workload.trace import QueryTrace
        trace = QueryTrace.load(out_file)
        assert trace.total_queries > 0
        assert "wrote" in capsys.readouterr().out

    def test_figures_fast_single(self, capsys):
        assert main(["figures", "--fast", "-f", "7"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "cumulative reuse" in out  # the ASCII chart rendered

    def test_figures_chart_render(self, capsys):
        assert main(["figures", "--fast", "-f", "3"]) == 0
        out = capsys.readouterr().out
        assert "o=gba" in out
        assert "(log y)" in out

    def test_export_fast(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "csv"), "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig3_speedup.csv" in out
        assert (tmp_path / "csv" / "fig7_reuse.csv").exists()

    def test_sweep(self, capsys):
        assert main(["sweep", "contraction.merge_threshold=0.5,0.8",
                     "--scale", "mini"]) == 0
        out = capsys.readouterr().out
        assert "merge_threshold" in out
        assert out.count("\n") >= 4  # header + rule + 2 rows

    def test_sweep_bad_axis(self):
        with pytest.raises(SystemExit):
            main(["sweep", "novalues", "--scale", "mini"])

    def test_analyze(self, tmp_path, capsys):
        trace_path = tmp_path / "t.npz"
        main(["trace", "fig5", str(trace_path), "--scale", "mini"])
        capsys.readouterr()
        assert main(["analyze", str(trace_path),
                     "--capacities", "50,500"]) == 0
        out = capsys.readouterr().out
        assert "reuse-distance histogram" in out
        assert "predicted LRU hit rate" in out
        assert "zipf exponent" in out

    def test_check_bad_nemesis_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--nemesis", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "'replica-kill'" in err
