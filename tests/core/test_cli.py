"""Tests for the experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for command in ("list", "table1", "logp"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_figure_options(self):
        parser = build_parser()
        args = parser.parse_args(["fig9", "--sizes", "8", "64"])
        assert args.sizes == [8, 64]
        args = parser.parse_args(["fig7", "--scale", "32"])
        assert args.scale == 32

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PowerMANNA" in out and "2/2 Mbyte" in out

    def test_logp(self, capsys):
        assert main(["logp"]) == 0
        out = capsys.readouterr().out
        assert "one-way latency" in out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--sizes", "8", "64"]) == 0
        out = capsys.readouterr().out
        assert "PowerMANNA" in out and "BIP" in out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--sizes", "8"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--scale", "64", "--sizes", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "transposed" in out

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--scale", "64", "--sizes", "16"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--scale", "64", "--subintervals", "512"]) == 0
        out = capsys.readouterr().out
        assert "DOUBLE" in out and "INT" in out


class TestBenchKernelSelection:
    def test_bench_list_prints_kernels(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7_matmult", "fig8_smp", "traffic_incast"):
            assert name in out

    def test_bench_unknown_kernel_clean_error(self, capsys):
        assert main(["bench", "--kernels", "no_such_kernel"]) == 2
        captured = capsys.readouterr()
        assert "unknown kernel(s) no_such_kernel" in captured.err
        assert "bench --list" in captured.err
        # one clean line on stderr, no traceback
        assert "Traceback" not in captured.err
