"""Tests for the report generator and harness utilities."""

import pytest

from repro import harness
from repro.analysis.report import PAPER_NOTES, _markdown_table, build_report
from repro.compiler import CompilerOptions


class TestMarkdownTable:
    def test_renders_headers_and_rows(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": None}]
        text = _markdown_table(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 1 | 2.50 |" in lines
        assert "| 3 | - |" in lines

    def test_empty_rows(self):
        assert "no rows" in _markdown_table([])


class TestReport:
    def test_report_from_precomputed_experiments(self):
        experiments = {"Table II": harness.table2()}
        text = build_report(experiments)
        assert "# EXPERIMENTS" in text
        assert "## Table II" in text
        assert "vrmpy" in text
        assert "Known deviations" in text

    def test_paper_notes_cover_all_experiments(self):
        expected = {
            "Table I", "Table II", "Table III", "Table IV", "Table V",
            "Figure 7", "Figure 8", "Figure 9", "Figure 10",
            "Figure 11", "Figure 12a", "Figure 12b", "Figure 13",
        }
        assert expected == set(PAPER_NOTES)


class TestHarnessUtilities:
    def test_print_rows_alignment(self, capsys):
        harness.print_rows(
            "Demo", [{"x": 1.0, "label": "abc"}, {"x": 22.5, "label": None}]
        )
        out = capsys.readouterr().out
        assert "== Demo ==" in out
        assert "22.50" in out
        assert "-" in out

    def test_print_rows_empty(self, capsys):
        harness.print_rows("Nothing", [])
        assert "no rows" in capsys.readouterr().out

    def test_fmt(self):
        assert harness._fmt(None) == "-"
        assert harness._fmt(1.234) == "1.23"
        assert harness._fmt("x") == "x"

    def test_compile_cached_identity(self):
        a = harness.compile_cached("wdsr_b")
        b = harness.compile_cached("wdsr_b")
        assert a is b

    def test_compile_cached_distinguishes_options(self):
        a = harness.compile_cached("wdsr_b")
        b = harness.compile_cached(
            "wdsr_b", CompilerOptions(packing="soft_to_hard")
        )
        assert a is not b

    def test_gcd2_latency_includes_dispatch(self):
        compiled = harness.compile_cached("wdsr_b")
        latency = harness.gcd2_latency_ms("wdsr_b")
        assert latency > compiled.latency_ms


class TestAbsoluteLatencyBand:
    """Modelled latencies land within ~3x of the paper's milliseconds
    (the simulator is not the authors' testbed, but it should not be
    an order of magnitude off either)."""

    @pytest.mark.parametrize(
        "name",
        ["mobilenet_v3", "resnet50", "wdsr_b", "fst", "cyclegan", "pixor"],
    )
    def test_within_band(self, name):
        from repro.models import MODELS

        measured = harness.gcd2_latency_ms(name)
        paper = MODELS[name].gcd2_ms
        assert paper / 3 <= measured <= paper * 3, (
            f"{name}: {measured:.1f} ms vs paper {paper} ms"
        )
