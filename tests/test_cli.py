"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestModels:
    def test_lists_all_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("mobilenet_v3", "resnet50", "conformer"):
            assert name in out


class TestCompile:
    def test_compiles_with_defaults(self, capsys):
        assert main(["compile", "wdsr_b"]) == 0
        out = capsys.readouterr().out
        assert "latency:" in out
        assert "gcd2(13)" in out

    def test_plans_flag(self, capsys):
        assert main(["compile", "wdsr_b", "--plans"]) == 0
        out = capsys.readouterr().out
        assert "column" in out  # a layout name in the plan dump

    def test_json_flag_reports_search_effort(self, capsys):
        assert main(["compile", "mobilenet_v3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "mobilenet_v3"
        assert payload["selection"]["solver"] == "gcd2(13)"
        assert payload["selection"]["expansions"] > 0
        assert payload["diagnostics"]["selection_expansions"] == (
            payload["selection"]["expansions"]
        )
        assert payload["diagnostics"]["fallbacks"] == []
        assert payload["diagnostics"]["packing_bodies"] > 0
        assert payload["diagnostics"]["packing_work"] > 0

    def test_alternative_policies(self, capsys):
        assert main([
            "compile", "wdsr_b",
            "--selection", "local",
            "--packing", "soft_to_hard",
            "--unrolling", "none",
            "--no-other-opts",
        ]) == 0
        assert "local" in capsys.readouterr().out

    def test_unknown_model_rejected(self, capsys):
        # Bad model names are a library error (exit 1, one-line
        # message), not an argparse SystemExit — the argument also
        # accepts graph JSON paths.
        assert main(["compile", "alexnet"]) == 1
        err = capsys.readouterr().err
        assert "GraphError" in err
        assert "alexnet" in err


class TestExperiment:
    def test_experiment_names_cover_all_tables_and_figures(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5",
            "figure7", "figure8", "figure9", "figure10", "figure11",
            "figure12a", "figure12b", "figure13",
        }

    def test_runs_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "vrmpy" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table9"])


class TestExport:
    def test_export_writes_loadable_json(self, tmp_path, capsys):
        path = tmp_path / "wdsr.json"
        assert main(["export", "wdsr_b", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["name"] == "wdsr_b"
        from repro.graph.serialization import load_graph

        assert load_graph(path).operator_count() > 0


class TestDescribe:
    def test_describe_prints_digest(self, capsys):
        assert main(["describe", "wdsr_b"]) == 0
        out = capsys.readouterr().out
        assert "operator mix" in out
        assert "GEMM shape census" in out

    def test_describe_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["describe", "vgg"])


class TestChart:
    def test_experiment_chart_flag(self, capsys):
        assert main(["experiment", "figure12b", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # bars rendered

    def test_chartless_experiment_notes_fallback(self, capsys):
        assert main(["experiment", "table2", "--chart"]) == 0
        assert "no chart mapping" in capsys.readouterr().out


class TestRemovedSurface:
    """Process-pool packing and the pre-e2e ``bench`` tree are gone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "compile", "wdsr_b"],
            ["compile", "wdsr_b", "--jobs", "2"],
        ],
    )
    def test_argparse_rejects(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestCacheCommand:
    def test_stats_and_clear_round_trip(self, tmp_path, capsys):
        from repro.compiler import CompilerOptions, GCD2Compiler
        from tests.conftest import small_cnn

        cache_dir = str(tmp_path / "cache")
        GCD2Compiler(CompilerOptions(cache_dir=cache_dir)).compile(
            small_cnn()
        )
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "(current)" in out
        assert "entries (current schema): 0" not in out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries (current schema): 0" in out
        assert "generations: none" in out

    def test_compile_and_verify_honor_cache_env(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["compile", "wdsr_b"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries (current schema): 0" not in out

    def test_compile_cache_dir_flag_wins_over_env(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        assert main([
            "compile", "wdsr_b", "--cache-dir", str(explicit)
        ]) == 0
        assert explicit.is_dir()
        assert not (tmp_path / "env").exists()

    def test_stats_on_empty_root(self, tmp_path, capsys):
        assert main([
            "cache", "stats", "--cache-dir", str(tmp_path / "nothing")
        ]) == 0
        assert "generations: none" in capsys.readouterr().out
