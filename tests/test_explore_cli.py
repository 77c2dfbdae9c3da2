"""Tests for the ``nucache-repro explore`` CLI and journal rendering."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exec import context as exec_context
from repro.exec import journal as run_journal
from repro.exec.stores import STORE_ENV_VAR


@pytest.fixture(autouse=True)
def _isolated_cli(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "base"))
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    exec_context.reset()
    yield
    exec_context.reset()


class TestExploreList:
    def test_lists_studies_algorithms_objectives(self, capsys):
        assert main(["explore", "list"]) == 0
        out = capsys.readouterr().out
        assert "nucache-split" in out
        assert "nucache-quota" in out
        assert "explore-smoke" in out
        assert "ga, grid, hill, random" in out
        assert "ws" in out


class TestExploreRun:
    def test_run_writes_report_and_prints_best(self, capsys, tmp_path):
        report_path = tmp_path / "explore.json"
        code = main([
            "explore", "run", "explore-smoke",
            "--algo", "random", "--budget", "3", "--seed", "5",
            "-o", str(report_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "best configuration" in captured.out
        assert "trajectory" in captured.out
        assert "cache-served" in captured.err
        payload = json.loads(report_path.read_text())
        assert payload["search"] == {"algo": "random", "seed": 5, "budget": 3}
        assert len(payload["probes"]) == 3

    def test_default_report_location(self, capsys, tmp_path):
        assert main([
            "explore", "run", "explore-smoke",
            "--algo", "grid", "--budget", "2",
        ]) == 0
        reports = list((tmp_path / "base" / "explore").glob("*.json"))
        assert len(reports) == 1

    def test_unknown_study_fails_cleanly(self, capsys):
        assert main(["explore", "run", "nope", "--budget", "2"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_rerun_is_cache_served_and_identical(self, capsys, tmp_path):
        argv = [
            "explore", "run", "explore-smoke",
            "--algo", "random", "--budget", "3", "--seed", "5",
        ]
        assert main(argv + ["-o", str(tmp_path / "a.json")]) == 0
        first = capsys.readouterr()
        assert main(argv + ["-o", str(tmp_path / "b.json"), "--jobs", "2"]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "100.0% cache-served" in second.err
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()


class TestExploreShowAndRuns:
    def _run_one(self, tmp_path):
        assert main([
            "explore", "run", "explore-smoke",
            "--algo", "grid", "--budget", "3",
            "-o", str(tmp_path / "r.json"),
        ]) == 0
        [summary] = run_journal.list_runs()
        return summary.run_id

    def test_show_by_run_id_renders_provenance(self, capsys, tmp_path):
        run_id = self._run_one(tmp_path)
        capsys.readouterr()
        assert main(["explore", "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "best configuration" in out
        assert "probe provenance" in out
        assert "cache-hit" in out

    def test_show_by_report_path(self, capsys, tmp_path):
        self._run_one(tmp_path)
        capsys.readouterr()
        assert main(["explore", "show", str(tmp_path / "r.json")]) == 0
        assert "best configuration" in capsys.readouterr().out

    def test_show_rejects_plain_runs(self, capsys, tmp_path):
        journal = run_journal.RunJournal.create(["fig5"])
        journal.close("completed")
        assert main(["explore", "show", journal.run_id]) == 2
        assert "not an exploration run" in capsys.readouterr().err

    def test_runs_show_renders_probe_records(self, capsys, tmp_path):
        run_id = self._run_one(tmp_path)
        capsys.readouterr()
        assert main(["runs", "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "explore: study=explore-smoke algo=grid" in out
        assert "probe   0:" in out
        assert "cache-hit" in out or "no jobs" in out

    def test_resume_completed_run_via_cli(self, capsys, tmp_path):
        run_id = self._run_one(tmp_path)
        before = (tmp_path / "r.json").read_bytes()
        capsys.readouterr()
        assert main(["explore", "resume", run_id]) == 0
        err = capsys.readouterr().err
        assert "replayed from journal" in err
        assert (tmp_path / "r.json").read_bytes() == before
