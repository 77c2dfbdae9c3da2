"""End-to-end tests for the exploration driver: determinism, cache, resume."""

from __future__ import annotations

import pytest

from repro.common.errors import RunInterrupted
from repro.exec import context as exec_context
from repro.exec import journal as run_journal
from repro.exec.stores import STORE_ENV_VAR
from repro.explore import (
    ExploreError,
    ParamSpace,
    Study,
    get_objective,
    int_range,
    load_search_settings,
    log_range,
    resume_search,
    run_search,
    trajectory,
)
from repro.explore.space import choice
from repro.explore.studies import STUDIES


@pytest.fixture(autouse=True)
def _isolated_search(tmp_path, monkeypatch):
    """Fresh store base (hence fresh journal dir) and short traces."""
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "base"))
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    exec_context.reset()
    yield
    exec_context.reset()


def _tiny_study() -> Study:
    return Study(
        name="test-split",
        title="tiny split study for tests",
        space=ParamSpace(
            [int_range("deli_ways", 2, 4, step=2),
             log_range("epoch_misses", 5_000, 10_000)],
            num_cores=2,
        ),
        mix="mix2_1",
        accesses=12_000,
        objective="ws",
    )


class TestRunSearch:
    def test_exhaustive_run_produces_report(self, tmp_path):
        out = run_search(_tiny_study(), algo="grid", budget=4, seed=1,
                         output=tmp_path / "r.json")
        assert len(out.probes) == 4
        assert out.report_path.is_file()
        assert out.report["best"] is not None
        assert len(out.report["probes"]) == 4
        curve = trajectory(out.report)
        finite = [v for v in curve if v is not None]
        assert finite == sorted(finite)  # best-so-far is monotone for max

    def test_bad_budget_rejected(self):
        with pytest.raises(ExploreError, match="budget"):
            run_search(_tiny_study(), budget=0)

    def test_report_is_identical_serial_and_parallel(self, tmp_path):
        study = _tiny_study()
        run_search(study, algo="random", budget=4, seed=7,
                   output=tmp_path / "serial.json")
        exec_context.configure(jobs=4)
        run_search(study, algo="random", budget=4, seed=7,
                   output=tmp_path / "parallel.json")
        serial = (tmp_path / "serial.json").read_bytes()
        parallel = (tmp_path / "parallel.json").read_bytes()
        assert serial == parallel

    def test_warm_rerun_is_cache_served(self, tmp_path):
        study = _tiny_study()
        cold = run_search(study, algo="random", budget=4, seed=7,
                          output=tmp_path / "cold.json")
        warm = run_search(study, algo="random", budget=4, seed=7,
                          output=tmp_path / "warm.json")
        assert cold.computed_jobs > 0
        assert warm.cache_fraction >= 0.9
        assert (tmp_path / "cold.json").read_bytes() == \
            (tmp_path / "warm.json").read_bytes()

    def test_min_objective_best_is_lowest(self, tmp_path):
        out = run_search(_tiny_study(), algo="grid", budget=4, seed=1,
                         objective="mpki", output=tmp_path / "m.json")
        values = [p["objective"] for p in out.report["probes"]]
        assert out.report["best"]["objective"] == min(values)
        assert out.report["objective"]["direction"] == "min"

    def test_invalid_points_scored_without_simulation(self, tmp_path):
        study = Study(
            name="test-invalid",
            title="cross-dimension invalid corner",
            space=ParamSpace(
                [choice("num_candidate_pcs", (16, 32)),
                 choice("max_selected_pcs", (8, 24))],
                num_cores=2,
            ),
            mix="mix2_1",
            accesses=12_000,
            objective="ipc",
        )
        out = run_search(study, algo="grid", budget=4, seed=1,
                         output=tmp_path / "inv.json")
        rows = out.report["probes"]
        invalid = [r for r in rows if not r["valid"]]
        assert len(invalid) == 1
        assert invalid[0]["params"] == {
            "num_candidate_pcs": 16, "max_selected_pcs": 24,
        }
        assert invalid[0]["objective"] is None
        assert invalid[0]["job_keys"] == []
        assert out.report["best"]["params"]["max_selected_pcs"] != 24 or \
            out.report["best"]["params"]["num_candidate_pcs"] == 32


class TestJournalAndResume:
    def _interrupt_after(self, n: int):
        state = {"count": 0}

        def hook(_event):
            state["count"] += 1
            if state["count"] >= n:
                raise KeyboardInterrupt

        return hook

    def test_interrupt_closes_journal_and_names_run(self):
        study = _tiny_study()
        with pytest.raises(RunInterrupted) as excinfo:
            run_search(study, algo="grid", budget=4, seed=1,
                       progress=self._interrupt_after(2))
        run_id = excinfo.value.run_id
        summary = run_journal.find_run(run_id)
        assert summary.status == "interrupted"
        records = run_journal.read_records(summary.path)
        probes = [r for r in records if r.get("record") == "probe"]
        assert len(probes) == 2

    def test_resume_completes_without_reevaluating(self, tmp_path, monkeypatch):
        study = _tiny_study()
        monkeypatch.setitem(STUDIES, study.name, study)
        baseline = run_search(study, algo="grid", budget=4, seed=1,
                              output=tmp_path / "base.json")
        with pytest.raises(RunInterrupted) as excinfo:
            run_search(study, algo="grid", budget=4, seed=1,
                       output=tmp_path / "int.json",
                       progress=self._interrupt_after(2))
        resumed = resume_search(excinfo.value.run_id)
        assert resumed.replayed == 2
        assert len(resumed.probes) == 4
        assert resumed.report_path == (tmp_path / "int.json").resolve()
        assert (tmp_path / "int.json").read_bytes() == \
            (tmp_path / "base.json").read_bytes()
        # The two journaled probes replayed; their jobs never re-ran.
        assert all(not p.valid or p.objective is not None
                   for p in resumed.probes)

    def test_resume_of_completed_run_is_pure_replay(self, tmp_path, monkeypatch):
        study = _tiny_study()
        monkeypatch.setitem(STUDIES, study.name, study)
        out = run_search(study, algo="random", budget=4, seed=3,
                         output=tmp_path / "done.json")
        first = out.report_path.read_bytes()
        again = resume_search(out.run_id)
        assert again.replayed == 4
        assert again.computed_jobs == again.cached_jobs == 0
        assert again.report_path.read_bytes() == first

    def test_resume_rejects_non_explore_runs(self):
        journal = run_journal.RunJournal.create(["fig5"])
        journal.close("completed")
        with pytest.raises(ExploreError, match="not an exploration run"):
            load_search_settings(journal.run_id)

    def test_replay_mismatch_is_an_error(self):
        study = _tiny_study()
        bogus = {0: {"record": "probe", "index": 0,
                     "params": {"deli_ways": 99, "epoch_misses": 5_000},
                     "valid": True, "objective": 1.0}}
        with pytest.raises(ExploreError, match="replay mismatch"):
            run_search(study, algo="grid", budget=4, seed=1, transcript=bogus)

    def test_probe_records_carry_provenance(self):
        study = _tiny_study()
        out = run_search(study, algo="grid", budget=4, seed=1)
        records = run_journal.read_records(
            run_journal.find_run(out.run_id).path
        )
        start = [r for r in records if r.get("record") == "explore_start"]
        assert start and start[0]["space_hash"] == study.space.space_hash()
        probes = [r for r in records if r.get("record") == "probe"]
        assert len(probes) == 4
        for record in probes:
            assert record["cached"] + record["computed"] == len(record["job_keys"])
        # Something actually simulated, and its settle time was recorded.
        assert any(record["settle"] for record in probes)

    def test_search_seed_does_not_affect_store_keys(self, tmp_path):
        # Different --seed explores in a different order but shares every
        # store entry: the sim seed belongs to the study.
        study = _tiny_study()
        first = run_search(study, algo="random", budget=4, seed=1,
                           output=tmp_path / "a.json")
        second = run_search(study, algo="random", budget=4, seed=2,
                            output=tmp_path / "b.json")
        assert first.computed_jobs > 0
        assert second.computed_jobs == 0  # 4 probes = whole 4-point space

    def test_objective_validation(self):
        with pytest.raises(ExploreError, match="unknown objective"):
            run_search(_tiny_study(), objective="latency", budget=2)
        assert get_objective("ws").needs_alone
