"""Tests for the deterministic fuzz harness (repro.check.fuzz)."""

from __future__ import annotations

import json

import pytest

from repro.check import fuzz
from repro.common.errors import ReproError


class TestGrid:
    def test_quick_grid_covers_required_families(self):
        cases = fuzz.default_grid(quick=True)
        policies = {case.policy for case in cases}
        assert policies == set(fuzz.QUICK_POLICIES)
        assert all(case.accesses == 1200 for case in cases)

    def test_full_grid_is_a_superset(self):
        quick = {c.policy for c in fuzz.default_grid(quick=True)}
        full = {c.policy for c in fuzz.default_grid(quick=False)}
        assert quick < full

    def test_policy_and_access_overrides(self):
        cases = fuzz.default_grid(quick=True, policies=("lru",), accesses=99)
        assert {c.policy for c in cases} == {"lru"}
        assert all(c.accesses == 99 for c in cases)

    def test_partitioned_needs_a_way_per_core(self):
        for case in fuzz.default_grid(quick=False):
            assert case.ways - case.deli_ways >= 2


class TestStreams:
    def test_stream_is_deterministic(self):
        case = fuzz.FuzzCase(policy="lru", accesses=200)
        assert fuzz.generate_stream(case) == fuzz.generate_stream(case)

    def test_seed_changes_the_stream(self):
        a = fuzz.generate_stream(fuzz.FuzzCase(policy="lru", accesses=200))
        b = fuzz.generate_stream(
            fuzz.FuzzCase(policy="lru", accesses=200, seed=7)
        )
        assert a != b

    def test_case_round_trips_through_json(self):
        case = fuzz.FuzzCase(policy="nucache", sets=8, ways=8, deli_ways=3,
                             seed=42)
        assert fuzz.FuzzCase.from_dict(
            json.loads(json.dumps(case.to_dict()))
        ) == case


class TestShrinking:
    def test_shrinks_to_the_culprit(self):
        stream = [(block, 0, 0x400000, False) for block in range(40)]
        culprit = (17, 0, 0x400000, False)

        minimal = fuzz.shrink_stream(stream, lambda s: culprit in s)
        assert minimal == [culprit]

    def test_budget_bounds_replays(self):
        replays = []

        def still_fails(candidate):
            replays.append(1)
            return True  # always reproduces; only the budget stops us

        fuzz.shrink_stream([(i, 0, 0, False) for i in range(64)],
                           still_fails, budget=10)
        assert len(replays) <= 10


class TestReproducers:
    def test_forced_violation_writes_replayable_reproducer(self, tmp_path):
        case = fuzz.FuzzCase(policy="nucache", accesses=600)
        failure = fuzz.run_case(case, store_base=tmp_path, corrupt_after=300)
        assert failure is not None
        assert len(failure.stream) <= 600  # shrunk, never grown
        path = failure.reproducer_path
        assert path is not None and path.parent == tmp_path / "check"

        loaded_case, stream, corrupt_after = fuzz.load_reproducer(path)
        assert loaded_case == case
        assert stream == failure.stream
        assert fuzz.replay_stream(loaded_case, stream, corrupt_after) is not None

    def test_kernel_divergence_is_shrunk_and_replayable(self, tmp_path, monkeypatch):
        """A wrong vector NUcache kernel fails the nucache cases."""
        real = fuzz.nucache_stream

        def broken(llc, blocks, cores, pcs):
            hits, occupancy = real(llc, blocks, cores, pcs)
            hits[blocks % 7 == 3] ^= True  # mispredict one block class
            return hits, occupancy

        monkeypatch.setattr(fuzz, "nucache_stream", broken)
        case = fuzz.FuzzCase(policy="nucache", accesses=400)
        failure = fuzz.run_case(case, store_base=tmp_path)
        assert failure is not None
        assert "kernel" in failure.violation.violations[0]
        assert len(failure.stream) < 400
        loaded_case, stream, _ = fuzz.load_reproducer(failure.reproducer_path)
        assert fuzz.replay_stream(loaded_case, stream) is not None
        monkeypatch.setattr(fuzz, "nucache_stream", real)
        assert fuzz.replay_stream(loaded_case, stream) is None

    def test_clean_case_writes_nothing(self, tmp_path):
        case = fuzz.FuzzCase(policy="lru", accesses=300)
        assert fuzz.run_case(case, store_base=tmp_path) is None
        assert not (tmp_path / "check").exists() or not list(
            (tmp_path / "check").iterdir()
        )

    def test_unreadable_reproducer_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ReproError, match="unreadable reproducer"):
            fuzz.load_reproducer(path)
        path.write_text(json.dumps({"schema": 1}))  # missing keys
        with pytest.raises(ReproError):
            fuzz.load_reproducer(path)


class TestRunCheck:
    def test_small_sweep_is_clean(self):
        report = fuzz.run_check(quick=True, policies=("lru", "nucache"),
                                accesses=400)
        assert report.ok
        assert report.cases == 4  # two policies x two quick geometries

    def test_forced_violation_produces_exactly_one_failure(self, tmp_path,
                                                           monkeypatch):
        from repro.exec.stores import STORE_ENV_VAR

        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        lines = []
        report = fuzz.run_check(quick=True, policies=("nucache",),
                                accesses=400, force_violation=True,
                                progress=lines.append)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.reproducer_path is not None
        assert failure.reproducer_path.exists()
        assert any("DIVERGED" in line for line in lines)
