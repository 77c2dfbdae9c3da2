"""Golden equivalence tests for the fast-path access kernel.

The hot-path restructuring (slot-array :class:`CacheSet`, inlined LRU
stack operations, the engine's uninstrumented loop) is only legal if it
is *semantics-preserving*: every simulated number must be bit-identical
to the pre-optimization engine.  These tests pin that equivalence
against artifacts captured from the unoptimized kernel:

* ``tests/golden/simresults.json`` — ``SimResult.to_dict()`` payloads
  for 13 runs spanning every hot path (plain policies, NUcache, RRIP/
  SHiP/DIP families, UCP and the partitioned hybrid, prefetching, the
  bandwidth memory model).
* ``tests/golden/fig3_fig5_scale05.txt`` — full CLI stdout of
  ``REPRO_SCALE=0.05 run fig3 fig5``.
* ``tests/golden/fig9_fig10_fig12_fig13_table3_scale05.txt`` — CLI
  stdout of ``REPRO_SCALE=0.05 run fig9 fig10 fig12 fig13 table3
  --jobs 2``: the single-core sweeps and the drivers that mix their
  own weighted-speedup denominators.
* Three pinned :meth:`SimJob.key` hashes — a semantics-preserving
  refactor must not bump :data:`~repro.exec.job.ENGINE_VERSION` or
  otherwise move results in the content-addressed store.

The same payload assertions run twice: once with
``REPRO_ENGINE=scalar`` and once with ``REPRO_ENGINE=vector`` (the
default), pinning the vector backend to the
identical golden bytes (see ``tests/test_vector_engine.py`` for the
kernel- and engine-level fuzzing behind that guarantee).

If a change legitimately alters simulated numbers, recapture the golden
files (see ``docs/benchmarking.md``) *and* bump ``ENGINE_VERSION`` —
these tests failing together with a forgotten version bump is exactly
the bug they exist to catch.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exec.job import ENGINE_VERSION, SimJob
from repro.sim.runner import run_mix, run_single, run_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden runs: key -> thunk producing the SimResult.
_SINGLE_POLICIES = ["lru", "nucache", "srrip", "ship", "dip", "sdbp"]
_MIX_POLICIES = ["lru", "nucache", "tadip", "drrip", "ucp", "nucache-ucp"]


def _golden_payloads() -> dict:
    with open(GOLDEN_DIR / "simresults.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestSimResultGolden:
    """Every simulated payload matches the pre-optimization engine."""

    @pytest.fixture(autouse=True)
    def _scalar_backend(self, monkeypatch):
        from repro.sim.vector import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "scalar")

    @pytest.mark.parametrize("policy", _SINGLE_POLICIES)
    def test_single_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"single:art_like:{policy}"]
        result = run_single("art_like", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    @pytest.mark.parametrize("policy", _MIX_POLICIES)
    def test_mix_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"mix:mix2_1:{policy}"]
        result = run_mix("mix2_1", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    def test_prefetch_bandwidth_run_byte_identical(self):
        golden = _golden_payloads()["workload:stride-bandwidth:nucache"]
        result = run_workload(
            ["art_like", "mcf_like"], "nucache", None, 12_000, 7, 0.25,
            "stride", "bandwidth",
        )
        assert result.to_dict() == golden


class TestSimResultGoldenVectorBackend:
    """The vector backend reproduces the same golden payloads.

    Same runs as :class:`TestSimResultGolden`, but with
    ``REPRO_ENGINE=vector`` so :func:`repro.sim.vector.make_engine`
    selects :class:`~repro.sim.vector.VectorEngine`.  Plain-LRU and
    NUcache runs exercise the fully vectorized path; RRIP/partitioned
    runs and the prefetching one exercise the hybrid and scalar
    fallbacks; either way the payload must stay byte-identical to the
    scalar capture.
    """

    @pytest.fixture(autouse=True)
    def _vector_backend(self, monkeypatch):
        from repro.sim.vector import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "vector")

    @pytest.mark.parametrize("policy", _SINGLE_POLICIES)
    def test_single_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"single:art_like:{policy}"]
        result = run_single("art_like", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    @pytest.mark.parametrize("policy", _MIX_POLICIES)
    def test_mix_runs_byte_identical(self, policy):
        golden = _golden_payloads()[f"mix:mix2_1:{policy}"]
        result = run_mix("mix2_1", policy, 12_000, 20110212)
        assert result.to_dict() == golden

    def test_prefetch_bandwidth_run_byte_identical(self):
        golden = _golden_payloads()["workload:stride-bandwidth:nucache"]
        result = run_workload(
            ["art_like", "mcf_like"], "nucache", None, 12_000, 7, 0.25,
            "stride", "bandwidth",
        )
        assert result.to_dict() == golden


class TestStoreKeyStability:
    """Content-addressed store keys survive the refactor unchanged."""

    def test_engine_version_not_bumped(self):
        assert ENGINE_VERSION == 1

    def test_pinned_job_keys(self):
        assert SimJob.mix("mix2_1", "nucache", 50_000).key() == (
            "a8845177ceab456cbb1561e5b83e955a0cc35551abd1cff18380deb1ecec0c58"
        )
        assert SimJob.alone("art_like", 4, 50_000).key() == (
            "10ef1f7af280eb66b85b195e5588be84869b0c945e90a57652ec4da232d92452"
        )
        assert SimJob.single("art_like", "nucache", 20_000, deli_ways=4).key() == (
            "5ca17eb969a2f43e72347575488368bdad881c0e03fbb940a5e85c1182cf4e70"
        )


@pytest.mark.slow
class TestFigureStdoutGolden:
    """Figure CLI stdout is byte-identical to the captured runs."""

    @staticmethod
    def _run_stdout(argv, monkeypatch, tmp_path, capsys) -> str:
        from repro.cli import main
        from repro.exec import context as exec_context

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        exec_context.reset()
        try:
            assert main(["run", *argv]) == 0
        finally:
            exec_context.reset()
        return capsys.readouterr().out

    def test_fig3_fig5_stdout(self, monkeypatch, tmp_path, capsys):
        out = self._run_stdout(["fig3", "fig5"], monkeypatch, tmp_path, capsys)
        golden = (GOLDEN_DIR / "fig3_fig5_scale05.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_fig9_fig10_fig12_fig13_table3_stdout(self, monkeypatch, tmp_path, capsys):
        argv = ["fig9", "fig10", "fig12", "fig13", "table3", "--jobs", "2"]
        out = self._run_stdout(argv, monkeypatch, tmp_path, capsys)
        golden = (GOLDEN_DIR / "fig9_fig10_fig12_fig13_table3_scale05.txt").read_text(
            encoding="utf-8"
        )
        assert out == golden


def test_golden_artifacts_exist():
    """The captured artifacts ship with the repo (guards against loss)."""
    assert (GOLDEN_DIR / "simresults.json").is_file()
    assert (GOLDEN_DIR / "fig3_fig5_scale05.txt").is_file()
    assert (GOLDEN_DIR / "fig9_fig10_fig12_fig13_table3_scale05.txt").is_file()
    assert os.path.getsize(GOLDEN_DIR / "simresults.json") > 1_000
