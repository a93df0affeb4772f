"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every workload emits every metric named in ``BENCHMARK.json``
with its unit, that traced counts repeat exactly at one seed, that a
corrupted result is counted as a failure, and that the benchmark refuses to
run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ITEMS = 9
COUNT_SUFFIXES = (".calls", ".bits_max", ".kernels_per_call", ".intersects_per_step", ".hit_ratio")

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--trace", str(trace), "--items", str(ITEMS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= ITEMS, proc.stderr
    return result


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def counts(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_counts_repeat(workload):
    assert units(result_of(workload, 0)) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    first, second = result_of(workload, 1), result_of(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert counts(first) == counts(second)


def test_dropped_basis_row_is_caught(monkeypatch):
    import run
    import workloads
    from lagsel import linalg, presymplectic

    original = presymplectic.vergne_select

    def corrupted(b, flag=None):
        selection = original(b, flag)
        return linalg.Subspace(selection.ambient_dim, selection.basis[:-1], selection.pivots[:-1])

    for name, module in list(sys.modules.items()):
        if name.startswith("lagsel") and getattr(module, "vergne_select", None) is original:
            monkeypatch.setattr(module, "vergne_select", corrupted)
    loop = run.run_items(workloads.SelectScrambled(0), 0.0, 3, 3)
    assert loop.failed == 3


def test_digest_mismatch_at_default_seed_fails():
    import run

    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    loop = run.Loop()
    loop.digest_count = expected["lemma-corpus"]["items"]
    loop.digest.update(b"not the canonical outputs")
    assert not run.check_digest("lemma-corpus", run.DEFAULT_SEED, loop)
    assert run.check_digest("lemma-corpus", run.DEFAULT_SEED + 1, loop)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_restores_them_and_reports_missing(monkeypatch):
    import tracing
    from lagsel import linalg, presymplectic, schubert

    kernel, rref_int_rows = linalg.kernel, linalg._rref_int_rows
    from_vectors = vars(linalg.Subspace)["from_vectors"]
    monkeypatch.setitem(
        tracing.LAYERS, "linalg", tracing.LAYERS["linalg"] + [("gone", "lagsel.linalg", "no_such_function")]
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.kernel is presymplectic.kernel is not kernel
        assert linalg._rref_int_rows is not rref_int_rows
        tracer.recording = True
        with tracer.span("bench.item"):
            schubert.filtration(presymplectic.SkewForm.from_upper_entries(4, [(1, 2, 1), (3, 4, 2)]))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert linalg.kernel is presymplectic.kernel is kernel
    assert linalg._rref_int_rows is rref_int_rows
    assert vars(linalg.Subspace)["from_vectors"] is from_vectors
    metrics = tracing.layer_metrics(tracer.aggregate())
    assert "linalg.gone.calls" not in metrics
    assert metrics["linalg.kernel.calls"][0] > 0
    assert metrics["schubert.filtration.calls"][0] == 1
