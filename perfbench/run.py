#!/usr/bin/env python3
"""Layered benchmark for lagsel.

    python3 perfbench/run.py                       # all workloads, untraced and traced
    python3 perfbench/run.py --workload lemma-corpus --seed 3 --trace 0

Load is a closed loop from one process with no threads: each item starts when
the previous one has finished.  Each workload runs in a fresh process, so
caches and peak memory stay separate; the seed is an argument and the library
sees only the generated inputs.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
(default: ``run_seconds`` in ``BENCHMARK.json``) and for at least
``MIN_ITEMS`` items, so that ten or more latencies lie beyond the 90th
percentile.  ``--trace 1`` runs the workload's fixed digest items once
untraced and once under the tracer, and reports per-layer metrics from the
traced pass.  Every item is checked after it runs, untimed; a failed check or
an exception counts into ``failed``.  At the default seed the canonical
outputs of the first items must hash to the digest in ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment: Python, row-reduction backend, CPU and commit.
Results taken under different backends are different programs; use
``compare.py`` to compare two runs, which refuses such pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
MIN_ITEMS = 100
SETUP_REPS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import lagsel; print(time.perf_counter() - t)"


def fresh_import_seconds() -> float:
    """Time of ``import lagsel`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip())


def environment() -> dict:
    import lagsel

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    backend = getattr(lagsel, "rref_backend", None)
    return {
        "python": platform.python_version(),
        # Without a backend switch only the pure-Python kernel exists.
        "rref_backend": backend() if backend else "python",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


class Loop:
    """Outcome of one pass over a workload's items."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.wall = 0.0
        self.digest = hashlib.sha256()
        self.digest_count = 0


def run_items(wl, seconds: float, min_items: int, max_items: int | None, tracer=None) -> Loop:
    """Closed loop: generate, run (timed), check; until time and ``min_items`` are both spent."""

    def span(name, opaque=False):
        return tracer.span(name, opaque) if tracer else contextlib.nullcontext()

    loop = Loop()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    i = 0
    while (i < min_items or clock() < deadline) and (max_items is None or i < max_items):
        with span("bench.generate", opaque=True):
            inp = wl.make(i)
        ok = True
        out = None
        with span("bench.item"):
            t0 = clock()
            try:
                out = wl.run(inp)
            except Exception:  # a failed item is counted, and the run goes on
                ok = False
                traceback.print_exc(limit=3)
            t1 = clock()
        loop.latencies.append(t1 - t0)
        with span("bench.check", opaque=True):
            if ok:
                try:
                    ok = bool(wl.check(inp, out))
                except Exception:
                    ok = False
                    traceback.print_exc(limit=3)
                if not ok:
                    print(f"{wl.name} item {i}: output check failed", file=sys.stderr)
            if i < wl.digest_items:
                canonical = wl.canonical(inp, out) if out is not None else None
                loop.digest.update(json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode())
                loop.digest.update(b"\n")
                loop.digest_count += 1
        loop.failed += not ok
        i += 1
    loop.wall = clock() - start
    return loop


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10, 20, ..., 90) by ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def measure_setup(wl) -> tuple[float, float]:
    """Median set-up time and median fresh-process import time over ``SETUP_REPS``."""
    totals, imports = [], []
    for _ in range(SETUP_REPS):
        imported = fresh_import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        totals.append(imported + time.perf_counter() - t0)
        imports.append(imported)
    return statistics.median(totals), statistics.median(imports)


def check_digest(name: str, seed: int, loop: Loop) -> bool:
    """Compare with ``digests.json`` at the default seed; other seeds only print it."""
    digest = loop.digest.hexdigest()
    print(f"digest {name} seed={seed} items={loop.digest_count} sha256={digest}")
    if seed != DEFAULT_SEED or loop.digest_count == 0:
        return True
    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(name)
    if expected is None:
        return True
    if loop.digest_count < expected["items"]:
        return True
    if digest != expected["sha256"]:
        print(f"DIGEST MISMATCH for {name}: expected {expected['sha256']}", file=sys.stderr)
        return False
    return True


def run_untraced(wl, args) -> tuple[Loop, dict]:
    setup_s, _ = measure_setup(wl)
    if args.items is not None:
        loop = run_items(wl, 0.0, args.items, args.items)
    else:
        loop = run_items(wl, args.seconds, max(MIN_ITEMS, wl.digest_items), None)
    lat = loop.latencies
    metrics = {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_ms_p50": (1000 * quantile(lat, 50), "ms"),
        "item_ms_p90": (1000 * quantile(lat, 90), "ms"),
        "setup_s": (setup_s, "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = quantile(lat, 90)
    print(f"items {len(lat)} (beyond p90: {sum(x > p90 for x in lat)}) wall {loop.wall:.3f}s")
    return loop, metrics


def run_traced(wl, args) -> tuple[Loop, dict]:
    from tracing import Tracer, layer_metrics

    _, import_s = measure_setup(wl)
    count = args.items if args.items is not None else wl.digest_items
    base = run_items(wl, 0.0, count, count)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        loop = run_items(wl, 0.0, count, count, tracer)
    finally:
        tracer.recording = False
        tracer.uninstall()
    agg = tracer.aggregate()
    metrics = layer_metrics(agg)
    self_s = agg["self_s"]
    # Layer self times should add up to the time spent in items, net of the
    # tracer's bookkeeping.  What no wrapper catches stays in bench.item.
    layers_s = sum(v for k, v in self_s.items() if not k.startswith("bench."))
    items_s = loop.wall - self_s["bench.generate"] - self_s["bench.check"] - agg["overhead_s"]
    metrics.update({
        "cli.import_ms": (1000 * import_s, "ms"),
        "trace.unattributed_ms": (1000 * self_s["bench.item"], "ms"),
        "trace.overhead_ms": (1000 * agg["overhead_s"], "ms"),
        "trace.wall_ms": (1000 * loop.wall, "ms"),
        "trace.attributed_frac": (layers_s / items_s, "ratio"),
        "trace_overhead": (sum(loop.latencies) / sum(base.latencies), "ratio"),
        "fail_frac": ((loop.failed + base.failed) / (2 * count), "ratio"),
    })
    for name in agg["missing"]:
        print(f"missing: {name} is no longer bound; its metrics are left out")
    loop.failed += base.failed
    loop.latencies += base.latencies
    return loop, metrics


def run_one(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        loop, metrics = (run_traced if args.trace else run_untraced)(wl, args)
    finally:
        wl.close()
    correct = check_digest(args.workload, args.seed, loop) and loop.failed == 0
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, untraced and then traced."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = (args.trace,) if args.trace is not None else (0, 1)
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.items is not None:
                cmd += ["--items", str(args.items)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of a timed run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: 0, or both with 'all')")
    parser.add_argument("--items", type=int, default=None,
                        help="run exactly this many items instead of a timed run (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "lagsel" / "__init__.py").is_file():
        print(f"error: no lagsel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.trace is None:
        args.trace = 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
