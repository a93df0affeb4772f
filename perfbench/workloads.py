"""The benchmark's four workloads.

Every item is generated from ``(workload, seed, index)`` alone, so the same
seed gives the same inputs in every run, whatever the timing.  Each workload
runs its items in a fixed cycle of sizes or kinds, so every seed gives the
same mix.  Cycle lengths are odd so that the median and the 90th percentile
fall inside one kind of item rather than on the edge between two kinds whose
costs differ several-fold.

The library is reached only through module attributes (``presymplectic.
vergne_select``, not a local binding), so the tracer's wrappers and the smoke
test's corrupted functions are what the benchmark calls.

Each workload has four steps per item: ``make`` (untimed input generation),
``run`` (the timed work), ``check`` (the untimed output gate) and
``canonical`` (the JSON-ready outputs that the digest covers).
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

from lagsel import cli, lie, linalg, presymplectic, probe, sampling, schubert, serialize, suites

ROOT = Path(__file__).resolve().parent.parent


def clear_caches() -> None:
    """Empty the library's memo caches, so every pass starts cold.

    A cache that a later change removes is simply skipped.
    """
    for fn in (lie.builtin, lie.verify_jordan_holder):
        for candidate in (fn, getattr(fn, "__wrapped__", None)):
            if hasattr(candidate, "cache_clear"):
                candidate.cache_clear()
                break


class Workload:
    name = ""
    cycle: tuple = ()
    # The first ``digest_items`` items are hashed into the run's digest; the
    # traced run executes exactly these items, so its counts are fixed.
    digest_items = 0
    # Warm-up items come from their own stream, never from the measured one.
    warmup_items = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Clear caches, build what the workload shares, run the warm-up items."""
        clear_caches()
        for i in range(self.warmup_items):
            self.run(self.make(i, stream="warmup"))

    def make(self, i: int, stream: str = "measure"):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def canonical(self, inp, out):
        raise NotImplementedError

    def close(self) -> None:
        pass

    def rng(self, i: int, stream: str) -> Random:
        """The generator of item ``i``: a function of workload, stream, seed and index only."""
        return Random(f"{self.name}/{stream}:{self.seed}:{i}")


class LemmaCorpus(Workload):
    """Criterion-3 trials: filtration lemmas plus the Lagrangian contract."""

    name = "lemma-corpus"
    # m in 2..7 like the criterion-3 corpus; m = 5 twice keeps the cycle odd.
    cycle = (2, 3, 4, 5, 5, 6, 7)
    digest_items = 140
    warmup_items = 7

    def make(self, i, stream="measure"):
        rng = self.rng(i, stream)
        m = self.cycle[i % len(self.cycle)]
        return m, sampling.random_skew_form(rng, m), sampling.random_flag(rng, m)

    def run(self, inp):
        m, b, flag = inp
        report = schubert.verify_filtration_lemmas(b, flag)
        selection = presymplectic.vergne_select(b, flag)
        radical = presymplectic.null_space(b)
        contract = (
            presymplectic.is_isotropic(b, selection),
            2 * selection.dim == m + radical.dim,
            linalg.contains(selection, radical),
        )
        return report, selection, contract

    def check(self, inp, out):
        report, _, contract = out
        return report.ok and all(contract)

    def canonical(self, inp, out):
        report, selection, contract = out
        return {
            "checks": [[c.name, c.passed] for c in report.checks],
            "selection": serialize.subspace_to_json(selection),
            "contract": list(contract),
        }


class SelectScrambled(Workload):
    """The ``polarize`` query at large m on scrambled flags."""

    name = "select-scrambled"
    cycle = (10, 14, 18)
    digest_items = 15
    warmup_items = 1

    def make(self, i, stream="measure"):
        rng = self.rng(i, stream)
        m = self.cycle[i % len(self.cycle)]
        return sampling.random_skew_form(rng, m), sampling.random_flag(rng, m)

    def run(self, inp):
        b, flag = inp
        selection = presymplectic.vergne_select(b, flag)
        signature = presymplectic.signature_vector(b, flag)
        cell = schubert.jump_indices(selection, flag)
        return selection, signature, cell

    def check(self, inp, out):
        b, _ = inp
        selection, signature, cell = out
        if not presymplectic.is_lagrangian(b, selection):
            return False
        try:
            return schubert.cell_to_signature(cell) == signature
        except ValueError:
            return False

    def canonical(self, inp, out):
        selection, signature, cell = out
        return {
            "selection": serialize.subspace_to_json(selection),
            "signature": list(signature.entries),
            "cell": list(cell.indices),
        }


# kind -> (pinned-nonzero, pinned-zero) positions, 1-based, one pair per
# stratum region; the same regions as the example-oracles suite.
_REGIONS = {
    "g54": [((1,), ()), ((2,), (1,)), ((3,), (1, 2)), ((), (1, 2, 3))],
    "g615": [((2,), ()), ((1,), (2,)), ((3,), (1, 2)), ((), (1, 2, 3))],
}

_DIMS = {"g54": 5, "g615": 6}
_PRESETS = tuple(sorted(suites.PROBE_PRESETS))
_PRESET_VERDICTS = {
    "discontinuity": "bounded-away evidence",
    "instratum": "gap->0 evidence",
}


def _random_upper_triangular(rng: Random, n: int) -> linalg.Matrix:
    # Upper triangular actions keep the standard flag a Jordan-Hölder chain.
    return linalg.Matrix(
        [[sampling.random_rational(rng, 3, 3) if r <= c else 0 for c in range(n)] for r in range(n)]
    )


class VergneBuiltins(Workload):
    """Builtin algebras on standard Jordan-Hölder flags, plus probe presets."""

    name = "vergne-builtins"
    cycle = ("g54", "g615", "heisenberg", "axb", "g54", "g615", "probe", "probe", "probe")
    digest_items = 180
    warmup_items = len(cycle)

    def setup(self):
        clear_caches()
        for kind in ("g54", "g615", "heisenberg:1", "heisenberg:2", "heisenberg:3"):
            lie.builtin(kind)
        super().setup()

    def make(self, i, stream="measure"):
        rng = self.rng(i, stream)
        slot = i % len(self.cycle)
        kind = self.cycle[slot]
        lap = i // len(self.cycle)
        if kind == "probe":
            return ("probe", _PRESETS[(3 * lap + slot) % len(_PRESETS)])
        if kind == "axb":
            n = 1 + lap % 4
            return ("axb", _random_upper_triangular(rng, n), sampling.random_functional_coeffs(rng, n + 1))
        if kind == "heisenberg":
            n = 1 + lap % 3
            pins = {"nonzero_at": (1,)} if lap % 2 == 0 else {"zero_at": (1,)}
            return (f"heisenberg:{n}", None, sampling.random_functional_coeffs(rng, 2 * n + 1, **pins))
        nonzero, zero = _REGIONS[kind][i % 4]
        return (kind, None, sampling.random_functional_coeffs(rng, _DIMS[kind], nonzero_at=nonzero, zero_at=zero))

    def run(self, inp):
        if inp[0] == "probe":
            kind, base, direction = suites.PROBE_PRESETS[inp[1]]
            built = lie.builtin(kind)
            return probe.functional_path_probe(
                built.algebra, built.flag, base, direction, suites.preset_samples(), Fraction(0)
            )
        kind, matrix, coeffs = inp
        built = lie.builtin(kind, matrix)
        xi = lie.Functional.of(coeffs)
        pol = lie.vergne_polarization(built.algebra, built.flag, xi)
        iso = lie.isotropy_subalgebra(built.algebra, xi)
        sig = lie.stratum(built.algebra, built.flag, xi)
        cell = schubert.jump_indices(pol, built.flag)
        return built, xi, pol, iso, sig, cell

    def check(self, inp, out):
        if inp[0] == "probe":
            return out.verdict == _PRESET_VERDICTS[inp[1].split("-", 1)[1]]
        built, xi, pol, iso, sig, _ = out
        return (
            pol == built.polarization_oracle(xi)
            and (built.isotropy_oracle is None or iso == built.isotropy_oracle(xi))
            and (built.stratum_oracle is None or sig == built.stratum_oracle(xi))
        )

    def canonical(self, inp, out):
        if inp[0] == "probe":
            return {"preset": inp[1], "report": serialize.path_probe_report_to_json(out)}
        built, xi, pol, iso, sig, cell = out
        return {
            "kind": built.kind,
            "xi": serialize.functional_to_json(xi),
            "polarization": serialize.subspace_to_json(pol),
            "isotropy": serialize.subspace_to_json(iso),
            "stratum": list(sig.entries),
            "cell": list(cell.indices),
        }


class CliJson(Workload):
    """``lagsel.cli.main([..., "--json"])`` in process, one command per item.

    Each item parses its arguments, loads its input files, computes and
    serializes its payload, as a CLI process does after start-up.  Start-up
    itself (a fresh interpreter importing ``lagsel``) is timed in ``setup_s``
    and ``cli.import_ms``, not per item: spawning a process per item made the
    latencies swing with the load on the machine.
    """

    name = "cli-json"
    cycle = ("polarize", "filtration", "vergne", "stratum", "cell", "probe", "verify", "builtin", "jump")
    digest_items = 36
    warmup_items = len(cycle)

    def __init__(self, seed):
        super().__init__(seed)
        # CLI input files stay inside the checkout.
        self._workdir = tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT)
        self.workdir = Path(self._workdir.name)

    def close(self):
        self._workdir.cleanup()

    def _write(self, name: str, payload) -> str:
        path = self.workdir / name
        # Set-up repeats the warm-up items.  Truncating a file that was just
        # written can make the file system flush it (ext4 does, ~0.1 s), so
        # each write goes to a new file.
        path.unlink(missing_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def make(self, i, stream="measure"):
        rng = self.rng(i, stream)
        command = self.cycle[i % len(self.cycle)]
        lap = i // len(self.cycle)
        tag = f"{stream}-{i}"
        if command in ("polarize", "filtration", "jump"):
            m = 6
            b = sampling.random_skew_form(rng, m)
            flag = sampling.random_flag(rng, m)
            flag_path = self._write(f"{tag}-flag.json", serialize.flag_to_json(flag))
            if command == "jump":
                sub = sampling.random_subspace(rng, m)
                path = self._write(f"{tag}-subspace.json", serialize.subspace_to_json(sub))
                return (command, ["jump", path, "--flag", flag_path], (sub, flag))
            path = self._write(f"{tag}-form.json", serialize.skew_form_to_json(b))
            return (command, [command, path, "--flag", flag_path], (b, flag))
        if command in ("vergne", "stratum"):
            # One algebra per command: vergne is the median kind of item, and
            # g54 and g615 differ by a third in its cost.
            kind = "g54" if command == "vergne" else "g615"
            nonzero, zero = _REGIONS[kind][lap % 4]
            coeffs = sampling.random_functional_coeffs(rng, _DIMS[kind], nonzero_at=nonzero, zero_at=zero)
            xi = ",".join(serialize.rational_to_str(c) for c in coeffs)
            # "--xi=" keeps a leading minus sign from reading as an option.
            return (command, [command, kind, f"--xi={xi}"], (kind, coeffs))
        if command == "cell":
            m = 6
            b = sampling.random_skew_form(rng, m)
            flag = sampling.random_flag(rng, m)
            cell = schubert.selection_cell(b, flag)
            jumps = ",".join(str(j) for j in cell.indices)
            return (command, ["cell", "--m", str(m), "--jumps", jumps], (m, cell.indices))
        if command == "probe":
            preset = _PRESETS[lap % len(_PRESETS)]
            return (command, ["probe", "--preset", preset], (preset,))
        if command == "verify":
            # Not filtration-lemmas: its trials range from 5 to 80 ms with the
            # random m, which moved p90 from seed to seed; lemma-corpus runs it.
            suite = "lagrangian-contract"
            seed = rng.randrange(10**6)
            return (command, ["verify", suite, "--seed", str(seed), "--trials", "3"], (suite, seed, 3))
        kind = ("g54", "g615", "heisenberg:2", "axb")[lap % 4]
        if kind == "axb":
            matrix = _random_upper_triangular(rng, 3)
            text = ";".join(",".join(serialize.rational_to_str(x) for x in row) for row in matrix.entries)
            return (command, ["builtin", "axb", f"--matrix={text}"], ("axb", matrix))
        return (command, ["builtin", kind], (kind, None))

    def run(self, inp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            returncode = cli.main(inp[1] + ["--json"])
        return returncode, out.getvalue()

    def check(self, inp, out):
        returncode, stdout = out
        if returncode != 0:
            return False
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return payload == self.expected(inp)

    def canonical(self, inp, out):
        returncode, stdout = out
        try:
            return {"returncode": returncode, "payload": json.loads(stdout)}
        except json.JSONDecodeError:
            return {"returncode": returncode, "stdout": stdout}

    def expected(self, inp):
        """The payload, computed from the library without the CLI."""
        return json.loads(json.dumps(self._compute(inp[0], inp[2])))

    def _compute(self, command, spec):
        if command in ("polarize", "filtration"):
            b, flag = spec
            if command == "filtration":
                return serialize.filtration_trace_to_json(schubert.filtration(b, flag))
            selection = presymplectic.vergne_select(b, flag)
            return {
                "selection": serialize.subspace_to_json(selection),
                "cell": list(schubert.jump_indices(selection, flag).indices),
                "signature": list(presymplectic.signature_vector(b, flag).entries),
            }
        if command == "jump":
            sub, flag = spec
            e = schubert.jump_indices(sub, flag)
            return {"jump": list(e.indices), "codim": len(e)}
        if command in ("vergne", "stratum"):
            kind, coeffs = spec
            built = lie.builtin(kind)
            xi = lie.Functional.of(coeffs)
            sig = list(lie.stratum(built.algebra, built.flag, xi).entries)
            if command == "stratum":
                return {"stratum": sig}
            pol = lie.vergne_polarization(built.algebra, built.flag, xi)
            return {
                "polarization": serialize.subspace_to_json(pol),
                "isotropy": serialize.subspace_to_json(lie.isotropy_subalgebra(built.algebra, xi)),
                "stratum": sig,
                "cell": list(schubert.jump_indices(pol, built.flag).indices),
            }
        if command == "cell":
            m, indices = spec
            sig = schubert.cell_to_signature(schubert.JumpSet(m, indices))
            return {"cell": list(indices), "signature": list(sig.entries)}
        if command == "probe":
            kind, base, direction = suites.PROBE_PRESETS[spec[0]]
            built = lie.builtin(kind)
            report = probe.functional_path_probe(
                built.algebra, built.flag, base, direction, suites.preset_samples(), Fraction(0)
            )
            return serialize.path_probe_report_to_json(report)
        if command == "verify":
            suite, seed, trials = spec
            return suites.run_suite(suite, seed=seed, trials=trials).to_json()
        kind, matrix = spec
        built = lie.builtin(kind, matrix)
        return {
            "kind": built.kind,
            "algebra": serialize.lie_algebra_to_json(built.algebra),
            "flag": serialize.flag_to_json(built.flag),
        }


WORKLOADS = {w.name: w for w in (LemmaCorpus, SelectScrambled, VergneBuiltins, CliJson)}
