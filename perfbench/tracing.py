"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``lagsel`` module from the
outside; nothing under ``src/`` knows about it.  Every module binding of a
wrapped function gets the same wrapper (``presymplectic`` imports ``kernel``
from ``linalg``, ``linalg`` binds the elimination kernel as
``_rref_int_rows``), and ``uninstall`` puts every original back.  A function
that a later refactor removes or renames is reported as missing, not traced.

Spans ``(name, start, end, parent)`` are kept in flat arrays in memory and
reduced to counts and self times at the end.  Each span also keeps the outer
interval of its wrapper, so the wrapper's own bookkeeping is charged to
``trace.overhead_ms`` rather than to the caller's self time.

``dot`` and ``as_rational`` are deliberately not wrapped: they run hundreds of
thousands of times per workload, and wrapping them would distort the run.
Their cost lands in the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> [(metric name, module, attribute path)].  The layer is the module.
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "linalg": [
        ("rref_int_rows", "lagsel.linalg", "_rref_int_rows"),
        ("rref", "lagsel.linalg", "rref"),
        ("kernel", "lagsel.linalg", "kernel"),
        ("intersect", "lagsel.linalg", "intersect"),
        ("subspace_sum", "lagsel.linalg", "subspace_sum"),
        ("from_vectors", "lagsel.linalg", "Subspace.from_vectors"),
        ("contains", "lagsel.linalg", "contains"),
    ],
    "presymplectic": [
        ("restrict", "lagsel.presymplectic", "restrict"),
        ("null_space", "lagsel.presymplectic", "null_space"),
        ("b_perp", "lagsel.presymplectic", "b_perp"),
        ("is_isotropic", "lagsel.presymplectic", "is_isotropic"),
        ("vergne_select", "lagsel.presymplectic", "vergne_select"),
        ("signature_vector", "lagsel.presymplectic", "signature_vector"),
        ("embed", "lagsel.presymplectic", "Flag.embed"),
    ],
    "schubert": [
        ("filtration", "lagsel.schubert", "filtration"),
        ("jump_indices", "lagsel.schubert", "jump_indices"),
        ("verify_filtration_lemmas", "lagsel.schubert", "verify_filtration_lemmas"),
        ("cell_to_signature", "lagsel.schubert", "cell_to_signature"),
    ],
    "lie": [
        ("algebra_init", "lagsel.lie", "LieAlgebra.__init__"),
        ("bracket", "lagsel.lie", "LieAlgebra.bracket"),
        ("coadjoint_form", "lagsel.lie", "coadjoint_form"),
        ("verify_jordan_holder", "lagsel.lie", "verify_jordan_holder"),
        ("is_subalgebra", "lagsel.lie", "LieAlgebra.is_subalgebra"),
        ("vergne_polarization", "lagsel.lie", "vergne_polarization"),
        ("isotropy_subalgebra", "lagsel.lie", "isotropy_subalgebra"),
        ("stratum", "lagsel.lie", "stratum"),
        ("builtin", "lagsel.lie", "builtin"),
    ],
    "probe": [
        ("gap", "lagsel.probe", "gap"),
        ("jacobi_eigenvalues", "lagsel.probe", "jacobi_eigenvalues"),
        ("functional_path_probe", "lagsel.probe", "functional_path_probe"),
    ],
    "cli": [
        ("main", "lagsel.cli", "main"),
    ],
}

# Every public function of this module is wrapped, under its own name, and
# reported as one layer total.
WHOLE_MODULE_LAYERS = {"serialize": "lagsel.serialize"}

# Functions whose lru_cache statistics are reported as hit ratios.
CACHED = ("lie.verify_jordan_holder", "lie.builtin")

# (inner, outer): count inner spans that have an outer span as an ancestor.
NESTED = (
    ("linalg.kernel", "presymplectic.vergne_select"),
    ("linalg.intersect", "schubert.filtration"),
)


def _rows_bits(rows) -> int:
    return max((max(map(int.bit_length, row), default=0) for row in rows), default=0)


def _selection_bits(args, result) -> int:
    bits = 0
    for row in result.basis:
        for x in row:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


# name -> (bits metric, observer before the call, observer after it).  The
# observers run outside the inner span, so their cost counts as tracing
# overhead.  The kernel reduces its integer rows in place: the first observer
# sees the lcm-scaled input rows, the second the primitive output rows.
# Growth inside the kernel, between the two, is not visible from outside.
BITS_HOOKS = {
    "linalg.rref_int_rows": (
        "linalg.rref",
        lambda args: _rows_bits(args[0]),
        lambda args, result: _rows_bits(args[0]),
    ),
    "presymplectic.vergne_select": ("presymplectic.vergne_select", None, _selection_bits),
}
STEP_HOOKS = {"schubert.filtration": lambda result: result.d}


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) or None when the binding is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Wraps library functions and records spans while ``recording`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.outer_start = array("d")
        self.start = array("d")
        self.end = array("d")
        self.outer_end = array("d")
        self.stack: list[int] = []
        self.recording = False
        self.bits: dict[str, int] = {}
        self.steps: dict[str, int] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, object]] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int, t_outer: float) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.outer_start.append(t_outer)
        self.start.append(0.0)
        self.end.append(0.0)
        self.outer_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        bits_key, bits_before, bits_after = BITS_HOOKS.get(name, (None, None, None))
        step_hook = STEP_HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def note_bits(bits: int) -> None:
            if bits > tracer.bits.get(bits_key, -1):
                tracer.bits[bits_key] = bits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(nid, clock())
            if bits_before is not None:
                note_bits(bits_before(args))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.outer_end[idx] = t1
            if bits_after is not None:
                note_bits(bits_after(args, result))
            if step_hook is not None:
                tracer.steps[name] = tracer.steps.get(name, 0) + step_hook(result)
            tracer.outer_end[idx] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        """A benchmark-level span; with ``opaque`` its callees are not recorded."""
        was = self.recording
        idx = self._open(self._id(name), time.perf_counter())
        self.recording = was and not opaque
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.recording = was
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.outer_end[idx] = t1

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "lagsel" or name.startswith("lagsel."))
        ]

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _install_function(self, name: str, owner, attr: str, raw) -> None:
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._patch(owner, attr, self._wrap(raw, name))
            return
        wrapper = self._wrap(raw, name)
        for module in self._modules():
            for binding, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, binding, wrapper)
        if hasattr(raw, "cache_info"):
            self._caches[name] = (raw, raw.cache_info())

    def install(self) -> None:
        """Wrap every listed function; names that no longer resolve go to ``missing``."""
        for layer, entries in LAYERS.items():
            for metric, module, path in entries:
                name = f"{layer}.{metric}"
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(name)
                else:
                    self._install_function(name, *found)
        for layer, module_name in WHOLE_MODULE_LAYERS.items():
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module_name
                ):
                    self._install_function(f"{layer}.{attr}", module, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Counts, self times, nesting counts and cache deltas.

        Parents are recorded before their children, so one forward pass
        tells for every span whether it lies under a span of a given name.
        """
        n = len(self.name_ids)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        child_outer = [0.0] * n
        overhead = 0.0
        for i in range(n):
            outer = self.outer_end[i] - self.outer_start[i]
            p = self.parents[i]
            if p >= 0:
                child_outer[p] += outer
            overhead += outer - (self.end[i] - self.start[i])
        for i in range(n):
            name = self.names[self.name_ids[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - child_outer[i]
        nested = {}
        for inner, outer in NESTED:
            inner_id, outer_id = self._ids.get(inner), self._ids.get(outer)
            count = 0
            if inner_id is not None and outer_id is not None:
                under = bytearray(n)
                for i in range(n):
                    p = self.parents[i]
                    under_here = self.name_ids[i] == outer_id or (p >= 0 and under[p])
                    under[i] = under_here
                    if self.name_ids[i] == inner_id and p >= 0 and under[p]:
                        count += 1
            nested[f"{inner}@{outer}"] = count
        cache = {}
        for name, (fn, before) in self._caches.items():
            info = fn.cache_info()
            cache[name] = [info.hits - before.hits, info.misses - before.misses]
        return {
            "calls": calls,
            "self_s": self_s,
            "nested": nested,
            "cache": cache,
            "steps": dict(self.steps),
            "bits": dict(self.bits),
            "overhead_s": overhead,
            "missing": sorted(self.missing),
        }


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """Flat per-layer metrics ``name -> (value, unit)`` from an aggregate.

    A function listed in ``LAYERS`` whose binding is gone is left out, and
    so is every ratio built on it.
    """
    calls, self_s = agg["calls"], agg["self_s"]
    missing = set(agg["missing"])
    out: dict[str, tuple[float, str]] = {}
    layer_self = {}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    for layer, entries in LAYERS.items():
        for metric, _, _ in entries:
            name = f"{layer}.{metric}"
            if name in missing:
                continue
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_ms"] = (1000 * self_s.get(name, 0.0), "ms")
        out[f"{layer}.self_ms"] = (1000 * layer_self.get(layer, 0.0), "ms")
    for layer in WHOLE_MODULE_LAYERS:
        out[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.startswith(layer + ".")), "count")
        out[f"{layer}.self_ms"] = (1000 * layer_self.get(layer, 0.0), "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    if "linalg.rref_int_rows" not in missing:
        out["linalg.rref.bits_max"] = (agg["bits"].get("linalg.rref", 0), "bits")
    if "presymplectic.vergne_select" not in missing:
        out["presymplectic.vergne_select.bits_max"] = (agg["bits"].get("presymplectic.vergne_select", 0), "bits")
        if "linalg.kernel" not in missing:
            out["presymplectic.vergne_select.kernels_per_call"] = (
                ratio(agg["nested"].get("linalg.kernel@presymplectic.vergne_select", 0),
                      calls.get("presymplectic.vergne_select", 0)),
                "count",
            )
    if "schubert.filtration" not in missing and "linalg.intersect" not in missing:
        out["schubert.filtration.intersects_per_step"] = (
            ratio(agg["nested"].get("linalg.intersect@schubert.filtration", 0),
                  agg["steps"].get("schubert.filtration", 0)),
            "count",
        )
    for name in CACHED:
        if name in agg["cache"]:
            hits, misses = agg["cache"][name]
            out[f"{name}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    return out
