"""Per-layer spans, recorded from outside the program.

Each listed public function of ``toruspoly`` is wrapped, and the wrapper is
bound under every name that points at the original: the defining module,
each module that imported it (``toruspoly.suites.interpolate_tables`` as
well as ``toruspoly.poly.interpolate_tables``) and the package namespace.
Methods are wrapped on their class.  A missing name raises at install time,
so a rename in ``src/`` fails loudly instead of reporting zero calls.

A span's self time is its duration minus the time covered by the spans it
called.  ``rss_gain_mb`` is how much the process's peak RSS grew while the
span was open (children included).
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass


def _size(a) -> int:
    return int(getattr(a, "size", 0))


def _table_elems(p, n, arr, *_, **__) -> int:
    """rows x N of a batched table argument."""
    return _size(arr)


def _space(p, n) -> int:
    return p**n


# (layer.function, workloads that must exercise it, elems from the call's
# arguments or None).  The workloads are the ones whose wall_s the layer
# should move; see perfbench/README.md.
SPANS = (
    ("poly.interpolate_tables", ("roots-scan", "big-table"), _table_elems),
    ("poly.eval_layer_tables", ("roots-scan", "big-table"), _table_elems),
    ("poly.classical_coeffs", ("roots-scan", "big-table"), _table_elems),
    ("poly.eval_slot_batches", ("roots-scan",),
     lambda p, n, slots, coeffs, K: len(coeffs) * _space(p, n)),
    ("poly.degrees_from_coeffs", ("roots-scan",),
     lambda p, n, alpha, C: _size(C)),
    ("poly.CanonicalForm.eval_table", ("roots-scan", "big-table"),
     lambda self: _space(self.p, self.n)),
    ("poly.NCPoly.canonical", ("roots-scan", "big-table"),
     lambda self, *_, **__: _size(self.nums)),
    ("poly.NCPoly.pth_root", ("roots-scan", "big-table"),
     lambda self: _size(self.nums)),
    ("forms.bias", ("headline-exact",),
     lambda form, *_, **__: _space(form.p, form.n) ** max(form.k - 1, 0)),
    ("forms.dk_extract", ("headline-exact",), None),
    ("catalog.quartic_form", ("headline-exact",), None),
    ("norms.gowers_power_exact", ("headline-exact",),
     lambda P, d, *_, **__: _space(P.p, P.n) ** (d + 1)),
    ("norms.gowers_power", ("headline-exact",),
     lambda f, d, *_, **__: _space(f.p, f.n) ** (d + 1)),
    ("norms.gowers_norm", ("headline-exact",), None),
    ("norms.walsh_fourier", ("headline-exact",), lambda f: _space(f.p, f.n)),
    ("norms.analytic_rank", ("headline-exact",), None),
    ("core.UnityCounter.add_residues", ("headline-exact",),
     lambda self, residues: _size(residues)),
    ("core.UnityCounter.expectation", ("headline-exact",), None),
    ("weighted.WeightedPoly.pth_root", ("roots-scan",), None),
    ("weighted.weighted_degree", ("roots-scan",), None),
    ("cubescan.counted_equivalence", ("cube-groups",),
     lambda G, k, *_, **__: G.size ** (1 << k)),
    ("cubescan.equivalence_scan", ("cube-groups",),
     lambda G, k, *_, **__: G.size ** (1 << k)),
    ("cubescan.face_member_mask", ("cube-groups",),
     lambda tuples, *_, **__: _size(tuples)),
    ("cubescan.taylor_member_mask", ("cube-groups",),
     lambda tuples, *_, **__: _size(tuples)),
    ("cubescan.enumerate_cube_codes", ("cube-groups",), None),
    ("cubescan.preserves_cubes_fast", ("cube-groups",),
     lambda phi_codes, *_, **__: _size(phi_codes)),
    ("cubes.is_polynomial_map", ("cube-groups",),
     lambda phi, H, *_, **__: H.size),
    ("cubes.hk_taylor", ("cube-groups",), None),
    ("suites.run_suite", ("roots-scan", "cube-groups"), None),
)

STATS = (("self_s", "s"), ("calls", "count"), ("elems", "count"),
         ("rss_gain_mb", "MB"))
# Time in the benchmark's own code, outside every span.
GLUE = "bench.glue.self_s"
OVERHEAD = "trace.overhead_s"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name, _, elems in SPANS:
        for stat, unit in STATS:
            if stat != "elems" or elems is not None:
                out.append((f"{name}.{stat}", unit))
    return out + [(GLUE, "s"), (OVERHEAD, "s")]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    elems: int = 0
    rss_gain_mb: float = 0.0


class Tracer:
    """Installs the span wrappers; ``with Tracer() as t:`` restores the
    original bindings on exit."""

    def __init__(self):
        self.stats = {name: SpanStat() for name, _, _ in SPANS}
        # child-time accumulators; [0] collects the top-level spans
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    @property
    def covered_s(self) -> float:
        """Total time inside top-level spans."""
        return self._stack[0]

    def _wrap(self, name, fn, elems_fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if elems_fn is not None:
                stat.elems += elems_fn(*args, **kwargs)
            rss0 = _peak_rss_mb()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.self_s += dt - children
                stat.rss_gain_mb += _peak_rss_mb() - rss0

        span.__wrapped__ = fn
        return span

    def install(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "toruspoly"
                                         or key.startswith("toruspoly."))]
        for name, _, elems_fn in SPANS:
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules[f"toruspoly.{module_name}"]
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, elems_fn)
            if owner_path:          # a method: the class is shared
                self._bind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, original, wrapper)
        return self

    def _bind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
