"""Per-layer tracing of confalg from outside the package.

A ``Tracer`` wraps the public entry points of each confalg layer for the
duration of a ``with`` block and restores the originals on exit.  Each
function is replaced in every ``confalg`` namespace that holds it, because
callers look names up in their own module: ``derivations`` calls
``confalg.derivations.reduce_rows``, not ``confalg.linsolve.reduce_rows``.

Two kinds of instrumentation:

* spans around layer entry points (``lca.conformal_bracket``,
  ``linsolve.reduce_rows``, ...).  A span records calls, total seconds
  (``.s``) and self seconds (``.self_s``: total minus the time of the
  layer spans it called).  Self time still includes the ``poly`` work the
  layer drove.  A span re-entered while already open (``build_chv`` calls
  ``build_csv``) is counted once, by its outermost call.
* aggregate counters for the ``poly`` layer and the scalar layer, which run
  tens of thousands of times per verdict.  ``MPoly.__mul__`` and
  ``MPoly.substitute`` are timed; ``poly.mul.s`` covers every product,
  including those made inside ``substitute`` and ``__pow__``.  Scalar
  ``GaussianRational`` operations are counted only.

Garbage-collector passes are counted and timed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

import confalg.catalog
import confalg.classify
import confalg.derivations
import confalg.lca
import confalg.linsolve
import confalg.modules
from confalg.poly import GaussianRational, MPoly

_clock = time.perf_counter

#: (metric prefix, module, function name) of every span
SPANS = (
    ("lca.conformal_bracket", confalg.lca, "conformal_bracket"),
    ("lca.check_jacobi", confalg.lca, "check_jacobi"),
    ("linsolve.reduce_rows", confalg.linsolve, "reduce_rows"),
    ("derivations.solve_graded_derivations", confalg.derivations, "solve_graded_derivations"),
    ("derivations.check_derivation", confalg.derivations, "check_derivation"),
    ("modules.check_module_axioms", confalg.modules, "check_module_axioms"),
    ("modules.relations_oracle", confalg.modules, "relations_oracle"),
    ("classify.classify_graded", confalg.classify, "classify_graded"),
    ("classify.classify_rank1", confalg.classify, "classify_rank1"),
    ("classify.certify_self_commuting_d_free", confalg.classify, "certify_self_commuting_d_free"),
    ("catalog.solve_construction", confalg.catalog, "solve_construction"),
    ("catalog.build", confalg.catalog, "build_construction"),
    ("catalog.build", confalg.catalog, "build_csv"),
    ("catalog.build", confalg.catalog, "build_chv"),
)

#: counters that depend only on the inputs, never on timing
DETERMINISTIC = (
    "poly.mul.calls",
    "poly.mul.term_pairs",
    "poly.substitute.calls",
    "poly.shift.calls",
    "poly.pow.calls",
    "poly.scalar_mul.calls",
    "poly.scalar_add.calls",
    "linsolve.reduce_rows.calls",
    "linsolve.reduce_rows.rows",
    "linsolve.reduce_rows.cols",
    "linsolve.reduce_rows.nnz",
    "linsolve.reduce_rows.rank",
    "lca.conformal_bracket.calls",
    "modules.check_module_axioms.checked",
    "classify.steps",
)


def _observe_reduce_rows(tracer, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    shape = {
        "rows": len(rows),
        "cols": args[2] if len(args) > 2 else kwargs["ncols"],
        "nnz": sum(len(row) for row in rows),
        "rank": result.rank,
    }
    tracer.systems.append(shape)
    for key, value in shape.items():
        tracer.stats["linsolve.reduce_rows." + key] += value


def _observe_module_check(tracer, args, kwargs, result) -> None:
    tracer.stats["modules.check_module_axioms.checked"] += result.checked


def _observe_classify(tracer, args, kwargs, result) -> None:
    tracer.stats["classify.steps"] += len(result.steps)


_OBSERVERS = {
    "linsolve.reduce_rows": _observe_reduce_rows,
    "modules.check_module_axioms": _observe_module_check,
    "classify.classify_graded": _observe_classify,
    "classify.classify_rank1": _observe_classify,
}


class Tracer:
    """Collects per-layer counts and times while active (``with tracer:``)."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        #: shape of every linear system passed to reduce_rows, in call order
        self.systems: list[dict[str, int]] = []
        self._open: list[list] = []          # [name, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` wherever confalg holds it."""
        holders = [m for name, m in sys.modules.items()
                   if name == "confalg" or name.startswith("confalg.")]
        holders += [MPoly, GaussianRational]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def _span(self, name: str, fn):
        stats = self.stats
        stack = self._open
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[name + ".calls"] += 1
                stats[name + ".s"] += dt
                stats[name + ".self_s"] += dt - frame[1]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _poly_wrappers(self):
        stats = self.stats
        mul, substitute = MPoly.__mul__, MPoly.substitute
        shift, power = MPoly.shift, MPoly.__pow__
        g_mul, g_add = GaussianRational.__mul__, GaussianRational.__add__
        of = MPoly.of

        def traced_mul(self, other):
            stats["poly.mul.calls"] += 1
            stats["poly.mul.term_pairs"] += len(self.terms) * len(of(other).terms)
            t0 = _clock()
            try:
                return mul(self, other)
            finally:
                stats["poly.mul.s"] += _clock() - t0

        def traced_substitute(self, name, value):
            stats["poly.substitute.calls"] += 1
            t0 = _clock()
            try:
                return substitute(self, name, value)
            finally:
                stats["poly.substitute.s"] += _clock() - t0

        def traced_shift(self, name, delta):
            stats["poly.shift.calls"] += 1
            return shift(self, name, delta)

        def traced_pow(self, power_):
            stats["poly.pow.calls"] += 1
            return power(self, power_)

        def traced_g_mul(self, other):
            stats["poly.scalar_mul.calls"] += 1
            return g_mul(self, other)

        def traced_g_add(self, other):
            stats["poly.scalar_add.calls"] += 1
            return g_add(self, other)

        return (
            (mul, traced_mul),
            (substitute, traced_substitute),
            (shift, traced_shift),
            (power, traced_pow),
            (g_mul, traced_g_mul),
            (g_add, traced_g_add),
        )

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.stats["runtime.gc_collections"] += 1
            self.stats["runtime.gc_s"] += _clock() - self._gc_start

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already active")
        wrappers = {}
        for name, module, attr in SPANS:
            fn = getattr(module, attr)
            wrappers[fn] = self._span(name, fn)
        wrappers.update(self._poly_wrappers())
        for fn, wrapper in wrappers.items():
            self._replace(fn, wrapper)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metric(self, name: str) -> float:
        return self.stats.get(name, 0.0)

    def deterministic_counts(self) -> dict[str, int]:
        return {name: int(self.metric(name)) for name in DETERMINISTIC}
