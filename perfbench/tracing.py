"""Per-layer tracing of mhopf, installed from outside the package.

``Tracer.install()`` wraps public functions and methods of the ``mhopf``
modules.  A function wrapper is bound in every module namespace that holds
the original object, because ``from .linalg import span_rank`` copies the
name at import time; a method wrapper replaces the class attribute.

Three kinds of boundary:

* span    -- coarse entry points (check groups, smash/pairing/duality/aqg
             functions): one span each, with its parent span and the check
             group as request id, kept in memory until the run ends;
* timed   -- hot entry points (``Algebra.mul``, ``RegularMHA.cover``,
             elimination): a call count and the summed time of outermost calls;
* counted -- the hottest calls (``Scalar`` arithmetic, ``Element.basis``,
             ``add_into``): a count only, since timing millions of calls
             would swamp them.

Times are inclusive and counted only for the outermost call of each name,
so recursion never counts twice.  Each boundary also belongs to a layer
(a module of ``src/mhopf``); ``layer_time`` sums the time spent inside the
outermost call into that layer.

A target that the program no longer has is listed in ``missing`` and its
metrics stay 0, so a refactor never crashes a traced run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (metric stem, module, attribute path, layer)
SPANS = (
    ("algebras.radicals", "mhopf.algebras", "radicals", "algebras"),
    ("algebras.multiplier_space", "mhopf.algebras", "multiplier_space", "algebras"),
    ("mha.verify_axioms", "mhopf.mha", "verify_mha_axioms", "mha"),
    ("mha.local_units", "mhopf.mha", "find_local_units", "mha"),
    ("aqg.make_aqg", "mhopf.aqg", "make_aqg", "aqg"),
    ("aqg.finite_dual", "mhopf.aqg", "finite_dual", "aqg"),
    ("aqg.verify_integral", "mhopf.aqg", "verify_integral", "aqg"),
    ("aqg.iso_check", "mhopf.aqg", "verify_mha_isomorphism", "aqg"),
    ("serialize.instance_from_json", "mhopf.serialize", "instance_from_json", "serialize"),
    ("actions.verify_module_algebra", "mhopf.actions", "verify_module_algebra", "actions"),
    ("actions.fixed_points", "mhopf.actions", "fixed_points", "actions"),
    ("smash.construct", "mhopf.smash", "smash", "smash"),
    ("smash.pi_relations", "mhopf.smash", "verify_pi_relations", "smash"),
    ("smash.algebras_match", "mhopf.smash", "algebras_match", "smash"),
    ("pairing.pair_of_aqg", "mhopf.pairing", "pair_of_aqg", "pairing"),
    ("pairing.verify_pairing", "mhopf.pairing", "verify_pairing", "pairing"),
    ("pairing.heisenberg", "mhopf.pairing", "heisenberg_check", "pairing"),
    ("pairing.anti_isomorphism", "mhopf.pairing", "anti_isomorphism", "pairing"),
    ("pairing.rank_one", "mhopf.pairing", "rank_one_realization", "pairing"),
    ("duality.dual_action", "mhopf.duality", "dual_action", "duality"),
    ("duality.fixed_point", "mhopf.duality", "fixed_point_theorem_check", "duality"),
    ("duality.w_conjugation", "mhopf.duality", "w_conjugation", "duality"),
    ("duality.isomorphism", "mhopf.duality", "duality_isomorphism", "duality"),
    ("duality.bismash", "mhopf.duality", "bismash", "duality"),
    ("duality.coaction", "mhopf.duality", "verify_coaction", "duality"),
    ("duality.empirical", "mhopf.duality", "empirical_duality_check", "duality"),
)

TIMED = (
    ("algebras.mul", "mhopf.algebras", "Algebra.mul", "algebras"),
    ("mha.cover", "mhopf.mha", "RegularMHA.cover", "mha"),
    ("linalg.rref", "mhopf.linalg", "Matrix.rref", "linalg"),
    ("linalg.solve", "mhopf.linalg", "Matrix.solve", "linalg"),
    ("linalg.eliminator", "mhopf.linalg", "SparseEliminator.add", "linalg"),
    # the next three only feed the linalg layer time behind linalg.share
    ("linalg.nullspace", "mhopf.linalg", "Matrix.nullspace", "linalg"),
    ("linalg.linear_solve", "mhopf.linalg", "linear_solve", "linalg"),
    ("linalg.eliminator_reduce", "mhopf.linalg", "SparseEliminator.reduce", "linalg"),
    ("sweedler.eval", "mhopf.sweedler", "sweedler_eval", "sweedler"),
)

MODULES = (
    "mhopf.scalars",
    "mhopf.elements",
    "mhopf.linalg",
    "mhopf.algebras",
    "mhopf.mha",
    "mhopf.sweedler",
    "mhopf.aqg",
    "mhopf.instances",
    "mhopf.serialize",
    "mhopf.actions",
    "mhopf.smash",
    "mhopf.pairing",
    "mhopf.duality",
    "mhopf.cli",
)


def _rebind(orig, new) -> None:
    """Replace ``orig`` by ``new`` in every mhopf module namespace."""
    for name, mod in list(sys.modules.items()):
        if name == "mhopf" or name.startswith("mhopf."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


class Tracer:
    """Counters, outermost-call times and spans of one traced process."""

    def __init__(self):
        self.counts: dict = defaultdict(int)
        self.times: dict = defaultdict(float)
        self.layer_time: dict = defaultdict(float)
        self.spans: list = []  # [name, group, parent index, start, end]
        self.group = "setup"
        self.missing: list = []
        self._depth: dict = defaultdict(int)
        self._layer_depth: dict = defaultdict(int)
        self._open: list = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, layer: str, fn):
        """Wrap ``fn`` as a coarse boundary with a span."""
        spans, opened, depth, ldepth = self.spans, self._open, self._depth, self._layer_depth
        times, ltime, counts = self.times, self.layer_time, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, self.group, opened[-1] if opened else None, _clock(), None]
            opened.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            ldepth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = end = _clock()
                opened.pop()
                depth[name] -= 1
                ldepth[layer] -= 1
                counts[name] += 1
                if not depth[name]:
                    times[name] += end - rec[3]
                if not ldepth[layer]:
                    ltime[layer] += end - rec[3]

        return wrapper

    def timed(self, name: str, layer: str, fn, on_call=None):
        """Wrap ``fn`` as a hot boundary: count and outermost time, no span."""
        depth, ldepth = self._depth, self._layer_depth
        times, ltime, counts = self.times, self.layer_time, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_call is not None:
                on_call(args)
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            ldepth[layer] += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                depth[name] -= 1
                ldepth[layer] -= 1
                times[name] += dt
                if not ldepth[layer]:
                    ltime[layer] += dt

        return wrapper

    def check_group(self, name: str, thunk):
        """Wrap a suite thunk: its spans carry ``name`` as request id."""
        inner = self.span("check", "cli", thunk)

        def run():
            self.group = name
            try:
                return inner()
            finally:
                self.group = "teardown"

        return run

    # -- installation -----------------------------------------------------------

    def _resolve(self, module: str, path: str):
        mod = importlib.import_module(module)
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or attr not in vars(holder):
            self.missing.append(f"{module}.{path}")
            return None, None, None
        return holder, attr, vars(holder)[attr]

    def _wrap(self, module: str, path: str, make) -> None:
        holder, attr, orig = self._resolve(module, path)
        if orig is None:
            return
        if isinstance(orig, classmethod):
            new = classmethod(make(orig.__func__))
        else:
            new = make(orig)
        if isinstance(holder, type):
            setattr(holder, attr, new)
        else:
            _rebind(orig, new)

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(module)
        for name, module, path, layer in SPANS:
            self._wrap(module, path, lambda fn, n=name, l=layer: self.span(n, l, fn))
        for name, module, path, layer in TIMED:
            on_call = self._count_cells if name == "linalg.rref" else None
            self._wrap(
                module, path, lambda fn, n=name, l=layer, c=on_call: self.timed(n, l, fn, c)
            )
        self._install_counters()

    def _count_cells(self, args) -> None:
        m = args[0]
        self.counts["linalg.rref_cells"] += getattr(m, "m", 0) * getattr(m, "n", 0)

    def _install_counters(self) -> None:
        counts = self.counts
        self._wrap("mhopf.scalars", "Scalar.__mul__", self._scalar_mul)
        for op in ("__add__", "__sub__"):
            self._wrap("mhopf.scalars", f"Scalar.{op}", lambda fn: _counting(counts, "scalars.add", fn))
        self._wrap("mhopf.scalars", "Scalar.inverse", lambda fn: _counting(counts, "scalars.inverse", fn))
        self._wrap("mhopf.elements", "Element.basis", lambda fn: _counting(counts, "elements.basis_new", fn))
        self._wrap("mhopf.elements", "add_into", lambda fn: _counting(counts, "elements.add_into", fn))
        self._wrap("mhopf.algebras", "Algebra.mul_basis", lambda fn: _counting(counts, "algebras.mul_basis_calls", fn))
        self._wrap("mhopf.mha", "RegularMHA._t_pair", lambda fn: _counting(counts, "mha.cover_basis_pairs", fn))
        # the structure callables handed to the constructors: each call is
        # an underlying computation, i.e. a miss of the instance's memo
        self._wrap(
            "mhopf.algebras",
            "Algebra.__init__",
            lambda fn: _wrapping_ctor(fn, ("mul_basis",), 1, counts, "algebras.mul_basis_computed"),
        )
        self._wrap(
            "mhopf.mha",
            "RegularMHA.__init__",
            lambda fn: _wrapping_ctor(
                fn, ("t1_basis", "t2_basis", "t3_basis", "t4_basis"), 1, counts, "mha.t_computed"
            ),
        )

    def _scalar_mul(self, fn):
        counts = self.counts
        from mhopf.scalars import Scalar

        def mul(a, b):
            counts["scalars.mul"] += 1
            if isinstance(b, Scalar):
                if a.im or b.im:
                    counts["scalars.mul_complex"] += 1
                if (
                    a.re.denominator != 1
                    or a.im.denominator != 1
                    or b.re.denominator != 1
                    or b.im.denominator != 1
                ):
                    counts["scalars.mul_nonint"] += 1
            return fn(a, b)

        return mul

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data summary, sent from the traced process to the benchmark."""
        child = [0.0] * len(self.spans)
        for _name, _group, parent, start, end in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        self_times: dict = defaultdict(float)
        for i, (name, _group, _parent, start, end) in enumerate(self.spans):
            if end is not None:
                self_times[name] += end - start - child[i]
        return {
            "counts": dict(self.counts),
            "times": dict(self.times),
            "layer_time": dict(self.layer_time),
            "self_times": dict(self_times),
            "spans": len(self.spans),
            "missing": list(self.missing),
        }


def layer_metrics(snap: dict, certify_s: float, untraced_certify_s: float) -> dict:
    """The per-layer metrics {name: (value, unit)} of one traced run."""
    c = defaultdict(int, snap["counts"])
    t = defaultdict(float, snap["times"])

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(computed, lookups):
        return 1.0 - ratio(c[computed], c[lookups]) if c[lookups] else 0.0

    out = {
        "scalars.mul": (c["scalars.mul"], "count"),
        "scalars.add": (c["scalars.add"], "count"),
        "scalars.inverse": (c["scalars.inverse"], "count"),
        "scalars.nonint_share": (ratio(c["scalars.mul_nonint"], c["scalars.mul"]), "ratio"),
        "scalars.complex_share": (ratio(c["scalars.mul_complex"], c["scalars.mul"]), "ratio"),
        "elements.basis_new": (c["elements.basis_new"], "count"),
        "elements.add_into": (c["elements.add_into"], "count"),
        "algebras.mul_s": (t["algebras.mul"], "s"),
        "algebras.mul_calls": (c["algebras.mul"], "count"),
        "algebras.mul_basis_calls": (c["algebras.mul_basis_calls"], "count"),
        "algebras.mul_basis_hit_ratio": (
            hit_ratio("algebras.mul_basis_computed", "algebras.mul_basis_calls"),
            "ratio",
        ),
        "mha.cover_s": (t["mha.cover"], "s"),
        "mha.cover_calls": (c["mha.cover"], "count"),
        "mha.cover_basis_pairs": (c["mha.cover_basis_pairs"], "count"),
        "mha.t_basis_hit_ratio": (hit_ratio("mha.t_computed", "mha.cover_basis_pairs"), "ratio"),
        "linalg.rref_s": (t["linalg.rref"], "s"),
        "linalg.rref_calls": (c["linalg.rref"], "count"),
        "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
        "linalg.eliminator_s": (t["linalg.eliminator"], "s"),
        "linalg.eliminator_rows": (c["linalg.eliminator"], "count"),
        "linalg.solve_s": (t["linalg.solve"], "s"),
        "linalg.share": (ratio(snap["layer_time"].get("linalg", 0.0), certify_s), "ratio"),
        "sweedler.eval_s": (t["sweedler.eval"], "s"),
        "sweedler.eval_calls": (c["sweedler.eval"], "count"),
    }
    for name, _module, _path, _layer in SPANS:
        out[f"{name}_s"] = (t[name], "s")
    out["trace.certify_s"] = (certify_s, "s")
    out["trace.overhead"] = (ratio(certify_s, untraced_certify_s) - 1.0, "ratio")
    out["trace.spans"] = (snap["spans"], "count")
    return out


def _counting(counts: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrapping_ctor(init, names: tuple, first_pos: int, counts: dict, counter: str):
    """Wrap a constructor so the named callable arguments are counted.

    ``names`` are consecutive parameters starting at positional index
    ``first_pos`` (not counting ``self``).
    """

    def new_init(self, *args, **kwargs):
        args = list(args)
        for i, name in enumerate(names):
            pos = first_pos + i
            if name in kwargs and callable(kwargs[name]):
                kwargs[name] = _counting(counts, counter, kwargs[name])
            elif pos < len(args) and callable(args[pos]):
                args[pos] = _counting(counts, counter, args[pos])
        return init(self, *args, **kwargs)

    return new_init
