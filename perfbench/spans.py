"""Span recording around calls into coringlab's public functions.

The benchmark traces the program from the outside: ``install`` replaces
each listed function, in every coringlab module namespace that holds it,
by a wrapper that records a span (name, start, end, parent, command) and
a few size counters taken from the call's arguments and result.  The
originals are put back when the ``install`` context exits, so nothing in
``src/`` knows it is being traced.

Spans are kept in memory for one pass at a time; ``layer_metrics`` turns
one pass's spans into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to trace: where it lives, its span name, its counters.

    ``count(args, kwargs, result, before)`` returns a dict of counters for
    the span; ``before(args, kwargs)`` runs ahead of the call and its value
    is handed to ``count`` (used where a counter is a change of state).
    """

    module: str
    attr: str
    name: str
    count: object = None
    before: object = None


def _shape2(a):
    a = np.asarray(a)
    return (a.shape[0] if a.ndim > 1 else 1), a.shape[-1]


def _count_mul_mod(args, kwargs, result, before):
    m, k = _shape2(args[0])
    n = _shape2(args[1])[1]
    return {"mac": m * k * n, "bytes": 8 * (m * k + k * n + m * n)}


def _count_rref(args, kwargs, result, before):
    return {"rows_in": _shape2(args[1])[0], "rank_out": len(args[0].pivots) - before}


def _count_kernel(args, kwargs, result, before):
    return {"rows_in": _shape2(args[0])[0], "vars": _shape2(args[0])[1],
            "kernel_dim": len(result[1])}


def _count_power(args, kwargs, result, before):
    return {"ambient_dim": result.ambient_dim, "relation_rank": result.relations.dim,
            "quotient_dim": result.dim}


def _count_hom(args, kwargs, result, before):
    e, t = args[0], args[1]
    return {"vars": e.ambient.dim * t.dim, "hom_dim": result.dim}


TARGETS = (
    Target("coringlab.cli", "main", "cli.main"),
    Target("coringlab.schemas", "read_json", "schemas.load"),
    Target("coringlab.schemas", "load_algebra", "schemas.load"),
    Target("coringlab.schemas", "load_extension", "schemas.load"),
    Target("coringlab.schemas", "load_hopf", "schemas.load"),
    Target("coringlab.algebras", "validate", "algebras.validate"),
    Target("coringlab.linalg", "mul_mod", "linalg.mul_mod", _count_mul_mod),
    Target("coringlab.linalg", "RrefAccumulator.add", "linalg.rref", _count_rref,
           lambda args, kwargs: len(args[0].pivots)),
    Target("coringlab.linalg", "kernel_rows_with_free", "linalg.kernel", _count_kernel),
    Target("coringlab.linalg", "induced_map", "linalg.induced_map"),
    Target("coringlab.tensors", "balanced_power", "tensors.balanced_power", _count_power),
    Target("coringlab.tensors", "build_power", "tensors.build_power"),
    Target("coringlab.tensors", "mult_at", "tensors.mult_at"),
    Target("coringlab.homspaces", "build_hom", "homspaces.build_hom", _count_hom),
    Target("coringlab.homspaces", "BimoduleHomSpace.coords_of", "homspaces.coords_of"),
    Target("coringlab.hochschild", "build_complex", "hochschild.build_complex"),
    Target("coringlab.hochschild", "cup", "hochschild.cup"),
    Target("coringlab.hochschild", "cohomology_dims", "hochschild.cohomology_dims"),
    Target("coringlab.corings", "CoringWithGrouplike._axiom_failures",
           "corings.CoringWithGrouplike",
           lambda args, kwargs, result, before: {"carrier_dim": args[0].carrier_dim}),
    Target("coringlab.corings", "build_f2", "corings.build_f2"),
    Target("coringlab.corings", "endo_coring", "corings.endo_coring"),
    Target("coringlab.corings", "sweedler_coring", "corings.sweedler_coring"),
    Target("coringlab.corings", "hopf_coring", "corings.hopf_coring"),
    Target("coringlab.amitsur", "build_amitsur", "amitsur.build_amitsur"),
    Target("coringlab.amitsur", "omega_product", "amitsur.omega_product"),
    Target("coringlab.amitsur", "amitsur_cohomology", "amitsur.amitsur_cohomology"),
    Target("coringlab.amitsur", "verify_amitsur_dga", "amitsur.verify_amitsur_dga"),
    Target("coringlab.isomorphism", "build_fn", "isomorphism.build_fn"),
    Target("coringlab.isomorphism", "verify_main_theorem", "isomorphism.verify_main_theorem"),
    Target("coringlab.simplicial", "parse_complex", "simplicial.parse_complex"),
    Target("coringlab.simplicial", "incidence_extension", "simplicial.incidence_extension",
           lambda args, kwargs, result, before: {"incidence_dim": result.ambient.dim}),
    Target("coringlab.simplicial", "simplicial_cohomology", "simplicial.simplicial_cohomology"),
    Target("coringlab.simplicial", "gs_compare", "simplicial.gs_compare"),
)

# The layers are the package modules; a span belongs to the layer named
# by the part of its name before the first dot.
LAYERS = ("cli", "schemas", "algebras", "linalg", "tensors", "homspaces",
          "hochschild", "corings", "amitsur", "isomorphism", "simplicial")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in the same list, or -1
    command: str
    counters: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``command`` labels the spans of the call in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.command = ""

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self.stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = target.before(args, kwargs) if target.before else None
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = Span(target.name, 0.0, 0.0, parent, self.command)
            self.spans.append(span)
            self.stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if target.count:
                span.counters = target.count(args, kwargs, result, pre)
            return result

        return traced


def _resolve(target: Target):
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


@contextlib.contextmanager
def install(recorder: Recorder, targets=TARGETS):
    """Wrap every target wherever coringlab holds it; restore on exit.

    Module-level functions are imported by name into other coringlab
    modules, so each namespace that holds the original object gets the
    wrapper.  Methods are replaced once, on their class.
    """
    saved = []
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            wrapper = recorder.wrap(original, target)
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".", 1)[0] != "coringlab":
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children never overlap one another and lie
    inside their parent's interval.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _sum(spans, name, key):
    return sum(s.counters[key] for s in spans if s.name == name and s.counters)


def _max(spans, name, key):
    return max((s.counters[key] for s in spans if s.name == name and s.counters), default=0)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one pass: calls, self seconds, sizes, shares."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
    total = sum(selfs)

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    hom_parent = {i for i, s in enumerate(spans) if s.name == "homspaces.build_hom"}
    constraint_rows = sum(s.counters["rows_in"] for s in spans
                          if s.name == "linalg.kernel" and s.parent in hom_parent)
    rows_in = _sum(spans, "linalg.rref", "rows_in")
    rank_out = _sum(spans, "linalg.rref", "rank_out")
    out = {
        "tensors.balanced_power.calls": c("tensors.balanced_power"),
        "tensors.balanced_power.self_s": t("tensors.balanced_power"),
        "tensors.ambient_dim.max": _max(spans, "tensors.balanced_power", "ambient_dim"),
        "tensors.relation_rank.sum": _sum(spans, "tensors.balanced_power", "relation_rank"),
        "tensors.quotient_dim.sum": _sum(spans, "tensors.balanced_power", "quotient_dim"),
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.rref.self_s": t("linalg.rref"),
        "linalg.rref.rows_in": rows_in,
        "linalg.rref.rank_out": rank_out,
        "linalg.rref.useful_ratio": rank_out / rows_in if rows_in else 0.0,
        "corings.CoringWithGrouplike.self_s": t("corings.CoringWithGrouplike"),
        "corings.build_f2.self_s": t("corings.build_f2"),
        "corings.carrier_dim.max": _max(spans, "corings.CoringWithGrouplike", "carrier_dim"),
        "homspaces.build_hom.calls": c("homspaces.build_hom"),
        "homspaces.build_hom.self_s": t("homspaces.build_hom"),
        "homspaces.vars.sum": _sum(spans, "homspaces.build_hom", "vars"),
        "homspaces.constraint_rows.sum": constraint_rows,
        "homspaces.hom_dim.sum": _sum(spans, "homspaces.build_hom", "hom_dim"),
        "linalg.kernel.calls": c("linalg.kernel"),
        "linalg.kernel.self_s": t("linalg.kernel"),
        "hochschild.build_complex.self_s": t("hochschild.build_complex"),
        "simplicial.incidence_extension.self_s": t("simplicial.incidence_extension"),
        "simplicial.incidence_dim.max": _max(spans, "simplicial.incidence_extension",
                                             "incidence_dim"),
        "hochschild.cup.calls": c("hochschild.cup"),
        "hochschild.cup.self_s": t("hochschild.cup"),
        "amitsur.omega_product.calls": c("amitsur.omega_product"),
        "amitsur.omega_product.self_s": t("amitsur.omega_product"),
        "amitsur.verify_amitsur_dga.self_s": t("amitsur.verify_amitsur_dga"),
        "isomorphism.build_fn.self_s": t("isomorphism.build_fn"),
        "isomorphism.verify_main_theorem.self_s": t("isomorphism.verify_main_theorem"),
        "hochschild.cohomology_dims.self_s": t("hochschild.cohomology_dims"),
        "amitsur.amitsur_cohomology.self_s": t("amitsur.amitsur_cohomology"),
        "linalg.mul_mod.calls": c("linalg.mul_mod"),
        "linalg.mul_mod.self_s": t("linalg.mul_mod"),
        "linalg.mul_mod.mac": _sum(spans, "linalg.mul_mod", "mac"),
        "linalg.mul_mod.bytes": _sum(spans, "linalg.mul_mod", "bytes"),
        "linalg.induced_map.calls": c("linalg.induced_map"),
        "linalg.induced_map.self_s": t("linalg.induced_map"),
        "homspaces.coords_of.calls": c("homspaces.coords_of"),
        "cli.main.self_s": t("cli.main"),
    }
    for name in INCLUSIVE:
        out[f"{name}.total_s"] = inclusive_time(spans, name)
    own: dict[str, float] = {}
    charged: dict[str, float] = {}
    for s, layer, secs in zip(spans, charged_layers(spans), selfs):
        own_layer = s.name.split(".", 1)[0]
        own[own_layer] = own.get(own_layer, 0.0) + secs
        charged[layer] = charged.get(layer, 0.0) + secs
    for prefix, by_layer in (("share", own), ("charged_share", charged)):
        for layer in LAYERS:
            out[f"{prefix}.{layer}"] = by_layer.get(layer, 0.0) / total if total else 0.0
    return out


# Entry points whose time including callees backs a workload's claim
# about its dominant layer (see README.md).
INCLUSIVE = ("cli.main", "corings.CoringWithGrouplike", "linalg.rref", "homspaces.build_hom",
             "hochschild.cup", "amitsur.omega_product", "amitsur.verify_amitsur_dga",
             "isomorphism.verify_main_theorem")


def inclusive_time(spans: list[Span], name: str) -> float:
    """Seconds inside spans called ``name``, callees included, each counted once."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def charged_layers(spans: list[Span]) -> list[str]:
    """The layer each span's self time is charged to.

    linalg is the kernel every layer calls, so its spans are charged to
    the nearest enclosing span outside linalg; a linalg call with no such
    caller stays in linalg.  Parents precede their children in the list.
    """
    out: list[str] = []
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer == "linalg" and s.parent >= 0:
            layer = out[s.parent]
        out.append(layer)
    return out


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Metric-wise median over passes (all dicts carry the same keys)."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
