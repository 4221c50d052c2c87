"""Span tracing of ncgraded from outside the library.

Each traced layer is a set of public functions and methods.  While a
`Tracer` is installed, every such callable is replaced by a wrapper that
records one span (name, start, end, parent span, task id) per call.  Module
functions are replaced in every ncgraded module that bound them, because a
`from .gmodule import hom_basis` copy would otherwise keep calling the
original; methods are replaced on the class that defines them.  A few
callables (scalar field operations) are only counted, since they run
millions of times and a span each would swamp the run.  They are counted
in rounds of their own, with no spans installed, so that the cost of
counting them never lands in a span's time.

Spans are kept in flat arrays and written out when the run ends.  Layer
metrics are computed from them afterwards: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np

# (module, qualified name, span name).  The span name's prefix is the layer.
SPANS = [
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("freealg", "NcPoly.__add__", "freealg.arith"),
    ("freealg", "NcPoly.__sub__", "freealg.arith"),
    ("freealg", "NcPoly.__mul__", "freealg.arith"),
    ("freealg", "NcPoly.__neg__", "freealg.arith"),
    ("freealg", "NcPoly.scale", "freealg.arith"),
    ("gbasis", "truncated_groebner", "gbasis.completion"),
    ("gbasis", "TruncatedGB.normal_form", "gbasis.normal_form"),
    ("gbasis", "TruncatedGB.normal_words", "gbasis.normal_words"),
    ("algebra", "PresentedAlgebra.mult_tensor", "algebra.mult_tensor"),
    ("algebra", "TabulatedAlgebra.mult_tensor", "algebra.mult_tensor"),
    ("algebra", "AlgebraOracle.left_mult_matrix", "algebra.left_mult_matrix"),
    ("algebra", "AlgebraOracle.right_mult_matrix", "algebra.right_mult_matrix"),
    ("gmodule", "module_from_cover", "gmodule.module_build"),
    ("gmodule", "free_graded_module", "gmodule.module_build"),
    ("gmodule", "cyclic_module", "gmodule.module_build"),
    ("gmodule", "direct_sum", "gmodule.module_build"),
    ("gmodule", "shift_module", "gmodule.module_build"),
    ("gmodule", "twist_module", "gmodule.module_build"),
    ("gmodule", "dual_module", "gmodule.module_build"),
    ("gmodule", "GradedModule.presentation", "gmodule.presentation"),
    ("gmodule", "hom_basis", "gmodule.hom_basis"),
    ("gmodule", "HomElement.matrix", "gmodule.hom_matrix"),
    ("gmodule", "compose_hom", "gmodule.compose"),
    ("projfree", "ProjFree.act", "projfree.act"),
    ("projfree", "ProjFree.action_block", "projfree.action_block"),
    ("projfree", "scan_minimal_generators", "projfree.scan"),
    ("projfree", "Morphism.matrix", "projfree.morphism_matrix"),
    ("homology", "free_resolution", "homology.resolution"),
    ("homology", "ext_graded_dims", "homology.ext"),
    ("homology", "are_isomorphic_graded", "homology.iso"),
    ("homology", "end0_algebra", "homology.end0"),
    ("homology", "eval_iso_check", "homology.eval_iso"),
    ("findim", "radical_basis", "findim.radical"),
    ("findim", "primitive_idempotents", "findim.idempotents"),
    ("findim", "gabriel_quiver", "findim.quiver"),
    ("endo", "EndoAlgebra.__init__", "endo.endo_build"),
    ("endo", "EndoAlgebra._compose_tensor", "endo.compose_tensor"),
    ("endo", "as_regular_over_R_check", "endo.as_regular"),
    ("endo", "b0_module", "endo.b0_module"),
    ("koszul", "quadratic_dual", "koszul.dual"),
    ("koszul", "clifford_algebra", "koszul.clifford"),
    ("koszul", "enumerate_projective_points", "koszul.points"),
    ("cli", "parse_workspace", "cli.parse_workspace"),
    ("cli", "make_report", "cli.report"),
    ("cli", "_emit", "cli.report"),
]

# Per-element field operations: counted, in rounds without spans.
COUNTED = [
    ("scalars", f"Field.{op}", "scalars.op_calls")
    for op in ("__call__", "add", "sub", "mul", "neg", "inv", "div", "is_zero")
]
COUNTED_KEYS = {key for _, _, key in COUNTED}

# name -> (unit, better, how).  how is one of
#   ("self", span)    summed self time of the span name
#   ("incl", span)    summed duration of the span name
#   ("calls", span, ...)  number of spans with any of the names
#   ("count", key)    a counter kept by the hooks below
#   ("max", key)      a maximum kept by the hooks below (not divided by rounds)
#   ("ratio", num, den)  counter num / counter den (0 when den is 0)
LAYER_METRICS = {
    "scalars.op_calls": ("count", "lower", ("count", "scalars.op_calls")),
    "linalg.rref_calls": ("count", "lower", ("calls", "linalg.rref")),
    "linalg.rref_s": ("s", "lower", ("self", "linalg.rref")),
    "linalg.rref_cells": ("count", "lower", ("count", "linalg.rref_cells")),
    "linalg.rref_max_cells": ("count", "lower", ("max", "linalg.rref_max_cells")),
    "linalg.solve_calls": ("count", "lower", ("calls", "linalg.solve")),
    "linalg.nullspace_calls": ("count", "lower", ("calls", "linalg.nullspace")),
    "freealg.arith_calls": ("count", "lower", ("calls", "freealg.arith")),
    "freealg.arith_s": ("s", "lower", ("self", "freealg.arith")),
    "gbasis.completion_s": ("s", "lower", ("self", "gbasis.completion")),
    "gbasis.gb_elements": ("count", "lower", ("count", "gbasis.gb_elements")),
    "gbasis.normal_form_calls": ("count", "lower", ("calls", "gbasis.normal_form")),
    "gbasis.normal_form_s": ("s", "lower", ("self", "gbasis.normal_form")),
    "gbasis.useful_reduction_ratio": (
        "ratio", "higher", ("ratio", "gbasis.nf_nonzero_in_completion", "gbasis.nf_in_completion")),
    "gbasis.normal_words_s": ("s", "lower", ("self", "gbasis.normal_words")),
    "algebra.mult_tensor_calls": ("count", "lower", ("calls", "algebra.mult_tensor")),
    "algebra.mult_tensor_hit_ratio": (
        "ratio", "higher", ("ratio", "algebra.mult_tensor_hits", "algebra.mult_tensor_calls")),
    "algebra.mult_tensor_s": ("s", "lower", ("self", "algebra.mult_tensor")),
    "algebra.mult_matrix_calls": (
        "count", "lower", ("calls", "algebra.left_mult_matrix", "algebra.right_mult_matrix")),
    "algebra.left_mult_matrix_calls": ("count", "lower", ("calls", "algebra.left_mult_matrix")),
    "algebra.right_mult_matrix_calls": ("count", "lower", ("calls", "algebra.right_mult_matrix")),
    "algebra.mult_matrix_s": (
        "s", "lower", ("self", "algebra.left_mult_matrix", "algebra.right_mult_matrix")),
    "gmodule.module_build_s": ("s", "lower", ("self", "gmodule.module_build")),
    "gmodule.presentation_s": ("s", "lower", ("self", "gmodule.presentation")),
    "gmodule.presentation_hit_ratio": (
        "ratio", "higher", ("ratio", "gmodule.presentation_hits", "gmodule.presentation_calls")),
    "gmodule.hom_basis_calls": ("count", "lower", ("calls", "gmodule.hom_basis")),
    "gmodule.hom_basis_repeat_ratio": (
        "ratio", "lower", ("ratio", "gmodule.hom_basis_repeats", "gmodule.hom_basis_calls")),
    "gmodule.hom_basis_s": ("s", "lower", ("self", "gmodule.hom_basis")),
    "gmodule.hom_matrix_s": ("s", "lower", ("self", "gmodule.hom_matrix")),
    "gmodule.compose_calls": ("count", "lower", ("calls", "gmodule.compose")),
    "projfree.act_calls": ("count", "lower", ("calls", "projfree.act")),
    "projfree.act_s": ("s", "lower", ("self", "projfree.act")),
    "projfree.action_block_calls": ("count", "lower", ("calls", "projfree.action_block")),
    "projfree.action_block_s": ("s", "lower", ("self", "projfree.action_block")),
    "projfree.scan_s": ("s", "lower", ("self", "projfree.scan")),
    "projfree.morphism_matrix_s": ("s", "lower", ("self", "projfree.morphism_matrix")),
    "homology.resolution_calls": ("count", "lower", ("calls", "homology.resolution")),
    "homology.resolution_hit_ratio": (
        "ratio", "higher", ("ratio", "homology.resolution_hits", "homology.resolution_calls")),
    "homology.resolution_s": ("s", "lower", ("self", "homology.resolution")),
    "homology.ext_s": ("s", "lower", ("self", "homology.ext")),
    "homology.iso_s": ("s", "lower", ("self", "homology.iso")),
    "homology.end0_s": ("s", "lower", ("self", "homology.end0")),
    "homology.eval_iso_s": ("s", "lower", ("self", "homology.eval_iso")),
    "findim.radical_s": ("s", "lower", ("self", "findim.radical")),
    "findim.idempotents_s": ("s", "lower", ("self", "findim.idempotents")),
    "findim.quiver_s": ("s", "lower", ("self", "findim.quiver")),
    "endo.endo_build_s": ("s", "lower", ("self", "endo.endo_build")),
    "endo.compose_tensor_s": ("s", "lower", ("self", "endo.compose_tensor")),
    "endo.as_regular_s": ("s", "lower", ("self", "endo.as_regular")),
    "endo.b0_module_calls": ("count", "lower", ("calls", "endo.b0_module")),
    "koszul.dual_s": ("s", "lower", ("self", "koszul.dual")),
    "koszul.clifford_s": ("s", "lower", ("self", "koszul.clifford")),
    "koszul.points_s": ("s", "lower", ("self", "koszul.points")),
    "cli.parse_workspace_s": ("s", "lower", ("self", "cli.parse_workspace")),
    "cli.workspace_build_s": ("s", "lower", ("incl", "cli.parse_workspace")),
    "cli.report_s": ("s", "lower", ("incl", "cli.report")),
}


def _resolve(qualname: str, modname: str):
    """(owner, attribute) for "func" or "Class.method" in ncgraded.<modname>."""
    mod = sys.modules[f"ncgraded.{modname}"]
    if "." in qualname:
        cls, attr = qualname.split(".")
        return getattr(mod, cls), attr
    return mod, qualname


class Tracer:
    """Records spans and counters while installed.  `install("spans")`
    wraps SPANS, `install("counts")` wraps COUNTED; `rounds` counts the
    rounds run in each mode, which the per-round metrics are divided by."""

    def __init__(self):
        self.rounds = {"spans": 0, "counts": 0}
        self.clock = time.perf_counter  # what spans are timed with; read at install
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.counts: dict[str, int] = {}
        self.task_id = -1
        self._stack = [-1]
        self._active: dict[str, int] = {}
        self._seen: dict = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def bump(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_task(self, task_id: int):
        """Start a new task: identity-based repeat detection is per task."""
        self.task_id = task_id
        self._seen = {}

    def seen_before(self, kind: str, key, keep) -> bool:
        """True if `key` was already seen for `kind` in this task.  `keep`
        holds the objects behind an id()-based key alive for the task, so
        that an id cannot be reused by a new object."""
        seen = self._seen.setdefault(kind, {})
        if key in seen:
            return True
        seen[key] = keep
        return False

    def _span_wrapper(self, fn, name: str, hook):
        nid = self._id(name)
        clock = self.clock
        active = self._active
        t = self

        def wrapper(*args, **kwargs):
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(t._stack[-1])
            t.task.append(t.task_id)
            t.end.append(0.0)
            t._stack.append(idx)
            active[name] = active.get(name, 0) + 1
            t.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t.end[idx] = clock()
                active[name] -= 1
                t._stack.pop()
            if hook is not None:
                hook(t, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, mode: str = "spans"):
        """Replace every traced callable of `mode` ("spans" or "counts"), at
        every ncgraded import site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if mode == "spans":
            for modname, qualname, name in SPANS:
                self._patch(modname, qualname,
                            lambda fn, name=name: self._span_wrapper(fn, name, HOOKS.get(name)))
        elif mode == "counts":
            for modname, qualname, key in COUNTED:
                self._patch(modname, qualname, lambda fn, key=key: self._count_wrapper(fn, key))
        else:
            raise ValueError(f"unknown tracer mode {mode!r}")

    def _patch(self, modname: str, qualname: str, make):
        owner, attr = _resolve(qualname, modname)
        orig = owner.__dict__[attr]
        wrapped = make(orig)
        if isinstance(owner, type):
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            return
        for mname, mod in list(sys.modules.items()):
            if mname != "ncgraded" and not mname.startswith("ncgraded."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Span arrays: name ids, start, end, parent index, task id."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.task, dtype=np.int32))

    def write(self, path: str):
        """Write every span as a tab-separated line (gzip)."""
        name, start, end, parent, task = self.arrays()
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart\tend\tparent\ttask\n")
            for i in range(len(name)):
                fh.write(f"{i}\t{self.names[name[i]]}\t{start[i]:.9f}\t{end[i]:.9f}"
                         f"\t{parent[i]}\t{task[i]}\n")


def self_times(durations: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    child = np.zeros_like(durations)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], durations[has_parent])
    return durations - child


def layer_metrics(tracer: Tracer) -> dict:
    """Every LAYER_METRICS value, per round of the mode that recorded it
    (ratios are not divided)."""
    name, start, end, parent, _ = tracer.arrays()
    dur = end - start
    own = self_times(dur, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(spans):
        m = np.zeros(len(name), dtype=bool)
        for s in spans:
            if s in ids:
                m |= name == ids[s]
        return m

    counts = tracer.counts
    out = {}
    for metric, (unit, better, how) in LAYER_METRICS.items():
        kind, *args = how
        rounds = max(1, tracer.rounds["counts" if args[0] in COUNTED_KEYS else "spans"])
        if kind == "self":
            v = float(own[mask(args)].sum()) / rounds
        elif kind == "incl":
            v = float(dur[mask(args)].sum()) / rounds
        elif kind == "calls":
            v = int(mask(args).sum()) / rounds
        elif kind == "count":
            v = counts.get(args[0], 0) / rounds
        elif kind == "max":
            v = counts.get(args[0], 0)
        else:
            den = counts.get(args[1], 0)
            v = counts.get(args[0], 0) / den if den else 0.0
        out[metric] = {"value": v, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# hooks: counters and ratios measured at the call boundary
# ---------------------------------------------------------------------------


def _rref_hook(t: Tracer, args, out):
    m, n = args[1].shape
    t.bump("linalg.rref_cells", m * n)
    if m * n > t.counts.get("linalg.rref_max_cells", 0):
        t.counts["linalg.rref_max_cells"] = m * n


def _completion_hook(t: Tracer, args, out):
    t.bump("gbasis.gb_elements", len(out.elements))


def _normal_form_hook(t: Tracer, args, out):
    if t._active.get("gbasis.completion"):
        t.bump("gbasis.nf_in_completion")
        if not out.is_zero():
            t.bump("gbasis.nf_nonzero_in_completion")


def _identity_hook(kind: str):
    """A call whose result object was already returned in this task is a hit."""

    def hook(t: Tracer, args, out):
        t.bump(f"{kind}_calls")
        if t.seen_before(kind, id(out), out):
            t.bump(f"{kind}_hits")

    return hook


def _hom_basis_hook(t: Tracer, args, out):
    M, N, s = args[0], args[1], args[2]
    t.bump("gmodule.hom_basis_calls")
    if t.seen_before("gmodule.hom_basis", (id(M), id(N), s), (M, N)):
        t.bump("gmodule.hom_basis_repeats")


HOOKS = {
    "linalg.rref": _rref_hook,
    "gbasis.completion": _completion_hook,
    "gbasis.normal_form": _normal_form_hook,
    "algebra.mult_tensor": _identity_hook("algebra.mult_tensor"),
    "gmodule.presentation": _identity_hook("gmodule.presentation"),
    "homology.resolution": _identity_hook("homology.resolution"),
    "gmodule.hom_basis": _hom_basis_hook,
}
