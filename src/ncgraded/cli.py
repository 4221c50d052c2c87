"""Command-line interface: workspace files, command dispatch, JSON reports.

Workspace (.nws) files are line-based: sections `[field]`, `[algebra N]`,
`[module N]`, `[automorphism N]`, `[window]` with `key = value` pairs;
values are integers or double-quoted strings.  Expression lists inside
strings split on ';', name/number lists on ','.

Exit codes: 0 all pass, 1 any fail, 2 inconclusive, 3 error, usage errors
included.  Reports are deterministic (no wall-clock content unless --timing
is given).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import traceback
from functools import cache, partial
from importlib.resources import files

from . import homology, koszul
from . import endo as endo_mod
from .algebra import (
    HilbertSeries,
    PresentedAlgebra,
    build_presented_algebra,
    hilbert_series,
    is_central,
    is_regular_element,
    match_rational,
    quotient_algebra,
)
from .errors import (AlgebraMismatch, DegreeBeyondTruncation, InvalidWindow, NcgError, ParseError,
                     UnknownReference)
from .freealg import Gens, NcPoly, parse_expr, parse_poly
from .gbasis import MonomialOrder, Presentation
from .gmodule import (
    GradedAutomorphism,
    check_homogeneous,
    cyclic_cover,
    direct_sum,
    free_graded_module,
    module_from_cover,
    shift_module,
)
from .homology import Window
from .scalars import QQ, Field, root_of_unity

DEFAULT_MAX_DEG = 12


# ---------------------------------------------------------------------------
# workspace files
# ---------------------------------------------------------------------------


class Workspace:
    def __init__(self):
        self.field = Field(13)
        self.window = Window()
        self.algebras: dict[str, PresentedAlgebra] = {}
        self.modules: dict = {}  # name -> memoized () -> GradedModule, built on first call
        self.automorphisms: dict[str, GradedAutomorphism] = {}

    def algebra(self, name: str) -> PresentedAlgebra:
        if name not in self.algebras:
            raise UnknownReference(f"unknown algebra {name!r}")
        return self.algebras[name]

    def module(self, name: str):
        if name not in self.modules:
            raise UnknownReference(f"unknown module {name!r}")
        return self.modules[name]()

    def automorphism(self, name: str) -> GradedAutomorphism:
        if name not in self.automorphisms:
            raise UnknownReference(f"unknown automorphism {name!r}")
        return self.automorphisms[name]


def _parse_sections(text: str):
    sections = []
    cur = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        s = line.strip()
        if s.startswith("["):
            if not s.endswith("]"):
                raise ParseError("unterminated section header", line=lineno,
                                 column=raw.index("[") + 1)
            head = s[1:-1].split()
            if not head or head[0] not in ("field", "algebra", "module", "automorphism", "window"):
                raise ParseError(f"unknown section {s!r}", line=lineno, column=1)
            if head[0] in ("field", "window"):
                if len(head) != 1:
                    raise ParseError(f"section {head[0]} takes no name", line=lineno, column=1)
                cur = (head[0], None, {}, lineno)
            else:
                if len(head) != 2:
                    raise ParseError(f"section {head[0]} needs exactly one name",
                                     line=lineno, column=1)
                cur = (head[0], head[1], {}, lineno)
            sections.append(cur)
            continue
        if cur is None:
            raise ParseError("key outside any section", line=lineno, column=1)
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno, column=len(line))
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if val.startswith('"'):
            if not val.endswith('"') or len(val) < 2:
                raise ParseError("unterminated string value", line=lineno,
                                 column=line.index('"') + 1)
            value = val[1:-1]
        else:
            try:
                value = int(val)
            except ValueError:
                raise ParseError(f"expected integer or quoted string, got {val!r}",
                                 line=lineno, column=line.index(val) + 1)
        cur[2][key] = value
    return sections


def _names(v: str):
    return [s.strip() for s in str(v).split(",") if s.strip()]


def _ints(v, line=None):
    if isinstance(v, int):
        return [v]
    try:
        return [int(s) for s in _names(v)]
    except ValueError:
        raise ParseError(f"expected a list of integers, got {v!r}", line=line, column=1) from None


def _exprs(v: str):
    return [s.strip() for s in str(v).split(";") if s.strip()]


def parse_workspace(text: str, max_deg: int = DEFAULT_MAX_DEG,
                    field: Field | None = None) -> Workspace:
    """Build a workspace; ``field``, if given, replaces the file's [field].

    Every section is checked here, but a module is built only when first
    looked up with ``ws.module``."""
    ws = Workspace()
    sections = _parse_sections(text)
    ws.field = field or ws.field
    algebra_of = {}  # module name -> its algebra
    for kind, name, kv, lineno in sections:
        if kind == "field" and field is None:
            ws.field = Field.parse(str(kv.get("name", kv.get("p", "GF(13)"))))
        elif kind == "window":
            lo, hi = (ws.window.internal_lo, ws.window.internal_hi)
            try:
                if "internal" in kv:
                    lo, hi = _ints(kv["internal"])
                ws.window = Window(
                    internal_lo=lo, internal_hi=hi,
                    homological_max=int(kv.get("homological_max", ws.window.homological_max)),
                    algebra_degree_cap=int(kv.get("cap", ws.window.algebra_degree_cap)),
                )
            except (ValueError, ParseError, InvalidWindow):
                raise ParseError('window: expected internal = "lo, hi" with lo <= hi and '
                                 "integer homological_max and cap", line=lineno, column=1) from None
    for kind, name, kv, lineno in sections:
        if kind == "algebra":
            if "base" in kv:
                base = str(kv["base"])
                if base not in ws.algebras:
                    raise UnknownReference(f"algebra {name!r}: unknown base {base!r}")
                b = ws.algebras[base]
                extra = tuple(parse_poly(e, b.gens, ws.field, max_deg)
                              for e in _exprs(kv.get("extra_relations", "")))
                ws.algebras[name] = quotient_algebra(b, extra, max_deg)
                continue
            gnames = tuple(_names(kv.get("generators", "")))
            if not gnames:
                raise ParseError(f"algebra {name!r} needs generators", line=lineno, column=1)
            degrees = tuple(_ints(kv.get("degrees", ", ".join("1" for _ in gnames)), lineno))
            gens = Gens(gnames, degrees)
            order = MonomialOrder(gens, tuple(range(len(gens))))
            rels = tuple(parse_poly(e, gens, ws.field, max_deg)
                         for e in _exprs(kv.get("relations", "")))
            ws.algebras[name] = build_presented_algebra(Presentation(ws.field, gens, rels, order),
                                                        max_deg)
        elif kind == "module":
            mkind = str(kv.get("kind", "cyclic"))
            of = str(kv.get("of", ""))
            if mkind == "cyclic":
                alg = ws.algebra(of)
                gens = [parse_poly(e, alg.gens, ws.field, max_deg, DegreeBeyondTruncation)
                        for e in _exprs(kv.get("generators", ""))]
                check_homogeneous(gens)
                # normal forms of the generators complete alg, so they wait for the build
                build = partial(lambda alg, gens: module_from_cover(
                    *cyclic_cover(alg, gens), 0, max_deg), alg, gens)
            elif mkind == "free":
                alg = ws.algebra(of)
                shifts = _ints(kv.get("shifts", "0"), lineno)
                build = partial(free_graded_module, alg, shifts, min(0, *shifts), max_deg)
            elif mkind == "sum":
                parts = _names(of)
                if not parts:
                    raise ParseError(f"module {name!r}: a sum needs at least one summand",
                                     line=lineno, column=1)
                for m in parts:
                    if m not in ws.modules:
                        raise UnknownReference(f"unknown module {m!r}")
                alg = algebra_of[parts[0]]
                if any(algebra_of[m] is not alg for m in parts):
                    raise AlgebraMismatch("direct sum requires a common algebra")
                gets = [ws.modules[m] for m in parts]
                build = partial(lambda gets: direct_sum([get() for get in gets]), gets)
            else:
                raise ParseError(f"unknown module kind {mkind!r}", line=lineno, column=1)
            algebra_of[name] = alg
            ws.modules[name] = cache(build)
        elif kind == "automorphism":
            alg = ws.algebra(str(kv.get("of", "")))
            images = [parse_poly(e, alg.gens, ws.field, max_deg)
                      for e in _exprs(kv.get("images", ""))]
            ws.automorphisms[name] = GradedAutomorphism(alg, images)
    return ws


# ---------------------------------------------------------------------------
# rational functions for --match: the expression grammar over num/den pairs
# of polynomials in one variable t
# ---------------------------------------------------------------------------

_T = Gens(("t",), (1,))


class _Ratio:
    """num/den with num, den polynomials in t over QQ."""

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __add__(self, o):
        return _Ratio(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return self + -o

    def __neg__(self):
        return _Ratio(-self.num, self.den)

    def __mul__(self, o):
        return _Ratio(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        return _Ratio(self.num * o.den, self.den * o.num)

    def degree(self):
        return max(self.num.degree() or 0, self.den.degree() or 0)


def parse_rational(text: str, max_degree: int):
    """(num, den): integer coefficient lists, constant term first, of the
    rational function of t that text spells; max_degree bounds its powers
    as in parse_expr."""
    one = NcPoly.one(_T, QQ)

    def var(name, column):
        if name != "t":
            raise ParseError(f"unknown variable {name!r} in series expression", column=column)
        return _Ratio(NcPoly.gen(_T, QQ, 0), one)

    r = parse_expr(text, lambda n: _Ratio(one.scale(n), one), var, max_degree)
    return tuple([int(p.terms.get((0,) * k, 0)) for k in range((p.degree() or 0) + 1)]
                 for p in (r.num, r.den))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_VERDICT_CODE = {"pass": 0, "fail": 1, "inconclusive": 2}


def _worst(checks):
    return max((_VERDICT_CODE.get(c["verdict"], 3) for c in checks), default=0)


def make_report(command: str, inputs: dict, window: Window, checks: list) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "window": window.tag(),
        "checks": checks,
        "verdict": ["pass", "fail", "inconclusive"][min(_worst(checks), 2)],
    }


def _check(name: str, ok, evidence) -> dict:
    if isinstance(ok, str):
        verdict = ok
    else:
        verdict = "pass" if ok else "fail"
    return {"check": name, "verdict": verdict, "evidence": evidence}


def _emit(report: dict, args) -> int:
    blob = json.dumps(report, indent=2, default=str)
    print(blob)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(blob + "\n")
    return _worst(report["checks"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _parse_window(text: str) -> Window:
    try:
        lo, hi, hmax, cap = _ints(text)
        return Window(lo, hi, hmax, cap)
    except (ValueError, ParseError, InvalidWindow):
        raise ParseError(f"window {text!r}: expected 'lo,hi,hmax,cap' with lo <= hi") from None


def _load_workspace(args) -> Workspace:
    text = ""
    if args.workspace:
        with open(args.workspace) as fh:
            text = fh.read()
    ws = parse_workspace(text, args.max_deg, Field.parse(args.field) if args.field else None)
    if args.window:
        ws.window = _parse_window(args.window)
    return ws


_ISO_VERDICT = {"isomorphic": "pass", "non-isomorphic": "fail", "not-found": "inconclusive"}


def _endo_series(B, window: Window) -> HilbertSeries:
    return HilbertSeries(tuple(B.algebra.dim(d) for d in range(0, window.algebra_degree_cap + 1)))


def _matches(series: HilbertSeries, expression: str) -> bool:
    """Whether the rational function expression spells expands to series;
    its powers may reach the last degree the series shows."""
    return match_rational(series, *parse_rational(expression, len(series.coeffs) - 1))


def _series_match(series: HilbertSeries, expression: str) -> dict:
    return _check("series-match", _matches(series, expression),
                  {"coeffs": list(series.coeffs), "expression": expression})


def cmd_gb(args) -> dict:
    ws = args.ws
    alg = ws.algebra(args.name)
    checks = [_check("groebner-complete",
                     alg.valid_through >= args.max_deg,
                     {"complete_through": alg.valid_through})]
    rep = make_report("gb", {"algebra": args.name}, ws.window, checks)
    rep["basis"] = [str(g) for g in alg.gb.elements]
    rep["dims"] = [alg.dim(d) for d in range(0, min(args.max_deg, alg.valid_through) + 1)]
    return rep


def cmd_hilbert(args) -> dict:
    ws = args.ws
    alg = ws.algebra(args.name)
    D = min(args.max_deg, alg.valid_through)
    series = hilbert_series(alg, D)
    checks = [_series_match(series, args.match)] if args.match else []
    rep = make_report("hilbert", {"algebra": args.name, "max_deg": D}, ws.window, checks)
    rep["coeffs"] = list(series.coeffs)
    return rep


def cmd_hom(args) -> dict:
    ws = args.ws
    M, N = ws.module(args.M), ws.module(args.N)
    dim = len(homology.hom_basis(M, N, args.s))
    rep = make_report("hom", {"M": args.M, "N": args.N, "s": args.s}, ws.window, [])
    rep["dim"] = dim
    return rep


def cmd_ext(args) -> dict:
    ws = args.ws
    M, N = ws.module(args.M), ws.module(args.N)
    nz = homology.ext_table(M, N, [args.i], ws.window)[args.i]
    rep = make_report("ext", {"M": args.M, "N": args.N, "i": args.i}, ws.window, [])
    rep["dims"] = {str(s): nz.get(s, 0)
                   for s in range(ws.window.internal_lo, ws.window.internal_hi + 1)}
    return rep


def cmd_mcm(args) -> dict:
    ws = args.ws
    ok, detail = homology.is_mcm(ws.module(args.M), ws.window)
    return make_report("mcm", {"M": args.M}, ws.window,
                       [_check("ext-vanishing", ok, detail["ext"])])


def cmd_indec(args) -> dict:
    ws = args.ws
    ok = homology.is_indecomposable(ws.module(args.M))
    return make_report("indec", {"M": args.M}, ws.window,
                       [_check("endomorphism-local", ok, {})])


def cmd_iso(args) -> dict:
    ws = args.ws
    M, N = ws.module(args.M), ws.module(args.N)
    if args.shift:
        N = shift_module(N, args.shift)
    r = homology.are_isomorphic_graded(M, N, ws.window, trials=args.trials, seed=args.seed)
    return make_report("iso", {"M": args.M, "N": args.N, "shift": args.shift}, ws.window,
                       [_check("isomorphism", _ISO_VERDICT[r.status],
                               {"status": r.status, "certified": r.certified,
                                "witness": list(r.witness) if r.witness else None,
                                "detail": r.detail})])


def cmd_cluster(args) -> dict:
    ws = args.ws
    X = ws.module(args.X)
    cands = [(n, ws.module(n)) for n in _names(args.candidates)]
    rep0 = homology.check_cluster_tilting(X, args.n, cands, ws.window)
    return make_report("cluster", {"X": args.X, "n": args.n}, ws.window,
                       [_check("cluster-tilting", rep0["verdict"], rep0)])


def cmd_endo(args) -> dict:
    ws = args.ws
    B = endo_mod.EndoAlgebra(ws.module(args.X), ws.window)
    dims = {str(d): B.algebra.dim(d)
            for d in range(ws.window.internal_lo, ws.window.algebra_degree_cap + 1)}
    checks = [_check("nonnegative", endo_mod.check_nonnegative(B),
                     {d: v for d, v in dims.items() if int(d) < 0})]
    if args.match:
        checks.append(_series_match(_endo_series(B, ws.window), args.match))
    rep = make_report("endo", {"X": args.X}, ws.window, checks)
    rep["dims"] = dims
    return rep


def cmd_quiver(args) -> dict:
    ws = args.ws
    B0, _ = homology.end0_algebra(ws.module(args.X))
    rad, idems = endo_mod.radical_and_idempotents(B0)
    Q = endo_mod.quiver_of(B0)
    rep = make_report("quiver", {"X": args.X}, ws.window, [])
    rep["degree_zero_dim"] = B0.n
    rep["radical_dim"] = int(rad.shape[1])
    rep["idempotents"] = len(idems)
    rep["quiver"] = Q.to_json()
    return rep


def cmd_koszul_dual(args) -> dict:
    ws = args.ws
    alg = ws.algebra(args.name)
    dual = koszul.quadratic_dual(alg.presentation)
    dalg = build_presented_algebra(dual, args.max_deg)
    n = len(alg.gens)
    ranks = len(alg.presentation.relations) + len(dual.relations)
    rep = make_report("koszul-dual", {"algebra": args.name}, ws.window,
                      [_check("rank-complement", ranks == n * n,
                              {"dim_R_plus_dim_Rperp": ranks, "n_squared": n * n})])
    rep["dual_relations"] = [str(r) for r in dual.relations]
    rep["dual_dims"] = [dalg.dim(d) for d in range(0, min(args.max_deg, dalg.valid_through) + 1)]
    return rep


def cmd_clifford(args) -> dict:
    ws = args.ws
    alg = ws.algebra(args.name)
    dual = build_presented_algebra(koszul.quadratic_dual(alg.presentation), args.max_deg)
    w = parse_poly(args.central, dual.gens, ws.field, args.max_deg)
    C, detail = koszul.clifford_algebra(dual, w, ws.window.algebra_degree_cap + 2)
    checks = [_check("stabilized", True, detail)]
    if koszul.is_commutative(C):
        blocks = koszul.commutative_semisimple_decompose(C)
        checks.append(_check("split-semisimple", all(b == 1 for b in blocks),
                             {"blocks": blocks, "isomorphic_to": f"k^{len(blocks)}"
                              if all(b == 1 for b in blocks) else "product of larger blocks"}))
    rep = make_report("clifford", {"algebra": args.name, "central": args.central},
                      ws.window, checks)
    rep["dim"] = C.n
    return rep


def cmd_points(args) -> dict:
    ws = args.ws
    alg = ws.algebra(args.name)
    polys = [parse_poly(e, alg.gens, ws.field, args.max_deg) for e in _exprs(args.polys)]
    pts = koszul.enumerate_projective_points(polys, alg.gens, ws.field)
    rep = make_report("points", {"algebra": args.name, "polys": args.polys}, ws.window, [])
    rep["count"] = len(pts)
    rep["points"] = [list(p) for p in pts]
    return rep


def cmd_asgorenstein(args) -> dict:
    ws = args.ws
    detail = endo_mod.as_gorenstein_check(ws.algebra(args.name), args.d, args.ell, ws.window)
    return make_report("asgorenstein", {"algebra": args.name, "d": args.d, "ell": args.ell},
                       ws.window, [_check("gorenstein", detail["verdict"], detail["sides"])])


def cmd_asregular(args) -> dict:
    ws = args.ws
    B = endo_mod.EndoAlgebra(ws.module(args.X), ws.window)
    detail = endo_mod.as_regular_over_R_check(B, args.d, args.ell, ws.window)
    return make_report("asregular", {"X": args.X, "d": args.d, "ell": args.ell}, ws.window,
                       [_check("as-regular-over-degree-zero", detail["verdict"], detail)])


def cmd_eval_iso(args) -> dict:
    ws = args.ws
    detail = homology.eval_iso_check(ws.module(args.X), ws.module(args.M), ws.window)
    return make_report("eval-iso", {"X": args.X, "M": args.M}, ws.window,
                       [_check("evaluation-bijective", detail["verdict"], detail["degrees"])])


def cmd_nu_stable(args) -> dict:
    ws = args.ws
    M = ws.module(args.M)
    sigma = ws.automorphism(args.sigma)
    r = homology.nu_stability_check(M, sigma, ws.window, trials=args.trials, seed=args.seed)
    return make_report("nu-stable", {"M": args.M, "sigma": args.sigma}, ws.window,
                       [_check("twist-isomorphic", _ISO_VERDICT[r.status],
                               {"status": r.status, "certified": r.certified, "detail": r.detail})])


# ---------------------------------------------------------------------------
# the end-to-end example pipeline
# ---------------------------------------------------------------------------

EXAMPLE_WORKSPACE = files(__package__).joinpath("example_paper.nws").read_text()


def example_workspace(p: int = 13, max_deg: int = DEFAULT_MAX_DEG,
                      window: Window | None = None) -> Workspace:
    field = Field(p)
    i4 = root_of_unity(field, 4)  # the fixture needs a primitive 4th root
    text = EXAMPLE_WORKSPACE.replace('"GF(13)"', f'"GF({p})"').replace("5*z", f"{i4}*z")
    ws = parse_workspace(text, max_deg=max_deg)
    if window is not None:
        ws.window = window
    return ws


def verify_example(ws: Workspace, seed: int = 0) -> dict:
    window = ws.window
    field = ws.field
    S, A = ws.algebra("S"), ws.algebra("A")
    checks = []

    # (1) Hilbert series of S and A
    hs = hilbert_series(S, min(8, S.valid_through))
    ha = hilbert_series(A, min(8, A.valid_through))
    ok1 = _matches(hs, "1/(1-t)^3") and _matches(ha, "(1+t)/(1-t)^2")
    checks.append(_check("hilbert-series", ok1,
                         {"S": list(hs.coeffs), "A": list(ha.coeffs)}))

    # (2) the quadric is central and regular in S
    f = parse_poly("x^2 + y^2", S.gens, field)
    ok2 = is_central(S, f) and is_regular_element(S, f, min(6, S.valid_through - 2))
    checks.append(_check("central-regular-quadric", ok2, {"element": "x^2 + y^2"}))

    # (3) A is AS-Gorenstein of dimension 2, parameter 1
    g = endo_mod.as_gorenstein_check(A, 2, 1, window)
    checks.append(_check("as-gorenstein", g["verdict"], g["sides"]))

    # (4) quadratic dual and the Clifford-type algebra C(A) = k^4
    dual = build_presented_algebra(koszul.quadratic_dual(A.presentation), 10)
    w = parse_poly("x^2", dual.gens, field)
    C, cdetail = koszul.clifford_algebra(dual, w, 10)
    blocks = (koszul.commutative_semisimple_decompose(C)
              if koszul.is_commutative(C) else None)
    ok4 = C.n == 4 and blocks is not None and blocks == [1, 1, 1, 1]
    checks.append(_check("clifford-k4", ok4,
                         {"dim": C.n, "blocks": blocks,
                          "dual_dims": [dual.dim(d) for d in range(5)]}))

    # (5) four points on the quadric's point scheme
    pts = koszul.enumerate_projective_points(
        [parse_poly("x*y + z^2", A.gens, field), parse_poly("x^2 - y^2", A.gens, field)],
        A.gens, field)
    checks.append(_check("point-count", len(pts) == 4,
                         {"count": len(pts), "points": [list(p) for p in pts]}))

    # (6) X1..X4 are MCM, indecomposable, pairwise non-isomorphic
    names = ["X1", "X2", "X3", "X4"]
    mods = {n: ws.module(n) for n in names}
    pair_evidence = {}  # every failure, so the check passes when it stays empty
    for n in names:
        if not homology.is_mcm(mods[n], window)[0]:
            pair_evidence[n + ":mcm"] = False
        if not homology.is_indecomposable(mods[n]):
            pair_evidence[n + ":indec"] = False
    for a, b in itertools.permutations(names, 2):
        for s in range(-3, 4):
            r = homology.are_isomorphic_graded(mods[a], shift_module(mods[b], s), window, seed=seed)
            if not (r.status == "non-isomorphic" and r.certified):
                pair_evidence[f"{a}~{b}({s})"] = r.status
    checks.append(_check("mcm-basic-summands", not pair_evidence,
                         pair_evidence or {"pairs": "all certified distinct"}))

    # (7)-(8) B = End(X): nonnegative and the right Hilbert series
    X = ws.module("X")
    B = endo_mod.EndoAlgebra(X, window)
    checks.append(_check("endo-nonnegative", endo_mod.check_nonnegative(B),
                         {str(d): B.algebra.dim(d) for d in range(window.internal_lo, 0)}))
    hb = _endo_series(B, window)
    ok8 = _matches(hb, "9*(1+t)/(1-t)^2")
    checks.append(_check("endo-hilbert-series", ok8, {"coeffs": list(hb.coeffs)}))

    # (9) B0: dimension 9, radical of dim 4 squaring to zero, quiver 4 -> 1
    B0 = B.algebra.degree_zero()
    rad, idems = B.algebra.deg0
    rad2_zero = all(
        not B0.mul(rad[:, a], rad[:, b]).any()
        for a in range(rad.shape[1]) for b in range(rad.shape[1])
    )
    Q = endo_mod.quiver_of(B0)
    sink_form = (len(Q.vertices) == 5 and len(Q.arrows) == 4
                 and len({s for s, _, _ in Q.arrows}) == 4
                 and len({t for _, t, _ in Q.arrows}) == 1
                 and all(m == 1 for _, _, m in Q.arrows)
                 and all(s != t for s, t, _ in Q.arrows))
    ok9 = B0.n == 9 and rad.shape[1] == 4 and rad2_zero and len(idems) == 5 and sink_form
    checks.append(_check("degree-zero-structure", ok9,
                         {"dim": B0.n, "radical_dim": int(rad.shape[1]),
                          "radical_squares_to_zero": rad2_zero,
                          "idempotents": len(idems), "quiver": Q.to_json()}))

    # (10) B is AS-regular over B0 of dimension 2, parameter 1
    reg = endo_mod.as_regular_over_R_check(B, 2, 1, window)
    checks.append(_check("as-regular-over-degree-zero", reg["verdict"],
                         {"ext": reg["ext"], "terminates_at_d": reg["terminates_at_d"]}))

    # (11) evaluation isomorphism for A, X1, k
    wd = Window(0, 4, window.homological_max, window.algebra_degree_cap)
    ev_evidence = {n: homology.eval_iso_check(X, mod, wd)["verdict"]
                   for n, mod in (("A", ws.module("AF")), ("X1", ws.module("X1")),
                                  ("k", endo_mod.b0_module(A)))}
    checks.append(_check("evaluation-isomorphism", all(ev_evidence.values()), ev_evidence))

    return make_report("verify-example", {"p": field.p, "seed": seed}, window, checks)


def cmd_verify_example(args) -> dict:
    window = _parse_window(args.window) if args.window else None
    return verify_example(example_workspace(args.p, args.max_deg, window), seed=args.seed)


# ---------------------------------------------------------------------------
# the command table and the one dispatch
# ---------------------------------------------------------------------------


def _arg(*flags, **kw):
    return flags, kw


_MATCH = _arg("--match", help='rational expression such as "(1+t)/(1-t)^2"')
_TRIALS = _arg("--trials", type=int, default=64)
_SEED = _arg("--seed", type=int, default=0, help="seed for randomized isomorphism searches")
_D_ELL = [_arg("--d", type=int, required=True), _arg("--ell", type=int, required=True)]
_WORKSPACE = [_arg("--workspace", "-w", help="path to a .nws workspace file"),
              _arg("--field", help='override field, e.g. "GF(13)" or "QQ"')]
_COMMON = [
    _arg("--max-deg", type=int, default=DEFAULT_MAX_DEG,
         help="truncation degree for algebra construction"),
    _arg("--window", help='window override "lo,hi,hmax,cap"'),
    _arg("--json", help="also write the JSON report to this file"),
    _arg("--timing", action="store_true",
         help="include wall-clock time in the report (breaks byte-identity)"),
]

# name -> (help, positionals and own options); a bare string is a plain positional.
# `main` runs a command as cmd_<name with '-' as '_'>(args).  Every command but
# verify-example also takes _WORKSPACE and gets the loaded workspace as args.ws.
COMMANDS = {
    "gb": ("Groebner basis of an algebra", ["name"]),
    "hilbert": ("Hilbert series, optionally matched to a rational form", ["name", _MATCH]),
    "hom": ("dim Hom(M, N(s))", ["M", "N", _arg("s", type=int)]),
    "ext": ("graded dims of Ext^i(M, N)", ["M", "N", _arg("i", type=int)]),
    "mcm": ("maximal Cohen-Macaulay test", ["M"]),
    "indec": ("indecomposability via local endomorphism ring", ["M"]),
    "iso": ("graded isomorphism search",
            ["M", "N", _arg("--shift", type=int, default=0), _TRIALS, _SEED]),
    "cluster": ("cluster-tilting verification",
                ["X", _arg("--n", type=int, default=1), _arg("--candidates", default="")]),
    "endo": ("graded endomorphism algebra dims", ["X", _MATCH]),
    "quiver": ("Gabriel quiver of End(X)_0", ["X"]),
    "koszul-dual": ("quadratic dual presentation", ["name"]),
    "clifford": ("Clifford-type algebra of the dual",
                 ["name", _arg("--central", required=True,
                               help='central degree-2 element, e.g. "x^2"')]),
    "points": ("projective point enumeration",
               [_arg("name", help="algebra whose variables are used"),
                _arg("polys", help='semicolon-separated polynomials, e.g. "x*y + z^2; x^2 - y^2"')]),
    "asgorenstein": ("AS-Gorenstein test for a connected algebra", ["name", *_D_ELL]),
    "asregular": ("AS-regularity of End(X) over its degree-0 part", ["X", *_D_ELL]),
    "eval-iso": ("evaluation-map isomorphism check", ["X", "M"]),
    "nu-stable": ("twist-stability under an automorphism", ["M", "sigma", _TRIALS, _SEED]),
    "verify-example": ("run the built-in end-to-end example",
                       [_arg("--p", type=int, default=13, help="prime for the fixture "
                             "field; p = 1 mod 4, for the fixture needs a 4th root of unity"),
                        _SEED]),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError (exit 3), not argparse's exit 2, which means inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: only the command argv names (its first word) gets
    a subparser, unless it names none, when all do, so that `ncg -h` and the
    invalid-choice error list every command."""
    ap = _Parser(prog="ncg",
                 description="graded noncommutative algebra workbench (exact, truncated)")
    sub = ap.add_subparsers(dest="cmd", required=True)
    chosen = next((a for a in argv if not a.startswith("-")), None)
    for name in [chosen] if chosen in COMMANDS else COMMANDS:
        help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name != chosen:
            continue
        if name != "verify-example":
            arguments = arguments + _WORKSPACE
        for a in arguments + _COMMON:
            flags, kw = ((a,), {}) if isinstance(a, str) else a
            p.add_argument(*flags, **kw)
    return ap


def main(argv=None) -> int:
    t0 = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        if "workspace" in args:
            args.ws = _load_workspace(args)
        rep = globals()["cmd_" + args.cmd.replace("-", "_")](args)
        if args.timing:
            rep["time_s"] = round(time.monotonic() - t0, 3)
        return _emit(rep, args)
    except NcgError as exc:
        error, message = type(exc).__name__, str(exc)
    except OSError as exc:
        error, message = "OSError", str(exc)
    except Exception as exc:  # a bug is an error (3), never a failed check (1)
        traceback.print_exc()
        error, message = "internal-error", f"{type(exc).__name__}: {exc}"
    print(json.dumps({"error": error, "message": message}, indent=2))
    return 3


if __name__ == "__main__":
    sys.exit(main())
