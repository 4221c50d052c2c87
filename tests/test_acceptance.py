"""Acceptance gate: eleven criteria, one pass/fail line each.

Each test times its own core computation against the stated bound and
writes a single summary line directly to the terminal (bypassing capture).
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.algebra import (
    build_presented_algebra,
    hilbert_series,
    match_rational,
    quotient_algebra,
)
from ncgraded.endo import (
    EndoAlgebra,
    as_regular_over_R_check,
    check_nonnegative,
    quiver_of,
    radical_and_idempotents,
)
from ncgraded.freealg import Gens, NcPoly, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation, normal_form, truncated_groebner
from ncgraded.gmodule import cyclic_module, direct_sum, dual_module, free_graded_module, shift_module
from ncgraded.homology import (
    Window,
    are_isomorphic_graded,
    eval_iso_check,
    ext_graded_dims,
    free_resolution,
    hom_space,
    is_indecomposable,
    is_mcm,
)
from ncgraded.koszul import (
    clifford_algebra,
    commutative_semisimple_decompose,
    enumerate_projective_points,
    is_commutative,
    quadratic_dual,
)
from ncgraded.scalars import Field

MAX_DEG = 12
F = Field(13)
WINDOW = Window()


_reporter = None


@pytest.fixture(autouse=True)
def _capture_reporter(request):
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _line(n, name, ok, elapsed, bound):
    verdict = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {n:2d} {name}: {verdict} ({elapsed:.2f}s, bound {bound}s)"
    if _reporter is not None:
        _reporter.write_line(" " + msg)
    else:
        sys.__stdout__.write(msg + "\n")
    assert ok, f"criterion {n} ({name}) failed"
    assert elapsed < bound, f"criterion {n} exceeded {bound}s ({elapsed:.2f}s)"


def _dims_by_row_reduction(rel_texts, d_max=4):
    """Independent oracle: dim of degree-d piece = 3^d - rank(relation span),
    with the span built by brute-force padding u * r * v in the free algebra."""
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    rels = [parse_poly(t, gens, F) for t in rel_texts]
    dims = [1]
    for d in range(1, d_max + 1):
        words = list(itertools.product(range(3), repeat=d))
        index = {w: i for i, w in enumerate(words)}
        rows = []
        for r in rels:
            dr = r.homogeneous_degree()
            if dr > d:
                continue
            for lu in range(d - dr + 1):
                for u in itertools.product(range(3), repeat=lu):
                    for v in itertools.product(range(3), repeat=d - dr - lu):
                        row = np.zeros(len(words), dtype=np.int64)
                        for w, c in r.terms.items():
                            row[index[u + tuple(w) + v]] = c
                        rows.append(row)
        if rows:
            rank = linalg.rank(F, np.stack(rows, axis=0).T)
        else:
            rank = 0
        dims.append(3 ** d - rank)
    return dims


def test_criterion_01_hilbert_series(S, A):
    t0 = time.monotonic()
    hs = hilbert_series(S, 6)
    ha = hilbert_series(A, 8)
    ok = list(hs.coeffs) == [1, 3, 6, 10, 15, 21, 28]
    ok = ok and match_rational(hs, [1], [1, -3, 3, -1])
    ok = ok and list(ha.coeffs) == [2 * n + 1 for n in range(9)]
    ok = ok and match_rational(ha, [1, 1], [1, -2, 1])
    srels = ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y")
    ok = ok and _dims_by_row_reduction(srels) == [S.dim(d) for d in range(5)]
    ok = ok and _dims_by_row_reduction(srels + ("x^2 + y^2",)) == \
        [A.dim(d) for d in range(5)]
    _line(1, "hilbert-series", ok, time.monotonic() - t0, 5)


def test_criterion_02_clifford_k4(A):
    t0 = time.monotonic()
    dual = build_presented_algebra(quadratic_dual(A.presentation), 10)
    w = parse_poly("x^2", dual.gens, F)
    C, _ = clifford_algebra(dual, w, 10)
    ok = C.n == 4 and is_commutative(C) and \
        commutative_semisimple_decompose(C) == [1, 1, 1, 1]
    _line(2, "clifford-algebra", ok, time.monotonic() - t0, 5)


def test_criterion_03_point_count():
    t0 = time.monotonic()
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    pts = enumerate_projective_points(
        [parse_poly("x*y + z^2", gens, F), parse_poly("x^2 - y^2", gens, F)],
        gens, F)
    _line(3, "point-count", len(pts) == 4, time.monotonic() - t0, 1)


def test_criterion_04_mcm_basic(basic_modules):
    t0 = time.monotonic()
    mods = basic_modules
    names = ["X1", "X2", "X3", "X4"]
    ok = all(is_mcm(mods[n], WINDOW)[0] for n in names)
    ok = ok and all(is_indecomposable(mods[n]) for n in names)
    for a, b in itertools.permutations(names, 2):
        for s in range(-3, 4):
            r = are_isomorphic_graded(mods[a], shift_module(mods[b], s), WINDOW)
            ok = ok and r.status == "non-isomorphic" and r.certified
    _line(4, "mcm-indec-pairwise", ok, time.monotonic() - t0, 60)


def test_criterion_05_endomorphism_dims(request, window):
    t0 = time.monotonic()
    B = request.getfixturevalue("B")
    ok = [B.algebra.dim(d) for d in range(4)] == [9, 27, 45, 63]
    hb = hilbert_series(B.algebra, WINDOW.algebra_degree_cap)
    ok = ok and match_rational(hb, [9, 9], [1, -2, 1])
    ok = ok and B.algebra.dim(-1) == 0 and B.algebra.dim(-2) == 0
    ok = ok and check_nonnegative(B)
    _line(5, "endomorphism-algebra", ok, time.monotonic() - t0, 120)


def test_criterion_06_degree_zero_structure(B):
    t0 = time.monotonic()
    B0 = B.algebra.degree_zero()
    rad, idems = radical_and_idempotents(B0)
    rad2_zero = all(not B0.mul(rad[:, a], rad[:, b]).any()
                    for a in range(rad.shape[1]) for b in range(rad.shape[1]))
    Q = quiver_of(B0)
    sources = {s for s, _, _ in Q.arrows}
    targets = {t for _, t, _ in Q.arrows}
    ok = (B0.n == 9 and rad.shape[1] == 4 and rad2_zero and len(idems) == 5
          and len(Q.vertices) == 5 and len(Q.arrows) == 4
          and len(sources) == 4 and len(targets) == 1
          and all(m == 1 for _, _, m in Q.arrows)
          and len(Q.vertices) + len(Q.arrows) == 9)
    _line(6, "degree-zero-structure", ok, time.monotonic() - t0, 30)


def test_criterion_07_as_gorenstein(A):
    t0 = time.monotonic()
    from ncgraded.endo import as_gorenstein_check

    rep = as_gorenstein_check(A, 2, 1, WINDOW)
    _line(7, "as-gorenstein", rep["verdict"] is True, time.monotonic() - t0, 60)


def test_criterion_08_as_regular_over_B0(B):
    t0 = time.monotonic()
    rep = as_regular_over_R_check(B, 2, 1, WINDOW)
    ok = rep["verdict"] is True and rep["terminates_at_d"] is True
    _line(8, "as-regular-over-B0", ok, time.monotonic() - t0, 300)


def test_criterion_09_evaluation_isomorphism(X, basic_modules):
    t0 = time.monotonic()
    wd = Window(0, 4, WINDOW.homological_max, WINDOW.algebra_degree_cap)
    ok = True
    for n in ("A", "X1", "k"):
        rep = eval_iso_check(X, basic_modules[n], wd)
        ok = ok and rep["verdict"]
    _line(9, "evaluation-isomorphism", ok, time.monotonic() - t0, 60)


def test_criterion_10_property_suites(S, A, basic_modules, X, B):
    t0 = time.monotonic()
    mods = basic_modules
    ok = True
    # normal form idempotent and multiplicative on a deterministic sample
    gb = S.gb
    sample = [parse_poly(t, S.gens, F)
              for t in ("y*x", "z*y*x", "x^2 + z^2", "y*z*x + x*y*z")]
    for f in sample:
        nf = normal_form(gb, f)
        ok = ok and normal_form(gb, nf).terms == nf.terms
        for g in sample:
            if f.homogeneous_degree() + g.homogeneous_degree() <= 6:
                lhs = normal_form(gb, f * g)
                rhs = normal_form(gb, nf * normal_form(gb, g))
                ok = ok and lhs.terms == rhs.terms
    # associativity of both backends
    for alg in (A, B.algebra):
        for d1, d2, d3 in [(0, 1, 1), (1, 1, 1), (1, 2, 0)]:
            t12 = alg.mult_tensor(d1, d2)
            t3 = alg.mult_tensor(d1 + d2, d3)
            t23 = alg.mult_tensor(d2, d3)
            t1 = alg.mult_tensor(d1, d2 + d3)
            lhs = np.tensordot(t12, t3, axes=(2, 0)) % 13
            rhs = np.tensordot(t1, t23, axes=(1, 2)).transpose(0, 2, 3, 1) % 13
            ok = ok and (lhs == rhs).all()
    # d^2 = 0 and exactness for the residue-field resolution
    res = free_resolution(mods["k"], 3, WINDOW)
    for i in range(1, len(res.diffs)):
        fmor, gmor = res.diffs[i], res.diffs[i - 1]
        for d in range(0, WINDOW.algebra_degree_cap - 1):
            mf, mg = fmor.matrix(d), gmor.matrix(d)
            if mf.size and mg.size:
                ok = ok and not ((mg @ mf) % 13).any()
            ok = ok and (gmor.source.dim(d) - linalg.rank(F, mg)
                         == linalg.rank(F, mf))
    # Hom(A, M(s))_0 = M_s
    for n in ("X1", "k"):
        for s in range(0, 4):
            ok = ok and hom_space(mods["A"], mods[n], s, WINDOW).dim == mods[n].dim(s)
    # dim R + dim R-perp = n^2 and the Koszul numerical pairing
    for alg in (S, A):
        dual_pres = quadratic_dual(alg.presentation)
        n = len(alg.presentation.gens)
        ok = ok and len(alg.presentation.relations) + len(dual_pres.relations) == n * n
    dual = build_presented_algebra(quadratic_dual(S.presentation), 8)
    for m in range(7):
        total = sum(S.dim(i) * ((-1) ** (m - i)) * dual.dim(m - i)
                    for i in range(m + 1))
        ok = ok and total == (1 if m == 0 else 0)
    # graded dims of the endomorphism algebra of the dual module match
    small = Window(-3, 3, 2, 3)
    Xd = dual_module(X, -3, 8)
    Bd = EndoAlgebra(Xd, small)
    for d in range(0, small.algebra_degree_cap + 1):
        ok = ok and Bd.algebra.dim(d) == B.algebra.dim(d)
    _line(10, "property-suites", ok, time.monotonic() - t0, 300)


def test_criterion_11_verify_example_deterministic():
    t0 = time.monotonic()
    outs = []
    codes = []
    each_under_bound = True
    for _ in range(2):
        t1 = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "ncgraded.cli", "verify-example"],
                              capture_output=True, text=True, timeout=600)
        each_under_bound = each_under_bound and time.monotonic() - t1 < 600
        outs.append(proc.stdout)
        codes.append(proc.returncode)
    rep = json.loads(outs[0])
    ok = (codes == [0, 0] and outs[0] == outs[1] and each_under_bound
          and rep["verdict"] == "pass" and len(rep["checks"]) == 11)
    _line(11, "verify-example", ok, time.monotonic() - t0, 1200)
