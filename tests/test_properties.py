import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgraded import linalg
from ncgraded.algebra import build_presented_algebra, quotient_algebra

from ncgraded.freealg import Gens, parse_poly, NcPoly
from ncgraded.gbasis import MonomialOrder, Presentation, normal_form, truncated_groebner
from ncgraded.gmodule import cyclic_module, dual_module, free_graded_module, hom_basis
from ncgraded.homology import Window, free_resolution, hom_space
from ncgraded.koszul import quadratic_dual
from ncgraded.endo import EndoAlgebra
from ncgraded.scalars import QQ, Field

F = Field(13)
GENS = Gens(("x", "y", "z"), (1, 1, 1))
ORDER = MonomialOrder(GENS, (0, 1, 2))
RELS = tuple(parse_poly(t, GENS, F)
             for t in ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"))
GB = truncated_groebner(Presentation(F, GENS, RELS, ORDER), 8)


def _word_poly(idxs, coeff):
    p = NcPoly.one(GENS, F)
    for i in idxs:
        p = p * NcPoly.gen(GENS, F, i)
    return p.scale(coeff % 13)


homog = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                  st.integers(1, 12)),
        min_size=1, max_size=4))


@st.composite
def homogeneous_poly(draw):
    terms = draw(homog)
    p = NcPoly.zero(GENS, F)
    for idxs, c in terms:
        p = p + _word_poly(idxs, c)
    return p


@given(homogeneous_poly())
@settings(max_examples=40, deadline=None)
def test_normal_form_idempotent(f):
    nf = normal_form(GB, f)
    assert normal_form(GB, nf).terms == nf.terms


@given(homogeneous_poly(), homogeneous_poly())
@settings(max_examples=40, deadline=None)
def test_normal_form_multiplicative(f, g):
    lhs = normal_form(GB, f * g)
    rhs = normal_form(GB, normal_form(GB, f) * normal_form(GB, g))
    assert lhs.terms == rhs.terms


def _assoc(alg, d1, d2, d3, p=13):
    t12 = alg.mult_tensor(d1, d2)
    t3 = alg.mult_tensor(d1 + d2, d3)
    t23 = alg.mult_tensor(d2, d3)
    t1 = alg.mult_tensor(d1, d2 + d3)
    lhs = np.tensordot(t12, t3, axes=(2, 0)) % p
    rhs = np.tensordot(t1, t23, axes=(1, 2)).transpose(0, 2, 3, 1) % p
    return (lhs == rhs).all()


def test_both_backends_associative_and_unital(A, B):
    for alg in (A, B.algebra):
        for d1 in range(0, 3):
            for d2 in range(0, 3):
                for d3 in range(0, 2):
                    assert _assoc(alg, d1, d2, d3)
        u = alg.unit
        for d in range(0, 3):
            left = np.tensordot(u, alg.mult_tensor(0, d), axes=(0, 0)) % 13
            right = np.tensordot(alg.mult_tensor(d, 0), u, axes=(1, 0)) % 13
            eye = np.eye(alg.dim(d), dtype=left.dtype)
            assert (left == eye).all() and (right == eye).all()


def test_resolutions_d_squared_zero_and_exact(basic_modules, window, F13):
    for name in ("k", "X1", "X3"):
        M = basic_modules[name]
        res = free_resolution(M, 3, window)
        cap = window.algebra_degree_cap
        for i in range(1, len(res.diffs)):
            f, g = res.diffs[i], res.diffs[i - 1]
            for d in range(0, cap):
                mf, mg = f.matrix(d), g.matrix(d)
                if mf.size and mg.size:
                    assert not ((mg @ mf) % F13.p).any()
        # degreewise exactness at F_i for i >= 1: rank ker(d_{i-1}) = rank d_i
        from ncgraded import linalg

        for i in range(1, len(res.diffs)):
            f, g = res.diffs[i], res.diffs[i - 1]
            for d in range(0, cap - 1):
                mg = g.matrix(d)
                mf = f.matrix(d)
                dim_mid = g.source.dim(d)
                ker = dim_mid - linalg.rank(F13, mg)
                img = linalg.rank(F13, mf)
                assert ker == img


def test_hom_from_free_equals_degree_piece(basic_modules, window):
    free = basic_modules["A"]
    for name in ("X1", "X2", "k"):
        M = basic_modules[name]
        for s in range(0, 5):
            assert hom_space(free, M, s, window).dim == M.dim(s)


@pytest.fixture(scope="module")
def qq_modules():
    """X1, X2 and k over QQ, with A and its modules truncated at degree 5."""
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    rels = tuple(parse_poly(t, gens, QQ)
                 for t in ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"))
    S = build_presented_algebra(Presentation(QQ, gens, rels, MonomialOrder(gens, (0, 1, 2))), 5)
    A = quotient_algebra(S, (parse_poly("x^2 + y^2", gens, QQ),), 5)
    mods = {name: cyclic_module(A, [parse_poly(g, gens, QQ) for g in gs], 5)
            for name, gs in (("X1", ["x - y + z"]), ("X2", ["x - y - z"]), ("k", "xyz"))}
    return free_graded_module(A, [0], 0, 5), mods


def test_resolutions_d_squared_zero_and_exact_qq(qq_modules):
    window = Window(0, 2, 3, 4)
    cap = window.algebra_degree_cap
    for M in qq_modules[1].values():
        res = free_resolution(M, 3, window)
        for i in range(1, len(res.diffs)):
            f, g = res.diffs[i], res.diffs[i - 1]
            for d in range(0, cap):
                mf, mg = f.matrix(d), g.matrix(d)
                assert not np.count_nonzero(linalg.matmul(QQ, mg, mf))
            for d in range(0, cap - 1):
                mg, mf = g.matrix(d), f.matrix(d)
                assert g.source.dim(d) - linalg.rank(QQ, mg) == linalg.rank(QQ, mf)


def test_hom_from_free_equals_degree_piece_qq(qq_modules):
    free, mods = qq_modules
    window = Window(0, 2, 3, 4)
    for M in mods.values():
        for s in range(0, 5):
            assert hom_space(free, M, s, window).dim == M.dim(s)


def test_quadratic_dual_dimension_complement(S, A):
    for alg in (S, A):
        pres = alg.presentation
        dual = quadratic_dual(pres)
        n = len(pres.gens)
        assert len(pres.relations) + len(dual.relations) == n * n


def test_koszul_pairing_for_S(S):
    dual_pres = quadratic_dual(S.presentation)
    from ncgraded.algebra import build_presented_algebra

    dual = build_presented_algebra(dual_pres, 8)
    hs = [S.dim(d) for d in range(7)]
    hd = [dual.dim(d) for d in range(7)]
    for n in range(7):
        total = sum(hs[i] * ((-1) ** (n - i)) * hd[n - i] for i in range(n + 1))
        assert total == (1 if n == 0 else 0)


def test_dual_endomorphism_dims_match(X, B):
    # graded dims of End over the opposite algebra of the dual module agree
    # with those of End(X); checked in a reduced window for cost
    small = Window(-3, 3, 2, 3)
    Xd = dual_module(X, -3, 8)
    Bd = EndoAlgebra(Xd, small)
    for d in range(0, small.algebra_degree_cap + 1):
        assert Bd.algebra.dim(d) == B.algebra.dim(d)
