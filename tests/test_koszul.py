import pytest

from ncgraded import linalg
from ncgraded.algebra import build_presented_algebra, hilbert_series
from ncgraded.errors import NotCentral, NotQuadratic
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.koszul import (
    clifford_algebra,
    commutative_semisimple_decompose,
    enumerate_projective_points,
    is_commutative,
    quadratic_dual,
    quadratic_relation_matrix,
)
from ncgraded.scalars import Field

F = Field(13)


def _pres(rel_texts, names=("x", "y", "z")):
    gens = Gens(tuple(names), tuple(1 for _ in names))
    order = MonomialOrder(gens, tuple(range(len(names))))
    rels = tuple(parse_poly(t, gens, F) for t in rel_texts)
    return Presentation(F, gens, rels, order)


def test_dual_of_polynomial_ring_is_exterior():
    pres = _pres(["y*x - x*y"], names=("x", "y"))
    dual = build_presented_algebra(quadratic_dual(pres), 6)
    assert [dual.dim(d) for d in range(4)] == [1, 2, 1, 0]


def test_dual_dimension_count(S):
    pres = S.presentation
    dual = quadratic_dual(pres)
    n = len(pres.gens)
    assert len(pres.relations) + len(dual.relations) == n * n


def test_S_dual_dims(S):
    dual = build_presented_algebra(quadratic_dual(S.presentation), 6)
    assert [dual.dim(d) for d in range(5)] == [1, 3, 3, 1, 0]


def test_A_dual_dims(A):
    dual = build_presented_algebra(quadratic_dual(A.presentation), 8)
    assert [dual.dim(d) for d in range(5)] == [1, 3, 4, 4, 4]


def test_double_dual_recovers_relations(S):
    pres = S.presentation
    dd = quadratic_relation_matrix(quadratic_dual(quadratic_dual(pres)))
    span = linalg.Echelon.of(F, quadratic_relation_matrix(pres))
    assert linalg.Echelon.of(F, dd).rank == span.rank and not span.reduce(dd).any()


def test_relation_span_equal_compares_spans_not_ranks():
    xy = _pres(["x*y - y*x", "x*x"], names=("x", "y"))
    span = linalg.Echelon.of(F, quadratic_relation_matrix(xy))
    for rels, equal in ((["2*x*x + x*y - y*x", "3*x*x"], True), (["x*y + y*x", "x*x"], False),
                        (["x*x"], False)):
        m = quadratic_relation_matrix(_pres(rels, names=("x", "y")))
        assert (linalg.Echelon.of(F, m).rank == span.rank and not span.reduce(m).any()) == equal


def test_koszul_pairing_numerical(S):
    # H_S(t) * H_{S!}(-t) = 1 degreewise within the window
    dual = build_presented_algebra(quadratic_dual(S.presentation), 8)
    hs = list(hilbert_series(S, 6).coeffs)
    hd = [dual.dim(d) for d in range(7)]
    for n in range(7):
        total = sum(hs[i] * ((-1) ** (n - i)) * hd[n - i] for i in range(n + 1))
        assert total == (1 if n == 0 else 0)


def test_clifford_k4(A):
    dual = build_presented_algebra(quadratic_dual(A.presentation), 10)
    w = parse_poly("x^2", dual.gens, F)
    C, detail = clifford_algebra(dual, w, 10)
    assert C.n == 4
    assert is_commutative(C)
    assert commutative_semisimple_decompose(C) == [1, 1, 1, 1]


def test_clifford_rejects_noncentral():
    # x^2 is not central in the free algebra on x, y
    free = build_presented_algebra(_pres([], names=("x", "y")), 8)
    w = parse_poly("x^2", free.gens, F)
    with pytest.raises(NotCentral):
        clifford_algebra(free, w, 8)


def test_nonquadratic_rejected():
    pres = _pres(["x*y*z - z*y*x"])
    with pytest.raises(NotQuadratic):
        quadratic_dual(pres)


def test_point_enumeration(A):
    polys = [parse_poly("x*y + z^2", A.gens, F),
             parse_poly("x^2 - y^2", A.gens, F)]
    pts = enumerate_projective_points(polys, A.gens, F)
    assert len(pts) == 4
    assert pts == [(1, 12, 1), (5, 5, 1), (8, 8, 1), (12, 1, 1)]


def test_point_enumeration_whole_plane():
    pts = enumerate_projective_points([], Gens(("x", "y", "z"), (1, 1, 1)), F)
    assert len(pts) == 13 * 13 + 13 + 1
