import pytest

from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import (
    MonomialOrder,
    NonHomogeneousRelation,
    Presentation,
    normal_form,
    normal_words,
    truncated_groebner,
)
from ncgraded.scalars import Field

F = Field(13)


def _pres(rel_texts, names=("x", "y", "z")):
    gens = Gens(tuple(names), tuple(1 for _ in names))
    order = MonomialOrder(gens, tuple(range(len(names))))
    rels = tuple(parse_poly(t, gens, F) for t in rel_texts)
    return Presentation(F, gens, rels, order)


def test_commutative_polynomial_ring_dims():
    # k[x,y,z] as a quotient of the free algebra: binomial dims
    gb = truncated_groebner(_pres(["y*x - x*y", "z*x - x*z", "z*y - y*z"]), 8)
    dims = [len(normal_words(gb, d)) for d in range(7)]
    assert dims == [1, 3, 6, 10, 15, 21, 28]


def test_skew_quadric_algebra_dims():
    gb = truncated_groebner(
        _pres(["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"]), 8)
    dims = [len(normal_words(gb, d)) for d in range(7)]
    assert dims == [1, 3, 6, 10, 15, 21, 28]


def test_normal_form_idempotent_and_multiplicative():
    pres = _pres(["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"])
    gb = truncated_groebner(pres, 8)
    f = parse_poly("y*x*z + x^3", pres.gens, F)
    nf = normal_form(gb, f)
    assert normal_form(gb, nf).terms == nf.terms
    g = parse_poly("z*y", pres.gens, F)
    lhs = normal_form(gb, f * g)
    rhs = normal_form(gb, normal_form(gb, f) * normal_form(gb, g))
    assert lhs.terms == rhs.terms


def test_relations_reduce_to_zero():
    pres = _pres(["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"])
    gb = truncated_groebner(pres, 8)
    for r in pres.relations:
        assert normal_form(gb, r).is_zero()


def test_nonhomogeneous_relation_rejected():
    with pytest.raises(NonHomogeneousRelation):
        truncated_groebner(_pres(["x*y + y*x - z^3"]), 6)


def test_free_algebra_no_relations():
    gb = truncated_groebner(_pres([]), 5)
    assert [len(normal_words(gb, d)) for d in range(5)] == [1, 3, 9, 27, 81]


def test_exterior_algebra_dims():
    gb = truncated_groebner(
        _pres(["x^2", "y^2", "z^2", "x*y + y*x", "x*z + z*x", "y*z + z*y"]), 6)
    assert [len(normal_words(gb, d)) for d in range(5)] == [1, 3, 3, 1, 0]
