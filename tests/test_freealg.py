import random
from fractions import Fraction

import pytest

from ncgraded.errors import NonHomogeneous, ParseError
from ncgraded.freealg import Gens, NcPoly, parse_poly
from ncgraded.scalars import QQ, Field

F = Field(13)
G = Gens(("x", "y", "z"), (1, 1, 1))


def test_parse_basic():
    f = parse_poly("x*y + y*x - z^2", G, F)
    assert f.is_homogeneous()
    assert f.homogeneous_degree() == 2
    assert len(f.terms) == 3


def test_parse_coefficients_mod_p():
    f = parse_poly("13*x", G, F)
    assert f.is_zero()
    g = parse_poly("-x", G, F)
    assert list(g.terms.values())[0] == 12


def test_parse_power_and_product():
    f = parse_poly("x^3", G, F)
    g = parse_poly("x", G, F) * parse_poly("x^2", G, F)
    assert f.terms == g.terms


def test_noncommutative_order_matters():
    xy = parse_poly("x*y", G, F)
    yx = parse_poly("y*x", G, F)
    assert xy.terms != yx.terms
    assert (xy + yx.scale(F.p - 1)).terms  # xy - yx is not zero


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse_poly("x + * y", G, F)
    with pytest.raises(ParseError):
        parse_poly("x + w", G, F)


def test_homogeneity_check():
    f = parse_poly("x + y^2", G, F)
    assert not f.is_homogeneous()


def test_weighted_degrees():
    W = Gens(("a", "b"), (1, 2))
    f = parse_poly("a^2 + b", W, F)
    assert f.is_homogeneous()
    assert f.homogeneous_degree() == 2


@pytest.mark.parametrize("field", [Field(13), QQ], ids=str)
def test_arithmetic_results_equal_the_checked_constructor(field):
    """+, -, *, unary - and scale build their results without canonicalizing
    again; each must equal NcPoly of its own terms, zeros dropped, with
    coefficients of the field's own type."""
    rng = random.Random(f"arith/{field}")
    words = [(), (0,), (1,), (2,), (0, 1), (1, 0), (2, 2)]

    def draw():
        coeff = (lambda: rng.randrange(-20, 20)) if field.is_prime_field else (
            lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
        return NcPoly(G, field, {w: coeff() for w in rng.sample(words, rng.randrange(5))})

    kind = int if field.is_prime_field else Fraction
    for _ in range(200):
        f, g = draw(), draw()
        for r in (f + g, f - g, f - f, f * g, -f, f.scale(rng.randrange(-3, 4)), f.scale(13)):
            assert list(r.terms.items()) == list(NcPoly(G, field, r.terms).terms.items())
            assert all(type(c) is kind and c for c in r.terms.values())
