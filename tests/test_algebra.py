import numpy as np
import pytest

from ncgraded.algebra import (
    HilbertSeries,
    expand_rational,
    hilbert_series,
    is_central,
    is_regular_element,
    match_rational,
)
from ncgraded.algebra import PresentedAlgebra
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.scalars import QQ, Field


def test_S_dims_and_series(S):
    hs = hilbert_series(S, 6)
    assert list(hs.coeffs) == [1, 3, 6, 10, 15, 21, 28]
    assert match_rational(hs, [1], [1, -3, 3, -1])  # 1/(1-t)^3


def test_A_dims_and_series(A):
    ha = hilbert_series(A, 8)
    assert list(ha.coeffs) == [2 * n + 1 for n in range(9)]
    assert match_rational(ha, [1, 1], [1, -2, 1])  # (1+t)/(1-t)^2


def test_expand_rational_exact():
    assert expand_rational([1], [1, -1], 5) == [1, 1, 1, 1, 1, 1]
    assert expand_rational([1, 1], [1, -2, 1], 4) == [1, 3, 5, 7, 9]


def test_match_rational_rejects_wrong_series():
    assert not match_rational(HilbertSeries((1, 3, 6)), [1], [1, -2, 1])


def test_quadric_is_central_and_regular(S, F13):
    f = parse_poly("x^2 + y^2", S.gens, F13)
    assert is_central(S, f)
    assert is_regular_element(S, f, 6)


def test_noncentral_element_detected(S, F13):
    assert not is_central(S, parse_poly("x", S.gens, F13))


def test_zero_divisor_detected(A, F13):
    # in A the class of x^2 + y^2 is zero, and x - y + z squares to it
    g = parse_poly("x - y + z", A.gens, F13)
    assert not is_regular_element(A, g, 6)


def test_mult_tensor_associativity(A):
    for d1, d2, d3 in [(1, 1, 1), (1, 2, 1), (2, 1, 2)]:
        t12 = A.mult_tensor(d1, d2)
        t3 = A.mult_tensor(d1 + d2, d3)
        t23 = A.mult_tensor(d2, d3)
        t1 = A.mult_tensor(d1, d2 + d3)
        lhs = np.tensordot(t12, t3, axes=(2, 0)) % 13
        rhs = np.tensordot(t1, t23, axes=(1, 2)).transpose(0, 2, 3, 1) % 13
        assert (lhs == rhs).all()


def test_unit_is_neutral(A):
    u = A.unit
    for d in range(4):
        t = A.mult_tensor(0, d)
        acted = np.tensordot(u, t, axes=(0, 0)) % 13
        assert (acted == np.eye(A.dim(d), dtype=acted.dtype)).all()


@pytest.mark.parametrize("relations", [
    ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"),                  # S
    ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y", "x^2 + y^2"),     # A
    ("x*y - 2*y*x", "x*z - 3*z*x", "y*z + 5*z*y"),                  # skew polynomial ring
    ("x*y - y*x - x^2", "z^2 - 2*x*y"),
    ("x^2 - y*z", "y^2 - z*x", "z^2 - x*y"),
    ("x*y - 4*y*x",),
])
def test_hilbert_dims_agree_over_qq_and_large_primes(relations):
    # integer presentations: only finitely many primes can disagree with QQ
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    dims = []
    for field in (QQ, Field(10007), Field(32003)):
        rels = tuple(parse_poly(r, gens, field) for r in relations)
        alg = PresentedAlgebra(Presentation(field, gens, rels, MonomialOrder(gens, (0, 1, 2))), 5)
        dims.append(hilbert_series(alg, 5).coeffs)
    assert dims[0] == dims[1] == dims[2]
