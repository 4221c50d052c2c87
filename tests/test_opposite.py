"""The opposite algebra is alg's tensors with their two factors swapped.

The oracle is the presented opposite: the same generators with every
relation word reversed.  Reversing words, w -> reversed(w), is an algebra
isomorphism from it onto A^op, so after that change of basis both must
have the same multiplication tensors."""

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.algebra import PresentedAlgebra
from ncgraded.cli import EXAMPLE_WORKSPACE, parse_workspace
from ncgraded.freealg import NcPoly
from ncgraded.gbasis import Presentation
from ncgraded.gmodule import dual_module, opposite_algebra
from ncgraded.scalars import QQ, Field

MAX_DEG = 6


def presented_opposite(A: PresentedAlgebra) -> PresentedAlgebra:
    """A^op presented: A's generators and order, every relation word reversed."""
    pres = A.presentation
    rels = tuple(NcPoly(pres.gens, pres.field, {tuple(reversed(w)): c for w, c in r.terms.items()})
                 for r in pres.relations)
    return PresentedAlgebra(Presentation(pres.field, pres.gens, rels, pres.order), A.valid_through)


def _reversal(A, Aop, e):
    """P_e: column i holds A's coordinates of the reversed i-th normal word of Aop_e."""
    words = Aop.basis_words(e)
    P = linalg.zeros(A.field, A.dim(e), len(words))
    for i, w in enumerate(words):
        P[:, i] = A.poly_to_vec(e, NcPoly.word(A.gens, A.field, tuple(reversed(w))))
    return P


@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_swapped_tensors_match_the_reversed_presentation(field):
    A = parse_workspace(EXAMPLE_WORKSPACE, max_deg=MAX_DEG, field=field).algebra("A")
    Aop, op = presented_opposite(A), opposite_algebra(A)
    P = {e: _reversal(A, Aop, e) for e in range(5)}
    for e in range(5):
        assert op.dim(e) == Aop.dim(e) == A.dim(e)
        assert linalg.rank(field, P[e]) == A.dim(e)
    for d1 in range(5):
        for d2 in range(5 - d1):
            # reversal of each product of Aop's words, against the product in
            # op of their reversals
            lhs = linalg.matmul(field, Aop.mult_tensor(d1, d2), P[d1 + d2], axes=(2, 1))
            rhs = linalg.matmul(field, linalg.matmul(field, P[d1], op.mult_tensor(d1, d2), axes=(0, 0)),
                                P[d2], axes=(1, 0)).transpose(0, 2, 1)
            assert np.array_equal(lhs, rhs), (d1, d2)


def test_opposite_keeps_what_alg_knows():
    A = parse_workspace(EXAMPLE_WORKSPACE, max_deg=MAX_DEG, field=Field(13)).algebra("A")
    read = []
    dim = A.dim
    A.dim = lambda d: read.append(d) or dim(d)
    op = opposite_algebra(A)
    assert read == []  # dimensions are read on demand
    assert op.dim(3) == A.dim(3) and read == [3, 3]
    assert op.dim(3) == 7 and read == [3, 3]
    assert (op.valid_from, op.valid_through, op.generated_through) == (0, MAX_DEG, 1)
    assert np.array_equal(op.unit, A.unit)


def test_opposite_of_the_endomorphism_algebra(B):
    Bop = opposite_algebra(B.algebra)
    assert opposite_algebra(Bop) is B.algebra
    assert np.array_equal(Bop.mult_tensor(0, 0), B.algebra.mult_tensor(0, 0).transpose(1, 0, 2))
    assert [Bop.dim(d) for d in range(-1, 3)] == [B.algebra.dim(d) for d in range(-1, 3)]


def test_double_dual_over_the_tabulated_opposite(A, basic_modules):
    # X1 is a rank-one MCM module over the Gorenstein A, so X1 is reflexive;
    # its dual lives over the tabulated A^op, and the second dual over A again
    X1 = basic_modules["X1"]
    D = dual_module(X1, 0, 5)
    assert D.algebra is opposite_algebra(A)
    DD = dual_module(D, 0, 4)
    assert DD.algebra is A
    assert [DD.dim(d) for d in range(4)] == [X1.dim(d) for d in range(4)] == [1, 2, 3, 4]
