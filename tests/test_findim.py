import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ncgraded.errors import FieldTooSmall, NonSplit
from ncgraded.findim import (
    FinDimAlgebra,
    _poly_roots,
    _products,
    _sandwich,
    gabriel_quiver,
    primitive_idempotents,
    radical_and_idempotents,
    radical_basis,
)
from ncgraded.scalars import Field

F = Field(13)
QQ = Field(None)


def _group_algebra_z2():
    # k[Z/2]: basis 1, g with g^2 = 1
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = mult[1, 1, 0] = 1
    unit = np.array([1, 0], dtype=np.int64)
    return FinDimAlgebra(F, mult, unit)


def _dual_numbers(field=F):
    # k[e]/(e^2): basis 1, e
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = 1
    unit = np.array([1, 0], dtype=np.int64)
    return FinDimAlgebra(field, mult, unit)


def _mat2():
    # 2x2 matrices, basis e11, e12, e21, e22
    mult = np.zeros((4, 4, 4), dtype=np.int64)
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mult[i, j, idx[(a, d)]] = 1
    unit = np.array([1, 0, 0, 1], dtype=np.int64)
    return FinDimAlgebra(F, mult, unit)


def test_axiom_check_rejects_bad_unit():
    mult = np.zeros((1, 1, 1), dtype=np.int64)
    with pytest.raises(Exception):
        FinDimAlgebra(F, mult, np.array([1], dtype=np.int64))


def test_semisimple_group_algebra():
    alg = _group_algebra_z2()
    assert radical_basis(alg).shape[1] == 0
    assert len(primitive_idempotents(alg)) == 2


def test_dual_numbers_local():
    alg = _dual_numbers()
    assert radical_basis(alg).shape[1] == 1
    assert len(primitive_idempotents(alg)) == 1


def test_matrix_algebra_radical_zero_but_nonsplit_corner():
    alg = _mat2()
    assert radical_basis(alg).shape[1] == 0
    with pytest.raises(NonSplit):
        primitive_idempotents(alg)


def test_field_too_small_guard():
    small = _dual_numbers(Field(2))
    with pytest.raises(FieldTooSmall):
        radical_basis(small)


def _triangular():
    # upper triangular 2x2 matrices: basis e11, e22, e12
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0, 0, 0] = 1  # e11 e11
    mult[1, 1, 1] = 1  # e22 e22
    mult[0, 2, 2] = 1  # e11 e12
    mult[2, 1, 2] = 1  # e12 e22
    unit = np.array([1, 1, 0], dtype=np.int64)
    return FinDimAlgebra(F, mult, unit)


def test_gabriel_quiver_of_triangular_matrices():
    idems, arrows = gabriel_quiver(_triangular())
    assert len(idems) == 2
    assert int(np.asarray(arrows).sum()) == 1


def test_gabriel_quiver_reads_the_sorted_idempotents():
    """primitive_idempotents finds e22 before e11; the quiver's vertices come
    in radical_and_idempotents' order, sorted by support, and its one arrow
    (e11 rad e22 = k e12) runs between them in that order."""
    alg = _triangular()
    assert [list(e) for e in primitive_idempotents(alg)] == [[0, 1, 0], [1, 0, 0]]
    idems, arrows = gabriel_quiver(alg)
    assert idems is radical_and_idempotents(alg).idempotents
    assert [list(e) for e in idems] == [[1, 0, 0], [0, 1, 0]]
    assert arrows == [[0, 0], [1, 0]]


def test_gabriel_quiver_counts_the_radical_modulo_its_square():
    # k[x]/(x^3): basis 1, x, x^2; rad = (x, x^2), rad^2 = (x^2), so one loop
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3 - i):
            mult[i, j, i + j] = 1
    alg = FinDimAlgebra(F, mult, np.array([1, 0, 0], dtype=np.int64))
    idems, arrows = gabriel_quiver(alg)
    assert len(idems) == 1
    assert arrows == [[1]]


def test_product_contractions_match_one_product_at_a_time():
    """_products and _sandwich, which replace per-pair alg.mul loops, give
    the loops' columns in the loops' order."""
    alg = _mat2()
    rng = np.random.default_rng(3)
    A, B = rng.integers(0, 13, (4, 3)), rng.integers(0, 13, (4, 2))
    a, b = rng.integers(0, 13, 4), rng.integers(0, 13, 4)
    loop = np.stack([alg.mul(A[:, i], B[:, j]) for i in range(3) for j in range(2)], axis=1)
    assert (_products(alg, A, B) == loop).all()
    loop = np.stack([alg.mul(alg.mul(a, A[:, c]), b) for c in range(3)], axis=1)
    assert (_sandwich(alg, a, A, b) == loop).all()


def _times(f, g):
    """Product of low-to-high coefficient lists."""
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_rational_roots_of_products_with_an_irreducible_quadratic():
    """prod (x - a/b) (x^2 + 1) over QQ: the rational roots come out sorted,
    each as often as its factor, and x^2 + 1 stays as residual degree 2."""
    rng = random.Random(7)
    for _ in range(20):
        roots = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
        f = [Fraction(1), Fraction(0), Fraction(1)]
        for r in roots:
            f = _times(f, [-r, Fraction(1)])
        assert _poly_roots(QQ, f) == (sorted(roots), 2)


def test_rational_roots_include_zero_and_big_constant_terms():
    assert _poly_roots(QQ, _times([Fraction(0), Fraction(1)], [Fraction(-3, 4), Fraction(1)])) == (
        [0, Fraction(3, 4)], 0)
    # the constant term is 2**40 - 6 after clearing denominators: its
    # divisors are found by trial division up to its square root
    c = 2**40 - 6
    f = _times([Fraction(-c, 2), Fraction(1)], [Fraction(2), Fraction(0), Fraction(1)])
    t0 = time.monotonic()
    assert _poly_roots(QQ, f) == ([Fraction(c, 2)], 2)
    assert time.monotonic() - t0 < 1


def test_idempotents_over_qq_split_by_rational_eigenvalues():
    """The triangular algebra over QQ splits as over GF(13)."""
    F13 = _triangular()
    alg = FinDimAlgebra(QQ, F13.mult.astype(object) * Fraction(1), F13.unit.astype(object) * Fraction(1))
    assert [list(e) for e in radical_and_idempotents(alg).idempotents] == [[1, 0, 0], [0, 1, 0]]
