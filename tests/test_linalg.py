import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgraded import linalg
from ncgraded.errors import NotInField, UnsupportedField
from ncgraded.scalars import QQ, Field

F = Field(13)


def as_matrix(field, rows):
    """The matrix with the given rows, each entry converted by field."""
    rows = list(rows)
    out = linalg.zeros(field, len(rows), len(rows[0]) if rows else 0)
    for i, r in enumerate(rows):
        for j, v in enumerate(r):
            out[i, j] = field(v)
    return out


def test_rref_identity():
    a = as_matrix(F, [[1, 0], [0, 1]])
    r, piv = linalg.rref(F, a)
    assert piv == [0, 1]
    assert (r == linalg.eye(F, 2)).all()


def test_rank_and_nullspace_mod_p():
    a = as_matrix(F, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(F, a) == 2
    ns = linalg.nullspace(F, a)
    assert ns.shape == (3, 1)
    assert not linalg.matmul(F, a, ns).any()


def test_solve_consistent_and_inconsistent():
    a = as_matrix(F, [[1, 1], [0, 1]])
    b = as_matrix(F, [[3], [2]])
    x = linalg.solve(F, a, b)
    assert (linalg.matmul(F, a, x) == b).all()


def test_solve_no_solution_returns_none():
    a = as_matrix(F, [[1, 1], [1, 1]])
    b = as_matrix(F, [[0], [1]])
    assert linalg.solve(F, a, b) is None


def test_inverse_mod_p():
    a = as_matrix(F, [[2, 1], [1, 1]])
    inv = linalg.inverse(F, a)
    assert (linalg.matmul(F, a, inv) == linalg.eye(F, 2)).all()


def test_rational_exactness():
    # a matrix that loses rank under floating point but not exactly
    a = as_matrix(QQ, [[Fraction(1, 3), Fraction(1, 6)],
                              [Fraction(2, 3), Fraction(1, 3)]])
    assert linalg.rank(QQ, a) == 1
    ns = linalg.nullspace(QQ, a)
    assert ns.shape == (2, 1)


def test_complement_pivots():
    span = linalg.Echelon.of(F, as_matrix(F, [[1], [0], [0]]))
    piv = span.extend(linalg.eye(F, 3))
    assert len(piv) == 2
    assert 0 not in piv


def test_in_span():
    basis = linalg.Echelon.of(F, as_matrix(F, [[1, 0], [0, 1], [0, 0]]))
    assert not basis.reduce(as_matrix(F, [[5], [7], [0]])[:, 0]).any()
    assert basis.reduce(as_matrix(F, [[0], [0], [1]])[:, 0]).any()


def test_column_space_basis():
    a = as_matrix(F, [[1, 2, 0], [2, 4, 1]])
    ech = linalg.Echelon(F, 2)
    piv = ech.extend(a)
    assert piv == [0, 2]
    assert ech.basis.shape == (2, 2)


ECHELON_FIELDS = [Field(13), Field(2**31 - 1), QQ]


@st.composite
def echelon_inputs(draw):
    """(field, n x m matrix of low rank plus noise, a vector, a split point)."""
    field = draw(st.sampled_from(ECHELON_FIELDS))
    n, m, k = draw(st.integers(0, 6)), draw(st.integers(0, 8)), draw(st.integers(0, 4))
    small = st.integers(-3, 3)

    def matrix(rows, cols):
        return as_matrix(field, [[draw(small) for _ in range(cols)] for _ in range(rows)]) \
            if rows and cols else linalg.zeros(field, rows, cols)

    cols = linalg.matmul(field, matrix(n, k), matrix(k, m))  # rank <= k, with repeats
    cols = linalg.reduce(field, cols + matrix(n, m) * draw(st.sampled_from([0, 1])))
    return field, cols, matrix(n, 1).reshape(n), draw(st.integers(0, m))


def _rank_increases(field, cols):
    """Oracle: the columns that raise linalg.rank of the columns before them."""
    out = []
    for j in range(cols.shape[1]):
        if linalg.rank(field, cols[:, out + [j]]) > len(out):
            out.append(j)
    return out


@settings(max_examples=200, deadline=None)
@given(echelon_inputs())
def test_echelon_agrees_with_rank(case):
    field, cols, v, cut = case
    n = cols.shape[0]
    accepted = _rank_increases(field, cols)
    whole = linalg.Echelon(field, n)
    assert whole.extend(cols) == accepted
    assert whole.rank == len(accepted) == linalg.rank(field, cols)
    assert (whole.basis == cols[:, accepted]).all()
    chunked = linalg.Echelon(field, n)
    assert chunked.extend(cols[:, :cut]) + [cut + j for j in chunked.extend(cols[:, cut:])] == accepted
    # reduce is zero exactly on the columns whose rank increase is zero
    grows = linalg.rank(field, np.column_stack([cols, v])) > whole.rank
    assert bool(np.count_nonzero(whole.reduce(v))) == grows
    assert not np.count_nonzero(whole.reduce(cols))
    # coordinates, of single vectors and of all columns at once
    assert (linalg.matmul(field, whole.basis, whole.coords(cols)) == cols).all()
    for j in range(cols.shape[1]):
        assert (linalg.matmul(field, chunked.basis, chunked.coords(cols[:, j])) == cols[:, j]).all()


def test_prime_field_maps_a_fraction_to_a_times_b_inverse():
    f = Field(13)
    assert f(Fraction(1, 2)) == 7
    assert f(Fraction(-5, 3)) == (-5 * 9) % 13  # 3 * 9 = 27 = 1
    assert f(Fraction(26, 2)) == 0
    assert f(np.int64(-1)) == 12 and type(f(np.int64(-1))) is int
    assert QQ(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ(np.int64(5)).numerator) is int


@pytest.mark.parametrize("field", [Field(13), QQ])
@pytest.mark.parametrize("value", [2.7, 2.0, Decimal("2.5"), "3", 1j])
def test_field_refuses_floats_and_non_rationals(field, value):
    with pytest.raises(NotInField):
        field(value)


@pytest.mark.parametrize("value", [Fraction(1, 13), Fraction(5, 26), Fraction(-1, 169)])
def test_prime_field_refuses_a_denominator_divisible_by_p(value):
    with pytest.raises(NotInField):
        Field(13)(value)


# largest prime p with (p - 1)^2 <= 2^63 - 1, and the next prime
LARGEST_PRIME = 3_037_000_493
FIRST_PRIME_ABOVE = 3_037_000_507

MATMUL_FIELDS = [Field(13), Field(2**31 - 1), Field(LARGEST_PRIME), QQ]
MATMUL_CASES = [  # (shape of a, shape of b, axes)
    ((4,), (4,), None),
    ((4,), (4, 3), None),
    ((3, 4), (4,), None),
    ((3, 4), (4, 2), None),
    ((2, 3, 4), (4, 5), None),
    ((2, 3, 4), (4, 3), ([1, 2], [1, 0])),
    ((3, 2), (3, 4), (0, 0)),
    ((3, 0), (0, 2), None),
    ((2, 0, 3), (0, 4), (1, 0)),
]


@st.composite
def matmul_inputs(draw):
    field = draw(st.sampled_from(MATMUL_FIELDS))
    shape_a, shape_b, axes = draw(st.sampled_from(MATMUL_CASES))
    if field.is_prime_field:
        p = field.p
        elem = st.sampled_from([0, 1, p - 2, p - 1]) | st.integers(0, p - 1)
    else:
        elem = st.fractions(min_value=-9, max_value=9, max_denominator=7)

    def array(shape):
        n = math.prod(shape)
        return np.array(draw(st.lists(elem, min_size=n, max_size=n)), dtype=object).reshape(shape)

    return field, array(shape_a), array(shape_b), axes


@settings(max_examples=150, deadline=None)
@given(matmul_inputs())
def test_matmul_matches_python_int_reference(case):
    field, a, b, axes = case
    # object arrays of Python ints / Fractions never overflow
    ref = np.tensordot(a, b, axes=1 if axes is None else axes)
    if field.is_prime_field:
        ref = ref % field.p
        a, b = a.astype(np.int64), b.astype(np.int64)
    ref = np.asarray(ref, dtype=object)
    got = linalg.matmul(field, a, b, axes)
    assert got.shape == ref.shape
    assert got.dtype == (np.int64 if field.is_prime_field else object)
    assert got.tolist() == ref.tolist()


def test_matmul_does_not_overflow_near_the_prime_bound():
    for p in (2**31 - 1, LARGEST_PRIME):
        a = np.full((4, 4), p - 1, dtype=np.int64)
        assert (linalg.matmul(Field(p), a, a) == 4).all()  # 4 * (-1)^2


# For contractions of K = 50 terms: the largest prime p with K * (p - 1)^2 < 2^53,
# whose products above the size threshold run in float64, and the next prime,
# whose products stay in int64
K = 50
FLOAT_PRIME, INT_PRIME = 13_421_767, 13_421_783
LARGE_CASES = [  # (shape of a, shape of b, axes), each contracting K terms
    ((20, 50), (50, 20), None),
    ((50,), (50, 200), None),
    ((4, 5, 50), (50, 100), None),
    ((10, 5, 10), (10, 5, 30), ([1, 2], [1, 0])),
]


@pytest.mark.parametrize("p", [FLOAT_PRIME, INT_PRIME], ids=["float64", "int64"])
@pytest.mark.parametrize("shape_a, shape_b, axes", LARGE_CASES, ids=["2d", "1d", "3d", "axes"])
def test_matmul_above_the_float_threshold_matches_python_int_reference(p, shape_a, shape_b, axes):
    assert (K * (p - 1) ** 2 < 2**53) == (p == FLOAT_PRIME)
    assert math.prod(shape_a) * math.prod(shape_b) // K >= linalg.FLOAT_MIN_MULADDS
    ax_a, ax_b = ([len(shape_a) - 1], [0]) if axes is None else axes

    def top(shape, ax, last):
        # every entry p - 1, the last term of each contraction `last`
        out = np.full(shape, p - 1, dtype=np.int64)
        out[tuple(-1 if i in ax else slice(None) for i in range(len(shape)))] = last
        return out

    rng = np.random.default_rng(15)
    operands = [(rng.integers(0, p, shape_a), rng.integers(0, p, shape_b)) for _ in range(2)]
    # the largest sums; with the last term (p - 2)^2 they are odd, so above
    # 2^53 a float64 sum could not hold them
    operands += [(top(shape_a, ax_a, last), top(shape_b, ax_b, last)) for last in (p - 1, p - 2)]
    for a, b in operands:
        ref = np.tensordot(a.astype(object), b.astype(object), axes=1 if axes is None else axes) % p
        got = linalg.matmul(Field(p), a, b, axes)
        assert got.dtype == np.int64 and got.tolist() == ref.tolist()


def test_primes_above_the_int64_bound_are_refused_quickly():
    Field(LARGEST_PRIME)
    for p in (4611686018427387847, FIRST_PRIME_ABOVE, 4):
        t0 = time.perf_counter()
        with pytest.raises(UnsupportedField):
            Field(p)
        assert time.perf_counter() - t0 < 1.0


# -- rref against a textbook Gauss-Jordan on Python ints mod p and Fractions --

def _oracle_rref(field, rows):
    """(R, pivots) of the list-of-lists matrix rows: pivot on the first row
    with a nonzero, scale it, clear the column in every other row."""
    p = field.p

    def canon(x):
        return x % p if p else x

    r = [list(row) for row in rows]
    n = len(r[0]) if r else 0
    pivots: list[int] = []
    for c in range(n):
        k = len(pivots)
        i = next((i for i in range(k, len(r)) if r[i][c]), None)
        if i is None:
            continue
        r[k], r[i] = r[i], r[k]
        s = pow(r[k][c], -1, p) if p else 1 / r[k][c]
        r[k] = [canon(x * s) for x in r[k]]
        for i in range(len(r)):
            if i != k and r[i][c]:
                f = r[i][c]
                r[i] = [canon(x - f * y) for x, y in zip(r[i], r[k])]
        pivots.append(c)
    return r, pivots


def _oracle_nullspace(field, rows, n):
    """Basis vectors of the null space, as lists: one per free column j, 1
    at j and minus column j of R at the pivots."""
    r, pivots = _oracle_rref(field, rows)
    zero = 0 if field.p else Fraction(0)
    out = []
    for j in (j for j in range(n) if j not in pivots):
        v = [zero] * n
        v[j] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r[i][j])
        out.append(v)
    return out


def _random_rows(field, m, n, density, rng):
    """m x n, each entry nonzero with probability density: a unit of GF(p),
    or a fraction a/b with 0 < |a| <= 9 and 0 < b <= 5 over QQ."""
    def entry():
        if rng.random() >= density:
            return field.zero
        if field.p:
            return rng.randrange(1, field.p)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    # a few rows that repeat combinations of others, so the rank falls short
    for i in range(0, m // 4):
        a, b = rng.randrange(m), rng.randrange(m)
        rows[i] = [field.add(x, field.mul(2, y)) for x, y in zip(rows[a], rows[b])]
    return rows


RREF_FIELDS = [Field(13), Field(2**31 - 1), QQ]
RREF_SHAPES = {  # name: (m, n, density)
    "sparse": (60, 120, 0.008),
    "dense": (25, 30, 1.0),
    "fill": (40, 80, 0.01),  # made an arrowhead below, which fills in
    "wide": (12, 90, 0.05),
    "tall": (70, 15, 0.1),
}


@pytest.mark.parametrize("shape", list(RREF_SHAPES))
@pytest.mark.parametrize("field", RREF_FIELDS, ids=["p13", "p2^31-1", "QQ"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rref_matches_textbook_gauss_jordan(field, shape, seed):
    m, n, density = RREF_SHAPES[shape]
    rng = random.Random(f"{field}/{shape}/{seed}")
    rows = _random_rows(field, m, n, density, rng)
    if shape == "fill":
        # a full first row and column: sparse until the first pivot fills
        # every row, and the sparse rows carry that fill to the end
        rows[0] = [field(rng.randint(1, 9)) for _ in range(n)]
        for row in rows[1:]:
            row[0] = field(rng.randint(1, 9))
    a = as_matrix(field, rows)
    before = a.copy()
    want_r, want_piv = _oracle_rref(field, rows)
    r, piv = linalg.rref(field, a)
    assert piv == want_piv
    assert r.tolist() == want_r
    assert linalg.rref(field, a, reduced=False) == (None, want_piv)
    assert (a == before).all()  # the input is left as it was

    assert linalg.rank(field, a) == len(want_piv)
    ns = linalg.nullspace(field, a)
    assert ns.T.tolist() == _oracle_nullspace(field, rows, n)
    # a right-hand side in the column span: the solution that is zero off the pivots
    x0 = [field(rng.randint(-3, 3)) for _ in range(n)]
    b = linalg.matmul(field, a, as_matrix(field, [[v] for v in x0]))
    aug_r, aug_piv = _oracle_rref(field, [row + [v] for row, v in zip(rows, b[:, 0].tolist())])
    want_x = [[field.zero] for _ in range(n)]
    for i, pc in enumerate(aug_piv):
        want_x[pc] = [aug_r[i][n]]
    assert linalg.solve(field, a, b).tolist() == want_x
    # and a unit vector outside the span, when the rank falls short of m
    for i in range(m if len(want_piv) < m else 0):
        e = [[field.one if k == i else field.zero] for k in range(m)]
        if _oracle_rref(field, [row + v for row, v in zip(rows, e)])[1][-1] == n:
            assert linalg.solve(field, a, as_matrix(field, e)) is None
            break
    else:
        assert len(want_piv) == m


@pytest.mark.parametrize("field", RREF_FIELDS, ids=["p13", "p2^31-1", "QQ"])
@pytest.mark.parametrize("n, density", [(30, 0.05), (20, 0.3), (12, 1.0)])
def test_inverse_matches_textbook_gauss_jordan(field, n, density):
    rng = random.Random(f"{field}/{n}/{density}")
    eye = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for _ in range(3):
        # random rows plus one on a permuted diagonal, mostly invertible, and
        # the same with the last row the sum of the first two, singular
        rows = _random_rows(field, n, n, density, rng) if density < 1 else [
            [field(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][(i * 7) % n] = field.add(rows[i][(i * 7) % n], field.one)
        singular = rows[:-1] + [[field.add(x, y) for x, y in zip(rows[0], rows[1])]]
        for case in (rows, singular):
            r, piv = _oracle_rref(field, [row + e for row, e in zip(case, eye)])
            got = linalg.inverse(field, as_matrix(field, case))
            if piv[:n] != list(range(n)):
                assert got is None
            else:
                assert got.tolist() == [row[n:] for row in r]


# -- sparse_rank against rank, on the same seeded sparse matrices --

@pytest.mark.parametrize("shape", list(RREF_SHAPES))
@pytest.mark.parametrize("field", RREF_FIELDS, ids=["p13", "p2^31-1", "QQ"])
@pytest.mark.parametrize("seed", [0, 1])
def test_sparse_rank_matches_rank(field, shape, seed):
    m, n, density = RREF_SHAPES[shape]
    rng = random.Random(f"sparse_rank/{field}/{shape}/{seed}")
    a = as_matrix(field, _random_rows(field, m, n, density, rng))
    # zero columns in front, inside and at the end
    a = np.concatenate([a[:, :1] * 0, a[:, : n // 2], a[:, :1] * 0, a[:, n // 2 :],
                        a[:, :1] * 0], axis=1)
    columns = [{i: col[i] for i in range(m) if col[i]} for col in a.T.tolist()]
    before = [dict(c) for c in columns]
    _, pivots = linalg.rref(field, a, reduced=False)
    want = len(pivots)
    assert want == linalg.rank(field, a)
    assert linalg.sparse_rank(field, columns, m) == want
    assert linalg.sparse_rank(field, columns, want + 1) == want
    assert columns == before  # the columns are left as they were
    # the early stop: at limit L the rank is L, and reading stops at the
    # column that brings the rank of the columns read so far to L, which
    # is the L-th pivot column of a
    for limit in {0, min(1, want), want // 2, want}:
        read = []

        def counted():
            for j, col in enumerate(columns):
                read.append(j)
                yield col

        assert linalg.sparse_rank(field, counted(), limit) == limit
        assert len(read) == (pivots[limit - 1] + 1 if limit else 0)
