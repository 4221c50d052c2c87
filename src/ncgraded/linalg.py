"""Exact linear algebra over GF(p) and QQ.

Arrays over GF(p) are numpy int64 arrays kept reduced mod p, so that row
operations vectorize.  This module is the one place that reduces them:
every product of field arrays goes through ``matmul``, every elementwise
result (sums, scalings) through ``reduce``.  ``matmul`` takes one of two
exact paths.  A product of at least ``FLOAT_MIN_MULADDS`` multiply-adds
whose contraction length k has k * (p - 1)**2 < 2**53 runs in float64 on
BLAS: every partial sum is then an integer below 2**53, which float64
holds exactly, so the result equals the integer one.  Every other product
runs in int64, summing the terms of a contraction in blocks of
floor((2**63 - 1) / (p - 1)**2), each of which fits in int64, and reducing
after each block; ``Field`` refuses primes with (p - 1)**2 > 2**63 - 1,
so that a block holds at least one term.  (For p up to
32003 a block holds more than 10**9 terms, so one block covers any
contraction.)  Arrays over QQ are object arrays of Fractions; that path is
slower and only exercised by small inputs.

``rref`` is a Gauss-Jordan elimination on sparse rows, so that its cost
follows the nonzeros, not m * n: it reads the nonzeros once, keeps each row
as a {column: value} dict beside an index from each column to the rows that
hold it, walks the columns in increasing order once, pivots on the lowest
unused row holding the column and updates only the rows holding it.
The reduced row echelon form is unique, so R and the pivots do not depend
on these choices.  Over both fields the rows stay sparse to the end: a
dense input, or one that fills in, pays Python's cost for every entry and
runs many times slower than a numpy loop would, but the eliminations of the
pipeline are sparse.  ``rref(..., reduced=False)`` eliminates below the
pivots only and returns no R, for the callers that need the pivots alone
(``rank``, the first elimination of ``Echelon.extend``, the evaluation map
of ``eval_iso_check``).  ``sparse_rank`` takes the rank of columns given as
dicts one at a time, and stops reading them at a given rank, for relations
that are produced block by block (``eval_iso_check``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import INT64_MAX, Field

# Smallest product, in multiply-adds, sent to float64 BLAS; below it the
# casts cost more than BLAS saves.  Timed on the shapes of every GF(13)
# product of one paper-example verify-example run (2-vCPU Xeon, OpenBLAS on
# one thread): float64 is slower below 10**3 multiply-adds, even up to
# 10**4, 1.5x faster up to 10**5, 3x up to 10**6 and 8x above.
FLOAT_MIN_MULADDS = 10**4

def zeros(field: Field, *shape: int) -> np.ndarray:
    if field.is_prime_field:
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, Fraction(0), dtype=object)


def eye(field: Field, n: int) -> np.ndarray:
    out = zeros(field, n, n)
    for i in range(n):
        out[i, i] = field.one
    return out


def reduce(field: Field, a: np.ndarray) -> np.ndarray:
    """Canonical form, in place, of an elementwise result (a sum or scaling
    of reduced field arrays); returns a."""
    if field.is_prime_field:
        a %= field.p
    return a


def matmul(field: Field, a: np.ndarray, b: np.ndarray, axes=None) -> np.ndarray:
    """Contraction of field arrays a and b, reduced.

    With axes=None the last axis of a is contracted with the first axis of
    b (what ``@`` does for 1-D and 2-D operands, and for a 3-D a against a
    2-D b); otherwise axes = (axes of a, axes of b), each an int or a
    sequence, as in np.tensordot.  An empty contraction gives field zeros
    of the result shape.

    Over GF(p) a product of contraction length k and at least
    FLOAT_MIN_MULADDS multiply-adds runs in float64 (BLAS) when
    k * (p - 1)**2 < 2**53, so that every partial sum is an exact integer;
    any other runs in int64.  Both give the same reduced array."""
    if axes is not None or b.ndim > 2:
        # move the contracted axes together and contract two matrices
        ax_a, ax_b = (a.ndim - 1, 0) if axes is None else axes
        ax_a = [i % a.ndim for i in ((ax_a,) if isinstance(ax_a, int) else ax_a)]
        ax_b = [i % b.ndim for i in ((ax_b,) if isinstance(ax_b, int) else ax_b)]
        free_a = [i for i in range(a.ndim) if i not in ax_a]
        free_b = [i for i in range(b.ndim) if i not in ax_b]
        shape = [a.shape[i] for i in free_a] + [b.shape[i] for i in free_b]
        k = math.prod(a.shape[i] for i in ax_a)
        if k == 0:
            return zeros(field, *shape)
        a = a.transpose(free_a + ax_a).reshape(-1, k)
        b = b.transpose(ax_b + free_b).reshape(k, -1)
        return matmul(field, a, b).reshape(shape)
    k = a.shape[-1]
    if k == 0:
        return zeros(field, *a.shape[:-1], *b.shape[1:])
    if not field.is_prime_field:
        return np.asarray(np.dot(a, b))
    p = field.p
    if k * (p - 1) ** 2 < 2**53 and a.size * (b.size // k) >= FLOAT_MIN_MULADDS:
        # a as a matrix: np.dot calls BLAS only on 1-D and 2-D operands
        c = np.dot(a.reshape(-1, k).astype(np.float64), b.astype(np.float64))
        c = c.astype(np.int64).reshape(a.shape[:-1] + b.shape[1:])
        c %= p
        return c
    step = INT64_MAX // (p - 1) ** 2
    c = np.dot(a, b) if k <= step else np.dot(a[..., :step], b[:step])
    c %= p
    for i in range(step, k, step):
        c += np.dot(a[..., i : i + step], b[i : i + step]) % p
        c %= p
    return c


def rref(field: Field, a: np.ndarray, reduced: bool = True):
    """Reduced row echelon form; returns (R, pivot column indices).

    With reduced=False only the entries below each pivot are eliminated,
    and (None, pivot column indices) is returned: the same pivots, for
    callers that discard R."""
    m, n = a.shape
    p = field.p
    # much faster than np.nonzero(a): one pass over a boolean array, flat
    flat = np.flatnonzero(a != 0)
    rows: list[dict] = [{} for _ in range(m)]  # row i as {column: value}
    holders: dict[int, set] = {}  # column -> the rows with a nonzero in it
    rs, cs = divmod(flat, n)
    for i, j, v in zip(rs.tolist(), cs.tolist(), a.reshape(-1)[flat].tolist()):
        rows[i][j] = v
        holders.setdefault(j, set()).add(i)
    # the columns in holders, smallest first, walked once; after column c is
    # taken, every unused row is zero up to c, so the pivot row's entries lie
    # right of c, in columns still in holders, and fill adds no column
    unused = set(range(m))
    done: list[int] = []  # the pivot rows, in pivot order
    pivots: list[int] = []
    for c in sorted(holders):
        if not unused:
            break
        hold = holders.pop(c)
        cand = hold & unused
        if not cand:
            continue
        piv = min(cand)
        unused.remove(piv)
        prow = rows[piv]
        inv = field.inv(prow[c])
        for j, v in prow.items():
            prow[j] = v * inv % p if p is not None else v * inv
        for i in (hold if reduced else cand):
            if i == piv:
                continue
            row = rows[i]
            f = row[c]
            for j, w in prow.items():
                v = row.get(j, 0) - f * w
                if p is not None:
                    v %= p
                if v:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    if j != c:
                        holders[j].discard(i)
        done.append(piv)
        pivots.append(c)
    if not reduced:
        return None, pivots
    r = zeros(field, m, n)
    ri = [k for k, i in enumerate(done) for _ in rows[i]]
    if ri:
        r[ri, [j for i in done for j in rows[i]]] = [v for i in done for v in rows[i].values()]
    return r, pivots


def rank(field: Field, a: np.ndarray) -> int:
    if 0 in a.shape:
        return 0
    return len(rref(field, a, reduced=False)[1])


def sparse_rank(field: Field, columns, limit: int) -> int:
    """Rank of the span of columns, an iterable of {row: value} dicts of
    nonzero field values, or limit once the rank reaches it: no column is
    read after that.

    An incremental echelon: pivots maps the lowest row of each accepted
    column, as reduced, to that column scaled to 1 there.  A new column is
    reduced on its lowest row until it vanishes, or until its lowest row
    holds no pivot and it becomes one.  The columns are not modified."""
    if limit <= 0:
        return 0
    p = field.p
    pivots: dict[int, dict] = {}
    for col in columns:
        col = dict(col)
        while col:
            low = min(col)
            piv = pivots.get(low)
            if piv is None:
                inv = field.inv(col[low])
                pivots[low] = {i: v * inv % p if p is not None else v * inv for i, v in col.items()}
                if len(pivots) == limit:
                    return limit
                break
            f = col[low]
            for i, w in piv.items():
                v = col.get(i, 0) - f * w
                if p is not None:
                    v %= p
                if v:
                    col[i] = v
                else:
                    col.pop(i, None)
    return len(pivots)


def nullspace(field: Field, a: np.ndarray) -> np.ndarray:
    """Columns form a basis of {x : a x = 0} (echelon-normalized, deterministic)."""
    m, n = a.shape
    if 0 in a.shape:
        return eye(field, n)
    r, pivots = rref(field, a)
    free = sorted(set(range(n)) - set(pivots))
    out = zeros(field, n, len(free))
    out[pivots] = reduce(field, -r[: len(pivots), free])
    out[free, range(len(free))] = field.one
    return out


def solve(field: Field, a: np.ndarray, b: np.ndarray):
    """One solution x of a x = b (b may have several columns); None if inconsistent."""
    n = a.shape[1]
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    r, pivots = rref(field, np.concatenate([a, b], axis=1))
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(field, n, b.shape[1])
    x[pivots] = r[: len(pivots), n:]
    return x


def inverse(field: Field, a: np.ndarray):
    """Inverse of a square matrix, or None if singular (or not square)."""
    if a.shape[0] != a.shape[1]:
        return None
    return solve(field, a, eye(field, a.shape[0]))


class Echelon:
    """Incremental echelon basis of a column span in field^n.

    ``basis`` holds the accepted columns in order, and ``rank`` their number.
    An element of the span is determined by its entries at ``pivots``:
    ``basis[pivots]`` is invertible, and ``coords`` applies its inverse.
    ``extend`` reduces new columns against the span, eliminates only the
    residual and updates that inverse, so it never eliminates accepted
    columns again."""

    def __init__(self, field: Field, n: int):
        self.field = field
        self.basis = zeros(field, n, 0)
        self.pivots: list[int] = []
        self._inv = zeros(field, 0, 0)

    @classmethod
    def of(cls, field: Field, cols: np.ndarray) -> "Echelon":
        """The echelon basis of the span of the columns of cols."""
        ech = cls(field, cols.shape[0])
        ech.extend(cols)
        return ech

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def copy(self) -> "Echelon":
        """An Echelon of the same span; extending either leaves the other as it is."""
        ech = Echelon(self.field, self.basis.shape[0])
        ech.basis, ech.pivots, ech._inv = self.basis, list(self.pivots), self._inv
        return ech

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates on ``basis`` of v (a vector or a matrix of columns)
        lying in the span."""
        return matmul(self.field, self._inv, v[self.pivots])

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """v (a vector or a matrix of columns) minus the element of the span
        that agrees with it on the pivots; zero on exactly the columns of v
        that lie in the span."""
        return reduce(self.field, v - matmul(self.field, self.basis, self.coords(v)))

    def extend(self, cols: np.ndarray) -> list[int]:
        """Accept, greedily left to right, the columns of cols that enlarge
        the span; returns their indices."""
        f, n = self.field, cols.shape[0]
        w = self.reduce(cols) if self.rank else cols
        _, accepted = rref(f, w, reduced=False)
        if not accepted:
            return []
        k = len(accepted)
        # w[:, accepted] has full column rank and is zero at the old pivots:
        # the rref of its transpose beside an identity has its pivots at the
        # new pivot positions, and its right part transposes to z, the
        # inverse of w[new][:, accepted]
        r, new = rref(f, np.concatenate([w[:, accepted].T, eye(f, k)], axis=1))
        z = r[:, n:].T
        if self.rank:
            # a vector v of the enlarged span is basis @ a + cols[:, accepted] @ b,
            # with b = z @ (its residual against the old span)[new] and
            # a = inv @ (v[pivots] - cols[pivots][:, accepted] @ b); the new
            # inverse maps v[pivots + new] to (a, b)
            lower = reduce(f, -matmul(f, z, matmul(f, self.basis[new], self._inv)))
            lower = np.concatenate([lower, z], axis=1)
            upper = np.concatenate([self._inv, zeros(f, self.rank, k)], axis=1)
            upper -= matmul(f, matmul(f, self._inv, cols[self.pivots][:, accepted]), lower)
            z = np.concatenate([reduce(f, upper), lower])
        self._inv = z
        self.pivots += new
        self.basis = np.concatenate([self.basis, cols[:, accepted]], axis=1)
        return accepted
