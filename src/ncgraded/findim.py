"""Finite-dimensional associative algebras by structure constants.

Provides the Jacobson radical (trace-form kernel, valid over GF(p) with
p exceeding the dimension), a complete orthogonal set of primitive
idempotents lifted from the semisimple quotient, and the Gabriel quiver.
Scalars are assumed split (the semisimple quotient must be a product of
matrix algebras over the base field); NonSplit is raised otherwise.  The
idempotents are split off by roots of minimal polynomials: over GF(p)
every element is tried, over QQ the rational root test's candidates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import FieldTooSmall, NonSplit, NotSemisimple
from .memo import memo
from .scalars import Field


class FinDimAlgebra:
    """Associative unital algebra on basis e_0..e_{n-1} with structure tensor
    mult[i, j, :] = coords of e_i e_j."""

    def __init__(self, field: Field, mult: np.ndarray, unit: np.ndarray, check: bool = True):
        self.field = field
        self.mult = mult
        self.unit = np.asarray(unit)
        self.n = mult.shape[0]
        if check:
            self._check_axioms()

    def _check_axioms(self):
        f = self.field
        # (e_i e_j) e_k = e_i (e_j e_k), checked as one tensor identity
        left = linalg.matmul(f, self.mult, self.mult)  # (i, j, k, l)
        right = linalg.matmul(f, self.mult, self.mult, axes=(2, 1)).transpose(2, 0, 1, 3)
        if not (left == right).all():
            raise ValueError("structure constants are not associative")
        # unit . e_i = e_i . unit = e_i for every i
        eye = linalg.eye(f, self.n)
        if not (_veq(f, self.left_mult(self.unit), eye)
                and _veq(f, linalg.matmul(f, self.mult, self.unit, axes=(1, 0)), eye)):
            raise ValueError("unit vector fails the unit law")

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return linalg.matmul(self.field, self.left_mult(a), b)

    def left_mult(self, a: np.ndarray) -> np.ndarray:
        return linalg.matmul(self.field, a, self.mult).T  # (out, in)

    def element(self, i: int) -> np.ndarray:
        v = linalg.zeros(self.field, self.n)
        v[i] = self.field.one
        return v


def _veq(field, a, b) -> bool:
    return not linalg.reduce(field, a - b).any()


def _products(alg: FinDimAlgebra, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Columns A[:, i] . B[:, j], ordered by i, then j."""
    left = linalg.matmul(alg.field, A, alg.mult, axes=(0, 0))  # (i, n, n)
    prods = linalg.matmul(alg.field, left, B, axes=(1, 0))  # (i, n, j)
    return prods.transpose(1, 0, 2).reshape(alg.n, A.shape[1] * B.shape[1])


def _sandwich(alg: FinDimAlgebra, a: np.ndarray, X: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns (a . X[:, c]) . b."""
    return _products(alg, _products(alg, a[:, None], X), b[:, None])


def radical_basis(alg: FinDimAlgebra) -> np.ndarray:
    """Columns = basis of the Jacobson radical, via the trace form
    G_{ij} = tr(L_{e_i} L_{e_j}); its kernel is rad when char 0 or p > dim."""
    f = alg.field
    n = alg.n
    if f.is_prime_field and f.p <= n:
        raise FieldTooSmall(f"trace-form radical needs p > dim; got p={f.p}, dim={n}")
    # L_i = left_mult(e_i) has entries L_i[k, l] = mult[i, l, k]
    gram = linalg.matmul(f, alg.mult, alg.mult, axes=([1, 2], [2, 1]))
    rad = linalg.nullspace(f, gram)
    # the kernel must be nilpotent; verify by raising the span
    span = rad
    for _ in range(n):
        if span.shape[1] == 0:
            return rad
        span = linalg.Echelon.of(f, _products(alg, span, rad)).basis
    if span.shape[1]:
        raise NotSemisimple("trace-form kernel is not nilpotent")
    return rad


def _min_poly(field: Field, alg: FinDimAlgebra, v: np.ndarray):
    """Coefficients (low to high, monic) of the minimal polynomial of v."""
    pows = [alg.unit.copy()]
    cur = alg.unit.copy()
    for _ in range(alg.n + 1):
        cur = alg.mul(cur, v)
        mat = np.stack(pows, axis=1)
        sol = linalg.solve(field, mat, cur)
        if sol is not None:
            coeffs = [field.neg(field(c)) for c in sol[:, 0]] + [field.one]
            return coeffs
        pows.append(cur.copy())
    raise RuntimeError("minimal polynomial not found")


def _poly_roots(field: Field, coeffs):
    """The roots in the base field of the monic polynomial with the given
    low-to-high coefficients, sorted, each listed once per factor x - r
    divided out, and the degree of the part left with no root there.
    Over GF(p) every element is tried; over QQ the candidates are the
    rational root test's (_rational_candidates)."""
    rem = [field(c) for c in coeffs]
    roots = []
    for r in range(field.p) if field.is_prime_field else _rational_candidates(rem):
        while True:
            # synthetic division by (x - r)
            out = []
            acc = field.zero
            for c in reversed(rem):
                acc = field.add(field.mul(acc, field(r)), c)
                out.append(acc)
            if field.is_zero(out[-1]) and len(rem) > 1:
                roots.append(r)
                rem = list(reversed(out[:-1]))
            else:
                break
    return roots, len(rem) - 1  # residual degree


def _rational_candidates(coeffs):
    """Every rational root of the polynomial with the given low-to-high
    Fraction coefficients, among others, ascending: with the denominators
    cleared to integers c_i, 0 when c_0 = 0, and +-a/b for a dividing the
    lowest nonzero c_i and b dividing the leading one."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    low = next(c for c in ints if c)
    cands = {Fraction(s * a, b) for a in _divisors(abs(low)) for b in _divisors(abs(ints[-1]))
             for s in (1, -1)}
    return sorted(cands | ({Fraction(0)} if ints[0] == 0 else set()))


def _divisors(n: int) -> list:
    """The positive divisors of n > 0, by trial division up to its square root."""
    small = [a for a in range(1, math.isqrt(n) + 1) if n % a == 0]
    return small + [n // a for a in small]


def primitive_idempotents(alg: FinDimAlgebra, rad: np.ndarray | None = None):
    """Complete orthogonal primitive idempotents, deterministically ordered.

    Splits commutative semisimple pieces by eigenvalues of basis elements and
    lifts through the radical with Newton steps e <- 3e^2 - 2e^3."""
    f = alg.field
    if rad is None:
        rad = radical_basis(alg)
    idems = [alg.unit.copy()] if alg.n else []  # the zero algebra has no nonzero idempotent
    done = False
    guard = 0
    while not done:
        guard += 1
        if guard > 4 * alg.n + 8:
            raise NonSplit("idempotent splitting did not terminate")
        done = True
        nxt = []
        for e in idems:
            pieces = _split_corner(alg, e, rad)
            if len(pieces) > 1:
                done = False
            nxt.extend(pieces)
        idems = nxt
    return idems


def _corner_basis(alg: FinDimAlgebra, e: np.ndarray) -> np.ndarray:
    return linalg.Echelon.of(alg.field, _sandwich(alg, e, linalg.eye(alg.field, alg.n), e)).basis


def _lift_idempotent(alg: FinDimAlgebra, e: np.ndarray) -> np.ndarray:
    """Newton-iterate e <- 3e^2 - 2e^3 until idempotent (modulo-radical input)."""
    f = alg.field
    for _ in range(alg.n + 4):
        e2 = alg.mul(e, e)
        if _veq(f, e2, e):
            return e
        e = linalg.reduce(f, f(3) * e2 - f(2) * alg.mul(e2, e))
    raise NonSplit("idempotent lift did not converge")


def _split_corner(alg: FinDimAlgebra, e: np.ndarray, rad: np.ndarray):
    """Try to write the idempotent e as e1 + e2 with e1 e2 = e2 e1 = 0; return
    [e] if primitive.  Works in the corner eAe modulo its radical (required
    commutative there, the only case this library needs), where minimal
    polynomials are squarefree, then Newton-lifts back into alg."""
    f = alg.field
    corner = _corner_basis(alg, e)
    k = corner.shape[1]
    if k <= 1:
        return [e]
    span = linalg.Echelon.of(f, _sandwich(alg, e, rad, e))
    r = span.rank
    rep_idx = span.extend(corner)
    if len(rep_idx) <= 1:
        # corner = k.e (+) radical part: local, so e is primitive
        return [e]
    # quotient corner algebra on representative columns
    reps = corner[:, rep_idx]

    def qcoords(v):
        return span.coords(v)[r:]

    q = len(rep_idx)
    qmult = qcoords(_products(alg, reps, reps)).T.reshape(q, q, q)
    if not _veq(f, qmult, qmult.transpose(1, 0, 2)):
        raise NonSplit("non-commutative semisimple corner (matrix block)")
    qalg = FinDimAlgebra(f, qmult, qcoords(e), check=False)
    for c in range(q):
        coeffs = _min_poly(f, qalg, qalg.element(c))
        roots, resid = _poly_roots(f, coeffs)
        if resid > 0:
            raise NonSplit(f"irreducible factor of degree {resid} over the base field")
        if len(roots) >= 2:
            # Lagrange idempotent for the first eigenvalue, then lift
            r = roots[0]
            v = reps[:, c]
            e1 = e.copy()
            for rp in roots[1:]:
                inv = f.inv(f.sub(f(r), f(rp)))
                # e1 <- e1 (v - rp e) / (r - rp)
                e1 = alg.mul(e1, linalg.reduce(f, v * inv - f.mul(f(rp), inv) * e))
            e1 = _lift_idempotent(alg, e1)
            if _veq(f, e1, e) or not e1.any():
                continue
            return [e1, linalg.reduce(f, e - e1)]
    return [e]


def radical_and_idempotents(F: FinDimAlgebra) -> Deg0Data:
    """Radical basis and primitive idempotents, the latter sorted by support:
    computed once per F, so gabriel_quiver and an algebra's deg0 read the same."""
    def build():
        rad = radical_basis(F)
        idems = primitive_idempotents(F, rad)
        return Deg0Data(rad, sorted(idems, key=lambda e: _support_key(F.field, e)))

    return memo(F, "deg0", build)


def _support_key(field, v):
    nz = [(i, int(c) if field.is_prime_field else str(c)) for i, c in enumerate(v)
          if not field.is_zero(field(c))]
    return (nz[0][0] if nz else -1, tuple(nz))


class Deg0Data(NamedTuple):
    """Radical and primitive idempotents of a graded algebra's degree-0 part,
    used to pick minimal generating sets of modules over a non-connected algebra."""

    radical_basis: np.ndarray      # columns: radical basis in alg_0 coords
    idempotents: list              # primitive orthogonal idempotent vectors


def gabriel_quiver(alg: FinDimAlgebra):
    """(idempotents, arrow multiplicity matrix) of a split basic algebra, the
    idempotents in the order of radical_and_idempotents.

    arrows[i][j] = dim e_j (rad / rad^2) e_i  (an arrow vertex_i -> vertex_j)."""
    f = alg.field
    rad, idems = radical_and_idempotents(alg)
    # basicness check: distinct idempotents should not be linked by inverse pairs
    rad2_span = linalg.Echelon.of(f, _products(alg, rad, rad))
    m = len(idems)
    arrows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            mat = _sandwich(alg, idems[j], rad, idems[i])
            arrows[i][j] = linalg.rank(f, rad2_span.reduce(mat))
    return idems, arrows
