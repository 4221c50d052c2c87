"""Finite-dimensional associative algebras by structure constants.

Provides the Jacobson radical (trace-form kernel, valid over GF(p) with
p exceeding the dimension), a complete orthogonal set of primitive
idempotents lifted from the semisimple quotient, and the Gabriel quiver.
Scalars are assumed split (the semisimple quotient must be a product of
matrix algebras over the base field); NonSplit is raised otherwise.
"""

from __future__ import annotations

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
        n = self.n
        # (e_i e_j) e_k = e_i (e_j e_k), checked as one tensor identity
        left = linalg.matmul(f, self.mult, self.mult)  # (i, j, k, l)
        right = linalg.matmul(f, self.mult, self.mult, axes=(2, 1)).transpose(2, 0, 1, 3)
        if not (left == right).all():
            raise ValueError("structure constants are not associative")
        for i in range(n):
            v = linalg.zeros(f, n)
            v[i] = f.one
            if not _veq(f, self.mul(self.unit, v), v) or not _veq(f, self.mul(v, self.unit), v):
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
        prods = []
        for a in range(span.shape[1]):
            for b in range(rad.shape[1]):
                prods.append(alg.mul(span[:, a], rad[:, b]))
        span = np.stack(prods, axis=1) if prods else linalg.zeros(f, n, 0)
        span = linalg.Echelon.of(f, span).basis
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
    """All roots in the base field of the monic polynomial with the given
    low-to-high coefficients, with multiplicity ignored; None entry means
    a non-linear irreducible factor remains."""
    if not field.is_prime_field:
        raise NonSplit("root search over QQ is not supported here")
    roots = []
    rem = [field(c) for c in coeffs]
    for r in range(field.p):
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
    cols = []
    for i in range(alg.n):
        v = alg.mul(alg.mul(e, alg.element(i)), e)
        cols.append(v)
    return linalg.Echelon.of(alg.field, np.stack(cols, axis=1)).basis


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
    rad_corner = []
    for c in range(rad.shape[1]):
        rad_corner.append(alg.mul(alg.mul(e, rad[:, c]), e))
    radm = np.stack(rad_corner, axis=1) if rad_corner else linalg.zeros(f, alg.n, 0)
    span = linalg.Echelon.of(f, radm)
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
    qmult = linalg.zeros(f, q, q, q)
    for i in range(q):
        for j in range(q):
            qmult[i, j, :] = qcoords(alg.mul(reps[:, i], reps[:, j]))
    for i in range(q):
        for j in range(i + 1, q):
            a = np.asarray(qmult[i, j, :])
            b = np.asarray(qmult[j, i, :])
            if not _veq(f, a, b):
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


def _radical_and_primitives(F: FinDimAlgebra):
    """Radical basis and primitive idempotents (in the order
    primitive_idempotents finds them), computed once per F and shared by
    radical_and_idempotents and gabriel_quiver."""
    def build():
        rad = radical_basis(F)
        return rad, primitive_idempotents(F, rad)

    return memo(F, "primitives", build)


def radical_and_idempotents(F: FinDimAlgebra) -> Deg0Data:
    """Radical basis and primitive idempotents, the latter sorted by support."""
    rad, idems = _radical_and_primitives(F)
    return Deg0Data(rad, sorted(idems, key=lambda e: _support_key(F.field, e)))


def _support_key(field, v):
    nz = [(i, int(c) if field.is_prime_field else str(c)) for i, c in enumerate(v)
          if not field.is_zero(field(c))]
    return (nz[0][0] if nz else -1, tuple(nz))


class Deg0Data(NamedTuple):
    """Radical and primitive idempotents of a graded algebra's degree-0 part,
    used to pick minimal generating sets of modules over a non-connected algebra."""

    radical_basis: np.ndarray      # columns: radical basis in alg_0 coords
    idempotents: list              # primitive orthogonal idempotent vectors


def is_local(alg: FinDimAlgebra) -> bool:
    """True when alg / rad is one-dimensional (so 0, 1 are the only idempotents)."""
    rad = radical_basis(alg)
    return rad.shape[1] == alg.n - 1


def gabriel_quiver(alg: FinDimAlgebra):
    """(idempotents, arrow multiplicity matrix) of a split basic algebra.

    arrows[i][j] = dim e_j (rad / rad^2) e_i  (an arrow vertex_i -> vertex_j)."""
    f = alg.field
    rad, idems = _radical_and_primitives(alg)
    # basicness check: distinct idempotents should not be linked by inverse pairs
    rad2 = []
    for a in range(rad.shape[1]):
        for b in range(rad.shape[1]):
            rad2.append(alg.mul(rad[:, a], rad[:, b]))
    rad2_span = linalg.Echelon.of(f, np.stack(rad2, axis=1) if rad2 else linalg.zeros(f, alg.n, 0))
    m = len(idems)
    arrows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            cols = []
            for c in range(rad.shape[1]):
                cols.append(alg.mul(alg.mul(idems[j], rad[:, c]), idems[i]))
            mat = np.stack(cols, axis=1) if cols else linalg.zeros(f, alg.n, 0)
            arrows[i][j] = linalg.rank(f, rad2_span.reduce(mat))
    return idems, arrows
