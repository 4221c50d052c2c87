"""Quadratic duals, the Clifford-type algebra of a quadric quotient, and
brute-force projective point enumeration.

The dual pairing on degree-2 words is the plain dual-basis pairing
<u (x) v, u* (x) v*> = 1 with no sign; generator names are reused for the
dual so expressions like "x^2" denote elements of either side.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import PresentedAlgebra, is_central
from .errors import (NotCentral, NotCommutative, NotQuadratic, NotSemisimple, NotStabilized,
                     ShapeMismatch, UnsupportedField)
from .findim import FinDimAlgebra, primitive_idempotents, radical_basis
from .freealg import Gens, NcPoly
from .gbasis import Presentation
from .scalars import Field


def quadratic_relation_matrix(pres: Presentation) -> np.ndarray:
    """Columns = relation coefficient vectors in the n^2 degree-2 word basis,
    the word (i, j) at row i * n + j."""
    n = len(pres.gens)
    if any(d != 1 for d in pres.gens.degrees):
        raise NotQuadratic("all generators must have degree 1")
    mat = linalg.zeros(pres.field, n * n, len(pres.relations))
    for c, r in enumerate(pres.relations):
        if r.is_zero() or not r.is_homogeneous() or r.homogeneous_degree() != 2:
            raise NotQuadratic(f"relation {r} is not quadratic")
        for (i, j), x in r.terms.items():
            mat[i * n + j, c] = x
    return mat


def quadratic_dual(pres: Presentation) -> Presentation:
    """T(V*)/(R-perp) for a quadratic T(V)/(R); generator names are reused."""
    field = pres.field
    n = len(pres.gens)
    R = quadratic_relation_matrix(pres)
    perp = linalg.nullspace(field, R.T)
    # row i * n + j is the word (i, j); NcPoly drops the zeros
    rels = tuple(NcPoly(pres.gens, field, {divmod(k, n): v for k, v in enumerate(perp[:, c])})
                 for c in range(perp.shape[1]))
    return Presentation(field, pres.gens, rels, pres.order)


def clifford_algebra(Adual: PresentedAlgebra, w: NcPoly, window_cap: int) -> tuple[FinDimAlgebra, dict]:
    """A!(w^{-1})_0: the stable even piece of the direct system
    A!_0 -> A!_2 -> A!_4 -> ... given by right multiplication by the central
    degree-2 element w, with the product renormalized to the stable level."""
    field = Adual.field
    if w.is_zero():
        raise NotStabilized("w = 0: the connecting maps are zero")
    if not w.is_homogeneous() or w.homogeneous_degree() != 2:
        raise NotCentral("w must be homogeneous of degree 2")
    if not is_central(Adual, w):
        raise NotCentral(f"{w} is not central in the dual algebra")
    wvec = Adual.poly_to_vec(2, w)
    levels = list(range(0, window_cap - 1, 2))
    maps = {}
    bij = {}
    for L in levels:
        if L + 2 > Adual.valid_through:
            break
        m = Adual.right_mult_matrix(2, wvec, L)  # A!_L -> A!_{L+2}
        maps[L] = m
        bij[L] = (m.shape[0] == m.shape[1] and linalg.inverse(field, m) is not None)
    stable = None
    for L in sorted(maps):
        if L + 2 in maps and bij[L] and bij[L + 2]:
            stable = L
            break
    report = {"dims": {L: Adual.dim(L) for L in sorted(maps)},
              "bijective_steps": {L: bij[L] for L in sorted(maps)}}
    if stable is None:
        raise NotStabilized(
            "no two consecutive bijective steps of .w within the window")
    report["stable_level"] = stable
    # transport the product a.b (level 2*stable) back down to the stable level
    half = stable // 2
    for L in range(stable, 2 * stable, 2):
        if L not in maps or not bij[L]:
            raise NotStabilized(
                f"product transport needs bijective .w at level {L} (window too small)")
    # compose the inverse chain from 2*stable back to stable
    k = Adual.dim(stable)
    inv_chain = linalg.eye(field, k)
    for L in range(2 * stable - 2, stable - 1, -2):
        inv_chain = linalg.matmul(field, inv_chain, linalg.inverse(field, maps[L]))
    mt = Adual.mult_tensor(stable, stable)  # (k, k, dim_{2 stable})
    mult = linalg.matmul(field, mt, inv_chain, axes=(2, 1))
    # unit: class of 1 at level 0 transported up = w^half
    unit_poly = NcPoly.one(Adual.gens, field)
    wpow = unit_poly
    for _ in range(half):
        wpow = wpow * w
    unit = Adual.poly_to_vec(stable, wpow)
    C = FinDimAlgebra(field, mult, unit)
    report["dim"] = C.n
    return C, report


def is_commutative(F: FinDimAlgebra) -> bool:
    return not linalg.reduce(F.field, F.mult - F.mult.transpose(1, 0, 2)).any()


def commutative_semisimple_decompose(F: FinDimAlgebra) -> list:
    """Block dimensions (one per primitive idempotent) of a commutative
    semisimple algebra; for a split algebra every block has dimension 1."""
    if not is_commutative(F):
        raise NotCommutative("decomposition requires a commutative algebra")
    rad = radical_basis(F)
    if rad.shape[1]:
        raise NotSemisimple(f"radical has dimension {rad.shape[1]}")
    idems = primitive_idempotents(F, rad)
    blocks = []
    for e in idems:
        blocks.append(linalg.rank(F.field, F.left_mult(e)))
    return blocks


def enumerate_projective_points(polys, gens: Gens, field: Field) -> list:
    """All common zeros in P^2(GF(p)), canonical representatives with last
    nonzero coordinate 1, ordered by the enumeration (a,b,1), (a,1,0), (1,0,0)."""
    if not field.is_prime_field:
        raise UnsupportedField("point enumeration needs a prime field")
    if len(gens) != 3:
        raise ShapeMismatch(f"point enumeration needs exactly 3 variables, not {len(gens)}")
    p = field.p

    def evaluate(f: NcPoly, pt) -> int:
        total = 0
        for w, c in f.terms.items():
            v = int(c)
            for letter in w:
                v = (v * pt[letter]) % p
            total = (total + v) % p
        return total

    pts = []
    reps = ([(a, b, 1) for a in range(p) for b in range(p)]
            + [(a, 1, 0) for a in range(p)] + [(1, 0, 0)])
    for pt in reps:
        if all(evaluate(f, pt) == 0 for f in polys):
            pts.append(pt)
    return pts
