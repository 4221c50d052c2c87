"""Graded endomorphism algebras B = End(X) = (+)_i Hom(X, X(i)).

B is a TabulatedAlgebra within a window (negative pieces included so that
B_{<0} = 0 can be verified rather than assumed): its hom bases, and so its
dimensions, are computed when B is, and each structure tensor when it is
first read, in the Peirce basis (+) e_i B_d e_j.  Its degree-0 part is
analyzed as a finite-dimensional algebra (the Gabriel quiver needs no more
than End(X)_0, which homology.end0_algebra computes alone).

AS-Gorenstein for a connected algebra and AS-regularity of B over B_0 are
one test, run by _as_ext on each side: resolve R = alg_0 (b0_module; k
when alg is connected), read Ext^i(R, alg), and ask that only Ext^d is
nonzero, equal to R in internal degree -ell.  AS-regularity also asks
the resolution to end at d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import AlgebraOracle, TabulatedAlgebra
from .errors import InvalidDimension, InvalidWindow, NotConnected, ZeroAlgebra
from .findim import FinDimAlgebra, radical_and_idempotents
from .findim import gabriel_quiver as _findim_quiver
from .gmodule import (
    GradedModule,
    HomFamily,
    compose_images,
    composition_tensor,
    free_graded_module,
    hom_basis,
    hom_coords,
    identity_hom,
    opposite_algebra,
)
from .homology import Window, end0_algebra, ext_table, free_resolution
from .memo import memo


class EndoAlgebra:
    """B = End(X) with its hom bases kept for composition and module transport.

    The plain bases homs cover degrees min(internal_lo, 0) through the
    window's cap, so B_0, which holds the unit, is always among them.  They
    are computed here, since every reader needs the dimensions; the Peirce
    bases and each structure tensor (_compose_tensor) on first read."""

    def __init__(self, X: GradedModule, window: Window):
        self.X = X
        self.window = window
        lo = min(window.internal_lo, 0)
        hi = window.algebra_degree_cap
        if hi < 0:
            raise InvalidWindow(f"End(X) needs algebra_degree_cap >= 0 for its unit; got {hi}")
        self.homs = {d: hom_basis(X, X, d, shared=True) for d in range(lo, hi + 1)}
        self.algebra = TabulatedAlgebra(
            X.field, {d: len(bs) for d, bs in self.homs.items()}, self._compose_tensor,
            lambda: hom_coords(X.field, self.bases[0], identity_hom(X).stacked()[:, None])[:, 0],
            valid_from=lo, valid_through=hi, generated_through=hi)

    @property
    def bases(self) -> dict:
        """d -> the basis (+)_{i,j} e_i B_d e_j of B_d, in (i, j) order."""
        return memo(self, "bases", self._peirce)

    def _peirce(self) -> dict:
        """B_d is the direct sum of its blocks e_i B_d e_j (e_i the plain B_0's
        idempotents), so pivots in block order keep each block's own: those
        of the e_i o b over the plain b span e_i B_d, and those of the c o e_j
        over them are the basis.  In degree 0 the e_i lead, as basis elements."""
        X, field, homs = self.X, self.X.field, self.homs
        if not homs[0]:  # X = 0, and so is every B_d
            return homs
        B0, plain = end0_algebra(X)
        idems = linalg.matmul(field, plain[0].family.stacked, np.stack(radical_and_idempotents(B0).idempotents, axis=1))
        E = HomFamily(X, X, 0, idems).members
        n = len(E)
        bases = {d: [] for d in homs}
        for d, bs in homs.items():
            if bs:
                left = compose_images(E + bs if d == 0 else bs, E)  # [:, i, k] = e_i o b_k
                flat = left.reshape(len(left), -1)
                _, piv = linalg.rref(field, flat, reduced=False)
                # column c * n + j is c o e_j, in block (i, j) for c in e_i B_d: to (i, j, c) order
                both = compose_images(E, HomFamily(X, X, d, flat[:, piv]).members).reshape(len(flat), -1)
                order = np.argsort(np.add.outer(np.array(piv) // left.shape[2] * n, np.arange(n)).ravel(),
                                   kind="stable")
                _, piv = linalg.rref(field, both[:, order], reduced=False)
                bases[d] = HomFamily(X, X, d, both[:, order[piv]]).members
        return bases

    def _compose_tensor(self, d1: int, d2: int) -> np.ndarray:
        """tensor[i, j, :] = coords of b_i o b_j (b_j applied first); the
        three degrees' bases are nonempty."""
        return composition_tensor(self.bases[d1], self.bases[d2], self.bases[d1 + d2])


def check_nonnegative(B: EndoAlgebra) -> bool:
    return all(B.algebra.dim(d) == 0
               for d in range(B.window.internal_lo, 0))


@dataclass
class Quiver:
    vertices: list
    arrows: list  # (src, dst, mult)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"src": s, "dst": t, "mult": m} for s, t, m in self.arrows],
        }


def quiver_of(F: FinDimAlgebra) -> Quiver:
    """Gabriel quiver with the right-module path convention: an arrow
    u -> v for each basis element of e_u (rad/rad^2) e_v."""
    idems, arrows = _findim_quiver(F)
    names = [f"v{k}" for k in range(len(idems))]
    return Quiver(names, sorted((names[j], names[i], m) for i, row in enumerate(arrows)
                                for j, m in enumerate(row) if m))


def b0_module(alg: AlgebraOracle) -> GradedModule:
    """R = alg_0 = alg / alg_{>=1} as a graded right alg-module (one piece in
    degree 0; k for a connected algebra), memoized on alg."""
    # only (d, e) = (0, 0) has all three dimensions nonzero
    return memo(alg, "b0", lambda: GradedModule(
        alg, {0: alg.dim(0)}, lambda d, e: np.asarray(alg.mult_tensor(0, 0)), 0, alg.valid_through))


def _as_ext(alg: AlgebraOracle, d: int, ell: int, top: int, window: Window):
    """The AS test of one side: resolve R = b0_module(alg) through step
    top + 1 and read Ext^i(R, alg) for i <= top.  Every Ext^i must vanish
    but Ext^d, which must be {-ell: dim alg_0} when the window shows -ell
    and Ext^d.  Returns the resolution, the Ext table, whether the rule
    holds, and whether the window shows the top Ext."""
    R = b0_module(alg)
    res = free_resolution(R, top + 1, window)
    ext = ext_table(R, free_graded_module(alg, [0], alg.valid_from, alg.valid_through),
                    range(top + 1), window)
    seen = d <= window.homological_max and window.internal_lo <= -ell <= window.internal_hi
    ok = all(nz == ({-ell: alg.dim(0)} if i == d and seen else {}) for i, nz in ext.items())
    return res, ext, ok, seen


def as_regular_over_R_check(B: EndoAlgebra, d: int, ell: int, window: Window) -> dict:
    """AS-regularity of B over R = B_0: Ext^i_B(B_0, B) = 0 for i < d,
    Ext^d concentrated in internal degree -ell with dim = dim B_0, and the
    minimal resolution of B_0 terminating at step d (within the window).
    The verdict is "inconclusive" when nothing fails but the window leaves
    out -ell or Ext^d; a resolution that has not ended is then no failure."""
    if d < 0:
        raise InvalidDimension(f"homological dimension d = {d} is negative")
    alg = B.algebra
    if not alg.dim(0):
        raise ZeroAlgebra("End(X) of the zero module is the zero algebra: no B_0 to be regular over")
    top = min(d, window.homological_max)
    res, ext, ok, seen = _as_ext(alg, d, ell, top, window)
    reach = d <= window.homological_max
    ok = ok and (res.terminated_at == d or (res.terminated_at is None and not reach))
    return {"window": window.tag(), "d": d, "ell": ell,
            "resolution_shifts": [res.shifts(i) for i in range(min(res.length, top + 1) + 1)],
            "terminates_at_d": res.terminated_at == d, "ext": ext,
            "expected_top": {-ell: alg.dim(0)},
            "verdict": "inconclusive" if ok and not seen else ok}


def as_gorenstein_check(A: AlgebraOracle, d: int, ell: int, window: Window) -> dict:
    """AS-Gorenstein test for a connected algebra: Ext^i(k, A) on both sides
    vanishes for i != d within the window and is k(ell) for i = d.  The
    verdict is "inconclusive" when nothing fails but the window leaves out
    -ell or Ext^d."""
    if d < 0:
        raise InvalidDimension(f"homological dimension d = {d} is negative")
    if A.dim(0) != 1:
        raise NotConnected("Gorenstein test requires a connected algebra")
    top = min(d + 1, window.homological_max)
    ok, sides = True, {}
    for side, alg in (("right", A), ("left", opposite_algebra(A))):
        _, sides[side], side_ok, seen = _as_ext(alg, d, ell, top, window)
        ok = ok and side_ok
    return {"window": window.tag(), "d": d, "ell": ell, "sides": sides,
            "verdict": "inconclusive" if ok and not seen else ok}
