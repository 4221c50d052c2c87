"""Graded endomorphism algebras B = End(X) = (+)_i Hom(X, X(i)).

B is a TabulatedAlgebra within a window (negative pieces included so that
B_{<0} = 0 can be verified rather than assumed): its hom bases, and so its
dimensions, are computed when B is, and each structure tensor when it is
first read.  Its degree-0 part is analyzed as a finite-dimensional algebra
(the Gabriel quiver needs no more than End(X)_0, which
homology.end0_algebra computes alone), and the regularity checks for B over
B_0 and Gorensteinness for a connected algebra are run from resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PresentedAlgebra, TabulatedAlgebra
from .errors import InvalidDimension, InvalidWindow, NotConnected, ZeroAlgebra
from .findim import FinDimAlgebra, radical_and_idempotents
from .findim import gabriel_quiver as _findim_quiver
from .gmodule import (
    GradedModule,
    composition_tensor,
    cyclic_module,
    free_graded_module,
    hom_basis,
    hom_coords,
    identity_hom,
    opposite_algebra,
)
from .homology import Window, ext_graded_dims, free_resolution
from .memo import memo


class EndoAlgebra:
    """B = End(X) with its hom bases kept for composition and module transport.

    The bases cover degrees min(internal_lo, 0) through the window's cap, so
    B_0, which holds the unit, is always among them.  They are computed
    here, since every reader needs the dimensions; each structure tensor is
    solved by _compose_tensor on its first read."""

    def __init__(self, X: GradedModule, window: Window):
        self.X = X
        self.window = window
        lo = min(window.internal_lo, 0)
        hi = window.algebra_degree_cap
        if hi < 0:
            raise InvalidWindow(f"End(X) needs algebra_degree_cap >= 0 for its unit; got {hi}")
        self.bases = {d: hom_basis(X, X, d, shared=True) for d in range(lo, hi + 1)}
        unit = hom_coords(X.field, self.bases[0], identity_hom(X).stacked()[:, None])
        self.algebra = TabulatedAlgebra(
            X.field, {d: len(bs) for d, bs in self.bases.items()}, self._compose_tensor,
            unit[:, 0], valid_through=hi, valid_from=lo)

    def _compose_tensor(self, d1: int, d2: int) -> np.ndarray:
        """tensor[i, j, :] = coords of b_i o b_j (b_j applied first); the
        three degrees' bases are nonempty."""
        return composition_tensor(self.bases[d1], self.bases[d2], self.bases[d1 + d2])


def endomorphism_algebra(X: GradedModule, window: Window) -> EndoAlgebra:
    return EndoAlgebra(X, window)


def check_nonnegative(B: EndoAlgebra) -> bool:
    return all(B.algebra.dim(d) == 0
               for d in range(B.window.internal_lo, 0))


def degree_zero_algebra(B: EndoAlgebra) -> FinDimAlgebra:
    return B.algebra.degree_zero()


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


def b0_module(B: EndoAlgebra) -> GradedModule:
    """B_0 = B / B_{>=1} as a graded right B-module (one piece in degree 0),
    memoized on B."""
    alg = B.algebra
    # only (d, e) = (0, 0) has all three dimensions nonzero
    return memo(B, "b0", lambda: GradedModule(
        alg, {0: alg.dim(0)}, lambda d, e: np.asarray(alg.mult_tensor(0, 0)), 0, alg.valid_through))


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
    M = b0_module(B)
    reach = d <= window.homological_max
    seen = reach and window.internal_lo <= -ell <= window.internal_hi
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    report = {"window": window.tag(), "d": d, "ell": ell}
    top = min(d, window.homological_max)
    res = free_resolution(M, top + 1, window)
    report["resolution_shifts"] = [res.shifts(i) for i in range(min(res.length, top + 1) + 1)]
    report["terminates_at_d"] = res.terminated_at == d
    ok = res.terminated_at == d or (res.terminated_at is None and not reach)
    ext_rep = {}
    for i in range(0, top + 1):
        dims = ext_graded_dims(M, NB, i, window)
        nz = {s: v for s, v in dims.items() if v}
        ext_rep[i] = nz
        if i < d and nz:
            ok = False
        if i == d and nz != ({-ell: alg.dim(0)} if seen else {}):
            ok = False
    report["ext"] = ext_rep
    report["expected_top"] = {-ell: alg.dim(0)}
    report["verdict"] = "inconclusive" if ok and not seen else ok
    return report


def as_gorenstein_check(A: PresentedAlgebra, d: int, ell: int, window: Window) -> dict:
    """AS-Gorenstein test for a connected algebra: Ext^i(k, A) on both sides
    vanishes for i != d within the window and is k(ell) for i = d.  The
    verdict is "inconclusive" when nothing fails but the window leaves out
    -ell or Ext^d."""
    if d < 0:
        raise InvalidDimension(f"homological dimension d = {d} is negative")
    if A.dim(0) != 1:
        raise NotConnected("Gorenstein test requires a connected algebra")
    seen = d <= window.homological_max and window.internal_lo <= -ell <= window.internal_hi
    report = {"window": window.tag(), "d": d, "ell": ell, "sides": {}}
    ok = True
    top = min(d + 1, window.homological_max)
    for side, alg in (("right", A), ("left", opposite_algebra(A))):
        from .freealg import NcPoly

        gens = [NcPoly.gen(alg.gens, alg.field, i) for i in range(len(alg.gens))]
        k = cyclic_module(alg, gens, alg.valid_through)
        NA = free_graded_module(alg, [0], 0, alg.valid_through)
        side_rep = {}
        for i in range(0, top + 1):
            dims = ext_graded_dims(k, NA, i, window)
            nz = {s: v for s, v in dims.items() if v}
            side_rep[i] = nz
            want = {-ell: 1} if i == d and seen else {}
            if nz != want:
                ok = False
        report["sides"][side] = side_rep
    report["verdict"] = "inconclusive" if ok and not seen else ok
    return report
