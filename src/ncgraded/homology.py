"""Degreewise-exact homological algebra within a truncation window.

All answers are certified only inside the window they were computed in;
report dictionaries carry the window so callers (and the CLI) can say
"within window" honestly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import memo
from .errors import (
    IncompleteKernel,
    InvalidWindow,
    NonSplitResidue,
    NonSplit,
    ShapeMismatch,
    WindowExceeded,
)
from .findim import FinDimAlgebra, is_local, primitive_idempotents
from .gmodule import (
    GradedModule,
    compose_hom,
    free_graded_module,
    hom_basis,
    hom_block_bases,
    identity_hom,
    twist_module,
)
from .projfree import Morphism, ProjFree, _Subspace, scan_minimal_generators


@dataclass(frozen=True)
class Window:
    internal_lo: int = -6
    internal_hi: int = 6
    homological_max: int = 4
    algebra_degree_cap: int = 8

    def __post_init__(self):
        if self.internal_lo > self.internal_hi:
            raise InvalidWindow("internal_lo must not exceed internal_hi")

    def tag(self) -> str:
        return (f"internal [{self.internal_lo}, {self.internal_hi}], "
                f"homological <= {self.homological_max}, cap {self.algebra_degree_cap}")


class HomSpace:
    def __init__(self, M: GradedModule, N: GradedModule, s: int, basis, window: Window):
        self.M = M
        self.N = N
        self.s = s
        self.basis = basis
        self.window = window

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_space(M: GradedModule, N: GradedModule, s: int, window: Window) -> HomSpace:
    return HomSpace(M, N, s, hom_basis(M, N, s), window)


class FreeResolution:
    """... -> F2 -> F1 -> F0 -> M -> 0 by projective covers within a window.

    steps[i] is the ProjFree F_i; diffs[i] is the differential F_{i+1} -> F_i
    (diffs[0] = relation map).  terminated_at = i means the kernel at F_i was
    zero through the cap, so the resolution is complete with length i.
    extend() only appends steps, so earlier steps never change.
    """

    def __init__(self, M: GradedModule, cap: int):
        P = M.presentation()
        self.M = M
        self.cap = cap
        self.steps = [P.cover]
        self.diffs = []
        self.terminated_at = None
        if P.rel is not None:
            self.diffs.append(P.rel)
            self.steps.append(P.rel.source)
        elif P.cover.rank == 0 or _kernel_vanishes(M.field, P, cap):
            self.terminated_at = 0
        else:
            raise IncompleteKernel("presentation lacks a relation map but the cover has a kernel")

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def shifts(self, i: int):
        """Generator degrees of F_i, negated (so free covers read A(-d))."""
        if i > self.length:
            return []
        return [-g for _, g in self.steps[i].summands]

    def extend(self, steps: int):
        """Resolve until F_steps is known or the resolution terminates."""
        alg = self.M.algebra
        while self.terminated_at is None and self.length < steps:
            prev = self.diffs[-1]
            lo = min([g for _, g in prev.source.summands], default=0)
            kgens = scan_minimal_generators(
                self.M.field, prev.source, prev.kernel_basis, range(lo, self.cap + 1), alg.deg0
            )
            if not kgens:
                self.terminated_at = self.length
                break
            if any(dg >= self.cap for _, dg, _ in kgens):
                raise IncompleteKernel(
                    f"kernel generators found at the degree cap {self.cap}; raise the cap")
            src = ProjFree(alg, [(eps, dg) for eps, dg, _ in kgens])
            self.diffs.append(Morphism(src, prev.source, [v for _, _, v in kgens]))
            self.steps.append(src)

    def blocks(self, N: GradedModule, j: int, s: int) -> list:
        """hom_block_bases(F_j, N, s), the parametrisation of Hom(F_j, N(s)), memoized."""
        return memo(self, ("blocks", N, j, s), lambda: hom_block_bases(self.steps[j], N, s))

    def delta_rank(self, N: GradedModule, j: int, s: int) -> int:
        """Rank of delta_j: Hom(F_j, N(s)) -> Hom(F_{j+1}, N(s)), memoized; 0 for
        a j with no differential (j < 0, or j at the end of a terminated resolution)."""
        if not 0 <= j < len(self.diffs):
            return 0
        return memo(self, ("delta_rank", N, j, s), lambda: linalg.rank(N.field, _hom_complex_map(
            self.diffs[j], N, s, self.blocks(N, j, s), self.blocks(N, j + 1, s))))


def free_resolution(M: GradedModule, steps: int, window: Window) -> FreeResolution:
    """Minimal resolution of M through F_steps (or to its end), at the
    window's degree cap.  Memoized on M: one resolution per (M, cap),
    extended in place when a caller asks for more steps, so it may hold
    more than `steps` steps."""
    cap = window.algebra_degree_cap
    if steps > window.homological_max + 1:
        raise WindowExceeded(
            f"requested {steps} steps beyond homological_max {window.homological_max} + 1")
    res = memo(M, ("resolution", cap), lambda: FreeResolution(M, cap))
    res.extend(steps)
    return res


def _kernel_vanishes(field, P, cap) -> bool:
    for d in range(min([g for _, g in P.cover.summands], default=0), cap + 1):
        if linalg.nullspace(field, P.cover_mats[d]).shape[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Ext via Hom(resolution, N)
# ---------------------------------------------------------------------------


def _hom_complex_map(diff: Morphism, N: GradedModule, s: int, Ws_src, Ws_tgt) -> np.ndarray:
    """delta: Hom(F_j, N(s)) -> Hom(F_{j+1}, N(s)), f -> f o diff."""
    field = N.field
    src_cover = diff.target   # F_j
    tgt_cover = diff.source   # F_{j+1}
    wid_in = [w.shape[1] for w in Ws_src]
    wid_out = [w.shape[1] for w in Ws_tgt]
    out = linalg.zeros(field, sum(wid_out), sum(wid_in))
    roff = 0
    for mp in range(tgt_cover.rank):
        _, gp = tgt_cover.summands[mp]
        wo = wid_out[mp]
        if wo == 0:
            continue
        sub = _Subspace(field, Ws_tgt[mp])
        rho = diff.images[mp]
        blocks = src_cover.split(rho, gp)
        coff = 0
        for m in range(src_cover.rank):
            _, gm = src_cover.summands[m]
            wi = wid_in[m]
            if wi:
                amb = src_cover.ambient(m, gp, blocks[m])
                am = N.act_matrix(gm + s, gp - gm, amb)  # N_{gm+s} -> N_{gp+s}
                blk = linalg.matmul(field, am, Ws_src[m])
                out[roff : roff + wo, coff : coff + wi] = sub.coords(blk)
            coff += wi
        roff += wo
    return out


def ext_graded_dims(M: GradedModule, N: GradedModule, i: int, window: Window) -> dict:
    """Map internal degree s -> dim Ext^i_{GrMod}(M, N(s)), for s in the window."""
    if i > window.homological_max:
        raise WindowExceeded(f"homological degree {i} beyond window bound {window.homological_max}")
    res = free_resolution(M, i + 1, window)
    return {s: 0 if i > res.length else sum(w.shape[1] for w in res.blocks(N, i, s))
            - res.delta_rank(N, i, s) - res.delta_rank(N, i - 1, s)
            for s in range(window.internal_lo, window.internal_hi + 1)}


# ---------------------------------------------------------------------------
# module-theoretic tests
# ---------------------------------------------------------------------------


def is_mcm(M: GradedModule, window: Window) -> tuple[bool, dict]:
    """Ext^i(M, Alg) = 0 for 1 <= i <= homological_max, within the window."""
    NA = free_graded_module(M.algebra, [0], 0, M.algebra.valid_through)
    report = {"window": window.tag(), "ext": {}}
    ok = True
    for i in range(1, window.homological_max + 1):
        dims = ext_graded_dims(M, NA, i, window)
        nz = {s: d for s, d in dims.items() if d}
        report["ext"][i] = nz
        if nz:
            ok = False
    report["mcm"] = ok
    return ok, report


def end0_algebra(M: GradedModule) -> tuple[FinDimAlgebra, list]:
    """End(M)_0 as a finite-dimensional algebra; product is composition
    (b_i * b_j means apply b_j first)."""
    field = M.field
    basis = hom_basis(M, M, 0)
    n = len(basis)
    prods = [compose_hom(basis[j], basis[i]) for i in range(n) for j in range(n)]
    sol = _coords_in_homs(field, basis, prods + [identity_hom(M)])
    mult = sol[:, : n * n].T.reshape(n, n, n)
    return FinDimAlgebra(field, mult, sol[:, n * n], check=False), basis


def is_indecomposable(M: GradedModule, window: Window) -> bool:
    E, _ = end0_algebra(M)
    if E.n == 0:
        return False  # zero module
    if is_local(E):
        return True
    try:
        idems = primitive_idempotents(E)
    except NonSplit as exc:
        raise NonSplitResidue(str(exc))
    return len(idems) == 1


@dataclass
class IsoResult:
    status: str            # "isomorphic" | "not-found" | "non-isomorphic"
    witness: tuple | None  # coefficients in the Hom(M,N,0) basis
    certified: bool
    detail: str


def are_isomorphic_graded(M: GradedModule, N: GradedModule, window: Window,
                          trials: int = 64, seed: int = 0) -> IsoResult:
    lo = max(min(M.valid_from, N.valid_from), window.internal_lo)
    hi = min(M.valid_to, N.valid_to, window.internal_hi)
    for d in range(lo, hi + 1):
        if M.dim(d) != N.dim(d):
            return IsoResult("non-isomorphic", None, True,
                             f"graded dimensions differ at degree {d}")
    basis = hom_basis(M, N, 0)
    k = len(basis)
    if k == 0:
        if any(M.dim(d) for d in range(lo, hi + 1)):
            return IsoResult("non-isomorphic", None, True, "Hom(M, N)_0 = 0 but M is nonzero")
        return IsoResult("isomorphic", (), True, "both modules vanish within the window")
    field = M.field
    stacks = {}  # degree -> (k, dim N_d, dim M_d) matrices of the basis

    def invertible(coeffs) -> bool:
        c = np.array([field(x) for x in coeffs])
        for d in range(lo, hi + 1):
            if M.dim(d) == 0:
                continue
            if d not in stacks:
                stacks[d] = np.stack([b.matrix(d) for b in basis])
            if linalg.inverse(field, linalg.matmul(field, c, stacks[d])) is None:
                return False
        return True

    if field.is_prime_field and field.p ** k <= 10_000:
        for coeffs in itertools.product(range(field.p), repeat=k):
            if any(coeffs) and invertible(coeffs):
                return IsoResult("isomorphic", coeffs, True, "exhaustive scan witness")
        return IsoResult("non-isomorphic", None, True,
                         "no invertible element of Hom(M, N)_0 (exhaustive scan)")
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = tuple(rng.randrange(field.p) if field.is_prime_field else rng.randint(-5, 5)
                       for _ in range(k))
        if any(coeffs) and invertible(coeffs):
            return IsoResult("isomorphic", coeffs, True, "randomized witness (certified exactly)")
    return IsoResult("not-found", None, False,
                     f"no witness in {trials} seeded trials; not a proof of non-isomorphism")


def nu_stability_check(M: GradedModule, sigma, window: Window,
                       trials: int = 64, seed: int = 0) -> IsoResult:
    return are_isomorphic_graded(twist_module(M, sigma), M, window, trials, seed)


# ---------------------------------------------------------------------------
# cluster tilting and the evaluation isomorphism
# ---------------------------------------------------------------------------


def in_add_of(X: GradedModule, M: GradedModule, window: Window) -> tuple[bool, str]:
    """Whether M lies in add{X(i)}: id_M must be a sum of compositions
    M -> X(s) -> M, i.e. the trace ideal of X in End(M)_0 is the whole algebra."""
    field = M.field
    E, _ = end0_algebra(M)
    if E.n == 0:
        return True, "zero module"
    ident = identity_hom(M).stacked()
    cols = []
    for s in range(window.internal_lo, window.internal_hi + 1):
        try:
            down = hom_basis(M, X, s)    # M -> X(s)
            up = hom_basis(X, M, -s)     # X(s) -> M, shifted view
        except WindowExceeded:
            continue
        cols += [compose_hom(g, f).stacked() for g in down for f in up]  # M -> X(s) -> M
    if not cols:
        return False, "no maps through add{X(i)} at all"
    tr = np.stack(cols, axis=1)
    ok = linalg.solve(field, tr, ident) is not None
    return ok, ("identity realized through add{X(i)}" if ok
                else "identity not in the trace ideal within the window")


def check_cluster_tilting(X: GradedModule, n: int, candidates, window: Window) -> dict:
    report = {"window": window.tag(), "n": n}
    ok_mcm, mcm_rep = is_mcm(X, window)
    report["X_mcm"] = ok_mcm
    if n == 1:
        report["self_ext"] = "vacuous for n = 1 (no 0 < i < 1)"
        self_ok = True
    else:
        self_ok = True
        ext_rep = {}
        for i in range(1, n):
            dims = ext_graded_dims(X, X, i, window)
            nz = {s: d for s, d in dims.items() if d}
            ext_rep[i] = nz
            if nz:
                self_ok = False
        report["self_ext"] = ext_rep
    cand_rep = []
    all_ok = ok_mcm and self_ok
    for name, M in candidates:
        entry = {"name": name}
        m_ok, _ = is_mcm(M, window)
        entry["mcm"] = m_ok
        cross_ok = True
        for i in range(1, n):
            if any(ext_graded_dims(X, M, i, window).values()):
                cross_ok = False
            if any(ext_graded_dims(M, X, i, window).values()):
                cross_ok = False
        entry["cross_ext_zero"] = cross_ok if n > 1 else "vacuous for n = 1"
        member, why = in_add_of(X, M, window)
        entry["in_add_X"] = member
        entry["why"] = why
        if m_ok and cross_ok:
            entry["consistent"] = member  # MCM + ext-vanishing should imply membership
            all_ok = all_ok and member
        cand_rep.append(entry)
    report["candidates"] = cand_rep
    report["verdict"] = all_ok
    return report


def eval_iso_check(X: GradedModule, M: GradedModule, window: Window) -> dict:
    """Degreewise check that evaluation Hom(X, M) (x)_B X -> M is bijective.

    In degree d the tensor product is T = (+)_a Hom(X, M(a))_0 (x) X_{d-a}
    (coordinate (a, i, x) at off[a] + i * dim X_{d-a} + x) modulo the
    relations (f o beta) (x) x - f (x) beta(x) for beta in Hom(X, X(e))_0."""
    field = M.field
    report = {"window": window.tag(), "degrees": {}, "verdict": True}
    a_lo = M.valid_from
    for d in range(max(window.internal_lo, M.valid_from), min(window.internal_hi, M.valid_to) + 1):
        a_hi = min(d - X.valid_from, M.valid_to)
        homs = {a: hom_basis(X, M, a, shared=True) for a in range(a_lo, a_hi + 1)
                if X.valid_from <= d - a <= X.valid_to}
        off, total = {}, 0
        for a in homs:
            off[a] = total
            total += len(homs[a]) * X.dim(d - a)
        terms = [(a, e, hom_basis(X, X, e, shared=True)) for a in homs for e in range(0, a_hi - a + 1)
                 if X.valid_from <= d - a - e <= X.valid_to and X.dim(d - a - e)]
        rel = linalg.zeros(field, total, sum(len(homs[a]) * len(bb) * X.dim(d - a - e)
                                             for a, e, bb in terms))
        col = 0
        for a, e, bb in terms:
            na, nb = len(homs[a]), X.dim(d - a - e)
            C = _coords_in_homs(field, homs[a + e],
                                [compose_hom(beta, f) for beta in bb for f in homs[a]])
            rows_ae = slice(off[a + e], off[a + e] + len(homs[a + e]) * nb)
            rows_a = slice(off[a], off[a] + na * X.dim(d - a))
            for k, beta in enumerate(bb):
                cols = slice(col, col + na * nb)
                rel[rows_ae, cols] += np.kron(C[:, k * na : (k + 1) * na], linalg.eye(field, nb))
                rel[rows_a, cols] -= np.kron(linalg.eye(field, na), beta.matrix(d - a - e))
                col += na * nb
        rel = linalg.reduce(field, rel)
        ev = np.concatenate([linalg.zeros(field, M.dim(d), 0)]
                            + [h.matrix(d - a) for a in homs for h in homs[a]], axis=1)
        rk_rel = linalg.rank(field, rel)
        rk_ev = linalg.rank(field, ev)
        # relations must die under evaluation
        bal = not np.count_nonzero(linalg.matmul(field, ev, rel))
        surj = rk_ev == M.dim(d)
        inj = (total - rk_rel) == rk_ev
        ok = bal and surj and inj
        report["degrees"][d] = {
            "tensor_dim": total, "relation_rank": rk_rel,
            "quotient_dim": total - rk_rel, "module_dim": M.dim(d), "bijective": ok,
        }
        if not ok:
            report["verdict"] = False
    return report


def _coords_in_homs(field, basis, fs) -> np.ndarray:
    """Coordinates of the homs fs in a hom basis, one column per element of fs."""
    if not fs:
        return linalg.zeros(field, len(basis), 0)
    rhs = np.stack([f.stacked() for f in fs], axis=1)
    if not basis:
        if np.count_nonzero(rhs):
            raise ShapeMismatch("nonzero composite hom missing from the computed block")
        return linalg.zeros(field, 0, len(fs))
    sol = linalg.solve(field, np.stack([b.stacked() for b in basis], axis=1), rhs)
    if sol is None:
        raise ShapeMismatch("composite hom not in the computed basis")
    return sol
