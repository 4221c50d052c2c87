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
from .errors import (
    IncompleteKernel,
    InvalidDimension,
    InvalidWindow,
    NonSplitResidue,
    NonSplit,
    WindowExceeded,
)
from .findim import FinDimAlgebra, radical_and_idempotents
from .gmodule import (
    GradedModule,
    compose_images,
    composition_tensor,
    free_graded_module,
    hom_basis,
    hom_block_bases,
    hom_coords,
    identity_hom,
    precomposition_matrix,
    twist_module,
)
from .memo import memo
from .projfree import syzygy


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
    (diffs[0] = relation map).  A free module is its own cover, so F_0 = M.  terminated_at = i means the kernel at F_i was
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
        elif P.cover is M or P.cover.rank == 0 or _kernel_vanishes(M, cap):
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
        while self.terminated_at is None and self.length < steps:
            prev = self.diffs[-1]
            lo = min([g for _, g in prev.source.summands], default=0)
            diff = syzygy(prev.source, prev.kernel_basis, range(lo, self.cap + 1))
            if diff is None:
                self.terminated_at = self.length
                break
            if any(g >= self.cap for _, g in diff.source.summands):
                raise IncompleteKernel(
                    f"kernel generators found at the degree cap {self.cap}; raise the cap")
            self.diffs.append(diff)
            self.steps.append(diff.source)

    def blocks(self, N: GradedModule, j: int, s: int) -> list:
        """hom_block_bases(F_j, N, s), the parametrisation of Hom(F_j, N(s)), memoized."""
        return memo(self, ("blocks", N, j, s), lambda: hom_block_bases(self.steps[j], N, s))

    def delta_rank(self, N: GradedModule, j: int, s: int) -> int:
        """Rank of delta_j: Hom(F_j, N(s)) -> Hom(F_{j+1}, N(s)), f -> f o d_j, memoized;
        0 for a j with no differential (j < 0, or j at the end of a terminated
        resolution).  Taken on the values of f o d_j at the generators of F_{j+1}:
        its coordinates in the blocks of F_{j+1} are an injective image of them."""
        if not 0 <= j < len(self.diffs):
            return 0
        return memo(self, ("delta_rank", N, j, s), lambda: linalg.rank(
            N.field, precomposition_matrix(self.diffs[j], N, s, self.blocks(N, j, s))))


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


def _kernel_vanishes(M: GradedModule, cap: int) -> bool:
    """Whether M's cover has no kernel through the cap, in the degrees the
    presentation tabulates (the ones its relations were scanned in)."""
    P = M.presentation()
    lo = min([g for _, g in P.cover.summands], default=0)
    for d in range(lo, min(cap, M.valid_to) + 1):
        if linalg.nullspace(M.field, P.cover_mats[d]).shape[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Ext via Hom(resolution, N)
# ---------------------------------------------------------------------------


def ext_graded_dims(M: GradedModule, N: GradedModule, i: int, window: Window) -> dict:
    """Map internal degree s -> dim Ext^i_{GrMod}(M, N(s)), for s in the window."""
    if i < 0:
        raise InvalidDimension(f"homological degree i = {i} is negative")
    if i > window.homological_max:
        raise WindowExceeded(f"homological degree {i} beyond window bound {window.homological_max}")
    res = free_resolution(M, i + 1, window)
    return {s: 0 if i > res.length else sum(w.shape[1] for w in res.blocks(N, i, s))
            - res.delta_rank(N, i, s) - res.delta_rank(N, i - 1, s)
            for s in range(window.internal_lo, window.internal_hi + 1)}


def ext_table(M: GradedModule, N: GradedModule, degrees, window: Window) -> dict:
    """{i: {s: dim Ext^i(M, N(s))}} for each i in degrees, keeping the s in
    the window where the dimension is nonzero; every Ext-vanishing test reads it."""
    return {i: {s: v for s, v in ext_graded_dims(M, N, i, window).items() if v} for i in degrees}


# ---------------------------------------------------------------------------
# module-theoretic tests
# ---------------------------------------------------------------------------


def is_mcm(M: GradedModule, window: Window) -> tuple[bool, dict]:
    """Ext^i(M, Alg) = 0 for 1 <= i <= homological_max, within the window."""
    NA = free_graded_module(M.algebra, [0], 0, M.algebra.valid_through)
    ext = ext_table(M, NA, range(1, window.homological_max + 1), window)
    ok = not any(ext.values())
    return ok, {"window": window.tag(), "ext": ext, "mcm": ok}


def end0_algebra(M: GradedModule) -> tuple[FinDimAlgebra, list]:
    """End(M)_0 as a finite-dimensional algebra on the shared basis of
    Hom(M, M); product is composition (b_i * b_j means apply b_j first)."""
    field = M.field
    basis = hom_basis(M, M, 0, shared=True)
    mult = composition_tensor(basis, basis, basis) if basis else linalg.zeros(field, 0, 0, 0)
    unit = hom_coords(field, basis, identity_hom(M).stacked()[:, None])[:, 0]
    return FinDimAlgebra(field, mult, unit, check=False), basis


def is_indecomposable(M: GradedModule) -> bool:
    """Whether End(M)_0 has exactly one primitive idempotent (the zero
    module, whose End(M)_0 has none, is not indecomposable)."""
    E, _ = end0_algebra(M)
    try:
        return len(radical_and_idempotents(E).idempotents) == 1
    except NonSplit as exc:
        raise NonSplitResidue(str(exc))


@dataclass
class IsoResult:
    status: str            # "isomorphic" | "not-found" | "non-isomorphic"
    witness: tuple | None  # coefficients in the Hom(M,N,0) basis
    certified: bool
    detail: str


def are_isomorphic_graded(M: GradedModule, N: GradedModule, window: Window,
                          seed: int = 0) -> IsoResult:
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
    for _ in range(64):
        coeffs = tuple(rng.randrange(field.p) if field.is_prime_field else rng.randint(-5, 5)
                       for _ in range(k))
        if any(coeffs) and invertible(coeffs):
            return IsoResult("isomorphic", coeffs, True, "randomized witness (certified exactly)")
    return IsoResult("not-found", None, False,
                     "no witness in 64 seeded trials; not a proof of non-isomorphism")


def nu_stability_check(M: GradedModule, sigma, window: Window, seed: int = 0) -> IsoResult:
    return are_isomorphic_graded(twist_module(M, sigma), M, window, seed)


# ---------------------------------------------------------------------------
# cluster tilting and the evaluation isomorphism
# ---------------------------------------------------------------------------


def in_add_of(X: GradedModule, M: GradedModule, window: Window) -> tuple[bool, str]:
    """Whether M lies in add{X(i)}: id_M must be a sum of compositions
    M -> X(s) -> M, i.e. the trace ideal of X in End(M)_0 is the whole algebra."""
    ident = identity_hom(M).stacked()
    if not ident.any():
        return True, "zero module"
    cols = []
    for s in range(window.internal_lo, window.internal_hi + 1):
        try:
            down = hom_basis(M, X, s)    # M -> X(s)
            up = hom_basis(X, M, -s)     # X(s) -> M, shifted view
        except WindowExceeded:
            continue
        if down and up:  # every composite M -> X(s) -> M
            cols.append(compose_images(down, up).reshape(len(ident), -1))
    if not cols:
        return False, "no maps through add{X(i)} at all"
    tr = np.concatenate(cols, axis=1)
    ok = linalg.solve(M.field, tr, ident) is not None
    return ok, ("identity realized through add{X(i)}" if ok
                else "identity not in the trace ideal within the window")


def check_cluster_tilting(X: GradedModule, n: int, candidates, window: Window) -> dict:
    if n < 1:
        raise InvalidDimension(f"cluster tilting needs n >= 1; got n = {n}")
    report = {"window": window.tag(), "n": n}
    ok_mcm, mcm_rep = is_mcm(X, window)
    report["X_mcm"] = ok_mcm
    self_ext = ext_table(X, X, range(1, n), window)
    self_ok = not any(self_ext.values())
    report["self_ext"] = self_ext if n > 1 else "vacuous for n = 1 (no 0 < i < 1)"
    cand_rep = []
    all_ok = ok_mcm and self_ok
    for name, M in candidates:
        entry = {"name": name}
        m_ok, _ = is_mcm(M, window)
        entry["mcm"] = m_ok
        cross = [ext_table(X, M, range(1, n), window), ext_table(M, X, range(1, n), window)]
        cross_ok = not any(nz for table in cross for nz in table.values())
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
    relations (f o beta) (x) y - f (x) beta(y) for beta in Hom(X, X(e))_0,
    one block of them for each (a, e).  The relation matrix is never built
    whole, and the report is still exact:

    - Balance, block by block.  The relations die under evaluation ev
      exactly when, in every block, sum_j C[j, (k, i)] h_j = f_i o beta_k on
      X_{d-a-e}, where C holds the coordinates of f_i o beta_k in the basis
      (h_j) of Hom(X, M(a+e))_0; that is ev times the block's columns.
    - Rank on the free rows.  When every block balances, every relation
      lies in ker(ev), and a vector of ker(ev) is fixed by its entries off
      the pivots of rref(ev), so the relations have the rank of their rows
      at those free positions, and ev has the rank len(pivots).
    - Early stop.  A rank cannot exceed the number of rows it is taken on,
      so the blocks stop once it reaches it, and no block is built after.
      Only when every block balances are these the free rows; otherwise
      the rank is taken on all rows, and relation_rank and quotient_dim
      stay exact on that path too.
    - Sparse relations.  A block's nonzero entries are read off the
      nonzeros of C and of the beta_k (see _relation_entries), with no
      dense block and no Kronecker product against an identity.  Each
      relation becomes one {kept row: value} column, and linalg.sparse_rank
      takes the rank of all of them, one column at a time."""
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
        ev = np.concatenate([linalg.zeros(field, M.dim(d), 0)]
                            + [h.matrix(d - a) for a in homs for h in homs[a]], axis=1)
        _, ev_pivots = linalg.rref(field, ev, reduced=False)
        blocks = []
        for a in homs:
            for e in range(0, a_hi - a + 1):
                m = d - a - e
                if not (homs[a] and X.valid_from <= m <= X.valid_to and X.dim(m)):
                    continue
                if bb := hom_basis(X, X, e, shared=True):
                    blocks.append((slice(off[a], off[a] + len(homs[a]) * X.dim(d - a)),
                                   slice(off[a + e], off[a + e] + len(homs[a + e]) * X.dim(m)),
                                   _eval_coords(X, M, a, e, homs[a], homs[a + e], bb),
                                   [beta.matrix(m) for beta in bb]))
        bal = all(_block_balances(field, ev, *blk) for blk in blocks)
        rows = np.setdiff1d(np.arange(total), ev_pivots) if bal else np.arange(total)
        pos = np.full(total, -1)  # a row of T_d -> its place in rows, or -1
        pos[rows] = np.arange(len(rows))
        rk_rel = linalg.sparse_rank(field, _relation_columns(field, pos, blocks), len(rows))
        surj = len(ev_pivots) == M.dim(d)
        inj = (total - rk_rel) == len(ev_pivots)
        ok = bal and surj and inj
        report["degrees"][d] = {
            "tensor_dim": total, "relation_rank": rk_rel,
            "quotient_dim": total - rk_rel, "module_dim": M.dim(d), "bijective": ok,
        }
        if not ok:
            report["verdict"] = False
    return report


def _eval_coords(X: GradedModule, M: GradedModule, a: int, e: int, fs, hs, bb) -> np.ndarray:
    """C: column k * n_a + i holds the coordinates of f_i o beta_k in the
    basis hs of Hom(X, M(a+e))_0, for f_i in the basis fs of Hom(X, M(a))_0
    and beta_k in the basis bb of Hom(X, X(e))_0 (the shared hom bases, so
    X, M, a and e fix them): the transpose of composition_tensor.  It does
    not depend on the degree, so it is memoized on M."""
    return memo(M, ("eval_coords", X, a, e), lambda: composition_tensor(
        fs, bb, hs).transpose(2, 1, 0).reshape(len(hs), len(bb) * len(fs)))


def _block_balances(field, ev, rows_a, rows_ae, C, betas) -> bool:
    """Whether ev kills the relations of one block: rows_a and rows_ae are
    the coordinates of Hom(X, M(a))_0 (x) X_{d-a} and Hom(X, M(a+e))_0 (x)
    X_{d-a-e} in T_d, C is the block's _eval_coords and betas holds the
    maps X_{d-a-e} -> X_{d-a} of the basis of Hom(X, X(e))_0."""
    md, nj, na = ev.shape[0], C.shape[0], C.shape[1] // len(betas)
    nx, nb = betas[0].shape
    h = ev[:, rows_ae].reshape(md, nj, nb)
    f = ev[:, rows_a].reshape(md, na, nx)
    lhs = linalg.matmul(field, h, C, axes=(1, 0)).reshape(md, nb, len(betas), na)
    rhs = linalg.matmul(field, f, np.stack(betas), axes=(2, 1))
    return np.array_equal(lhs.transpose(0, 3, 2, 1), rhs)


def _relation_columns(field, pos, blocks):
    """The relations of every block as {row: value} columns on the rows that
    pos keeps (pos maps a row of T_d to its place there, or to -1), one
    block at a time, so that no block is built after the rank stops."""
    for blk in blocks:
        rows, cols, vals = _relation_entries(field, *blk)
        rows = pos[rows]
        keep = rows >= 0
        columns = {}
        for i, j, v in zip(rows[keep].tolist(), cols[keep].tolist(), vals[keep].tolist()):
            columns.setdefault(j, {})[i] = v
        yield from columns.values()


def _relation_entries(field, rows_a, rows_ae, C, betas):
    """The nonzero entries (rows of T_d, columns, values) of the relations of
    one block (as in _block_balances): column (k * n_a + i) * dim X_{d-a-e} + y
    is (f_i o beta_k) (x) y - f_i (x) beta_k(y).

    Both terms are read off the nonzeros of their factors: C[j, (k, i)] sits
    in row (j, y) of rows_ae, and -beta_k[x, y] in row (i, x) of rows_a.
    When e = 0 the two row slices are the same: entries that share a place
    are summed, and the zero sums dropped."""
    nc, nb = C.shape[1], betas[0].shape[1]
    na, nx = nc // len(betas), betas[0].shape[0]
    y = np.arange(nb)
    j, c = np.nonzero(C)
    stacked = np.stack(betas)
    k, x, yb = np.nonzero(stacked)
    i = np.arange(na)
    rows = np.concatenate([(rows_ae.start + j[:, None] * nb + y).ravel(),
                           (rows_a.start + i * nx + x[:, None]).ravel()])
    cols = np.concatenate([(c[:, None] * nb + y).ravel(),
                           ((k[:, None] * na + i) * nb + yb[:, None]).ravel()])
    vals = np.concatenate([np.repeat(C[j, c], nb),
                           np.repeat(linalg.reduce(field, -stacked[k, x, yb]), na)])
    if rows_a == rows_ae:
        places, where = np.unique(rows * (nc * nb) + cols, return_inverse=True)
        sums = linalg.zeros(field, len(places))
        np.add.at(sums, where, vals)
        linalg.reduce(field, sums)
        nz = sums != 0
        rows, cols = np.divmod(places[nz], nc * nb)
        vals = sums[nz]
    return rows, cols, vals
