"""Finitely generated graded right modules over an algebra oracle.

A GradedModule is tabulated: per-degree dimensions plus right-action
tensors, each computed on first use and cached.  Every module also carries
(or lazily extracts) a minimal projective presentation  F1 -> F0 -> M -> 0
used by Hom/Ext computations; over a non-connected algebra the cover
summands are cut out by the idempotents of the algebra's own `deg0`, so the
presentation does not depend on who asks for it first.  Derived results
(shared hom bases, free modules, opposite algebras) are memoized on their owner.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import linalg
from .algebra import AlgebraOracle, PresentedAlgebra, memo, opposite_presentation
from .errors import (
    AlgebraMismatch,
    DegreeBeyondTruncation,
    InvalidAutomorphism,
    NcgError,
    NonHomogeneous,
    ShapeMismatch,
    WindowExceeded,
)
from .freealg import NcPoly
from .projfree import Morphism, ProjFree, act_rows, scan_minimal_generators


class _Presentation:
    """Cover data: surjections F0_d ->> M_d with sections, plus relation
    generators (a morphism onto the kernel)."""

    def __init__(self, cover: ProjFree, cover_mats: dict, sections: dict, rel: Morphism,
                 complete_through: int):
        self.cover = cover
        self.cover_mats = cover_mats
        self.sections = sections
        self.rel = rel
        self.complete_through = complete_through


class GradedModule:
    """Degreewise dimensions on [valid_from, valid_to] and a right action.

    action(d, e) builds the (dim M_d, dim alg_e, dim M_{d+e}) action tensor;
    act_tensor calls it once per (d, e), and never when a dimension is 0.
    """

    def __init__(self, algebra: AlgebraOracle, dims: dict, action: Callable[[int, int], np.ndarray],
                 valid_from: int, valid_to: int, pres: _Presentation | None = None):
        self.algebra = algebra
        self.field = algebra.field
        self._dims = {d: int(n) for d, n in dims.items() if n}
        self._action = action
        self.valid_from = valid_from
        self.valid_to = valid_to
        self._pres = pres

    # -- pieces ------------------------------------------------------------

    def dim(self, d: int) -> int:
        if d < self.valid_from:
            return 0
        if d > self.valid_to:
            raise DegreeBeyondTruncation(f"degree {d} beyond module validity {self.valid_to}")
        return self._dims.get(d, 0)

    def act_tensor(self, d: int, e: int) -> np.ndarray:
        """(dim M_d, dim alg_e, dim M_{d+e}) action tensor."""

        def build():
            shape = (self.dim(d), self.algebra.dim(e), self.dim(d + e))
            return self._action(d, e) if all(shape) else linalg.zeros(self.field, *shape)

        return memo(self, ("act", d, e), build)

    def act(self, d: int, v: np.ndarray, e: int, w: np.ndarray) -> np.ndarray:
        """(v at degree d) . (algebra vector w at degree e)."""
        return linalg.matmul(self.field, w, act_rows(self.field, v, self.act_tensor(d, e)))

    def act_matrix(self, d: int, e: int, w: np.ndarray) -> np.ndarray:
        """Matrix of (- . w): M_d -> M_{d+e}  (shape out x in)."""
        return linalg.matmul(self.field, self.act_tensor(d, e), w, axes=(1, 0)).T

    # -- presentation ------------------------------------------------------

    def presentation(self) -> _Presentation:
        if self._pres is None:
            self._pres = _extract_presentation(self)
        return self._pres

    def __repr__(self):
        ds = ", ".join(f"{d}:{self.dim(d)}" for d in range(self.valid_from, min(self.valid_to, self.valid_from + 8) + 1))
        return f"GradedModule(dims {{{ds}}})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def module_from_cover(cover: ProjFree, rel: Morphism | None, lo: int, hi: int) -> GradedModule:
    """Cokernel of rel: F1 -> F0 as a tabulated module with known presentation."""
    alg = cover.alg
    field = cover.field
    dims, cover_mats, sections = {}, {}, {}
    for d in range(lo, hi + 1):
        n = cover.dim(d)
        im = rel.matrix(d) if rel is not None else linalg.zeros(field, n, 0)
        idxs = linalg.complement_pivots(field, im, linalg.eye(field, n))
        k = len(idxs)
        dims[d] = k
        sec = linalg.zeros(field, n, k)
        for c, i in enumerate(idxs):
            sec[i, c] = field.one
        sections[d] = sec
        aug = np.concatenate([im, sec], axis=1)
        sol = linalg.solve(field, aug, linalg.eye(field, n))
        cover_mats[d] = sol[im.shape[1] :, :]  # (k, n): projection F0_d ->> M_d

    def action(d, e):
        u = act_rows(field, sections[d].T, cover.act_tensor(d, e))  # (k, ne, F0_{d+e})
        return linalg.matmul(field, u, cover_mats[d + e].T)  # (k, ne, k')

    pres = _Presentation(cover, cover_mats, sections, rel, hi)
    return GradedModule(alg, dims, action, lo, hi, pres)


def free_graded_module(alg: AlgebraOracle, shifts, lo: int = 0, hi: int | None = None) -> GradedModule:
    """(+)_i Alg(s_i): zero relation matrix.  Memoized on alg, so equal
    arguments give the same module."""
    if hi is None:
        hi = alg.valid_through
    gdegs = [-s for s in shifts]
    return memo(alg, ("free", tuple(shifts), lo, hi), lambda: module_from_cover(
        ProjFree(alg, [(None, g) for g in gdegs]), None, min([lo] + gdegs), hi))


def cyclic_cover(alg: PresentedAlgebra, gens) -> tuple[ProjFree, Morphism | None]:
    """Cover Alg and relation map (+) g_i Alg -> Alg of Alg / sum g_i Alg.

    Cheap: it only takes normal forms of the generators.  Raises
    NonHomogeneous, or DegreeBeyondTruncation for a generator past the
    algebra's truncation."""
    for g in gens:
        if not g.is_zero() and not g.is_homogeneous():
            raise NonHomogeneous(f"generator {g} is not homogeneous")
    cover = ProjFree(alg, [(None, 0)])
    gens = [g for g in gens if not g.is_zero()]
    src = ProjFree(alg, [(None, g.homogeneous_degree()) for g in gens])
    images = [alg.poly_to_vec(g.homogeneous_degree(), g) for g in gens]
    return cover, (Morphism(src, cover, images) if gens else None)


def cyclic_module(alg: PresentedAlgebra, gens, hi: int | None = None) -> GradedModule:
    """Alg / sum g_i Alg as a right module."""
    if hi is None:
        hi = alg.valid_through
    return module_from_cover(*cyclic_cover(alg, gens), 0, hi)


def shift_module(M: GradedModule, n: int) -> GradedModule:
    """M(n)_i = M_{n+i}."""
    dims = {d - n: k for d, k in M._dims.items()}
    return GradedModule(M.algebra, dims, lambda d, e: M.act_tensor(d + n, e),
                        M.valid_from - n, M.valid_to - n)


def direct_sum(mods) -> GradedModule:
    mods = list(mods)
    if not mods:
        raise ShapeMismatch("empty direct sum")
    alg = mods[0].algebra
    field = mods[0].field
    for m in mods[1:]:
        if m.algebra is not alg:
            raise AlgebraMismatch("direct sum requires a common algebra")
    lo = min(m.valid_from for m in mods)
    hi = min(m.valid_to for m in mods)
    dims = {d: sum(m.dim(d) for m in mods) for d in range(lo, hi + 1)}

    def action(d, e):
        t = linalg.zeros(field, dims[d], alg.dim(e), dims[d + e])
        o_in = o_out = 0
        for m in mods:
            a, b = m.dim(d), m.dim(d + e)
            if a and b:
                t[o_in : o_in + a, :, o_out : o_out + b] = m.act_tensor(d, e)
            o_in += a
            o_out += b
        return t

    # merge presentations when every summand has one with the same kind of cover
    pres = None
    try:
        parts = [m.presentation() for m in mods]
    except NcgError:
        parts = None
    if parts is not None:
        cover = ProjFree(alg, [s for p in parts for s in p.cover.summands])
        cover_mats, sections = {}, {}
        for d in range(lo, hi + 1):
            cms = [p.cover_mats.get(d, linalg.zeros(field, mods[i].dim(d), p.cover.dim(d)))
                   for i, p in enumerate(parts)]
            cover_mats[d] = _block_diag(field, cms)
            scs = [p.sections.get(d, linalg.zeros(field, p.cover.dim(d), mods[i].dim(d)))
                   for i, p in enumerate(parts)]
            sections[d] = _block_diag(field, scs)
        rel_summands = []
        rel_images = []
        for i, p in enumerate(parts):
            if p.rel is None:
                continue
            for j in range(p.rel.source.rank):
                rel_summands.append(p.rel.source.summands[j])
                g = p.rel.source.summands[j][1]
                img = p.rel.images[j]
                full = linalg.zeros(field, cover.dim(g))
                off = sum(pp.cover.dim(g) for pp in parts[:i])
                full[off : off + parts[i].cover.dim(g)] = img
                rel_images.append(full)
        rel = Morphism(ProjFree(alg, rel_summands), cover, rel_images) if rel_summands else None
        pres = _Presentation(cover, cover_mats, sections, rel, hi)
    return GradedModule(alg, dims, action, lo, hi, pres)


def _block_diag(field, mats):
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = linalg.zeros(field, rows, cols)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


# ---------------------------------------------------------------------------
# presentation extraction for tabulated modules
# ---------------------------------------------------------------------------


def _extract_presentation(M: GradedModule) -> _Presentation:
    field = M.field
    alg = M.algebra

    def piece_basis(d):
        return linalg.eye(field, M.dim(d))

    gens = scan_minimal_generators(
        field, M, piece_basis, range(M.valid_from, M.valid_to + 1), alg.deg0
    )
    cover = ProjFree(alg, [(eps, d) for eps, d, _ in gens])
    cover_mats, sections = {}, {}
    for d in range(M.valid_from, M.valid_to + 1):
        cols = []
        for j, (eps, dg, v) in enumerate(gens):
            sub = cover.subspace(j, d)
            if sub.r == 0:
                continue
            w = act_rows(field, v, M.act_tensor(dg, d - dg))  # (ne, dimM_d)
            cols.append(linalg.matmul(field, w.T, sub.basis))  # (dimM_d, r)
        cm = np.concatenate(cols, axis=1) if cols else linalg.zeros(field, M.dim(d), 0)
        cover_mats[d] = cm
        sec = linalg.solve(field, cm, linalg.eye(field, M.dim(d)))
        if sec is None:
            raise WindowExceeded(f"cover not surjective at degree {d}")
        sections[d] = sec

    def ker_basis(d):
        return linalg.nullspace(field, cover_mats[d])

    kgens = scan_minimal_generators(
        field, cover, ker_basis, range(M.valid_from, M.valid_to + 1), alg.deg0
    )
    rel = None
    if kgens:
        src = ProjFree(alg, [(eps, d) for eps, d, _ in kgens])
        rel = Morphism(src, cover, [v for _, _, v in kgens])
    return _Presentation(cover, cover_mats, sections, rel, M.valid_to)


# ---------------------------------------------------------------------------
# Hom solver (shared by homology.hom_space, duals, endomorphism algebras)
# ---------------------------------------------------------------------------


class HomElement:
    """A degree-s homomorphism M -> N(s), stored by generator images."""

    def __init__(self, M: GradedModule, N: GradedModule, s: int, gen_images):
        self.M = M
        self.N = N
        self.s = s
        self.gen_images = [np.asarray(u) for u in gen_images]

    def matrix(self, d: int) -> np.ndarray:
        """f_d: M_d -> N_{d+s}  (shape out x in)."""
        return memo(self, ("matrix", d), lambda: self._matrix(d))

    def _matrix(self, d: int) -> np.ndarray:
        field = self.M.field
        P = self.M.presentation()
        cover = P.cover
        nout = self.N.dim(d + self.s)
        cols = []
        for j in range(cover.rank):
            _, gj = cover.summands[j]
            sub = cover.subspace(j, d)
            if sub.r == 0:
                continue
            u = self.gen_images[j]
            w = act_rows(field, u, self.N.act_tensor(gj + self.s, d - gj))
            cols.append(linalg.matmul(field, w.T, sub.basis))  # (nout, r)
        f0 = np.concatenate(cols, axis=1) if cols else linalg.zeros(field, nout, 0)
        return linalg.matmul(field, f0, P.sections[d])

    def stacked(self) -> np.ndarray:
        return np.concatenate([u for u in self.gen_images]) if self.gen_images else np.zeros(0, dtype=np.int64)


def hom_block_bases(cover: ProjFree, N: GradedModule, s: int):
    """Per-summand coordinate bases W_m of Hom(eps_m Alg(-g_m), N(s)) = N_{g_m+s} eps_m."""
    field = N.field
    Ws = []
    for eps, gm in cover.summands:
        dN = gm + s
        if dN > N.valid_to:
            raise WindowExceeded(f"need module degree {dN} beyond validity {N.valid_to}")
        n = N.dim(dN)
        if n == 0:
            Ws.append(linalg.zeros(field, 0, 0))
        elif eps is None:
            Ws.append(linalg.eye(field, n))
        else:
            bas, _ = linalg.column_space_basis(field, N.act_matrix(dN, 0, eps))
            Ws.append(bas)
    return Ws


def hom_basis(M: GradedModule, N: GradedModule, s: int, *, shared: bool = False):
    """Basis of Hom_GrMod(M, N(s)) as HomElements, by exact linear solve on
    the generators and relations of M's presentation.  Each call computes,
    except with shared=True: then the list is memoized on M, keyed by (N, s),
    and every shared caller gets the same one (End(X) and the evaluation
    check reuse Hom(X, X(e)) this way)."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("hom requires a common algebra")
    if shared:
        return memo(M, ("hom", N, s), lambda: _hom_basis(M, N, s))
    return _hom_basis(M, N, s)


def _hom_basis(M: GradedModule, N: GradedModule, s: int):
    field = M.field
    P = M.presentation()
    cover = P.cover
    Ws = hom_block_bases(cover, N, s)  # unknown parametrization per generator
    offs = np.cumsum([0] + [w.shape[1] for w in Ws])
    rows = []
    if P.rel is not None:
        for m in range(P.rel.source.rank):
            _, h = P.rel.source.summands[m]
            if h + s > N.valid_to:
                raise WindowExceeded(f"need N at degree {h + s} beyond validity {N.valid_to}")
            rho = P.rel.images[m]
            blocks = cover.split(rho, h)
            row = linalg.zeros(field, N.dim(h + s), offs[-1])
            for j in range(cover.rank):
                _, gj = cover.summands[j]
                if offs[j] < offs[j + 1]:
                    amb = cover.ambient(j, h, blocks[j])  # alg_{h-gj} ambient
                    am = N.act_matrix(gj + s, h - gj, amb)  # (nrow, n_j)
                    row[:, offs[j] : offs[j + 1]] = linalg.matmul(field, am, Ws[j])
            rows.append(row)
    sys_mat = np.concatenate(rows, axis=0) if rows else linalg.zeros(field, 0, offs[-1])
    null = linalg.nullspace(field, sys_mat)
    images = [linalg.matmul(field, Ws[j], null[offs[j] : offs[j + 1]]) for j in range(cover.rank)]
    return [HomElement(M, N, s, [im[:, c].copy() for im in images]) for c in range(null.shape[1])]


def compose_hom(f: HomElement, g: HomElement) -> HomElement:
    """g o f: M -> P(s+t) for f: M -> N(s), g: N -> P(t)."""
    if f.N is not g.M:
        raise AlgebraMismatch("compose: target of f must be source of g")
    gen_images = []
    cover = f.M.presentation().cover
    for j in range(cover.rank):
        _, gj = cover.summands[j]
        u = f.gen_images[j]  # in N_{gj+s}
        gen_images.append(linalg.matmul(f.M.field, g.matrix(gj + f.s), u))
    return HomElement(f.M, g.N, f.s + g.s, gen_images)


def identity_hom(M: GradedModule) -> HomElement:
    P = M.presentation()
    cover = P.cover
    gen_images = []
    for j in range(cover.rank):
        eps, gj = cover.summands[j]
        sub = cover.subspace(j, gj)
        col = sub.coords(eps if eps is not None else M.algebra.unit)
        # image of generator j in M = cover_mats[gj] applied to its coords in F0
        full = linalg.zeros(M.field, cover.dim(gj))
        offs = cover.offsets(gj)
        full[offs[j] : offs[j] + sub.r] = col
        gen_images.append(linalg.matmul(M.field, P.cover_mats[gj], full))
    return HomElement(M, M, 0, gen_images)


# ---------------------------------------------------------------------------
# graded automorphisms and twists
# ---------------------------------------------------------------------------


class GradedAutomorphism:
    """Degree-preserving algebra automorphism of a presented algebra, given by
    generator images; validated on relations and per-degree invertibility."""

    def __init__(self, alg: PresentedAlgebra, images, check_through: int = 4):
        self.alg = alg
        self.images = list(images)
        if len(self.images) != len(alg.gens):
            raise InvalidAutomorphism("one image per generator required")
        for i, f in enumerate(self.images):
            if f.is_zero() or not f.is_homogeneous() or f.homogeneous_degree() != alg.gens.degrees[i]:
                raise InvalidAutomorphism(f"image of generator {alg.gens.names[i]} must be homogeneous of the same degree")
        for r in alg.presentation.relations:
            img = self._apply_poly(r)
            if not alg.gb.normal_form(img).is_zero():
                raise InvalidAutomorphism(f"relation {r} not preserved")
        for d in range(0, check_through + 1):
            m = self.matrix(d)
            if m.shape[0] and linalg.inverse(alg.field, m) is None:
                raise InvalidAutomorphism(f"not invertible in degree {d}")

    def _apply_poly(self, f: NcPoly) -> NcPoly:
        out = NcPoly.zero(self.alg.gens, self.alg.field)
        for w, c in f.terms.items():
            t = NcPoly.one(self.alg.gens, self.alg.field).scale(c)
            for letter in w:
                t = t * self.images[letter]
            out = out + t
        return out

    def matrix(self, d: int) -> np.ndarray:
        """Matrix of sigma on the degree-d piece (columns = images of basis words)."""

        def build():
            ws = self.alg.basis_words(d)
            m = linalg.zeros(self.alg.field, len(ws), len(ws))
            for b, w in enumerate(ws):
                img = self._apply_poly(NcPoly.word(self.alg.gens, self.alg.field, w))
                m[:, b] = self.alg.poly_to_vec(d, img)
            return m

        return memo(self, ("matrix", d), build)

    @staticmethod
    def identity(alg: PresentedAlgebra) -> "GradedAutomorphism":
        gens = alg.gens
        return GradedAutomorphism(alg, [NcPoly.gen(gens, alg.field, i) for i in range(len(gens))])


def twist_module(M: GradedModule, sigma: GradedAutomorphism) -> GradedModule:
    """Same graded pieces, new action m * a = m sigma(a)."""
    if not isinstance(M.algebra, PresentedAlgebra) or sigma.alg is not M.algebra:
        raise AlgebraMismatch("twist requires the module's presented algebra")

    def action(d, e):
        return linalg.matmul(M.field, M.act_tensor(d, e), sigma.matrix(e),
                             axes=(1, 0)).transpose(0, 2, 1)

    return GradedModule(M.algebra, dict(M._dims), action, M.valid_from, M.valid_to)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def opposite_algebra(alg: PresentedAlgebra) -> PresentedAlgebra:
    """Presented opposite algebra, memoized so that op(op(A)) is A itself."""

    def build():
        op = PresentedAlgebra(opposite_presentation(alg.presentation), alg.valid_through)
        memo(op, "op", lambda: alg)
        return op

    return memo(alg, "op", build)


def dual_module(M: GradedModule, lo: int | None = None, hi: int | None = None) -> GradedModule:
    """M-dagger = Hom(M, Alg) as a right module over the opposite algebra:
    degree-s piece = Hom_GrMod(M, Alg(s)), action (f * a)(m) = a . f(m)."""
    alg = M.algebra
    if not isinstance(alg, PresentedAlgebra):
        raise AlgebraMismatch("dual_module needs a presented algebra")
    op = opposite_algebra(alg)
    if hi is None:
        hi = M.valid_to - 1
    if lo is None:
        lo = -max([g for _, g in M.presentation().cover.summands] + [0])
    NA = free_graded_module(alg, [0], 0, alg.valid_through)
    bases = {s: hom_basis(M, NA, s) for s in range(lo, hi + 1)}
    dims = {s: len(bases[s]) for s in bases}
    field = alg.field
    gdegs = [g for _, g in M.presentation().cover.summands]

    def action(s, e):
        """(f * a) for every basis f of degree s and word a of op_e: the images
        a . f(gen_j), solved in the degree-(s+e) basis all at once."""
        hb, tb = bases[s], bases[s + e]
        images = [np.stack([f.gen_images[j] for f in hb], axis=1) for j in range(len(gdegs))]
        rhs = []
        for w in op.basis_words(e):
            rev = alg.poly_to_vec(e, NcPoly.word(alg.gens, field, tuple(reversed(w))))
            rhs += [linalg.matmul(field, alg.left_mult_matrix(e, rev, gj + s), u)
                    for gj, u in zip(gdegs, images)]
        # rows: stacked generator images; columns: (word, f), word-major
        rhs = np.concatenate(rhs, axis=0).reshape(op.dim(e), -1, len(hb))
        rhs = rhs.transpose(1, 0, 2).reshape(-1, op.dim(e) * len(hb))
        sol = linalg.solve(field, np.stack([b.stacked() for b in tb], axis=1), rhs)
        if sol is None:
            raise WindowExceeded("dual action left the computed window")
        return sol.T.reshape(op.dim(e), len(hb), len(tb)).transpose(1, 0, 2)

    return GradedModule(op, dims, action, lo, hi)
