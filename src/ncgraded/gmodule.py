"""Graded right modules (GradedModule, re-exported from projfree): their
constructors, homomorphisms, twists and duals.  A free module is a ProjFree,
its own cover.  Derived results (shared hom bases, free modules, opposite
algebras) are memoized on their owner.

A HomElement is stored by its generator images and evaluated by
projfree.map_matrix; compose_images is the one place composites are formed
(compose_hom is its one-pair case).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import AlgebraOracle, PresentedAlgebra, opposite_presentation
from .errors import (
    AlgebraMismatch,
    InvalidAutomorphism,
    NcgError,
    NonHomogeneous,
    ShapeMismatch,
    WindowExceeded,
)
from .freealg import NcPoly
from .memo import memo
from .projfree import (GradedModule, Morphism, ProjFree, _Presentation, act_rows, block_diag,
                       map_matrix, summand_matrices)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def module_from_cover(cover: ProjFree, rel: Morphism | None, lo: int, hi: int) -> GradedModule:
    """Cokernel of rel: F1 -> F0 as a tabulated module with known presentation."""
    alg = cover.algebra
    field = cover.field
    dims, cover_mats, sections = {}, {}, {}
    for d in range(lo, hi + 1):
        eye = linalg.eye(field, cover.dim(d))
        span = linalg.Echelon.of(field, rel.matrix(d) if rel is not None else eye[:, :0])
        r = span.rank
        idxs = span.extend(eye)
        dims[d] = len(idxs)
        sections[d] = eye[:, idxs]
        cover_mats[d] = span.coords(eye)[r:]  # (k, n): projection F0_d ->> M_d

    def action(d, e):
        u = act_rows(field, sections[d].T, cover.act_tensor(d, e))  # (k, ne, F0_{d+e})
        return linalg.matmul(field, u, cover_mats[d + e].T)  # (k, ne, k')

    pres = _Presentation(cover, cover_mats, sections, rel, hi)
    return GradedModule(alg, dims, action, lo, hi, pres)


def free_graded_module(alg: AlgebraOracle, shifts, lo: int = 0, hi: int | None = None) -> ProjFree:
    """(+)_i Alg(s_i), its own cover.  Memoized on alg, so equal arguments
    give the same module."""
    if hi is None:
        hi = alg.valid_through
    gdegs = [-s for s in shifts]
    return memo(alg, ("free", tuple(shifts), lo, hi), lambda: ProjFree(
        alg, [(None, g) for g in gdegs], min([lo] + gdegs), hi))


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
    return GradedModule(M.algebra, lambda d: M.dim(d + n), lambda d, e: M.act_tensor(d + n, e),
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
        return block_diag(field, [m.act_tensor(d, e) for m in mods])

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
            cover_mats[d] = block_diag(field, cms)
            scs = [p.sections.get(d, linalg.zeros(field, p.cover.dim(d), mods[i].dim(d)))
                   for i, p in enumerate(parts)]
            sections[d] = block_diag(field, scs)
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
        """f_d: M_d -> N_{d+s}  (shape out x in), through the cover's section."""
        P = self.M.presentation()
        return memo(self, ("matrix", d), lambda: linalg.matmul(
            self.M.field, map_matrix(P.cover, self.N, self.gen_images, self.s, d), P.sections[d]))

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
            Ws.append(linalg.Echelon.of(field, linalg.matmul(
                field, N.act_tensor(dN, 0), eps, axes=(1, 0)).T).basis)
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
    Ws = hom_block_bases(P.cover, N, s)  # unknown parametrization per generator
    null = linalg.nullspace(field, precomposition_matrix(P.rel, N, s, Ws))
    return homs_from_stacked(M, N, s, linalg.matmul(field, block_diag(field, Ws), null))


def homs_from_stacked(M: GradedModule, N: GradedModule, s: int, stacked: np.ndarray):
    """The HomElements M -> N(s) whose stacked generator images (as in
    HomElement.stacked) are the columns of stacked."""
    offs = np.cumsum([0] + [N.dim(g + s) for _, g in M.presentation().cover.summands])
    return [HomElement(M, N, s, [col[offs[j] : offs[j + 1]] for j in range(len(offs) - 1)])
            for col in np.ascontiguousarray(stacked.T)]


def precomposition_matrix(diff: Morphism | None, N: GradedModule, s: int, Ws) -> np.ndarray:
    """Matrix of f -> f o diff, from Hom(diff.target, N(s)) in the coordinates
    of its block bases Ws (see hom_block_bases) to the values of f o diff on
    the generators of diff.source, stacked; no rows when diff is None.  For
    each cover summand j and source degree h, one summand_matrices call
    evaluates the maps sending generator j to the columns of Ws[j], for all
    generators of degree h at once."""
    field = N.field
    offs = np.cumsum([0] + [w.shape[1] for w in Ws])
    if diff is None:
        return linalg.zeros(field, 0, offs[-1])
    cover = diff.target
    degs = [h for _, h in diff.source.summands]
    for h in degs:
        if h + s > N.valid_to:
            raise WindowExceeded(f"need N at degree {h + s} beyond validity {N.valid_to}")
    rows = np.cumsum([0] + [N.dim(h + s) for h in degs])
    out = linalg.zeros(field, rows[-1], offs[-1])
    for h in sorted(set(degs)):
        ms = [m for m, hm in enumerate(degs) if hm == h]
        images = np.stack([diff.images[m] for m in ms], axis=1)  # cover coords at h
        coffs = cover.offsets(h)
        for j in range(cover.rank):
            if offs[j] < offs[j + 1] and coffs[j] < coffs[j + 1]:
                vals = linalg.matmul(field, summand_matrices(cover, N, j, Ws[j], s, h),
                                     images[coffs[j] : coffs[j + 1]])  # (n_j, out, len(ms))
                for i, m in enumerate(ms):
                    out[rows[m] : rows[m + 1], offs[j] : offs[j + 1]] = vals[:, :, i].T
    return out


def compose_images(fs, gs) -> np.ndarray:
    """Stacked generator images (as in HomElement.stacked) of every composite
    g o f, f in fs and g in gs: column [:, i, k] is gs[i] o fs[k].  The fs
    are maps M -> N(s) of one M, N and s, and each g starts at N; both lists
    are nonempty.  The image of generator j of M under g o f is
    g.matrix(g_j + s) f(gen_j), so every composite is one contraction per
    summand of M's cover."""
    M, N, s = fs[0].M, fs[0].N, fs[0].s
    if any(f.M is not M or f.N is not N or f.s != s for f in fs) or any(g.M is not N for g in gs):
        raise AlgebraMismatch("compose: the fs must share source, target and degree, "
                              "and every g must start at that target")
    field = M.field
    blocks = [linalg.zeros(field, 0, len(gs), len(fs))]
    for j, (_, gj) in enumerate(M.presentation().cover.summands):
        mats = np.stack([g.matrix(gj + s) for g in gs], axis=1)  # (out, n_g, in)
        U = np.stack([f.gen_images[j] for f in fs], axis=1)      # (in, n_f)
        blocks.append(linalg.matmul(field, mats, U))             # (out, n_g, n_f)
    return np.concatenate(blocks)


def compose_hom(f: HomElement, g: HomElement) -> HomElement:
    """g o f: M -> P(s+t) for f: M -> N(s), g: N -> P(t)."""
    return homs_from_stacked(f.M, g.N, f.s + g.s, compose_images([f], [g])[:, 0])[0]


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
        full[offs[j] : offs[j] + sub.rank] = col
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

    return GradedModule(M.algebra, M.dim, action, M.valid_from, M.valid_to)


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
