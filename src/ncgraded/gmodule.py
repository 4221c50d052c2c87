"""Graded right modules (GradedModule, re-exported from projfree): their
constructors, homomorphisms, twists and duals.  A free module is a ProjFree,
its own cover.  Derived results (shared hom bases, free modules, opposite
algebras) are memoized on their owner.  The opposite of any algebra is a
TabulatedAlgebra over its bases with the two factors of each tensor swapped;
a dual module lives over it.

Constructors tabulate nothing: a cyclic module (module_from_cover) finds a
degree's cover matrix, section and dimension when one of them is first read,
and a direct sum assembles a degree from its summands' pieces the same way;
action tensors are built per pair of degrees on first read.

Every HomElement is a member of a HomFamily, the maps M -> N(s) made
together from their stacked generator images (a hom basis, or a family of
one, such as an identity or a composite): the family keeps those images
and evaluates all of them in a degree at once, one
projfree.summand_matrices call per cover summand, and a member's matrix is
its slice of that.  compose_images is the one place composites are formed
(compose_hom is its one-pair case), and hom_coords the one solve for
coordinates in a hom basis (composition_tensor joins the two).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import AlgebraOracle, PresentedAlgebra, TabulatedAlgebra
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
from .projfree import GradedModule, Morphism, Pieces, ProjFree, _Presentation, block_diag, summand_matrices


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def module_from_cover(cover: ProjFree, rel: Morphism | None, lo: int, hi: int) -> GradedModule:
    """Cokernel of rel: F1 -> F0 as a module with known presentation, valid
    on lo..hi.  A degree's cover matrix and section, and with them its
    dimension, are found on its first read (_cokernel_piece)."""
    field = cover.field
    P = _Presentation(cover, lo, hi, lambda d: _cokernel_piece(cover, rel, d), rel)

    def action(d, e):
        u = cover.act_rows(P.sections[d].T, d, e)  # (k, ne, F0_{d+e})
        return linalg.matmul(field, u, P.cover_mats[d + e].T)  # (k, ne, k')

    return GradedModule(cover.algebra, lambda d: P.sections[d].shape[1], action, lo, hi, P)


def _cokernel_piece(cover: ProjFree, rel: Morphism | None, d: int):
    """(cover matrix, section) of coker(rel) in degree d: the projection
    F0_d ->> M_d onto a complement of the image of rel, and its inclusion."""
    field = cover.field
    eye = linalg.eye(field, cover.dim(d))
    span = linalg.Echelon.of(field, rel.matrix(d) if rel is not None else eye[:, :0])
    r = span.rank
    idxs = span.extend(eye)
    return span.coords(eye)[r:], eye[:, idxs]


def free_graded_module(alg: AlgebraOracle, shifts, lo: int = 0, hi: int | None = None) -> ProjFree:
    """(+)_i Alg(s_i), its own cover.  Memoized on alg, so equal arguments
    give the same module."""
    if hi is None:
        hi = alg.valid_through
    gdegs = [-s for s in shifts]
    return memo(alg, ("free", tuple(shifts), lo, hi), lambda: ProjFree(
        alg, [(None, g) for g in gdegs], min([lo] + gdegs), hi))


def check_homogeneous(gens):
    """Raise NonHomogeneous for a generator that is neither zero nor homogeneous."""
    for g in gens:
        if not g.is_zero() and not g.is_homogeneous():
            raise NonHomogeneous(f"generator {g} is not homogeneous")


def cyclic_cover(alg: PresentedAlgebra, gens) -> tuple[ProjFree, Morphism | None]:
    """Cover Alg and relation map (+) g_i Alg -> Alg of Alg / sum g_i Alg.

    It takes normal forms of the generators, so it completes the algebra's
    Groebner basis.  Raises NonHomogeneous, or DegreeBeyondTruncation for a
    generator past the algebra's truncation."""
    check_homogeneous(gens)
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
    dims = Pieces(lo, hi, lambda d: sum(m.dim(d) for m in mods))

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

        def piece(d):
            cms = [p.cover_mats.get(d, linalg.zeros(field, m.dim(d), p.cover.dim(d)))
                   for m, p in zip(mods, parts)]
            scs = [p.sections.get(d, linalg.zeros(field, p.cover.dim(d), m.dim(d)))
                   for m, p in zip(mods, parts)]
            return block_diag(field, cms), block_diag(field, scs)

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
        pres = _Presentation(cover, lo, hi, piece, rel)
    return GradedModule(alg, lambda d: dims[d], action, lo, hi, pres)


# ---------------------------------------------------------------------------
# Hom solver (shared by Hom and Ext, duals, endomorphism algebras)
# ---------------------------------------------------------------------------


class HomFamily:
    """The k homomorphisms M -> N(s) whose stacked generator images (as in
    HomElement.stacked) are the columns of stacked, evaluated together:
    images[j] holds the k images of generator j of M's cover, and
    matrices(d) every member's matrix in degree d."""

    def __init__(self, M: GradedModule, N: GradedModule, s: int, stacked: np.ndarray):
        self.M = M
        self.N = N
        self.s = s
        self.stacked = stacked
        offs = np.cumsum([0] + [N.dim(g + s) for _, g in M.presentation().cover.summands])
        self.images = [stacked[offs[j] : offs[j + 1]] for j in range(len(offs) - 1)]
        self.members = [HomElement(self, i) for i in range(stacked.shape[1])]

    def matrices(self, d: int) -> np.ndarray:
        """(k, dim N_{d+s}, dim M_d): f_d for every member f, through the
        cover's section; one summand_matrices call per cover summand takes
        all k images, and one product the section.  Below M's lowest degree
        M_d is zero, and so is every f_d."""

        def build():
            M, N, s, field = self.M, self.N, self.s, self.M.field
            empty = linalg.zeros(field, len(self.members), N.dim(d + s), 0)
            if d < M.valid_from:
                return empty
            P = M.presentation()
            cover = P.cover
            blocks = [empty]
            for j in range(cover.rank):
                if len(cover.piece(j, d)):
                    blocks.append(summand_matrices(cover, N, j, self.images[j], s, d))
            return linalg.matmul(field, np.concatenate(blocks, axis=2), P.sections[d])

        return memo(self, ("matrices", d), build)


class HomElement:
    """A degree-s homomorphism M -> N(s): member index of its family, whose
    arrays hold its generator images and matrices."""

    def __init__(self, family: HomFamily, index: int):
        self.family = family
        self.index = index
        self.M = family.M
        self.N = family.N
        self.s = family.s
        self.gen_images = [u[:, index] for u in family.images]

    def matrix(self, d: int) -> np.ndarray:
        """f_d: M_d -> N_{d+s}  (shape out x in), through the cover's section."""
        return self.family.matrices(d)[self.index]

    def stacked(self) -> np.ndarray:
        """The generator images, one after another, in the field's dtype."""
        return self.family.stacked[:, self.index]


def hom_block_bases(cover: ProjFree, N: GradedModule, s: int):
    """Per-summand coordinate bases W_m of Hom(e_m Alg(-g_m), N(s)) = N_{g_m+s} e_m:
    on a vertex, the identity columns where a ProjFree N's pieces meet the
    opposite algebra's support alg . e_m, else an echelon of N's action."""
    field = N.field
    Ws = []
    for v, gm in cover.summands:
        dN = gm + s
        if dN > N.valid_to:
            raise WindowExceeded(f"need module degree {dN} beyond validity {N.valid_to}")
        n = N.dim(dN)
        if v is None:
            Ws.append(linalg.eye(field, n))
        elif isinstance(N, ProjFree):
            op = opposite_algebra(N.algebra)
            offs = N.offsets(dN)
            cols = [offs[k] + np.flatnonzero(np.isin(N.piece(k, dN), op.support(v, dN - h)))
                    for k, (_, h) in enumerate(N.summands) if offs[k] < offs[k + 1]]
            Ws.append(linalg.eye(field, n)[:, np.concatenate([np.arange(0)] + cols)])
        else:
            eps = N.algebra.deg0.idempotents[v]
            Ws.append(linalg.Echelon.of(
                field, linalg.matmul(field, N.act_tensor(dN, 0), eps, axes=(1, 0)).T).basis)
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
    return HomFamily(M, N, s, linalg.matmul(field, block_diag(field, Ws), null)).members


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


def hom_coords(field, basis, rhs) -> np.ndarray:
    """Coordinates in a hom basis of the homs whose stacked generator images
    (as in HomElement.stacked) are the columns of rhs, one column each;
    ShapeMismatch when one of them is not in the basis' span."""
    if not rhs.shape[1]:
        return linalg.zeros(field, len(basis), 0)
    stack = np.stack([b.stacked() for b in basis], axis=1) if basis else linalg.zeros(field, len(rhs), 0)
    sol = linalg.solve(field, stack, rhs)
    if sol is None:
        raise ShapeMismatch("a hom left the computed hom space")
    return sol


def composition_tensor(b1, b2, b12) -> np.ndarray:
    """tensor[i, j] = coordinates in the basis b12 of b1[i] o b2[j] (b2[j]
    applied first); b1 and b2 are nonempty."""
    rhs = compose_images(b2, b1).reshape(-1, len(b1) * len(b2))
    return hom_coords(b1[0].M.field, b12, rhs).T.reshape(len(b1), len(b2), len(b12))


def compose_hom(f: HomElement, g: HomElement) -> HomElement:
    """g o f: M -> P(s+t) for f: M -> N(s), g: N -> P(t)."""
    return HomFamily(f.M, g.N, f.s + g.s, compose_images([f], [g])[:, 0]).members[0]


def identity_hom(M: GradedModule) -> HomElement:
    P = M.presentation()
    cover = P.cover
    gen_images = [linalg.zeros(M.field, 0)]
    for j, (v, gj) in enumerate(cover.summands):
        e = M.algebra.unit if v is None else M.algebra.deg0.idempotents[v]
        full = linalg.zeros(M.field, cover.dim(gj))
        offs = cover.offsets(gj)
        full[offs[j] : offs[j + 1]] = e[cover.piece(j, gj)]
        gen_images.append(linalg.matmul(M.field, P.cover_mats[gj], full))
    return HomFamily(M, M, 0, np.concatenate(gen_images)[:, None]).members[0]


# ---------------------------------------------------------------------------
# graded automorphisms and twists
# ---------------------------------------------------------------------------


_AUTOMORPHISM_CHECK_THROUGH = 4  # degrees 0..4 are checked invertible


class GradedAutomorphism:
    """Degree-preserving algebra automorphism of a presented algebra, given by
    generator images; validated on relations and per-degree invertibility."""

    def __init__(self, alg: PresentedAlgebra, images):
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
        for d in range(0, _AUTOMORPHISM_CHECK_THROUGH + 1):
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


def opposite_algebra(alg: AlgebraOracle) -> TabulatedAlgebra:
    """alg^op for any algebra: alg's bases, lazily read dimensions, unit,
    validity and generated_through, and as (d1, d2) tensor a view of alg's
    (d2, d1) tensor with its first two axes swapped, built on first read.
    Memoized both ways, so op(op(A)) is A itself."""

    def build():
        op = TabulatedAlgebra(alg.field, Pieces(alg.valid_from, alg.valid_through, alg.dim),
                              lambda d1, d2: alg.mult_tensor(d2, d1).transpose(1, 0, 2), lambda: alg.unit,
                              valid_from=alg.valid_from, valid_through=alg.valid_through,
                              generated_through=alg.generated_through)
        memo(op, "op", lambda: alg)
        return op

    return memo(alg, "op", build)


def dual_module(M: GradedModule, lo: int | None = None, hi: int | None = None) -> GradedModule:
    """M-dagger = Hom(M, Alg) as a right module over the opposite algebra:
    degree-s piece = Hom_GrMod(M, Alg(s)), action (f * a)(m) = a . f(m),
    where op_e has alg_e's basis."""
    alg = M.algebra
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
        """(f * a) for every basis f of degree s and basis element a of op_e:
        the images a . f(gen_j), one contraction per cover summand, solved in
        the degree-(s+e) basis all at once."""
        hb, tb = bases[s], bases[s + e]
        images = hb[0].family.images
        # (a, stacked generator images, f)
        rhs = np.concatenate([linalg.matmul(field, alg.mult_tensor(e, gj + s), u, axes=(1, 0))
                              for gj, u in zip(gdegs, images)], axis=1)
        rhs = rhs.transpose(1, 0, 2).reshape(-1, op.dim(e) * len(hb))
        return hom_coords(field, tb, rhs).T.reshape(op.dim(e), len(hb), len(tb)).transpose(1, 0, 2)

    return GradedModule(op, dims, action, lo, hi)
