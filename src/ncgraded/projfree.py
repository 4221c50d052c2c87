"""Graded right modules over an algebra oracle, and the shifted projective
modules P = (+) eps_j . Alg(-g_j) that cover them.

A GradedModule is tabulated lazily: dimensions and action tensors are
computed on first use and cached.  It carries (or extracts) a minimal
projective presentation F1 -> F0 -> M -> 0; over a non-connected algebra the
cover summands are cut out by idempotents eps of the algebra's own `deg0`,
so the presentation does not depend on who asks for it first, and minimal
resolutions terminate where the projectives are not free.  A ProjFree is a
GradedModule and its own cover; over a connected algebra every eps is None.

map_matrix is the one place a map out of a cover, given by its generator
images, is evaluated in a degree (Morphism, HomElement and cover maps
alike); its per-summand step summand_matrices evaluates whole families of
such maps at once (gmodule.precomposition_matrix).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

import numpy as np

from . import linalg
from .algebra import AlgebraOracle
from .errors import DegreeBeyondTruncation, IncompleteKernel, ShapeMismatch, WindowExceeded
from .findim import Deg0Data
from .memo import memo


class _Presentation:
    """Cover data: surjections F0_d ->> M_d with sections, plus relation
    generators (a morphism onto the kernel)."""

    def __init__(self, cover: ProjFree, cover_mats: dict, sections: dict, rel: Morphism | None,
                 complete_through: int):
        self.cover = cover
        self.cover_mats = cover_mats
        self.sections = sections
        self.rel = rel
        self.complete_through = complete_through


class GradedModule:
    """Degreewise dimensions on [valid_from, valid_to] and a right action.

    dims gives dim M_d: a dict (absent degrees are 0) or a function of d.
    action(d, e) builds the (dim M_d, dim alg_e, dim M_{d+e}) action tensor;
    act_tensor calls it once per (d, e), and never when a dimension is 0.
    """

    def __init__(self, algebra: AlgebraOracle, dims, action: Callable[[int, int], np.ndarray],
                 valid_from: int, valid_to: int, pres: _Presentation | None = None):
        self.algebra = algebra
        self.field = algebra.field
        table = None if callable(dims) else {d: int(n) for d, n in dims.items() if n}
        self._dim = dims if table is None else (lambda d: table.get(d, 0))
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
        return self._dim(d)

    def act_tensor(self, d: int, e: int) -> np.ndarray:
        """(dim M_d, dim alg_e, dim M_{d+e}) action tensor."""

        def build():
            shape = (self.dim(d), self.algebra.dim(e), self.dim(d + e))
            return self._action(d, e) if all(shape) else linalg.zeros(self.field, *shape)

        return memo(self, ("act", d, e), build)

    def act(self, d: int, v: np.ndarray, e: int, w: np.ndarray) -> np.ndarray:
        """(v at degree d) . (algebra vector w at degree e)."""
        return linalg.matmul(self.field, w, act_rows(self.field, v, self.act_tensor(d, e)))

    # -- presentation ------------------------------------------------------

    def presentation(self) -> _Presentation:
        if self._pres is None:
            self._pres = _extract_presentation(self)
        return self._pres

    def __repr__(self):
        ds = ", ".join(f"{d}:{self.dim(d)}" for d in range(self.valid_from, min(self.valid_to, self.valid_from + 8) + 1))
        return f"{type(self).__name__}(dims {{{ds}}})"


class ProjFree(GradedModule):
    """(+)_j eps_j . Alg(-g_j); generator j sits in degree g_j.

    Valid from lo (default: the lowest generator degree) through hi, capped
    where the algebra's truncation ends for the lowest generator.  Its
    pieces are the summand subspaces, its action is block diagonal over the
    summands, and it is its own cover."""

    def __init__(self, alg: AlgebraOracle, summands, lo: int | None = None, hi: int | None = None):
        # summands: list of (eps vector in alg_0 coords or None, gdeg)
        self.summands = [(None if e is None else np.asarray(e), int(g)) for e, g in summands]
        low = min((g for _, g in self.summands), default=0)
        top = alg.valid_through + low
        super().__init__(
            alg, lambda d: self.offsets(d)[-1],
            lambda d, e: block_diag(self.field, [self.action_block(j, d, e) for j in range(self.rank)]),
            low if lo is None else lo, top if hi is None else min(hi, top))

    # bench/tracer.py wraps ProjFree.act on this class, so the inherited
    # method is bound here under its own name
    act = GradedModule.act

    @property
    def rank(self) -> int:
        return len(self.summands)

    def subspace(self, j: int, d: int) -> linalg.Echelon:
        """Echelon basis of summand j's piece in internal degree d, eps_j . alg_{d-g_j}
        inside alg_{d-g_j}."""

        def build():
            eps, g = self.summands[j]
            n = self.algebra.dim(d - g) if d >= g else 0
            if eps is None:
                return linalg.Echelon.identity(self.field, n)
            if n == 0:
                return linalg.Echelon(self.field, 0)
            return linalg.Echelon.of(self.field, self.algebra.left_mult_matrix(0, eps, d - g))

        return memo(self, ("sub", j, d), build)

    def offsets(self, d: int) -> list:
        """Where each summand's block starts in the coordinates of degree d, then dim P_d."""
        return list(accumulate((self.subspace(j, d).rank for j in range(self.rank)), initial=0))

    def presentation(self) -> _Presentation:
        """The module is its own cover: identity cover maps, no relations."""
        if self._pres is None:
            eyes = {d: linalg.eye(self.field, self.dim(d))
                    for d in range(self.valid_from, self.valid_to + 1)}
            self._pres = _Presentation(self, eyes, eyes, None, self.valid_to)
        return self._pres

    def action_block(self, j: int, d: int, e: int) -> np.ndarray:
        """Matrix of right mult (summand j piece at d) x (alg basis of e) -> piece at d+e.

        Returns tensor of shape (r_in, dim alg_e, r_out)."""
        eps, g = self.summands[j]
        sub_in = self.subspace(j, d)
        sub_out = self.subspace(j, d + e)
        ne = self.algebra.dim(e)
        t = linalg.zeros(self.field, sub_in.rank, ne, sub_out.rank)
        if sub_in.rank == 0 or sub_out.rank == 0 or ne == 0:
            return t
        mt = self.algebra.mult_tensor(d - g, e)  # (dim_{d-g}, ne, dim_{d-g+e})
        amb = linalg.matmul(self.field, sub_in.basis, mt, axes=(0, 0))  # (r_in, ne, dim_out_amb)
        flat = amb.reshape(-1, amb.shape[2]).T  # (dim_out_amb, r_in*ne)
        coords = sub_out.coords(flat)  # (r_out, r_in*ne)
        return coords.T.reshape(sub_in.rank, ne, sub_out.rank)


def block_diag(field, blocks) -> np.ndarray:
    """Block-diagonal array over the first and last axes of the blocks, whose
    middle axes agree: matrices, or action tensors (dim in, dim alg_e, dim out)."""
    mid = blocks[0].shape[1:-1] if blocks else ()
    out = linalg.zeros(field, sum(b.shape[0] for b in blocks), *mid, sum(b.shape[-1] for b in blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], ..., c : c + b.shape[-1]] = b
        r += b.shape[0]
        c += b.shape[-1]
    return out


class Morphism:
    """Graded degree-0 morphism between ProjFree modules, stored as images of
    the source generators (coordinates in the target at the generator degree)."""

    def __init__(self, source: ProjFree, target: ProjFree, images):
        if len(images) != source.rank:
            raise ShapeMismatch("one image per source generator required")
        self.source = source
        self.target = target
        self.images = [np.asarray(v) for v in images]

    def matrix(self, d: int) -> np.ndarray:
        """Degreewise matrix F'_d -> F_d (target coords x source coords)."""
        return memo(self, ("matrix", d), lambda: map_matrix(self.source, self.target, self.images, 0, d))

    def kernel_basis(self, d: int) -> np.ndarray:
        return linalg.nullspace(self.source.field, self.matrix(d))


def map_matrix(cover: ProjFree, target: GradedModule, images, s: int, d: int) -> np.ndarray:
    """Degree-d matrix (target degree d+s x cover degree d) of the map out of
    cover that sends generator j to images[j], given in target's degree
    g_j + s."""
    cols = [linalg.zeros(cover.field, target.dim(d + s), 0)]
    for j in range(cover.rank):
        if cover.subspace(j, d).rank:
            cols.append(summand_matrices(cover, target, j, images[j][:, None], s, d)[0])
    return np.concatenate(cols, axis=1)


def summand_matrices(cover: ProjFree, target: GradedModule, j: int, images: np.ndarray,
                     s: int, d: int) -> np.ndarray:
    """(k, dim target_{d+s}, rank of summand j's piece at d): for each of the
    k columns u of images, vectors of target's degree g_j + s, the matrix on
    summand j's piece of cover in degree d of the map that sends generator j
    to u; generator j times a in alg_{d-g_j} goes to u . a."""
    field = cover.field
    gj = cover.summands[j][1]
    w = act_rows(field, images.T, target.act_tensor(gj + s, d - gj))  # (k, dim alg_{d-gj}, out)
    return linalg.matmul(field, w, cover.subspace(j, d).basis, axes=(1, 0))


def act_rows(field, V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectors V[..., :] of degree d times an action tensor t of shape
    (dim d, dim alg_e, dim d+e); shape V.shape[:-1] + (dim alg_e, dim d+e)."""
    flat = linalg.matmul(field, V, t.reshape(t.shape[0], t.shape[1] * t.shape[2]))
    return flat.reshape(V.shape[:-1] + t.shape[1:])


def action_span(obj, gens, d: int) -> np.ndarray:
    """Columns spanning the sum of g . alg_{d - deg g} over the generators
    (eps, deg g, g) inside degree d of obj; degree-0 action included."""
    cols = [linalg.zeros(obj.field, obj.dim(d), 0)]
    for _, dg, v in gens:
        if d >= dg:
            cols.append(act_rows(obj.field, v, obj.act_tensor(dg, d - dg)).T)
    return np.concatenate(cols, axis=1)


def scan_minimal_generators(field, container, piece_basis, deg_range, deg0: Deg0Data | None):
    """Pick minimal generators of a graded submodule given degreewise bases.

    container is the GradedModule the submodule lives in; the span of the
    generators chosen so far is action_span(container, gens, d), and the
    degree-0 radical and idempotent action is read from act_tensor(d, 0).
    piece_basis(d) -> matrix whose columns are a basis of the submodule piece
    (in coordinates of container's degree-d piece).  deg0 is the `deg0` of
    the container's algebra: None for a connected algebra, else the radical
    and idempotents that split each new generator, so the set is minimal.

    Returns list of (eps_or_None, degree, vector).  Raises IncompleteKernel if
    a chosen set fails to span a piece it should span (consistency check).
    """
    gens = []
    for d in deg_range:
        kb = piece_basis(d)
        if kb.shape[1] == 0:
            continue
        known = len(gens)
        span = linalg.Echelon.of(field, action_span(container, gens, d))
        sel = span.copy()
        if deg0 is None:
            for j in sel.extend(kb):
                gens.append((None, d, kb[:, j].copy()))
        else:
            # quotient V = K_d / sel, then V/(V.rad) split by idempotents;
            # a0[j, :, b] = (kernel vector j) . (degree-0 basis element b)
            a0 = act_rows(field, kb.T, container.act_tensor(d, 0)).transpose(0, 2, 1)
            rad = linalg.matmul(field, a0, deg0.radical_basis)  # (k, n, r)
            sel.extend(rad.transpose(1, 0, 2).reshape(kb.shape[0], -1))
            for eps in deg0.idempotents:
                cands = linalg.matmul(field, a0, eps).T  # (n, k)
                for j in sel.extend(cands):
                    gens.append((eps, d, cands[:, j].copy()))
        # consistency: the chosen generators must span the piece.  Checked
        # against their own action span: sel holds the chosen columns (and
        # the radical part), so reducing against sel would prove nothing
        span.extend(action_span(container, gens[known:], d))
        if np.count_nonzero(span.reduce(kb)):
            raise IncompleteKernel(f"generator extraction failed to span degree {d}")
    return gens


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
        cm = cover_mats[d] = map_matrix(cover, M, [v for _, _, v in gens], 0, d)
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
