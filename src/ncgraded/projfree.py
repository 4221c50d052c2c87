"""Shifted projective modules P = (+) eps_j . Alg(-g_j) and graded morphisms
between them, evaluated degreewise by exact linear algebra.

Over a connected algebra every summand has eps = None and these are the
usual shifted free modules.  Over an algebra with a nontrivial degree-0
part (an endomorphism algebra), summands may be cut out by an idempotent
eps of the degree-0 part; that is what makes minimal resolutions terminate
when the relevant projectives are not free.

map_matrix is the one place a map out of a cover, given by its generator
images, is evaluated in a degree (Morphism, HomElement and cover maps alike).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import AlgebraOracle, memo
from .errors import IncompleteKernel, ShapeMismatch
from .findim import Deg0Data


class ProjFree:
    """(+)_j eps_j . Alg(-g_j); generator j sits in degree g_j."""

    def __init__(self, alg: AlgebraOracle, summands):
        # summands: list of (eps vector in alg_0 coords or None, gdeg)
        self.alg = alg
        self.field = alg.field
        self.summands = [(None if e is None else np.asarray(e), int(g)) for e, g in summands]

    @property
    def rank(self) -> int:
        return len(self.summands)

    def subspace(self, j: int, d: int) -> linalg.Echelon:
        """Echelon basis of summand j's piece in internal degree d, eps_j . alg_{d-g_j}
        inside alg_{d-g_j}."""

        def build():
            eps, g = self.summands[j]
            n = self.alg.dim(d - g) if d >= g else 0
            if eps is None:
                return linalg.Echelon.identity(self.field, n)
            if n == 0:
                return linalg.Echelon(self.field, 0)
            return linalg.Echelon.of(self.field, self.alg.left_mult_matrix(0, eps, d - g))

        return memo(self, ("sub", j, d), build)

    def piece_dims(self, d: int):
        return [self.subspace(j, d).rank for j in range(self.rank)]

    def dim(self, d: int) -> int:
        return sum(self.piece_dims(d))

    def offsets(self, d: int):
        dims = self.piece_dims(d)
        offs = [0]
        for r in dims:
            offs.append(offs[-1] + r)
        return offs

    def split(self, v: np.ndarray, d: int):
        """Split coordinates at degree d into per-summand blocks."""
        offs = self.offsets(d)
        return [v[offs[j] : offs[j + 1]] for j in range(self.rank)]

    def ambient(self, j: int, d: int, block: np.ndarray) -> np.ndarray:
        """Summand-j block coords -> ambient alg_{d-g_j} vector (or matrix)."""
        return linalg.matmul(self.field, self.subspace(j, d).basis, block)

    def act_tensor(self, d: int, e: int) -> np.ndarray:
        """(dim F_d, dim alg_e, dim F_{d+e}) right-action tensor, block
        diagonal over the summands (memoized)."""

        def build():
            t = linalg.zeros(self.field, self.dim(d), self.alg.dim(e), self.dim(d + e))
            oi, oo = self.offsets(d), self.offsets(d + e)
            for j in range(self.rank):
                t[oi[j] : oi[j + 1], :, oo[j] : oo[j + 1]] = self.action_block(j, d, e)
            return t

        return memo(self, ("act", d, e), build)

    def act(self, d: int, v: np.ndarray, e: int, w: np.ndarray) -> np.ndarray:
        """(element v at degree d) . (algebra vector w at degree e), in degree d+e."""
        return linalg.matmul(self.field, w, act_rows(self.field, v, self.act_tensor(d, e)))

    def action_block(self, j: int, d: int, e: int) -> np.ndarray:
        """Matrix of right mult (summand j piece at d) x (alg basis of e) -> piece at d+e.

        Returns tensor of shape (r_in, dim alg_e, r_out)."""
        eps, g = self.summands[j]
        sub_in = self.subspace(j, d)
        sub_out = self.subspace(j, d + e)
        ne = self.alg.dim(e)
        t = linalg.zeros(self.field, sub_in.rank, ne, sub_out.rank)
        if sub_in.rank == 0 or sub_out.rank == 0 or ne == 0:
            return t
        mt = self.alg.mult_tensor(d - g, e)  # (dim_{d-g}, ne, dim_{d-g+e})
        amb = linalg.matmul(self.field, sub_in.basis, mt, axes=(0, 0))  # (r_in, ne, dim_out_amb)
        flat = amb.reshape(-1, amb.shape[2]).T  # (dim_out_amb, r_in*ne)
        coords = sub_out.coords(flat)  # (r_out, r_in*ne)
        return coords.T.reshape(sub_in.rank, ne, sub_out.rank)


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


def map_matrix(cover: ProjFree, target, images, s: int, d: int) -> np.ndarray:
    """Degree-d matrix (target degree d+s x cover degree d) of the map out of
    cover that sends generator j to images[j], given in target's degree
    g_j + s.  target is a ProjFree or a GradedModule (anything with dim and
    act_tensor): generator j times a in alg_{d-g_j} goes to images[j] . a."""
    field = cover.field
    cols = [linalg.zeros(field, target.dim(d + s), 0)]
    for j, (_, gj) in enumerate(cover.summands):
        sub = cover.subspace(j, d)
        if sub.rank:
            w = act_rows(field, images[j], target.act_tensor(gj + s, d - gj))  # (dim alg_{d-gj}, out)
            cols.append(linalg.matmul(field, w.T, sub.basis))
    return np.concatenate(cols, axis=1)


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

    container is the graded object the submodule lives in (a ProjFree or a
    GradedModule).  It must provide field, dim(d) and act_tensor(d, e) of
    shape (dim d, dim alg_e, dim d+e); the span of the generators chosen so
    far is action_span(container, gens, d), and the degree-0 radical and
    idempotent action is read from act_tensor(d, 0).
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
