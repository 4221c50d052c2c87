"""Shifted projective modules P = (+) eps_j . Alg(-g_j) and graded morphisms
between them, evaluated degreewise by exact linear algebra.

Over a connected algebra every summand has eps = None and these are the
usual shifted free modules.  Over an algebra with a nontrivial degree-0
part (an endomorphism algebra), summands may be cut out by an idempotent
eps of the degree-0 part; that is what makes minimal resolutions terminate
when the relevant projectives are not free.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import AlgebraOracle, memo
from .errors import IncompleteKernel, ShapeMismatch
from .findim import Deg0Data


class _Subspace:
    """Basis of eps . alg_d inside alg_d, with a coordinate extractor."""

    def __init__(self, field, basis: np.ndarray):
        self.field = field
        self.basis = basis  # (ambient_dim, r)
        self.r = basis.shape[1]
        _, self.rows = linalg.rref(field, basis.T)  # rows where the basis is invertible
        self._inv = linalg.inverse(field, basis[self.rows, :])

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of a vector (or matrix of columns) lying in the subspace."""
        return linalg.matmul(self.field, self._inv, v[self.rows])


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

    def subspace(self, j: int, d: int) -> _Subspace:
        """Basis data of summand j's piece in internal degree d (ambient alg_{d-g_j})."""

        def build():
            eps, g = self.summands[j]
            n = self.alg.dim(d - g) if d >= g else 0
            if n == 0:
                bas = linalg.zeros(self.field, 0, 0)
            elif eps is None:
                bas = linalg.eye(self.field, n)
            else:
                bas, _ = linalg.column_space_basis(self.field, self.alg.left_mult_matrix(0, eps, d - g))
            return _Subspace(self.field, bas)

        return memo(self, ("sub", j, d), build)

    def piece_dims(self, d: int):
        return [self.subspace(j, d).r for j in range(self.rank)]

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
        t = linalg.zeros(self.field, sub_in.r, ne, sub_out.r)
        if sub_in.r == 0 or sub_out.r == 0 or ne == 0:
            return t
        mt = self.alg.mult_tensor(d - g, e)  # (dim_{d-g}, ne, dim_{d-g+e})
        amb = linalg.matmul(self.field, sub_in.basis, mt, axes=(0, 0))  # (r_in, ne, dim_out_amb)
        flat = amb.reshape(-1, amb.shape[2]).T  # (dim_out_amb, r_in*ne)
        coords = sub_out.coords(flat)  # (r_out, r_in*ne)
        return coords.T.reshape(sub_in.r, ne, sub_out.r)


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
        return memo(self, ("matrix", d), lambda: self._matrix(d))

    def _matrix(self, d: int) -> np.ndarray:
        field = self.source.field
        nrow = self.target.dim(d)
        cols = []
        for j in range(self.source.rank):
            _, gj = self.source.summands[j]
            sub = self.source.subspace(j, d)
            if sub.r == 0:
                continue
            amb = sub.basis  # columns: ambient elements of alg_{d-gj}
            img = self.images[j]  # target coords at degree gj
            # image of (gen_j . a) = images[j] . a, for each basis column a
            tblocks = self.target.split(img, gj)
            out = linalg.zeros(field, nrow, sub.r)
            toffs = self.target.offsets(d)
            for i in range(self.target.rank):
                _, gi = self.target.summands[i]
                sub_ti = self.target.subspace(i, gj)
                if sub_ti.r == 0:
                    continue
                sub_to = self.target.subspace(i, d)
                if sub_to.r == 0:
                    continue
                a = self.target.ambient(i, gj, tblocks[i])  # alg_{gj-gi}
                lm = self.target.alg.left_mult_matrix(gj - gi, a, d - gj)  # (dim_{d-gi}, dim_{d-gj})
                out[toffs[i] : toffs[i + 1], :] = sub_to.coords(linalg.matmul(field, lm, amb))
            cols.append(out)
        return np.concatenate(cols, axis=1) if cols else linalg.zeros(field, nrow, 0)

    def kernel_basis(self, d: int) -> np.ndarray:
        return linalg.nullspace(self.source.field, self.matrix(d))


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
        span = action_span(container, gens, d)
        if deg0 is None:
            idxs = linalg.complement_pivots(field, span, kb)
            for j in idxs:
                gens.append((None, d, kb[:, j].copy()))
        else:
            # quotient V = K_d / span, then V/(V.rad) split by idempotents;
            # a0[j, :, b] = (kernel vector j) . (degree-0 basis element b)
            a0 = act_rows(field, kb.T, container.act_tensor(d, 0)).transpose(0, 2, 1)
            rad = linalg.matmul(field, a0, deg0.radical_basis)  # (k, n, r)
            sp = np.concatenate([span, rad.transpose(1, 0, 2).reshape(kb.shape[0], -1)], axis=1)
            for eps in deg0.idempotents:
                cands = linalg.matmul(field, a0, eps).T  # (n, k)
                idxs = linalg.complement_pivots(field, sp, cands)
                for j in idxs:
                    v = cands[:, j].copy()
                    gens.append((eps, d, v))
                    sp = np.concatenate([sp, v.reshape(-1, 1)], axis=1)
        # consistency: the chosen generators must span the piece
        full = action_span(container, gens, d)
        if linalg.rank(field, full) != linalg.rank(
            field, np.concatenate([full, kb], axis=1)
        ):
            raise IncompleteKernel(f"generator extraction failed to span degree {d}")
    return gens
