"""Graded right modules over an algebra oracle, and the shifted projective
modules P = (+) e_j . Alg(-g_j) that cover them.

A GradedModule is tabulated lazily: its dimensions are a mapping (a dict,
or a Pieces built on first read), action tensors are computed on first use
and cached, and every reader of its action goes through act_rows(V, d, e),
vectors of degree d times alg_e.  It carries (or extracts) a minimal
projective presentation F1 -> F0 -> M -> 0, whose cover matrices and
sections are Pieces: a degree is built when it is first read, and a degree
nothing reads is never built.  An extracted
presentation reads them while it scans for relations, through top + a,
where top is the highest degree with M_d != 0 and the algebra is generated
in degrees <= a (generated_through): past that the kernel is generated
below.  Over a non-connected algebra the cover summands are cut out by
the primitive idempotents of the algebra's own `deg0`, named by vertex, so
the presentation does not depend on who asks for it first, and minimal
resolutions terminate where the projectives are not free.  A ProjFree is
a GradedModule and its own cover; over a connected algebra every summand
is free (vertex None).  A summand's piece e . alg_n is a set of
coordinates of alg_n (AlgebraOracle.support: in a Peirce basis, as
End(X)'s is, left multiplication by e is a coordinate projection), so its
action blocks are slices of the algebra's tensors and a map out of it is
read off the images' action tensors, with nothing solved.

A ProjFree keeps no action tensor: its action is block diagonal over the
summands and almost all zeros, so act_rows contracts the nonzeros of the
summands' action blocks, memoized on the algebra by vertex and degrees.
Its act_tensor writes the whole tensor on each call, for the readers that
need all of it: a shift or a twist of a free module.

summand_matrices evaluates, on one cover summand in one degree, a whole
family of maps out of a cover given by their generator images: every f o d
in gmodule.precomposition_matrix, and every member of a gmodule.HomFamily
at once.  map_matrix is its one-map case, for a Morphism and for the cover
maps of an extracted presentation.  block_diag assembles the hom solver's
per-generator bases (gmodule._hom_basis), which are matrices.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import accumulate, groupby
from typing import Callable

import numpy as np

from . import linalg
from .algebra import AlgebraOracle
from .errors import DegreeBeyondTruncation, IncompleteKernel, ShapeMismatch, WindowExceeded
from .findim import Deg0Data
from .memo import Pieces, memo
from .scalars import INT64_MAX


class _Presentation:
    """Cover data: surjections F0_d ->> M_d (cover_mats) with sections, plus
    relation generators rel (a morphism onto the kernel, or None).

    piece(d) gives the pair (cover matrix, section) of degree d; it is called
    on the first read of either, for the degrees lo..hi that the presentation
    tabulates, so cover_mats and sections are Pieces over those degrees."""

    def __init__(self, cover: ProjFree, lo: int, hi: int, piece: Callable, rel: Morphism | None):
        pairs = Pieces(lo, hi, piece)
        self.cover = cover
        self.cover_mats = Pieces(lo, hi, lambda d: pairs[d][0])
        self.sections = Pieces(lo, hi, lambda d: pairs[d][1])
        self.rel = rel


class GradedModule:
    """Degreewise dimensions on [valid_from, valid_to] and a right action.

    dims maps d to dim M_d (absent degrees are 0): a dict, or a Pieces that
    finds a degree's dimension on its first read.
    action(d, e) builds the (dim M_d, dim alg_e, dim M_{d+e}) action tensor;
    act_tensor calls it once per (d, e), and never when a dimension is 0,
    and act_rows contracts the tensor it keeps.  A subclass that answers
    act_tensor and act_rows itself passes no action.
    """

    def __init__(self, algebra: AlgebraOracle, dims: Mapping,
                 action: Callable[[int, int], np.ndarray] | None,
                 valid_from: int, valid_to: int, pres: _Presentation | None = None):
        self.algebra = algebra
        self.field = algebra.field
        self._dims = dims
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

    def act_rows(self, V: np.ndarray, d: int, e: int) -> np.ndarray:
        """Vectors V[..., :] of degree d times alg_e: shape V.shape[:-1] +
        (dim alg_e, dim M_{d+e})."""
        return act_rows(self.field, V, self.act_tensor(d, e))

    def act(self, d: int, v: np.ndarray, e: int, w: np.ndarray) -> np.ndarray:
        """(v at degree d) . (algebra vector w at degree e)."""
        return linalg.matmul(self.field, w, self.act_rows(v, d, e))

    # -- presentation ------------------------------------------------------

    def presentation(self) -> _Presentation:
        if self._pres is None:
            self._pres = _extract_presentation(self)
        return self._pres

    def __repr__(self):
        ds = ", ".join(f"{d}:{self.dim(d)}" for d in range(self.valid_from, min(self.valid_to, self.valid_from + 8) + 1))
        return f"{type(self).__name__}(dims {{{ds}}})"


class ProjFree(GradedModule):
    """(+)_j e_j . Alg(-g_j); generator j sits in degree g_j.

    summands are (vertex, g_j): e_j is that vertex's idempotent, 1 for None.
    Valid from lo (default: the lowest generator degree) through hi, capped
    where the algebra's truncation ends for the lowest generator.  Its
    pieces are the summand pieces, and it is its own cover.  Its action is
    block diagonal over the summands, and no dense tensor of it is kept:
    act_rows contracts the nonzeros of the summands' action blocks."""

    def __init__(self, alg: AlgebraOracle, summands, lo: int | None = None, hi: int | None = None):
        self.summands = [(v, int(g)) for v, g in summands]
        low = min((g for _, g in self.summands), default=0)
        top = alg.valid_through + low
        lo = low if lo is None else lo
        hi = top if hi is None else min(hi, top)
        super().__init__(alg, Pieces(lo, hi, lambda d: self.offsets(d)[-1]), None, lo, hi)

    # bench/tracer.py wraps ProjFree.act on this class, so the inherited
    # method is bound here under its own name
    act = GradedModule.act

    @property
    def rank(self) -> int:
        return len(self.summands)

    def piece(self, j: int, d: int) -> np.ndarray:
        """Summand j's piece in internal degree d, e_j . alg_{d-g_j}, as the
        coordinates of alg_{d-g_j} that span it; none below g_j."""
        v, g = self.summands[j]
        return self.algebra.support(v, d - g) if d >= g else np.arange(0)

    def offsets(self, d: int) -> tuple:
        """Where each summand's block starts in the coordinates of degree d, then dim P_d."""
        return memo(self, ("offsets", d), lambda: tuple(
            accumulate((len(self.piece(j, d)) for j in range(self.rank)), initial=0)))

    def presentation(self) -> _Presentation:
        """The module is its own cover: identity cover maps, no relations."""
        if self._pres is None:
            self._pres = _Presentation(self, self.valid_from, self.valid_to,
                                       lambda d: (linalg.eye(self.field, self.dim(d)),) * 2, None)
        return self._pres

    def action_block(self, j: int, d: int, e: int) -> np.ndarray:
        """Matrix of right mult (summand j piece at d) x (alg basis of e) -> piece at d+e.

        Returns tensor of shape (r_in, dim alg_e, r_out), the algebra's
        mult_tensor(d - g_j, e) on the two pieces' coordinates; act_rows
        reads its nonzeros (block_nonzeros)."""
        t = self.algebra.mult_tensor(d - self.summands[j][1], e)
        return t[self.piece(j, d)][:, :, self.piece(j, d + e)]

    def _nonzeros(self, d: int, e: int):
        """The action at (d, e) as nonzeros of the (dim P_d, dim alg_e *
        dim P_{d+e}) matrix: (rows, values, run starts, the run's output
        column, whether terms must be reduced before they are summed).  Each
        run is one output column; it is the summands' block_nonzeros,
        shifted by offsets(d) and offsets(d + e) and concatenated, and runs of
        different summands never share a column."""

        def build():
            oi, oo = self.offsets(d), self.offsets(d + e)
            parts = [(linalg.zeros(self.field, 0),) + (np.zeros(0, np.intp),) * 4]
            size = 0
            for j, (v, g) in enumerate(self.summands):
                if oi[j] < oi[j + 1] and oo[j] < oo[j + 1]:
                    vals, rows, starts, alg_idx, cols = memo(
                        self.algebra, ("nz", v, d - g, e), lambda: block_nonzeros(self.action_block(j, d, e)))
                    parts.append((vals, rows + oi[j], starts + size,
                                  alg_idx * oo[-1] + oo[j] + cols, np.diff(starts, append=len(rows))))
                    size += len(rows)
            vals, rows, starts, cols, runs = (np.concatenate(a) for a in zip(*parts))
            wide = (self.field.is_prime_field and len(runs) > 0
                    and int(runs.max()) * (self.field.p - 1) ** 2 > INT64_MAX)
            return rows, vals, starts, cols, wide

        return memo(self, ("nz", d, e), build)

    def act_rows(self, V: np.ndarray, d: int, e: int) -> np.ndarray:
        """As GradedModule.act_rows: one gather of V's entries at the
        nonzeros' rows, one product with their values, one sum per output
        column (np.add.reduceat) and one scatter, over GF(p) and QQ alike.
        A one-summand module whose pieces at d and d + e are whole pieces of
        the algebra contracts the algebra's tensor directly: the nonzero
        lists measured 7% slower there on the cli-queries benchmark
        workload, whose many short commands each rebuild their modules."""
        field, alg = self.field, self.algebra
        n_in, ne, n_out = self.dim(d), alg.dim(e), self.dim(d + e)
        g = self.summands[0][1] if self.rank == 1 else None
        if g is not None and (n_in, n_out) == (alg.dim(d - g), alg.dim(d + e - g)):
            return act_rows(field, V, alg.mult_tensor(d - g, e))
        lead = V.shape[:-1]
        m = math.prod(lead)
        out = linalg.zeros(field, m, ne * n_out)
        rows, vals, starts, cols, wide = self._nonzeros(d, e)
        if len(starts):
            terms = V.reshape(m, n_in)[:, rows] * vals
            if wide:  # a run's sum of (p - 1)**2 terms would pass int64
                terms %= field.p
            out[:, cols] = linalg.reduce(field, np.add.reduceat(terms, starts, axis=1))
        return out.reshape(lead + (ne, n_out))

    def act_tensor(self, d: int, e: int) -> np.ndarray:
        """The whole action tensor, for the readers that need all of it (a
        shift or a twist of a free module): the identity of degree d times
        alg_e, made on each call and not kept."""
        return self.act_rows(linalg.eye(self.field, self.dim(d)), d, e)


def block_nonzeros(block: np.ndarray):
    """The nonzeros of an action block (r_in, dim alg_e, r_out) with r_in > 0,
    ordered by output (a, o) and then by row: (values, rows, run starts, and
    each run's a and o).  A run is the nonzeros of one output."""
    r_in, _, r_out = block.shape
    flat = block.transpose(1, 2, 0).reshape(-1)
    idx = np.flatnonzero(flat != 0)
    outs, rows = np.divmod(idx, r_in)
    starts = np.flatnonzero(np.diff(outs, prepend=-1))
    alg_idx, cols = np.divmod(outs[starts], r_out)
    return flat[idx], rows, starts, alg_idx, cols


def block_diag(field, blocks) -> np.ndarray:
    """Block-diagonal array over the first and last axes of the blocks, whose
    middle axes agree: in the library, the per-generator hom bases of
    gmodule._hom_basis, which are matrices."""
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
    g_j + s: summand_matrices for one map."""
    cols = [linalg.zeros(cover.field, target.dim(d + s), 0)]
    for j in range(cover.rank):
        if len(cover.piece(j, d)):
            cols.append(summand_matrices(cover, target, j, images[j][:, None], s, d)[0])
    return np.concatenate(cols, axis=1)


def summand_matrices(cover: ProjFree, target: GradedModule, j: int, images: np.ndarray,
                     s: int, d: int) -> np.ndarray:
    """(k, dim target_{d+s}, dim of summand j's piece at d): for each of the
    k columns u of images, vectors of target's degree g_j + s, the matrix on
    summand j's piece of cover in degree d of the map that sends generator j
    to u; generator j times a in alg_{d-g_j} goes to u . a.  The k maps
    share each product, so a family of maps (the block bases of
    gmodule.precomposition_matrix, the members of a gmodule.HomFamily) is
    evaluated by one call per summand.  The piece is a set of coordinates of
    alg_{d-g_j}, so the matrix is u . a on those coordinates a."""
    gj = cover.summands[j][1]
    w = target.act_rows(images.T, gj + s, d - gj)  # (k, dim alg_{d-gj}, out)
    return w[:, cover.piece(j, d)].transpose(0, 2, 1)


def act_rows(field, V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectors V[..., :] of degree d times an action tensor t of shape
    (dim d, dim alg_e, dim d+e); shape V.shape[:-1] + (dim alg_e, dim d+e)."""
    flat = linalg.matmul(field, V, t.reshape(t.shape[0], t.shape[1] * t.shape[2]))
    return flat.reshape(V.shape[:-1] + t.shape[1:])


def action_span(obj, gens, d: int) -> np.ndarray:
    """Columns spanning the sum of g . alg_{d - deg g} over the generators
    (vertex, deg g, g) inside degree d of obj; degree-0 action included."""
    cols = [linalg.zeros(obj.field, obj.dim(d), 0)]
    for dg, run in groupby(gens, key=lambda gen: gen[1]):
        if d >= dg:
            # one product for the generators of degree dg; column (g, a) is g . a
            w = obj.act_rows(np.stack([v for _, _, v in run]), dg, d - dg)
            cols.append(w.reshape(-1, w.shape[-1]).T)
    return np.concatenate(cols, axis=1)


def scan_minimal_generators(field, container, piece_basis, deg_range, deg0: Deg0Data | None):
    """Pick minimal generators of a graded submodule given degreewise bases.

    container is the GradedModule the submodule lives in; the span of the
    generators chosen so far is action_span(container, gens, d), and the
    degree-0 radical and idempotent action is read from act_rows(kb.T, d, 0).
    piece_basis(d) -> matrix whose columns are a basis of the submodule piece
    (in coordinates of container's degree-d piece).  deg0 is the `deg0` of
    the container's algebra: None for a connected algebra, else the radical
    and idempotents that split each new generator, so the set is minimal.

    Returns list of (vertex in deg0.idempotents or None, degree, vector).
    Raises IncompleteKernel if a chosen set fails to span a piece it should
    span (consistency check).
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
            a0 = container.act_rows(kb.T, d, 0).transpose(0, 2, 1)
            rad = linalg.matmul(field, a0, deg0.radical_basis)  # (k, n, r)
            sel.extend(rad.transpose(1, 0, 2).reshape(kb.shape[0], -1))
            for v, eps in enumerate(deg0.idempotents):
                cands = linalg.matmul(field, a0, eps).T  # (n, k)
                for j in sel.extend(cands):
                    gens.append((v, d, cands[:, j].copy()))
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

    degrees = range(M.valid_from, M.valid_to + 1)
    gens = scan_minimal_generators(field, M, piece_basis, degrees, alg.deg0)
    cover = ProjFree(alg, [(v, d) for v, d, _ in gens])
    # above top, the highest degree where M is nonzero, the kernel is all of
    # the cover; an algebra generated in degrees <= a makes F0_d = sum over
    # 1 <= i <= a of F0_{d-i} . alg_i, so past top + a the kernel is
    # generated by its lower degrees, and the relation scan stops there
    top = max((d for d in degrees if M.dim(d)), default=M.valid_from)
    hi = min(M.valid_to, top + alg.generated_through)

    def piece(d):
        cm = map_matrix(cover, M, [v for _, _, v in gens], 0, d)
        sec = linalg.solve(field, cm, linalg.eye(field, M.dim(d)))
        if sec is None:
            raise WindowExceeded(f"cover not surjective at degree {d}")
        return cm, sec

    # the relation scan builds the pieces through hi here
    P = _Presentation(cover, M.valid_from, M.valid_to, piece, None)
    P.rel = syzygy(cover, lambda d: linalg.nullspace(field, P.cover_mats[d]),
                   range(M.valid_from, hi + 1))
    return P


def syzygy(target: ProjFree, kernel_basis, deg_range) -> Morphism | None:
    """One resolution step: the map from a new ProjFree onto the kernel of a
    map into target, on minimal generators scanned over deg_range;
    kernel_basis(d) spans the kernel in target's degree d.  None when the
    kernel has no generator there."""
    alg = target.algebra
    kgens = scan_minimal_generators(target.field, target, kernel_basis, deg_range, alg.deg0)
    if not kgens:
        return None
    src = ProjFree(alg, [(v, d) for v, d, _ in kgens])
    return Morphism(src, target, [v for _, _, v in kgens])
