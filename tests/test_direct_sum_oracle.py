"""direct_sum is the cokernel of its summands' presentations side by side.
The oracle keeps the block-diagonal route it replaced: summed dimensions,
the block diagonals of the summands' cover matrices and sections, and the
block diagonal of their action tensors.  For summands that are cokernels of
a cover or free modules the two agree array for array and dtype for dtype,
over A (GF(13) and QQ) and over End(X), whose projectives carry vertices.
For summands with extracted presentations only the dimensions and Ext are
compared: Ext^i(M + N, -) is Ext^i(M, -) + Ext^i(N, -)."""

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.endo import b0_module
from ncgraded.gmodule import direct_sum, free_graded_module, module_from_cover, shift_module
from ncgraded.homology import Window, ext_table, free_resolution
from ncgraded.memo import Pieces
from ncgraded.projfree import GradedModule, Morphism, ProjFree, _Presentation, block_diag
from ncgraded.scalars import QQ, Field
from test_map_matrix_oracle import _modules, assert_same

MAX_DEG = 5


def block_diagonal_sum(mods) -> GradedModule:
    """The sum as direct_sum built it before it was a cokernel: summed
    dimensions, block-diagonal action tensors, and the summands' cover
    matrices and sections merged block-diagonally."""
    alg, field = mods[0].algebra, mods[0].field
    lo = min(m.valid_from for m in mods)
    hi = min(m.valid_to for m in mods)
    parts = [m.presentation() for m in mods]
    cover = ProjFree(alg, [s for p in parts for s in p.cover.summands])

    def piece(d):
        cms = [p.cover_mats.get(d, linalg.zeros(field, m.dim(d), p.cover.dim(d))) for m, p in zip(mods, parts)]
        scs = [p.sections.get(d, linalg.zeros(field, p.cover.dim(d), m.dim(d))) for m, p in zip(mods, parts)]
        return block_diag(field, cms), block_diag(field, scs)

    rel_summands, rel_images = [], []
    for i, p in enumerate(parts):
        if p.rel is None:
            continue
        for j, (v, g) in enumerate(p.rel.source.summands):
            full = linalg.zeros(field, cover.dim(g))
            off = sum(pp.cover.dim(g) for pp in parts[:i])
            full[off : off + p.cover.dim(g)] = p.rel.images[j]
            rel_summands.append((v, g))
            rel_images.append(full)
    rel = Morphism(ProjFree(alg, rel_summands), cover, rel_images) if rel_summands else None
    return GradedModule(alg, Pieces(lo, hi, lambda d: sum(m.dim(d) for m in mods)),
                        lambda d, e: block_diag(field, [m.act_tensor(d, e) for m in mods]),
                        lo, hi, _Presentation(cover, lo, hi, piece, rel))


def assert_matches_block_diagonal(mods):
    S, O = direct_sum(mods), block_diagonal_sum(mods)
    P, Q = S.presentation(), O.presentation()
    assert (S.valid_from, S.valid_to) == (O.valid_from, O.valid_to)
    assert P.cover.summands == Q.cover.summands
    for d in range(S.valid_to, S.valid_from - 1, -1):
        assert S.dim(d) == O.dim(d), d
        assert_same(P.cover_mats[d], Q.cover_mats[d])
        assert_same(P.sections[d], Q.sections[d])
        for e in range(3):
            if d + e <= S.valid_to:
                assert_same(S.act_tensor(d, e), O.act_tensor(d, e))
    return S


@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_a_free_module_and_two_cokernels_over_A(field):
    mods = _modules(field, MAX_DEG)
    S = assert_matches_block_diagonal([mods["A"], mods["X1"], mods["X2"]])
    assert S.presentation().rel is not None


def test_cokernels_and_a_syzygy_over_End_X(B, window):
    """R = B_0 as a cokernel of its own presentation, summed with itself and
    with F_1 of its resolution: summands on vertices, and a sum whose cover
    starts below one of its summands'."""
    R = b0_module(B.algebra)
    P = R.presentation()
    C = module_from_cover(P.cover, P.rel, R.valid_from, R.valid_to)
    F1 = free_resolution(R, 2, window).steps[1]
    assert all(v is not None for v, _ in P.cover.summands + F1.summands)
    assert_matches_block_diagonal([C, C])
    assert_matches_block_diagonal([C, F1])


def assert_dims_and_ext_add_up(mods, window):
    S, O = direct_sum(mods), block_diagonal_sum(mods)
    assert all(S.dim(d) == O.dim(d) for d in range(S.valid_from, S.valid_to + 1))
    alg = S.algebra
    N = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    tables = [ext_table(M, N, range(3), window) for M in mods]
    want = {i: {} for i in range(3)}
    for t in tables:
        for i, row in t.items():
            for s, v in row.items():
                want[i][s] = want[i].get(s, 0) + v
    assert ext_table(S, N, range(3), window) == want


def test_extracted_presentations_over_A(basic_modules, window):
    X1 = basic_modules["X1"]
    assert_dims_and_ext_add_up([X1, shift_module(X1, -1)], window)


def test_extracted_presentations_over_End_X(B):
    R = b0_module(B.algebra)
    assert_dims_and_ext_add_up([R, R], Window(-3, 3, 2, 4))


def test_a_summand_without_relations_leaves_the_sum_free_there():
    A = _modules(Field(13), MAX_DEG)["A"]
    S = direct_sum([A, A])
    assert S.presentation().rel is None
    assert [S.dim(d) for d in range(4)] == [2 * A.dim(d) for d in range(4)]
    assert np.array_equal(S.presentation().sections[2], linalg.eye(A.field, S.dim(2)))
