"""ProjFree.act_rows against the dense route it replaced, and no dense action
tensor kept on a resolution over B.

A ProjFree contracts vectors with the nonzeros of its summands' action
blocks.  The oracle keeps the old dense assembly: the block diagonal of the
action blocks (projfree.block_diag), contracted by projfree.act_rows.  The
two are compared array for array and dtype for dtype, over GF(13), QQ and
the largest prime the fields accept, where a sum of two products already
passes int64."""

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.endo import EndoAlgebra, b0_module
from ncgraded.gmodule import direct_sum, free_graded_module, shift_module
from ncgraded.homology import Window, ext_table, free_resolution
from ncgraded.projfree import ProjFree, act_rows, block_diag
from ncgraded.scalars import Field
from test_hom_family import B_qq  # noqa: F401  (fixture)
from test_map_matrix_oracle import _modules, _random, assert_same

QQ = Field(None)
LARGEST_PRIME = 3037000493  # the largest p with (p - 1)**2 <= 2**63 - 1


def dense_act_rows(F, V, d, e):
    t = block_diag(F.field, [F.action_block(j, d, e) for j in range(F.rank)])
    return act_rows(F.field, V, t)


def vector_sets(field, rng, n):
    """Three vectors of a degree-d piece of dimension n, the middle one zero,
    and no vectors at all."""
    V = _random(field, rng, 3, n)
    V[1] = linalg.zeros(field, n)
    return [V, V[:0]]


def assert_act_rows_match_dense(F, degrees, es, seed=0):
    """act_rows and act_tensor of F at every (d, e) in range, against the
    oracle; returns the kinds of case seen."""
    rng = np.random.default_rng(seed)
    seen = set()
    for d in degrees:
        for e in es:
            if d + e > F.valid_to:
                continue
            for V in vector_sets(F.field, rng, F.dim(d)):
                got = F.act_rows(V, d, e)
                assert_same(got, dense_act_rows(F, V, d, e))
                seen.add("nonzero" if got.any() else "zero")
            assert_same(F.act_tensor(d, e), block_diag(
                F.field, [F.action_block(j, d, e) for j in range(F.rank)]))
            if any(d < g for _, g in F.summands):
                seen.add("below a generator")
            if F.algebra.dim(e) == 0:
                seen.add("alg_e = 0")
    return seen


ALL_KINDS = {"nonzero", "zero", "below a generator", "alg_e = 0"}


@pytest.mark.parametrize("field", [Field(13), QQ, Field(LARGEST_PRIME)],
                         ids=["GF(13)", "QQ", "GF(largest)"])
def test_free_summands_over_A(field):
    A = _modules(field, 5)["A"].algebra
    F = ProjFree(A, [(None, 0), (None, 0), (None, 1)])
    assert assert_act_rows_match_dense(F, range(-1, 4), range(-1, 3)) == ALL_KINDS


@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_one_free_summand_over_A(field):
    A = _modules(field, 5)["A"].algebra
    F = free_graded_module(A, [-1], 0, 5)
    assert F.rank == 1 and F.valid_from < F.summands[0][1]
    assert assert_act_rows_match_dense(F, range(-1, 4), range(-1, 3)) == ALL_KINDS


def test_eps_cut_syzygy_over_B_gf13(B, window):
    F = free_resolution(b0_module(B.algebra), 2, window).steps[1]
    assert F.rank == 16 and all(v is not None for v, _ in F.summands)
    lo = min(g for _, g in F.summands)
    kinds = assert_act_rows_match_dense(F, range(lo - 1, lo + 3), range(-1, 3))
    assert {"nonzero", "zero", "alg_e = 0"} <= kinds


def test_eps_cut_projfree_over_B_qq(B_qq):  # noqa: F811
    B, (e_A, e_X1) = B_qq
    F = ProjFree(B.algebra, [(e_A, 0), (e_X1, 0), (e_X1, 1)])
    assert assert_act_rows_match_dense(F, range(-1, 3), range(-1, 2)) == ALL_KINDS


@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_free_summands_over_an_algebra_with_degree_minus_one(field):
    """Over End(A + A(1)), whose degree -1 piece is not zero, a free summand
    read at its generator degree times alg_{-1} lands in a zero piece, and
    read above it acts by alg_{-1} at every degree."""
    A = _modules(field, 5)["A"]
    alg = EndoAlgebra(direct_sum([A, shift_module(A, 1)]), Window(-1, 2, 2, 2)).algebra
    assert alg.valid_from == -1 and alg.dim(-1) > 0
    for summands in ([(None, 0)], [(None, 0), (None, 0), (None, 1)]):
        F = ProjFree(alg, summands)
        got = F.act_rows(_random(field, np.random.default_rng(2), 2, F.dim(0)), 0, -1)
        assert got.shape == (2, alg.dim(-1), 0)
        assert_act_rows_match_dense(F, [-1, 0], [-1])
        kinds = assert_act_rows_match_dense(F, range(-1, 3), range(-1, 2))
        assert {"nonzero", "zero", "below a generator"} <= kinds


def kept_action_tensors(M):
    """The memo entries of M that hold a whole action tensor."""
    return [key for key, value in vars(M).get("_memo", {}).items()
            if isinstance(value, np.ndarray) and value.ndim == 3]


def test_no_free_module_keeps_a_dense_action_tensor(B):
    """After B_0's resolution over B and its Ext into B, no step of the
    resolution and no free module over B keeps an action tensor."""
    alg = B.algebra
    R = b0_module(alg)
    W = Window(-3, 3, 2, 4)
    res = free_resolution(R, 3, W)
    ext = ext_table(R, free_graded_module(alg, [0], alg.valid_from, alg.valid_through), range(3), W)
    assert ext[0] == ext[1] == {} and ext[2] == {-1: alg.dim(0)}
    frees = [M for key, M in vars(alg)["_memo"].items() if isinstance(key, tuple) and key[0] == "free"]
    assert len(res.steps) > 2 and frees
    for F in res.steps + frees:
        assert isinstance(F, ProjFree) and kept_action_tensors(F) == []
