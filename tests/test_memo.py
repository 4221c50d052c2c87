"""Memoized derived objects: one result per owner and key, never shared
across owners, and B-module presentations that do not depend on call order."""

import numpy as np

from ncgraded.endo import b0_module, endomorphism_algebra
from ncgraded.freealg import parse_poly
from ncgraded.gmodule import GradedModule, cyclic_module, free_graded_module, hom_basis, opposite_algebra
from ncgraded.homology import Window, ext_graded_dims, free_resolution

SMALL = Window(-3, 3, 2, 4)


def _residue_field(A):
    return cyclic_module(A, [parse_poly(g, A.gens, A.field) for g in "xyz"], 8)


def test_b_module_presentation_is_minimal_when_asked_first(X):
    # a fresh B_0 module whose first request is a bare presentation()
    alg = endomorphism_algebra(X, SMALL).algebra
    M = GradedModule(alg, {0: alg.dim(0)}, lambda d, e: np.asarray(alg.mult_tensor(0, 0)),
                     0, alg.valid_through)
    P = M.presentation()
    assert P.cover.rank == 5 and P.rel.source.rank == 16
    res = free_resolution(M, 3, SMALL)
    assert res.terminated_at == 2
    assert [res.shifts(i) for i in range(3)] == [[0] * 5, [-1] * 16, [-1] * 5]


def test_shared_hom_basis_is_memoized(X, B):
    shared = hom_basis(X, X, 1, shared=True)
    assert hom_basis(X, X, 1, shared=True) is shared
    assert B.bases[1] is shared
    # a plain call computes afresh and gives an equal basis
    fresh = hom_basis(X, X, 1)
    assert fresh is not shared and len(fresh) == len(shared)
    assert all(np.array_equal(f.stacked(), g.stacked()) for f, g in zip(fresh, shared))


def test_resolution_is_extended_in_place(A):
    k = _residue_field(A)
    res = free_resolution(k, 2, SMALL)
    steps, diffs = list(res.steps), list(res.diffs)
    assert res.length == 2
    assert free_resolution(k, 3, SMALL) is res
    assert res.length == 3
    assert all(a is b for a, b in zip(steps, res.steps))
    assert all(a is b for a, b in zip(diffs, res.diffs))
    other = free_resolution(k, 2, Window(-3, 3, 2, 5))
    assert other is not res and other.cap == 5 and res.cap == 4


def test_opposite_and_b0_are_memoized(A, B):
    assert opposite_algebra(opposite_algebra(A)) is A
    assert b0_module(B) is b0_module(B)
    assert free_graded_module(A, [0]) is free_graded_module(A, [0], 0, A.valid_through)


def test_modules_with_equal_dims_never_share_an_entry(A, basic_modules):
    X1, X2 = basic_modules["X1"], basic_modules["X2"]
    assert [X1.dim(d) for d in range(6)] == [X2.dim(d) for d in range(6)]
    assert not np.array_equal(X1.act_tensor(0, 1), X2.act_tensor(0, 1))
    assert len(hom_basis(X1, X1, 0, shared=True)) == 1 and hom_basis(X1, X2, 0, shared=True) == []
    # Ext from the same memoized resolution of X1, into X2, X1 and A: X1 and
    # X2 differ, and each equals the answer on a fresh copy of X1
    into = {N: ext_graded_dims(X1, N, 1, SMALL) for N in (X2, X1, basic_modules["A"])}
    assert into[X1] != into[X2]
    for N, dims in into.items():
        fresh = cyclic_module(A, [parse_poly("x - y + z", A.gens, A.field)], 12)
        assert dims == ext_graded_dims(fresh, N, 1, SMALL)


def test_ext_follows_the_window_it_is_asked_for(A):
    k = _residue_field(A)
    NA = free_graded_module(A, [0])
    wide = ext_graded_dims(k, NA, 2, SMALL)
    narrow = ext_graded_dims(k, NA, 2, Window(0, 3, 2, 4))
    assert wide == {-3: 0, -2: 0, -1: 1, 0: 0, 1: 0, 2: 0, 3: 0}
    assert narrow == {s: wide[s] for s in range(0, 4)}
