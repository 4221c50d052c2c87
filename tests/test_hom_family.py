"""Hom families and the idempotent-cut memos against the routes they replaced.

A HomElement's matrix is its slice of its family's array, which evaluates
all members in one summand_matrices call per cover summand.  The oracle is
the route each element took on its own before: one map_matrix call on its
generator images, times the cover's section.

The eps-cut pieces of a ProjFree (its summand subspaces and action blocks)
are memoized on the algebra, and hom_block_bases' bases of N_{dN} . eps on
N, all keyed by the idempotent's content.  The oracle builds each from a
fresh Echelon.of, and the keys are checked to tell idempotents apart by
value: an idempotent rebuilt from new Fractions finds the same entry, and
two different idempotents never share one."""

from fractions import Fraction

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.endo import EndoAlgebra, b0_module
from ncgraded.gmodule import (
    compose_hom,
    direct_sum,
    free_graded_module,
    hom_basis,
    hom_block_bases,
    hom_coords,
    identity_hom,
)
from ncgraded.homology import Window, in_add_of
from ncgraded.projfree import GradedModule, ProjFree, eps_key, map_matrix
from ncgraded.scalars import Field
from test_map_matrix_oracle import _modules, assert_same

QQ = Field(None)


def per_element_matrix(h, d):
    """h_d by the route of a single element: its own map_matrix call."""
    P = h.M.presentation()
    return linalg.matmul(h.M.field, map_matrix(P.cover, h.N, h.gen_images, h.s, d), P.sections[d])


def defined(h, degrees):
    return [d for d in degrees if h.M.valid_from <= d <= h.M.valid_to and d + h.s <= h.N.valid_to]


def assert_family_matches_per_element(homs, degrees):
    """Every member's matrix in every degree where it is defined, as arrays
    and by dtype; returns the number of nonzero matrices compared."""
    nonzero = 0
    for h in homs:
        assert h.family is homs[0].family
        assert_same(h.stacked(), np.concatenate([linalg.zeros(h.M.field, 0)] + h.gen_images))
        for d in defined(h, degrees):
            got = h.matrix(d)
            assert_same(got, per_element_matrix(h, d))
            nonzero += bool(got.any())
    return nonzero


def assert_families_match(cases, degrees):
    """cases: (M, N, s) hom bases, some of them with two members whose
    matrices differ, so that a wrong row of the family shows."""
    nonzero = distinct = 0
    for M, N, s in cases:
        homs = hom_basis(M, N, s)
        nonzero += assert_family_matches_per_element(homs, degrees)
        if len(homs) > 1:
            distinct += sum(not np.array_equal(homs[0].matrix(d), homs[1].matrix(d))
                            for d in defined(homs[0], degrees))
    assert nonzero and distinct


def assert_families_of_one_match(X, degrees):
    """identity_hom, and compose_hom of two members of bigger families."""
    ident = identity_hom(X)
    assert len(ident.family.members) == 1
    assert assert_family_matches_per_element([ident], degrees)
    fs, gs = hom_basis(X, X, 1), hom_basis(X, X, 0)
    assert len(fs) > 1 and len(gs) > 1
    composites = [compose_hom(f, g) for f in fs[:2] for g in gs]
    assert all(len(gf.family.members) == 1 for gf in composites)
    assert sum(assert_family_matches_per_element([gf], degrees) for gf in composites)


def test_families_over_A_match_per_element_gf13(basic_modules, X):
    assert_families_match([(X, X, e) for e in range(3)]
                          + [(basic_modules["A"], basic_modules["X1"], s) for s in range(-1, 3)]
                          + [(basic_modules["X1"], basic_modules["X2"], 0)], range(-1, 5))
    assert_families_of_one_match(X, range(-1, 5))


def test_families_over_A_match_per_element_qq():
    mods = _modules(QQ, 5)
    X = direct_sum([mods["A"], mods["X1"]])
    assert_families_match([(X, X, e) for e in range(2)]
                          + [(mods["A"], mods["X1"], s) for s in range(-1, 3)]
                          + [(mods["X1"], mods["X2"], 0)], range(-1, 4))
    assert_families_of_one_match(X, range(-1, 4))


def test_families_between_eps_cut_b_modules_match_per_element_gf13(B):
    alg = B.algebra
    R = b0_module(alg)
    assert any(eps is not None for eps, _ in R.presentation().cover.summands)
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    assert_families_match([(R, R, 0)] + [(R, NB, s) for s in range(3)], range(-1, 4))
    assert assert_family_matches_per_element([identity_hom(R)], range(-1, 4))


def test_families_between_eps_cut_b_modules_match_per_element_qq(B_qq):
    """Over QQ the idempotents are not searched for (no root finding); F is
    cut by the projections onto the summands of X, and is its own cover."""
    B, (e_A, e_X1) = B_qq
    alg = B.algebra
    F = ProjFree(alg, [(e_A, 0), (e_X1, 0), (e_X1, 1)])
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    assert_families_match([(F, F, 0), (F, F, 1)] + [(F, NB, s) for s in range(2)], range(-1, 3))
    assert assert_family_matches_per_element([identity_hom(F)], range(-1, 3))


@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_zero_module_maps_have_the_fields_dtype(field):
    """A map with no generators stacks to no entries of the field's dtype."""
    mods = _modules(field, 4)
    Z = GradedModule(mods["A"].algebra, {}, None, 0, 4)
    ident = identity_hom(Z)
    assert_same(ident.stacked(), linalg.zeros(field, 0))
    assert_same(ident.matrix(0), linalg.zeros(field, 0, 0))
    assert hom_basis(Z, mods["X1"], 0) == [] and hom_basis(mods["X1"], Z, 0) == []
    assert in_add_of(mods["X1"], Z, Window(0, 2, 2, 4)) == (True, "zero module")


# ---------------------------------------------------------------------------
# idempotent-cut memos
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def B_qq():
    """End(A + X1) over QQ and its two summand projections, as vectors of B_0."""
    mods = _modules(QQ, 5)
    X = direct_sum([mods["A"], mods["X1"]])
    B = EndoAlgebra(X, Window(-1, 2, 2, 2))
    ident = identity_hom(X).stacked()
    n = X.dim(0)  # both cover generators of X sit in degree 0
    zero = linalg.zeros(QQ, n)
    projections = np.stack([np.concatenate([ident[:n], zero]), np.concatenate([zero, ident[n:]])], axis=1)
    eps = hom_coords(QQ, B.bases[0], projections)
    return B, (eps[:, 0], eps[:, 1])


def fresh_piece(alg, eps, n):
    """Echelon of eps . alg_n, or None when the piece is zero."""
    if n < 0 or alg.dim(n) == 0:
        return None
    return linalg.Echelon.of(alg.field, alg.left_mult_matrix(0, eps, n))


def fresh_action_block(alg, eps, n, e):
    """action_block of a summand eps . Alg(-g) at d = g + n, by fresh echelons."""
    sub_in, sub_out = fresh_piece(alg, eps, n), fresh_piece(alg, eps, n + e)
    r_in = sub_in.rank if sub_in else 0
    r_out = sub_out.rank if sub_out else 0
    if not (r_in and r_out and alg.dim(e)):
        return linalg.zeros(alg.field, r_in, alg.dim(e), r_out)
    amb = linalg.matmul(alg.field, sub_in.basis, alg.mult_tensor(n, e), axes=(0, 0))
    return sub_out.coords(amb.reshape(-1, amb.shape[2]).T).T.reshape(r_in, alg.dim(e), r_out)


def fresh_hom_block(N, eps, dN):
    return linalg.Echelon.of(N.field, linalg.matmul(N.field, N.act_tensor(dN, 0), eps, axes=(1, 0)).T).basis


def assert_cut_pieces_match_fresh_route(alg, idems, targets, shifts):
    """A ProjFree whose summands share each of two idempotents at several
    generator degrees, against fresh echelons; returns it."""
    e0, e1 = idems
    F = ProjFree(alg, [(e0, 0), (e1, 0), (e0, 1), (e1, 1), (e0, 2)])
    checked = 0
    for j, (eps, g) in enumerate(F.summands):
        for d in range(-1, min(3, F.valid_to) + 1):
            want = fresh_piece(alg, eps, d - g)
            got = F.subspace(j, d)
            assert got.rank == (want.rank if want else 0)
            if want:
                assert_same(got.basis, want.basis)
                checked += 1
            for e in range(0, 3):
                if d + e <= F.valid_to:
                    assert_same(F.action_block(j, d, e), fresh_action_block(alg, eps, d - g, e))
    for N in targets:
        for s in shifts:
            for (eps, g), W in zip(F.summands, hom_block_bases(F, N, s)):
                if N.dim(g + s):
                    assert_same(W, fresh_hom_block(N, eps, g + s))
                    checked += 1
    assert checked
    # distinct idempotents cut distinct pieces in the same algebra degree
    assert not np.array_equal(F.subspace(0, 0).basis, F.subspace(1, 0).basis)
    assert F.subspace(0, 0) is not F.subspace(1, 0)
    return F


def test_cut_pieces_match_fresh_route_gf13(B):
    alg = B.algebra
    idems = alg.deg0.idempotents[:2]
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    F = assert_cut_pieces_match_fresh_route(alg, idems, [NB, b0_module(alg)], range(0, 2))
    # summands that share an idempotent share its pieces, at every generator degree
    assert F.subspace(2, 1) is F.subspace(0, 0) and F.subspace(4, 3) is F.subspace(0, 1)
    assert F.action_block(2, 2, 1) is F.action_block(0, 1, 1)


def test_cut_memo_keys_idempotents_by_value_over_qq(B_qq):
    B, idems = B_qq
    alg = B.algebra
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    F = assert_cut_pieces_match_fresh_route(alg, idems, [NB], range(0, 1))
    rebuilt = [np.array([Fraction(v.numerator, v.denominator) for v in eps], dtype=object)
               for eps in idems]
    assert all(a is not b for eps, new in zip(idems, rebuilt) for a, b in zip(eps, new))
    assert [eps_key(e) for e in rebuilt] == [eps_key(e) for e in idems]
    G = ProjFree(alg, [(rebuilt[1], 1), (rebuilt[0], 0)])
    assert G.subspace(0, 1) is F.subspace(1, 0) and G.subspace(1, 0) is F.subspace(0, 0)
    assert G.action_block(0, 2, 1) is F.action_block(3, 2, 1)
    assert G.action_block(1, 1, 1) is F.action_block(0, 1, 1)
    assert G.action_block(1, 1, 1) is not F.action_block(1, 1, 1)
    assert hom_block_bases(G, NB, 0)[1] is hom_block_bases(F, NB, 0)[0]
    assert hom_block_bases(G, NB, 0)[1] is not hom_block_bases(F, NB, 0)[1]
