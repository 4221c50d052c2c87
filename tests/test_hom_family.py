"""Hom families and the vertex pieces against the routes they replaced.

A HomElement's matrix is its slice of its family's array, which evaluates
all members in one summand_matrices call per cover summand.  The oracle is
the route each element took on its own before: one map_matrix call on its
generator images, times the cover's section.

Over B = End(X), in its Peirce basis, the piece of a ProjFree's vertex
summand is a set of the algebra's coordinates, its action block a slice of
the algebra's tensor, and hom_block_bases' basis of N_{dN} . e_v a set of
identity columns when N is a ProjFree.  The oracle builds each from a
fresh Echelon.of of the idempotent's left or right action, and solves the
action block's coordinates against it."""

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
from ncgraded.projfree import GradedModule, ProjFree, map_matrix
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
    assert any(v is not None for v, _ in R.presentation().cover.summands)
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    assert_families_match([(R, R, 0)] + [(R, NB, s) for s in range(3)], range(-1, 4))
    assert assert_family_matches_per_element([identity_hom(R)], range(-1, 4))


def test_families_between_eps_cut_b_modules_match_per_element_qq(B_qq):
    """F is cut by the projections onto the summands of X, and is its own
    cover."""
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
# vertex pieces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def B_qq():
    """End(A + X1) over QQ and the vertices of its two summand projections:
    the projections are B_0's primitive idempotents, found by their
    rational eigenvalues."""
    mods = _modules(QQ, 5)
    X = direct_sum([mods["A"], mods["X1"]])
    B = EndoAlgebra(X, Window(-1, 2, 2, 2))
    ident = identity_hom(X).stacked()
    n = X.dim(0)  # both cover generators of X sit in degree 0
    zero = linalg.zeros(QQ, n)
    projections = np.stack([np.concatenate([ident[:n], zero]), np.concatenate([zero, ident[n:]])], axis=1)
    eps = hom_coords(QQ, B.bases[0], projections)
    idems = B.algebra.deg0.idempotents
    assert len(idems) == 2
    return B, tuple(next(v for v, e in enumerate(idems) if np.array_equal(e, eps[:, k])) for k in range(2))


def fresh_piece(alg, v, n):
    """Echelon of e_v . alg_n, or None when the piece is zero."""
    if n < 0 or alg.dim(n) == 0:
        return None
    return linalg.Echelon.of(alg.field, alg.left_mult_matrix(0, alg.deg0.idempotents[v], n))


def fresh_action_block(alg, v, n, e):
    """action_block of a summand e_v . Alg(-g) at d = g + n, by fresh echelons."""
    sub_in, sub_out = fresh_piece(alg, v, n), fresh_piece(alg, v, n + e)
    r_in = sub_in.rank if sub_in else 0
    r_out = sub_out.rank if sub_out else 0
    if not (r_in and r_out and alg.dim(e)):
        return linalg.zeros(alg.field, r_in, alg.dim(e), r_out)
    amb = linalg.matmul(alg.field, sub_in.basis, alg.mult_tensor(n, e), axes=(0, 0))
    return sub_out.coords(amb.reshape(-1, amb.shape[2]).T).T.reshape(r_in, alg.dim(e), r_out)


def fresh_hom_block(N, v, dN):
    eps = N.algebra.deg0.idempotents[v]
    return linalg.Echelon.of(N.field, linalg.matmul(N.field, N.act_tensor(dN, 0), eps, axes=(1, 0)).T).basis


def assert_cut_pieces_match_fresh_route(alg, vertices, targets, shifts):
    """A ProjFree whose summands share each of two vertices at several
    generator degrees, against fresh echelons; returns it."""
    v0, v1 = vertices
    F = ProjFree(alg, [(v0, 0), (v1, 0), (v0, 1), (v1, 1), (v0, 2)])
    checked = 0
    for j, (v, g) in enumerate(F.summands):
        for d in range(-1, min(3, F.valid_to) + 1):
            want = fresh_piece(alg, v, d - g)
            got = F.piece(j, d)
            assert len(got) == (want.rank if want else 0)
            if want:
                assert_same(linalg.eye(alg.field, alg.dim(d - g))[:, got], want.basis)
                checked += 1
            for e in range(0, 3):
                if d + e <= F.valid_to:
                    assert_same(F.action_block(j, d, e), fresh_action_block(alg, v, d - g, e))
    for N in targets:
        for s in shifts:
            for (v, g), W in zip(F.summands, hom_block_bases(F, N, s)):
                if N.dim(g + s):
                    assert_same(W, fresh_hom_block(N, v, g + s))
                    checked += 1
    assert checked
    # distinct idempotents cut distinct pieces in the same algebra degree
    assert not np.array_equal(F.piece(0, 0), F.piece(1, 0))
    return F


def test_cut_pieces_match_fresh_route_gf13(B):
    alg = B.algebra
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    F = assert_cut_pieces_match_fresh_route(alg, (0, 1), [NB, b0_module(alg)], range(0, 2))
    # summands that share a vertex share its pieces, at every generator degree
    assert F.piece(2, 1) is F.piece(0, 0) and F.piece(4, 3) is F.piece(0, 1)
    assert_same(F.action_block(2, 2, 1), F.action_block(0, 1, 1))


def test_cut_pieces_match_fresh_route_qq(B_qq):
    B, vertices = B_qq
    alg = B.algebra
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    F = assert_cut_pieces_match_fresh_route(alg, vertices, [NB, b0_module(alg)], range(0, 1))
    # another ProjFree on the same vertices reads the same pieces
    G = ProjFree(alg, [(vertices[1], 1), (vertices[0], 0)])
    assert G.piece(0, 1) is F.piece(1, 0) and G.piece(1, 0) is F.piece(0, 0)
    assert not np.array_equal(G.piece(0, 1), G.piece(1, 0))
