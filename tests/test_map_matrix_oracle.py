"""The one cover-map routine and the batched composites against the code
they replaced.

The oracle for Morphism.matrix is the loop it replaced: the image of
generator j times a is summed over the target's summands, each by left
multiplication in the algebra.  The oracle for precomposition_matrix is its
old loop over (source generator, cover summand) pairs, each through the
matrix of one algebra element acting on N; the oracle for a ProjFree's
action tensor is its old block-diagonal assembly of action_block.  The
batched composites of End(X), end0_algebra and the evaluation check are
compared, column by column and in the order each caller uses, with
compose_hom called once per pair."""

from fractions import Fraction

import numpy as np
import pytest

from ncgraded import homology, linalg
from ncgraded.algebra import build_presented_algebra, quotient_algebra
from ncgraded.endo import b0_module
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.errors import WindowExceeded
from ncgraded.gmodule import (
    compose_hom,
    cyclic_module,
    direct_sum,
    free_graded_module,
    hom_basis,
    hom_block_bases,
    hom_coords,
    precomposition_matrix,
)
from ncgraded.homology import Window, end0_algebra, free_resolution
from ncgraded.projfree import act_rows, map_matrix, summand_matrices
from ncgraded.scalars import Field


def echelon_piece(F, j, d):
    """Summand j's piece in degree d, e_j . alg_{d - g_j}, as an echelon of
    the image of left multiplication by e_j (by the unit on a free
    summand); nothing below g_j."""
    v, g = F.summands[j]
    alg = F.algebra
    if d < g:
        return linalg.Echelon(F.field, 0)
    e = alg.unit if v is None else alg.deg0.idempotents[v]
    return linalg.Echelon.of(F.field, alg.left_mult_matrix(0, e, d - g))


def _blocks(F, v, d):
    """Coordinates v of F_d split into per-summand blocks."""
    offs = F.offsets(d)
    return [v[offs[j] : offs[j + 1]] for j in range(F.rank)]


def _ambient(F, j, d, block):
    """Summand-j block coordinates at degree d as a vector of alg_{d - g_j}."""
    return linalg.matmul(F.field, echelon_piece(F, j, d).basis, block)


def oracle_morphism_matrix(mor, d):
    field = mor.source.field
    source, target = mor.source, mor.target
    nrow = target.dim(d)
    cols = []
    for j in range(source.rank):
        _, gj = source.summands[j]
        sub = echelon_piece(source, j, d)
        if sub.rank == 0:
            continue
        tblocks = _blocks(target, mor.images[j], gj)
        out = linalg.zeros(field, nrow, sub.rank)
        toffs = target.offsets(d)
        for i in range(target.rank):
            _, gi = target.summands[i]
            sub_to = echelon_piece(target, i, d)
            if echelon_piece(target, i, gj).rank == 0 or sub_to.rank == 0:
                continue
            a = _ambient(target, i, gj, tblocks[i])  # alg_{gj-gi}
            lm = target.algebra.left_mult_matrix(gj - gi, a, d - gj)  # (dim_{d-gi}, dim_{d-gj})
            out[toffs[i] : toffs[i + 1], :] = sub_to.coords(linalg.matmul(field, lm, sub.basis))
        cols.append(out)
    return np.concatenate(cols, axis=1) if cols else linalg.zeros(field, nrow, 0)


def oracle_precomposition_matrix(diff, N, s, Ws):
    """One row block per generator m of diff.source and one column block per
    cover summand j: the matrix of (- . a) from N_{g_j + s} to N_{h_m + s},
    a the summand-j part of diff's image of generator m, times Ws[j]."""
    field = N.field
    offs = np.cumsum([0] + [w.shape[1] for w in Ws])
    rows = [linalg.zeros(field, 0, offs[-1])]
    cover = diff.target
    for m in range(diff.source.rank):
        _, h = diff.source.summands[m]
        blocks = _blocks(cover, diff.images[m], h)
        row = linalg.zeros(field, N.dim(h + s), offs[-1])
        for j in range(cover.rank):
            _, gj = cover.summands[j]
            if offs[j] < offs[j + 1]:
                amb = _ambient(cover, j, h, blocks[j])
                am = linalg.matmul(field, N.act_tensor(gj + s, h - gj), amb, axes=(1, 0)).T
                row[:, offs[j] : offs[j + 1]] = linalg.matmul(field, am, Ws[j])
        rows.append(row)
    return np.concatenate(rows, axis=0)


def oracle_act_tensor(F, d, e):
    """The action tensor of F assembled block by block from action_block."""
    t = linalg.zeros(F.field, F.dim(d), F.algebra.dim(e), F.dim(d + e))
    oi, oo = F.offsets(d), F.offsets(d + e)
    for j in range(F.rank):
        t[oi[j] : oi[j + 1], :, oo[j] : oo[j + 1]] = F.action_block(j, d, e)
    return t


def assert_precompositions_match_oracle(res, targets, shifts):
    """precomposition_matrix against its oracle on every differential of res,
    into every target N at every shift s where Hom(F_j, N(s)) is in range."""
    checked = 0
    for diff in res.diffs:
        for N in targets:
            for s in shifts:
                try:
                    Ws = hom_block_bases(diff.target, N, s)
                    want = oracle_precomposition_matrix(diff, N, s, Ws)
                except WindowExceeded:
                    continue
                got = precomposition_matrix(diff, N, s, Ws)
                assert np.array_equal(got, want), (s, N)
                checked += bool(got.size)
    assert checked


def assert_differentials_match_oracle(res):
    checked = 0
    for mor in res.diffs:
        for d in range(min(g for _, g in mor.source.summands), res.cap + 1):
            assert np.array_equal(mor.matrix(d), oracle_morphism_matrix(mor, d)), d
            checked += 1
    assert checked


def _modules(field, max_deg):
    """A, X1, X2 and k over the example's A = S / (x^2 + y^2), built over field."""
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    rels = tuple(parse_poly(t, gens, field) for t in ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"))
    S = build_presented_algebra(Presentation(field, gens, rels, MonomialOrder(gens, (0, 1, 2))),
                                max_deg)
    A = quotient_algebra(S, (parse_poly("x^2 + y^2", S.gens, field),), max_deg)
    mods = {n: cyclic_module(A, [parse_poly(e, A.gens, field)], max_deg)
            for n, e in (("X1", "x - y + z"), ("X2", "x - y - z"))}
    mods["k"] = cyclic_module(A, [parse_poly(g, A.gens, field) for g in "xyz"], max_deg)
    mods["A"] = free_graded_module(A, [0], 0, max_deg)
    return mods


def coords_of(field, basis, homs):
    """Coordinates of the homs in the hom basis, one column each."""
    return hom_coords(field, basis, np.stack([h.stacked() for h in homs], axis=1))


def assert_composites_match_compose_hom(X, M, a, e):
    """end0_algebra(X) and _eval_coords(X, M, a, e) against per-pair composites;
    X, M, a and e are chosen so that End(X)_0 is not commutative and both
    factors of f o beta range over more than one basis element, so a wrong
    column order shows."""
    field = X.field
    E, basis = end0_algebra(X)
    n = len(basis)
    want = coords_of(
        field, basis, [compose_hom(basis[j], basis[i]) for i in range(n) for j in range(n)])
    assert np.array_equal(E.mult, want.T.reshape(n, n, n))
    fs, hs, bb = hom_basis(X, M, a), hom_basis(X, M, a + e), hom_basis(X, X, e)
    assert len(fs) > 1 and len(bb) > 1 and hs
    want = coords_of(field, hs, [compose_hom(beta, f) for beta in bb for f in fs])
    assert np.array_equal(homology._eval_coords(X, M, a, e, fs, hs, bb), want)


@pytest.mark.parametrize("name", ["X1", "X2", "k"])
def test_resolutions_over_A_match_oracle_gf13(basic_modules, window, name):
    assert_differentials_match_oracle(free_resolution(basic_modules[name], 3, window))


def test_resolution_of_B0_over_End_X_matches_oracle(B, window):
    """Over B the projective summands are cut out by idempotents."""
    res = free_resolution(b0_module(B.algebra), 3, window)
    assert any(v is not None for step in res.steps for v, _ in step.summands)
    assert_differentials_match_oracle(res)


def test_resolutions_over_A_match_oracle_qq():
    mods = _modules(Field(None), 6)
    for name in ("X1", "X2", "k"):
        assert_differentials_match_oracle(free_resolution(mods[name], 3, Window(0, 2, 2, 5)))


def test_end_X_products_match_compose_hom(B):
    """B's structure tensors: tensor[i, j] holds the coordinates of b_i o b_j."""
    for d1, d2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        b1, b2, b12 = B.bases[d1], B.bases[d2], B.bases[d1 + d2]
        want = coords_of(B.X.field, b12, [compose_hom(bj, bi) for bi in b1 for bj in b2])
        assert np.array_equal(B.algebra.mult_tensor(d1, d2), want.T.reshape(len(b1), len(b2), -1))


def test_end0_and_eval_coords_match_compose_hom_gf13(basic_modules):
    X = direct_sum([basic_modules["A"], basic_modules["X1"]])
    assert_composites_match_compose_hom(X, basic_modules["X1"], 0, 1)


def test_end0_and_eval_coords_match_compose_hom_qq():
    mods = _modules(Field(None), 5)
    assert_composites_match_compose_hom(direct_sum([mods["A"], mods["X1"]]), mods["X1"], 0, 1)


@pytest.mark.parametrize("name", ["X1", "X2", "k"])
def test_precompositions_over_A_match_oracle_gf13(basic_modules, X, window, name):
    res = free_resolution(basic_modules[name], 3, window)
    assert_precompositions_match_oracle(
        res, [basic_modules["A"], basic_modules["X1"], X], range(-1, 4))


def test_precompositions_over_A_match_oracle_qq():
    mods = _modules(Field(None), 6)
    X = direct_sum([mods["A"], mods["X1"], mods["X2"]])
    for name in ("X1", "X2", "k"):
        res = free_resolution(mods[name], 3, Window(0, 2, 2, 5))
        assert_precompositions_match_oracle(res, [mods["A"], mods["X1"], X], range(0, 2))


def test_precompositions_of_B0_over_End_X_match_oracle(B, window):
    """The cover summands over B are cut out by idempotents."""
    alg = B.algebra
    res = free_resolution(b0_module(B.algebra), 3, window)
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    assert_precompositions_match_oracle(res, [NB, b0_module(B.algebra)], range(-1, 3))


def test_projfree_action_is_the_block_diagonal_of_its_summands(B, window):
    """The action tensors of the vertex summands of B_0's resolution over B."""
    res = free_resolution(b0_module(B.algebra), 3, window)
    checked = 0
    for F in res.steps:
        assert any(v is not None for v, _ in F.summands)
        lo = min(g for _, g in F.summands)
        for d in range(lo, lo + 3):
            for e in range(0, 3):
                want = oracle_act_tensor(F, d, e)
                assert np.array_equal(F.act_tensor(d, e), want), (d, e)
                checked += bool(want.size)
    assert checked


def test_free_module_is_its_own_cover(A):
    F = free_graded_module(A, [0, -1])
    P = F.presentation()
    assert P.cover is F and P.rel is None
    for d in range(F.valid_from, 5):
        assert np.array_equal(P.cover_mats[d], linalg.eye(A.field, F.dim(d)))
        assert np.array_equal(P.sections[d], P.cover_mats[d])
    assert free_graded_module(A, [0]).presentation().cover is free_graded_module(A, [0])


# ---------------------------------------------------------------------------
# free summands against the echelon route
# ---------------------------------------------------------------------------
#
# A free summand's piece in degree d is all of alg_{d-g}: its echelon basis
# is the identity.  The oracles below take that basis, contract with it and
# solve coordinates against it, as action_block and summand_matrices did
# before they read a free summand straight from the algebra's tensors.


def oracle_action_block(F, j, d, e):
    """Right multiplication on summand j through its echelon bases."""
    _, g = F.summands[j]
    sub_in, sub_out = echelon_piece(F, j, d), echelon_piece(F, j, d + e)
    ne = F.algebra.dim(e)
    t = linalg.zeros(F.field, sub_in.rank, ne, sub_out.rank)
    if sub_in.rank == 0 or sub_out.rank == 0 or ne == 0:
        return t
    amb = linalg.matmul(F.field, sub_in.basis, F.algebra.mult_tensor(d - g, e), axes=(0, 0))
    coords = sub_out.coords(amb.reshape(-1, amb.shape[2]).T)
    return coords.T.reshape(sub_in.rank, ne, sub_out.rank)


def oracle_summand_matrices(cover, target, j, images, s, d):
    gj = cover.summands[j][1]
    w = act_rows(cover.field, images.T, target.act_tensor(gj + s, d - gj))
    return linalg.matmul(cover.field, w, echelon_piece(cover, j, d).basis, axes=(1, 0))


def oracle_map_matrix(cover, target, images, s, d):
    cols = [linalg.zeros(cover.field, target.dim(d + s), 0)]
    cols += [oracle_summand_matrices(cover, target, j, images[j][:, None], s, d)[0]
             for j in range(cover.rank) if echelon_piece(cover, j, d).rank]
    return np.concatenate(cols, axis=1)


def assert_same(got, want):
    """Equal arrays of one dtype: int64, or object arrays of Fractions."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    if got.dtype == object:
        assert all(type(v) is Fraction for v in got.flat)
    else:
        assert got.dtype == np.int64


def _random(field, rng, *shape):
    if field.is_prime_field:
        return rng.integers(0, field.p, size=shape, dtype=np.int64)
    out = linalg.zeros(field, *shape)
    for idx in np.ndindex(*shape):
        out[idx] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return out


def assert_free_summands_match_echelon_route(F, targets, degrees, es, shifts, seed=0):
    """action_block and act_tensor of the free module F in every degree d
    and algebra degree e, and summand_matrices and map_matrix of maps from
    F into each target at each shift s, against the oracles."""
    assert all(v is None for v, _ in F.summands)
    rng = np.random.default_rng(seed)
    seen = set()
    for d in degrees:
        for e in es:
            for j, (_, g) in enumerate(F.summands):
                got = F.action_block(j, d, e)
                assert_same(got, oracle_action_block(F, j, d, e))
                seen.add("below" if d < g else "zero" if not got.size else "free")
            if F.valid_from <= d and d + e <= F.valid_to:
                want = linalg.zeros(F.field, F.dim(d), F.algebra.dim(e), F.dim(d + e))
                oi, oo = F.offsets(d), F.offsets(d + e)
                for j in range(F.rank):
                    want[oi[j] : oi[j + 1], :, oo[j] : oo[j + 1]] = oracle_action_block(F, j, d, e)
                assert_same(F.act_tensor(d, e), want)
    checked = 0
    for N in targets:
        for s in shifts:
            images = [_random(F.field, rng, N.dim(g + s), 2) for _, g in F.summands]
            for d in degrees:
                if not (F.valid_from <= d and d + s <= N.valid_to):
                    continue
                for j in range(F.rank):
                    assert_same(summand_matrices(F, N, j, images[j], s, d),
                                oracle_summand_matrices(F, N, j, images[j], s, d))
                cols = [v[:, 0] for v in images]
                assert_same(map_matrix(F, N, cols, s, d), oracle_map_matrix(F, N, cols, s, d))
                checked += 1
    assert checked
    assert seen == {"below", "zero", "free"}, seen


def test_free_summands_match_echelon_route_gf13(A, basic_modules, X):
    """Generators in degrees 0, 2 and -1, so some pieces lie below their
    generator; e = 0 and the empty e = -1 included."""
    F = free_graded_module(A, [0, -2, 1])
    assert_free_summands_match_echelon_route(
        F, [basic_modules["X1"], X, F], range(-2, 4), range(-1, 3), range(-1, 2))


@pytest.mark.parametrize("p", [2**31 - 1, None], ids=["GF(2^31-1)", "QQ"])
def test_free_summands_match_echelon_route_large_prime_and_qq(p):
    mods = _modules(Field(p), 5)
    F = free_graded_module(mods["A"].algebra, [0, -2, 1], hi=5)
    assert_free_summands_match_echelon_route(
        F, [mods["X1"], mods["A"]], range(-2, 3), range(-1, 3), range(0, 2))


def test_free_module_over_end_x_matches_echelon_route(B):
    """B = End(X) vanishes in negative degrees, so the free B-module has
    zero pieces there; its summand starts in degree 0."""
    alg = B.algebra
    NB = free_graded_module(alg, [0], alg.valid_from, alg.valid_through)
    assert alg.dim(-1) == 0
    assert_free_summands_match_echelon_route(
        NB, [NB, b0_module(B.algebra)], range(-2, 2), range(-1, 2), range(0, 2))
