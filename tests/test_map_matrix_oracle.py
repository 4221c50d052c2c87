"""The one cover-map routine and the batched composites against the code
they replaced.

The oracle for Morphism.matrix is the loop it replaced: the image of
generator j times a is summed over the target's summands, each by left
multiplication in the algebra.  The batched composites of End(X),
end0_algebra and the evaluation check are compared, column by column and in
the order each caller uses, with compose_hom called once per pair."""

import numpy as np
import pytest

from ncgraded import homology, linalg
from ncgraded.algebra import build_presented_algebra, quotient_algebra
from ncgraded.endo import b0_module
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.gmodule import compose_hom, cyclic_module, direct_sum, free_graded_module, hom_basis
from ncgraded.homology import Window, end0_algebra, free_resolution
from ncgraded.scalars import Field


def oracle_morphism_matrix(mor, d):
    field = mor.source.field
    source, target = mor.source, mor.target
    nrow = target.dim(d)
    cols = []
    for j in range(source.rank):
        _, gj = source.summands[j]
        sub = source.subspace(j, d)
        if sub.rank == 0:
            continue
        tblocks = target.split(mor.images[j], gj)
        out = linalg.zeros(field, nrow, sub.rank)
        toffs = target.offsets(d)
        for i in range(target.rank):
            _, gi = target.summands[i]
            sub_to = target.subspace(i, d)
            if target.subspace(i, gj).rank == 0 or sub_to.rank == 0:
                continue
            a = target.ambient(i, gj, tblocks[i])  # alg_{gj-gi}
            lm = target.alg.left_mult_matrix(gj - gi, a, d - gj)  # (dim_{d-gi}, dim_{d-gj})
            out[toffs[i] : toffs[i + 1], :] = sub_to.coords(linalg.matmul(field, lm, sub.basis))
        cols.append(out)
    return np.concatenate(cols, axis=1) if cols else linalg.zeros(field, nrow, 0)


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
    return homology._coords_in_homs(field, basis, np.stack([h.stacked() for h in homs], axis=1))


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
    res = free_resolution(b0_module(B), 3, window)
    assert any(eps is not None for step in res.steps for eps, _ in step.summands)
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
