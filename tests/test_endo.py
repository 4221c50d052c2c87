import itertools

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.cli import EXAMPLE_WORKSPACE, parse_workspace
from ncgraded.endo import (
    EndoAlgebra,
    as_gorenstein_check,
    as_regular_over_R_check,
    b0_module,
    check_nonnegative,
    quiver_of,
    radical_and_idempotents,
)
from ncgraded.errors import IncompleteKernel
from ncgraded.findim import Deg0Data, radical_basis
from ncgraded.freealg import NcPoly
from ncgraded.gmodule import cyclic_module, direct_sum, free_graded_module, shift_module
from ncgraded.homology import Window, ext_graded_dims
from ncgraded.projfree import scan_minimal_generators
from ncgraded.scalars import QQ, Field
from test_opposite import presented_opposite


def test_endo_dims_match_series(B, window):
    # End(X) for the five-summand module: dims 9(2d+1), frozen from the
    # rational form 9(1+t)/(1-t)^2 and reproduced degreewise
    for d in range(0, window.algebra_degree_cap + 1):
        assert B.algebra.dim(d) == 9 * (2 * d + 1)


def test_endo_nonnegative(B, window):
    assert check_nonnegative(B)
    for d in range(window.internal_lo, 0):
        assert B.algebra.dim(d) == 0


def test_degree_zero_structure(B):
    B0 = B.algebra.degree_zero()
    assert B0.n == 9
    rad = radical_basis(B0)
    assert rad.shape[1] == 4
    # rad^2 = 0
    for a in range(4):
        for b in range(4):
            assert not B0.mul(rad[:, a], rad[:, b]).any()
    rad2, idems = radical_and_idempotents(B0)
    assert len(idems) == 5


def test_quiver_shape(B):
    B0 = B.algebra.degree_zero()
    Q = quiver_of(B0)
    assert len(Q.vertices) == 5
    assert len(Q.arrows) == 4
    sources = {s for s, _, _ in Q.arrows}
    targets = {t for _, t, _ in Q.arrows}
    assert len(sources) == 4 and len(targets) == 1
    assert all(m == 1 for _, _, m in Q.arrows)
    # dim kQ = vertices + arrows = 9 = dim B0
    assert len(Q.vertices) + sum(m for _, _, m in Q.arrows) == B0.n


def test_endo_associativity_spot_check(B, F13):
    for d1, d2, d3 in [(0, 0, 0), (0, 1, 0), (1, 1, 0)]:
        t12 = B.algebra.mult_tensor(d1, d2)
        t3 = B.algebra.mult_tensor(d1 + d2, d3)
        t23 = B.algebra.mult_tensor(d2, d3)
        t1 = B.algebra.mult_tensor(d1, d2 + d3)
        lhs = np.tensordot(t12, t3, axes=(2, 0)) % F13.p
        rhs = np.tensordot(t1, t23, axes=(1, 2)).transpose(0, 2, 3, 1) % F13.p
        assert (lhs == rhs).all()


def test_endo_of_a_shifted_sum_multiplies_into_its_negative_degree(basic_modules, F13):
    """End(A + A(1)) has a degree -1 piece, so a product b1 * b2 with b2 in
    degree -1 reads a hom below its source module's lowest degree, where the
    hom is zero; every product is associative."""
    A = basic_modules["A"]
    alg = EndoAlgebra(direct_sum([A, shift_module(A, 1)]), Window(-1, 2, 2, 2)).algebra
    assert alg.valid_from == -1 and alg.dim(-1) == 1
    assert alg.mult_tensor(0, -1).shape == (5, 1, 1)
    assert alg.mult_tensor(1, -1).shape == (12, 1, 5)
    degrees = range(alg.valid_from, alg.valid_through + 1)
    for d1, d2, d3 in itertools.product(degrees, repeat=3):
        if {d1 + d2, d2 + d3, d1 + d2 + d3} <= set(degrees):
            lhs = np.tensordot(alg.mult_tensor(d1, d2), alg.mult_tensor(d1 + d2, d3),
                               axes=(2, 0)) % F13.p
            rhs = np.tensordot(alg.mult_tensor(d1, d2 + d3), alg.mult_tensor(d2, d3),
                               axes=(1, 2)).transpose(0, 2, 3, 1) % F13.p
            assert (lhs == rhs).all()


def test_as_regular_over_degree_zero(B, window):
    rep = as_regular_over_R_check(B, 2, 1, window)
    assert rep["verdict"] is True
    assert rep["terminates_at_d"] is True
    ext0 = rep["ext"].get(0, rep["ext"].get("0", {}))
    assert not any(ext0.values())


def test_a_window_that_cannot_reach_ext_d_decides_from_the_lower_exts(A, X):
    """With homological_max < d, Ext^d is never computed: vanishing lower Exts
    give inconclusive, a nonzero one (Ext^2 when d = 3) gives fail."""
    low, high = Window(-3, 3, 1, 4), Window(-3, 3, 2, 4)
    assert as_gorenstein_check(A, 2, 1, low)["verdict"] == "inconclusive"
    assert as_gorenstein_check(A, 3, 1, high)["verdict"] is False
    B = EndoAlgebra(X, high)
    rep = as_regular_over_R_check(B, 2, 1, low)
    assert rep["verdict"] == "inconclusive" and list(rep["ext"]) == [0, 1]
    rep = as_regular_over_R_check(B, 3, 1, high)
    assert rep["verdict"] is False and rep["ext"][2] == {-1: 9}


@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_gorenstein_sides_match_ext_of_the_cyclic_residue_field(field):
    """The Gorenstein check resolves k = b0_module(A); its Ext tables must
    be those of k built as the cyclic module A/(x, y, z)A, on each side.
    The left side's k is built over A^op presented by reversed relations."""
    window = Window(-3, 3, 2, 4)
    A = parse_workspace(EXAMPLE_WORKSPACE, max_deg=8, field=field).algebra("A")
    rep = as_gorenstein_check(A, 2, 1, window)
    oracle = {}
    for side, alg in (("right", A), ("left", presented_opposite(A))):
        gens = [NcPoly.gen(alg.gens, alg.field, i) for i in range(len(alg.gens))]
        k = cyclic_module(alg, gens, alg.valid_through)
        NA = free_graded_module(alg, [0], 0, alg.valid_through)
        oracle[side] = {i: {s: v for s, v in ext_graded_dims(k, NA, i, window).items() if v}
                        for i in range(3)}
    assert rep["sides"] == oracle
    assert oracle["right"] == {0: {}, 1: {}, 2: {-1: 1}} and rep["verdict"] is True


def test_scan_checks_the_chosen_generators_span_the_piece(B):
    # a "radical" that is all of B_0 leaves no generator to choose, so the
    # chosen set spans nothing; the scan must report that, not return []
    M = b0_module(B.algebra)
    field = M.field
    everything = Deg0Data(linalg.eye(field, 9), [B.algebra.unit])
    with pytest.raises(IncompleteKernel):
        scan_minimal_generators(field, M, lambda d: linalg.eye(field, M.dim(d)), range(0, 1), everything)
    gens = scan_minimal_generators(field, M, lambda d: linalg.eye(field, M.dim(d)), range(0, 1),
                                   B.algebra.deg0)
    assert len(gens) == 5
