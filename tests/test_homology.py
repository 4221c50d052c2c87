import numpy as np
import pytest

from ncgraded.cli import EXAMPLE_WORKSPACE, example_workspace, parse_workspace
from ncgraded.errors import InvalidDimension, InvalidWindow, NcgError
from ncgraded.freealg import parse_poly
from ncgraded.gmodule import cyclic_module, direct_sum, free_graded_module, shift_module
from ncgraded.homology import (
    Window,
    are_isomorphic_graded,
    check_cluster_tilting,
    end0_algebra,
    eval_iso_check,
    ext_graded_dims,
    ext_table,
    free_resolution,
    hom_space,
    in_add_of,
    is_indecomposable,
    is_mcm,
)


def test_resolution_d_squared_zero(basic_modules, window, F13):
    k = basic_modules["k"]
    res = free_resolution(k, 3, window)
    # composition of consecutive differentials vanishes degreewise
    for i in range(1, len(res.diffs)):
        f, g = res.diffs[i], res.diffs[i - 1]
        for d in range(0, 5):
            mf, mg = f.matrix(d), g.matrix(d)
            if mf.size and mg.size:
                assert not ((mg @ mf) % F13.p).any()


def test_residue_field_resolution_shifts(basic_modules, window):
    # periodic resolution of k over the quadric hypersurface quotient:
    # frozen from an independent run of the same computation at higher cap
    k = basic_modules["k"]
    res = free_resolution(k, 3, window)
    assert res.shifts(0) == [0]
    assert res.shifts(1) == [-1, -1, -1]
    assert sorted(res.shifts(2)) == [-2, -2, -2, -2]
    assert sorted(res.shifts(3)) == [-3, -3, -3, -3]


def test_free_module_truncated_below_the_cap_resolves_to_itself(A):
    # the cover of a free module valid through 4 has no kernel in the degrees
    # its presentation tabulates; the cap 8 of the window lies beyond them
    res = free_resolution(free_graded_module(A, [0], 0, 4), 2, Window())
    assert res.terminated_at == 0


def test_hom_space_matches_degree_piece(basic_modules, window):
    free = basic_modules["A"]
    X1 = basic_modules["X1"]
    for s in range(0, 4):
        assert hom_space(free, X1, s, window).dim == X1.dim(s)


def test_ext_vanishing_for_free_module(basic_modules, window):
    free = basic_modules["A"]
    for i in (1, 2):
        dims = ext_graded_dims(free, basic_modules["X1"], i, window)
        assert not any(dims.values())


def test_ext_table_keeps_the_nonzero_degrees_of_each_ext(basic_modules, window):
    # Ext^2(k, A) = k(1): one homological degree, and no degree at all
    k, NA = basic_modules["k"], basic_modules["A"]
    dims = ext_graded_dims(k, NA, 2, window)
    assert ext_table(k, NA, [2], window) == {2: {s: v for s, v in dims.items() if v}} == {2: {-1: 1}}
    assert ext_table(k, NA, [], window) == {}


def test_ext_in_negative_homological_degree_is_a_typed_error(basic_modules, window):
    """Ext^i vanishes for i < 0 by definition; a resolution has no step -1
    to read it from, so the call is refused rather than answered."""
    for i in (-1, -3):
        with pytest.raises(InvalidDimension):
            ext_graded_dims(basic_modules["X1"], basic_modules["A"], i, window)


def test_mcm_modules(basic_modules, window):
    for n in ("X1", "X2", "X3", "X4"):
        ok, rep = is_mcm(basic_modules[n], window)
        assert ok, rep
    ok, rep = is_mcm(basic_modules["k"], window)
    assert not ok  # the residue field has infinite projective dimension


def test_indecomposability(basic_modules):
    for n in ("X1", "X2", "X3", "X4", "A"):
        assert is_indecomposable(basic_modules[n])


def test_end0_of_zero_module(A):
    zero = free_graded_module(A, [], 0, 4)
    E, basis = end0_algebra(zero)
    assert E.n == 0 and basis == []
    assert not is_indecomposable(zero)


def test_isomorphism_positive_and_negative(basic_modules, window):
    X1, X2 = basic_modules["X1"], basic_modules["X2"]
    r = are_isomorphic_graded(X1, X1, window)
    assert r.status == "isomorphic"
    r = are_isomorphic_graded(X1, X2, window)
    assert r.status == "non-isomorphic" and r.certified
    r = are_isomorphic_graded(X1, shift_module(X2, 2), window)
    assert r.status == "non-isomorphic" and r.certified  # dims differ


def test_isomorphism_compares_degrees_where_one_module_vanishes(basic_modules):
    # X1(-3) and X2(-3) start in degree 3, beyond the window's top degree 2,
    # while X1 is nonzero in degrees 0..2
    narrow = Window(-1, 2, 2, 4)
    X1, X2 = basic_modules["X1"], basic_modules["X2"]
    for N in (shift_module(X1, -3), shift_module(X2, -3)):
        r = are_isomorphic_graded(X1, N, narrow)
        assert r.status == "non-isomorphic" and r.certified, r.detail


ISO_WINDOW = Window(-3, 3, 2, 4)


@pytest.fixture(scope="module", params=[13, 10009], ids=["p13", "p10009"])
def small_example(request):
    return example_workspace(request.param, max_deg=6, window=ISO_WINDOW)


def test_isomorphism_of_sums_by_scan_or_by_seeded_search(small_example):
    """X1 + X2 against X1 + X1: Hom(M, N)_0 is small enough over GF(13) for the
    exhaustive scan, which certifies that no element is invertible; over
    GF(10009) only the 64 seeded trials run, which certify nothing."""
    X1, X2 = small_example.module("X1"), small_example.module("X2")
    r = are_isomorphic_graded(direct_sum([X1, X2]), direct_sum([X1, X1]), ISO_WINDOW)
    if small_example.field.p == 13:
        assert (r.status, r.certified) == ("non-isomorphic", True)
        assert "exhaustive scan" in r.detail
    else:
        assert (r.status, r.certified, r.witness) == ("not-found", False, None)


def test_isomorphism_witness_by_scan_or_by_seeded_search(small_example):
    X1 = small_example.module("X1")
    r = are_isomorphic_graded(X1, X1, ISO_WINDOW)
    assert (r.status, r.certified) == ("isomorphic", True)
    assert len(r.witness) == 1 and r.witness[0] % small_example.field.p
    assert ("exhaustive scan" if small_example.field.p == 13 else "randomized") in r.detail


def test_isomorphism_skips_degrees_where_the_module_vanishes(small_example):
    """k is zero in degrees 1..3 of the window, where no matrix is inverted."""
    A = small_example.algebra("A")
    k = cyclic_module(A, [parse_poly(g, A.gens, small_example.field) for g in "xyz"], 6)
    assert [k.dim(d) for d in range(0, 4)] == [1, 0, 0, 0]
    r = are_isomorphic_graded(k, k, ISO_WINDOW)
    assert (r.status, r.certified) == ("isomorphic", True) and len(r.witness) == 1


def test_in_add_detects_membership(X, basic_modules, window):
    ok, _ = in_add_of(X, basic_modules["X1"], window)
    assert ok
    ok, _ = in_add_of(X, basic_modules["k"], window)
    assert not ok


def test_cluster_tilting_verdict(X, basic_modules, window):
    cands = [(n, basic_modules[n]) for n in ("X1", "X2", "X3", "X4", "A")]
    rep = check_cluster_tilting(X, 1, cands, window)
    assert rep["verdict"] is True
    assert rep["X_mcm"] is True


def test_eval_iso_and_resolution_agree_over_qq_and_gf():
    # X3, X4 need a square root of -1, so the sum stops at X2 for QQ
    blocks = [b for b in EXAMPLE_WORKSPACE.split("\n\n")
              if not b.startswith(("[module X3]", "[module X4]"))]
    text = "\n\n".join(blocks).replace('"AF, X1, X2, X3, X4"', '"AF, X1, X2"')
    w = Window(0, 2, 2, 4)
    out = []
    for field in ("QQ", "GF(10007)"):
        ws = parse_workspace(text.replace('"GF(13)"', f'"{field}"'), max_deg=5)
        X, X1 = ws.module("X"), ws.module("X1")
        res = free_resolution(X1, 2, w)
        out.append((eval_iso_check(X, X1, w)["degrees"],
                    [res.shifts(i) for i in range(res.length + 1)]))
    assert out[0] == out[1]
    assert all(v["bijective"] for v in out[0][0].values())


def test_window_with_lo_above_hi_is_a_typed_error():
    with pytest.raises(InvalidWindow):
        Window(3, 1)
    assert issubclass(InvalidWindow, NcgError)
    assert Window(1, 1).internal_hi == 1
