import pytest

from ncgraded.errors import WindowExceeded
from ncgraded.freealg import parse_poly
from ncgraded.gmodule import (
    compose_hom,
    cyclic_module,
    direct_sum,
    dual_module,
    free_graded_module,
    hom_basis,
    identity_hom,
    shift_module,
    twist_module,
    GradedAutomorphism,
)


def test_free_module_dims(A):
    M = free_graded_module(A, [0, -1], -1, 8)
    for d in range(0, 6):
        assert M.dim(d) == A.dim(d) + A.dim(d - 1)


def test_cyclic_quotient_dims(A, basic_modules):
    # A/gA for g of degree 1 with g^2 = 0 in A: matrix factorization gives
    # dims 1, 2, 3, 4, ... (one less than A in each positive degree)
    X1 = basic_modules["X1"]
    assert [X1.dim(d) for d in range(8)] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_residue_field_dims(basic_modules):
    k = basic_modules["k"]
    assert [k.dim(d) for d in range(4)] == [1, 0, 0, 0]


def test_shift_and_sum_dims(A, basic_modules):
    X1 = basic_modules["X1"]
    M = shift_module(X1, -2)
    assert M.dim(2) == X1.dim(0)
    Ssum = direct_sum([X1, M])
    assert Ssum.dim(3) == X1.dim(3) + X1.dim(1)


def _raise(exc):
    def presentation(deg0=None):
        raise exc
    return presentation


def test_direct_sum_presentation_failures(basic_modules):
    X1 = basic_modules["X1"]
    broken = shift_module(X1, 0)
    broken.presentation = _raise(TypeError("a bug, not a library error"))
    with pytest.raises(TypeError):
        direct_sum([X1, broken])
    broken.presentation = _raise(WindowExceeded("presentation beyond the window"))
    Ssum = direct_sum([X1, broken])
    assert Ssum._pres is None
    assert Ssum.dim(2) == 2 * X1.dim(2)


def test_hom_from_free_is_degree_piece(A, basic_modules):
    # Hom(A, M(s))_0 has the dimension of M_s
    X1 = basic_modules["X1"]
    free = basic_modules["A"]
    for s in range(0, 4):
        assert len(hom_basis(free, X1, s)) == X1.dim(s)


def test_identity_and_composition(basic_modules):
    X1 = basic_modules["X1"]
    idm = identity_hom(X1)
    homs = hom_basis(X1, X1, 0)
    assert len(homs) >= 1
    f = homs[0]
    assert (compose_hom(idm, f).stacked() == f.stacked()).all()
    assert (compose_hom(f, idm).stacked() == f.stacked()).all()


def test_hom_respects_action(A, basic_modules, F13):
    X1 = basic_modules["X1"]
    import numpy as np

    for f in hom_basis(X1, X1, 1):
        for d in range(0, 3):
            for gi in range(A.dim(1)):
                w = np.zeros(A.dim(1), dtype=np.int64)
                w[gi] = 1
                for vi in range(X1.dim(d)):
                    v = np.zeros(X1.dim(d), dtype=np.int64)
                    v[vi] = 1
                    lhs = (f.matrix(d + 1) @ X1.act(d, v, 1, w)) % F13.p
                    rhs = X1.act(d + f.s, (f.matrix(d) @ v) % F13.p, 1, w) % F13.p
                    assert (lhs == rhs).all()


def test_twist_by_automorphism(A, basic_modules, F13):
    sigma = GradedAutomorphism(
        A, [parse_poly(t, A.gens, F13) for t in ("x", "y", "-z")])
    X1 = basic_modules["X1"]
    T = twist_module(X1, sigma)
    assert [T.dim(d) for d in range(6)] == [X1.dim(d) for d in range(6)]


def test_dual_module_dims(A, basic_modules):
    # X1 = A/gA dualizes to a shifted copy of the same matrix factorization:
    # graded dims 0, 1, 2, 3, ... starting in degree 1
    X1 = basic_modules["X1"]
    D = dual_module(X1, 0, 5)
    assert [D.dim(d) for d in range(0, 5)] == [0, 1, 2, 3, 4]
