import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.errors import DegreeBeyondTruncation, WindowExceeded
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
    GradedModule,
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


def test_action_is_built_on_first_use_and_only_where_nonzero(A):
    calls = []

    def action(d, e):
        calls.append((d, e))
        return linalg.eye(A.field, 1).reshape(1, 1, 1)

    M = GradedModule(A, {0: 1}, action, 0, 3)
    assert calls == []
    assert M.act_tensor(0, 1).shape == (1, A.dim(1), 0)  # dim M_1 = 0
    assert M.act_tensor(1, 0).shape == (0, 1, 0)
    assert calls == []
    t = M.act_tensor(0, 0)
    assert M.act_tensor(0, 0) is t and calls == [(0, 0)]


HI = 6
_SIGMA = ("y", "-x", "5*z")  # an automorphism of A over GF(13) (5^2 = -1), of order 4


def _fresh(A, kind):
    """A module of each constructor, built anew so that no tensor is cached."""
    F = A.field

    def X1():
        return cyclic_module(A, [parse_poly("x - y + z", A.gens, F)], HI)

    build = {
        "free": lambda: free_graded_module(A, [0, -1], -1, HI),
        "cyclic": X1,
        "shifted": lambda: shift_module(X1(), -1),
        "sum": lambda: direct_sum([X1(), shift_module(X1(), -1),
                                   cyclic_module(A, [parse_poly(g, A.gens, F) for g in "xyz"], HI)]),
        "twisted": lambda: twist_module(X1(), GradedAutomorphism(
            A, [parse_poly(t, A.gens, F) for t in _SIGMA])),
        "dual": lambda: dual_module(X1(), 0, HI - 1),
    }
    return build[kind]()


KINDS = ("free", "cyclic", "shifted", "sum", "twisted", "dual")


def _pairs(M):
    return [(d, e) for d in range(M.valid_from, M.valid_to + 1) for e in range(M.valid_to - d + 1)]


@pytest.mark.parametrize("kind", KINDS)
def test_lazy_action_is_associative(A, kind):
    # (m a) b = m (ab) for every in-range (d, e1, e2)
    M = _fresh(A, kind)
    alg, field = M.algebra, M.field
    for d, e1 in _pairs(M):
        for e2 in range(M.valid_to - d - e1 + 1):
            lhs = linalg.matmul(field, M.act_tensor(d, e1), M.act_tensor(d + e1, e2))
            rhs = linalg.matmul(field, alg.mult_tensor(e1, e2), M.act_tensor(d, e1 + e2),
                                axes=(2, 1))
            assert np.array_equal(lhs, rhs.transpose(2, 0, 1, 3)), (d, e1, e2)


@pytest.mark.parametrize("kind", KINDS)
def test_lazy_tensors_do_not_depend_on_request_order(A, kind):
    up, down = _fresh(A, kind), _fresh(A, kind)
    pairs = _pairs(up)
    got_up = {p: up.act_tensor(*p) for p in pairs}
    got_down = {p: down.act_tensor(*p) for p in reversed(pairs)}
    for d, e in pairs:
        assert got_up[d, e].shape == (up.dim(d), up.algebra.dim(e), up.dim(d + e))
        assert np.array_equal(got_up[d, e], got_down[d, e]), (d, e)
    with pytest.raises(DegreeBeyondTruncation):
        up.act_tensor(up.valid_to, 1)
    with pytest.raises(DegreeBeyondTruncation):
        down.act_tensor(down.valid_to + 1, 0)
