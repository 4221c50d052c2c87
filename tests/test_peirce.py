"""B = End(X) in its Peirce basis (+)_{i,j} e_i B_d e_j.

B_0's primitive idempotents are coordinate vectors of B_0, complete,
orthogonal and in the order of the plain B_0's, and left multiplication by
each is a 0/1 diagonal on every B_n, on B and on its opposite, so every
vertex piece e_v B_n is a set of coordinates.  Checked on the paper's B over
GF(13) and on End(A + X1) over QQ.  End(AF + AF), whose B_0 = M_2(k) does
not split, is re-based only when a tensor is read, so `ncg endo` still
answers for it."""

import json

import numpy as np
import pytest

from ncgraded import linalg
from ncgraded.algebra import TabulatedAlgebra
from ncgraded.cli import EXAMPLE_WORKSPACE, main, parse_workspace
from ncgraded.endo import EndoAlgebra, _as_ext
from ncgraded.errors import NonSplit, NotPeirce
from ncgraded.findim import radical_and_idempotents
from ncgraded.gmodule import opposite_algebra
from ncgraded.homology import Window, end0_algebra
from ncgraded.projfree import ProjFree
from ncgraded.scalars import Field
from test_hom_family import B_qq  # noqa: F401  (fixture)

SMALL = Window(-3, 3, 2, 4)


def assert_peirce(B):
    alg, field = B.algebra, B.X.field
    idems = alg.deg0.idempotents
    # coordinate vectors of B_0, complete and orthogonal
    assert all(np.count_nonzero(e) == 1 and e[np.flatnonzero(e)[0]] == 1 for e in idems)
    assert np.array_equal(sum(idems), alg.unit)
    B0 = alg.degree_zero()
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            assert np.array_equal(B0.mul(e, f), e if i == j else 0 * e)
    # as homs X -> X, the plain B_0's idempotents in the plain B_0's order
    E, plain = end0_algebra(B.X)
    want = [linalg.matmul(field, np.stack([b.stacked() for b in plain], axis=1), e)
            for e in radical_and_idempotents(E).idempotents]
    got = [B.bases[0][np.flatnonzero(e)[0]].stacked() for e in idems]
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
    # left multiplication by each e_v is a 0/1 diagonal on every B_n and on
    # every B^op_n, and the vertex pieces partition the coordinates
    op = opposite_algebra(alg)
    assert all(np.array_equal(a, b) for a, b in zip(op.deg0.idempotents, idems))
    for side in (alg, op):
        for n in range(alg.valid_from, alg.valid_through + 1):
            covered = np.zeros(alg.dim(n), dtype=int)
            for v, e in enumerate(idems):
                lm = side.left_mult_matrix(0, e, n)
                diag = lm.diagonal()
                assert np.array_equal(lm, np.diag(diag)) and set(diag) <= {0, 1}
                assert np.array_equal(side.support(v, n), np.flatnonzero(diag))
                covered[side.support(v, n)] += 1
            assert (covered == 1).all()


def test_paper_b_is_in_a_peirce_basis_gf13(X):
    B = EndoAlgebra(X, SMALL)
    assert_peirce(B)
    assert [np.flatnonzero(e)[0] for e in B.algebra.deg0.idempotents] == [0, 2, 4, 6, 8]


def test_end_of_a_plus_x1_is_in_a_peirce_basis_qq(B_qq):  # noqa: F811
    B, _ = B_qq
    assert_peirce(B)
    assert len(B.algebra.deg0.idempotents) == 2 and B.algebra.deg0.radical_basis.shape[1] == 1


def test_left_side_of_b_resolves_b0_in_two_steps(X):
    """B^op's vertex pieces are the column blocks of B's Peirce basis; the
    resolution of B_0 over B^op and its Ext into B^op."""
    Bop = opposite_algebra(EndoAlgebra(X, SMALL).algebra)
    res, ext, ok, seen = _as_ext(Bop, 2, 1, 2, SMALL)
    assert [res.steps[i].rank for i in range(3)] == [5, 7, 8]
    assert ext == {0: {}, 1: {}, 2: {-1: 9}} and ok and seen
    assert res.terminated_at == 2


def test_endo_of_a_sum_whose_b0_does_not_split_reads_dimensions_only(tmp_path, capsys):
    """End(AF + AF)_0 = M_2(k) has no primitive idempotents over k that
    findim can find, so re-basing raises NonSplit; `ncg endo` reads only
    dimensions and passes."""
    text = EXAMPLE_WORKSPACE + '\n[module Y]\nkind = "sum"\nof = "AF, AF"\n'
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(text)
    assert main(["endo", "Y", "--window=-3,3,2,4", "-w", str(wsfile)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == {"-3": 0, "-2": 0, "-1": 0, "0": 4, "1": 12, "2": 20, "3": 28, "4": 36}
    B = EndoAlgebra(parse_workspace(text).module("Y"), SMALL)
    with pytest.raises(NonSplit):
        B.algebra.mult_tensor(0, 1)


def test_a_vertex_piece_outside_a_peirce_basis_is_a_typed_error():
    """k x k in the basis 1, e_2: left multiplication by e_2 sends both
    basis elements to e_2, which is no 0/1 diagonal."""
    field = Field(13)
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 1] = 1
    alg = TabulatedAlgebra(field, {0: 2}, lambda d1, d2: t, lambda: np.array([1, 0]),
                           valid_from=0, valid_through=0, generated_through=0)
    assert [list(e) for e in alg.deg0.idempotents] == [[1, 12], [0, 1]]
    assert list(alg.support(None, 0)) == [0, 1]
    with pytest.raises(NotPeirce):
        ProjFree(alg, [(1, 0)]).dim(0)
