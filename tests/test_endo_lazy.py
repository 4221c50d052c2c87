"""End(X)'s structure tensors, each solved on its first read, against the
eager loop that solved every one of them when End(X) was built."""

import numpy as np
import pytest

from ncgraded import gmodule, linalg
from ncgraded.cli import EXAMPLE_WORKSPACE, main
from ncgraded.endo import EndoAlgebra
from ncgraded.errors import ShapeMismatch
from ncgraded.gmodule import compose_hom
from ncgraded.homology import Window

SMALL = Window(-3, 3, 2, 4)


def eager_tensors(B):
    """The loop that built End(X) whole: every pair (d1, d2) of the window
    with d1 + d2 in it, each composite formed by compose_hom and the pair
    solved at once in the basis of degree d1 + d2."""
    field = B.X.field
    lo, hi = B.algebra.valid_from, B.algebra.valid_through
    tensors = {}
    for d1 in range(lo, hi + 1):
        for d2 in range(lo, min(hi, hi - d1) + 1):
            if d1 + d2 < lo:
                continue
            b1, b2, b12 = B.bases[d1], B.bases[d2], B.bases[d1 + d2]
            if not (b1 and b2 and b12):
                tensors[(d1, d2)] = linalg.zeros(field, len(b1), len(b2), len(b12))
                continue
            rhs = np.stack([compose_hom(bj, bi).stacked() for bi in b1 for bj in b2], axis=1)
            sol = linalg.solve(field, np.stack([b.stacked() for b in b12], axis=1), rhs)
            tensors[(d1, d2)] = sol.T.reshape(len(b1), len(b2), len(b12))
    return tensors


def test_every_tensor_read_matches_the_eager_loop(X):
    B = EndoAlgebra(X, SMALL)
    alg = B.algebra
    want = eager_tensors(B)
    assert sum(t.size > 0 for t in want.values()) == 15  # d1, d2 >= 0, d1 + d2 <= 4
    # read in the reverse of the eager order, and one degree below the window
    for d1 in range(alg.valid_through, alg.valid_from - 2, -1):
        for d2 in range(min(alg.valid_through, alg.valid_through - d1), alg.valid_from - 2, -1):
            got = alg.mult_tensor(d1, d2)
            expect = want.get((d1, d2), linalg.zeros(X.field, alg.dim(d1), alg.dim(d2), alg.dim(d1 + d2)))
            assert got.shape == expect.shape and np.array_equal(got, expect), (d1, d2)


def test_only_a_read_tensor_is_solved(X, tmp_path, capsys, monkeypatch):
    calls = []
    solve = EndoAlgebra._compose_tensor

    def counted(self, d1, d2):
        calls.append((d1, d2))
        return solve(self, d1, d2)

    monkeypatch.setattr(EndoAlgebra, "_compose_tensor", counted)
    B = EndoAlgebra(X, SMALL)
    assert [B.algebra.dim(d) for d in range(-3, 5)] == [0, 0, 0, 9, 27, 45, 63, 81]
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    assert main(["endo", "X", "--window=-3,3,2,4", "-w", str(wsfile)]) == 0
    capsys.readouterr()
    assert calls == []
    t = B.algebra.mult_tensor(1, 2)
    assert calls == [(1, 2)]
    assert B.algebra.mult_tensor(1, 2) is t
    # pairs with a zero dimension, d1 + d2 below the window included
    for d1, d2 in ((-1, 2), (2, -1), (-3, -1), (-2, 0)):
        assert not B.algebra.mult_tensor(d1, d2).any()
    assert calls == [(1, 2)]


def test_a_composite_outside_the_hom_space_fails_when_read(X, monkeypatch):
    compose = gmodule.compose_images

    def corrupted(fs, gs):
        # the last rows image the generator of X4 = A / gA, which must kill g;
        # only an image in degree >= 1 can fail to (B_0's plain product, which
        # re-basing B reads first, stays right)
        out = compose(fs, gs).copy()
        if fs[0].s + gs[0].s > 0:
            out[-1, 0, 0] = X.field.add(out[-1, 0, 0], X.field.one)
        return out

    monkeypatch.setattr(gmodule, "compose_images", corrupted)
    B = EndoAlgebra(X, SMALL)
    with pytest.raises(ShapeMismatch, match="left the computed hom space"):
        B.algebra.mult_tensor(1, 1)
