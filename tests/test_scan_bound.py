"""The relation scan of an extracted presentation stops at top + a, where top
is the module's highest nonzero degree and the algebra is generated in
degrees <= a.  The oracle is the full scan, through the module's validity,
of the same cover: both must find the same relations, of the same degrees
and with the same images."""

import numpy as np
import pytest

from ncgraded import algebra as algebra_mod
from ncgraded import linalg
from ncgraded.algebra import PresentedAlgebra
from ncgraded.cli import example_workspace
from ncgraded.endo import b0_module
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.gmodule import opposite_algebra, shift_module
from ncgraded.projfree import GradedModule, syzygy
from ncgraded.scalars import QQ, Field

MAX_DEG = 6


def _algebra(field, names, degrees, rels):
    gens = Gens(names, degrees)
    return PresentedAlgebra(Presentation(field, gens, tuple(parse_poly(r, gens, field) for r in rels),
                                         MonomialOrder(gens, tuple(range(len(names))))), MAX_DEG)


def _paper_A(field):
    """The paper's A = S / (x^2 + y^2), with S = k<x,y,z> / (xy + yx - z^2, xz + zx, yz + zy)."""
    return _algebra(field, ("x", "y", "z"), (1, 1, 1),
                    ["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y", "x^2 + y^2"])


def _weighted(field):
    """k[x, y, z] with z in degree 2: its k needs a relation of degree 2."""
    return _algebra(field, ("x", "y", "z"), (1, 1, 2), ["x*y - y*x", "x*z - z*x", "y*z - z*y"])


def _two_degrees(field):
    """A / A_{>=2}, extracted: nonzero in degrees 0 and 1."""
    A = _paper_A(field)
    return GradedModule(A, {0: A.dim(0), 1: A.dim(1)}, A.mult_tensor, 0, A.valid_through)


MODULES = {
    "k over A": lambda field: b0_module(_paper_A(field)),
    "k over A^op": lambda field: b0_module(opposite_algebra(_paper_A(field))),
    "k over a degree-2 generator": lambda field: b0_module(_weighted(field)),
    "k(-2) over A": lambda field: shift_module(b0_module(_paper_A(field)), -2),
    "A / A_{>=2}": _two_degrees,
}


@pytest.mark.parametrize("name", list(MODULES))
@pytest.mark.parametrize("field", [Field(13), QQ], ids=["GF(13)", "QQ"])
def test_bounded_relation_scan_matches_the_full_scan(field, name):
    M = MODULES[name](field)
    P = M.presentation()
    top = max(d for d in range(M.valid_from, M.valid_to + 1) if M.dim(d))
    assert top + M.algebra.generated_through < M.valid_to  # the bound cuts the scan short
    want = syzygy(P.cover, lambda d: linalg.nullspace(field, P.cover_mats[d]),
                  range(M.valid_from, M.valid_to + 1))
    got = P.rel
    assert got is not None and want is not None
    assert got.source.summands == want.source.summands  # connected: every eps is None
    assert len(got.images) == len(want.images)
    assert all(np.array_equal(u, v) for u, v in zip(got.images, want.images))


def test_relation_degrees_follow_the_generators():
    degrees = {name: [g for _, g in MODULES[name](Field(13)).presentation().rel.source.summands]
               for name in MODULES}
    assert degrees == {"k over A": [1, 1, 1], "k over A^op": [1, 1, 1],
                       "k over a degree-2 generator": [1, 1, 2], "k(-2) over A": [3, 3, 3],
                       "A / A_{>=2}": [2] * 5}


def test_k_reads_two_multiplication_tensors(monkeypatch):
    A = example_workspace(max_deg=12).algebra("A")
    read = []
    mult = algebra_mod.PresentedAlgebra.mult_tensor
    monkeypatch.setattr(algebra_mod.PresentedAlgebra, "mult_tensor",
                        lambda self, d1, d2: read.append((d1, d2)) or mult(self, d1, d2))
    b0_module(A).presentation()
    assert set(read) == {(0, 0), (1, 0)}
