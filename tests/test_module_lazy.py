"""Modules whose pieces are built one degree at a time, on first read,
against the eager loops that built every degree through the truncation when
the module was made: a cyclic module, a free module and their sum, over
GF(13) and over QQ."""

import json

import numpy as np
import pytest

from ncgraded import algebra, cli, gmodule, linalg
from ncgraded.algebra import build_presented_algebra
from ncgraded.cli import EXAMPLE_WORKSPACE, main
from ncgraded.errors import DegreeBeyondTruncation, TruncationTooLow
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.gmodule import cyclic_cover, direct_sum, free_graded_module, module_from_cover
from ncgraded.projfree import act_rows, block_diag
from ncgraded.scalars import QQ, Field

MAX_DEG = 6
GENS = Gens(("x", "y", "z"), (1, 1, 1))
RELATIONS = ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y", "x^2 + y^2")


@pytest.fixture(scope="module", params=[Field(13), QQ], ids=["GF(13)", "QQ"])
def alg(request):
    field = request.param
    rels = tuple(parse_poly(t, GENS, field) for t in RELATIONS)
    return build_presented_algebra(Presentation(field, GENS, rels, MonomialOrder(GENS, (0, 1, 2))),
                                   MAX_DEG)


class Eager:
    """Every piece of a module with a presentation, tabulated up front."""

    def __init__(self, lo, hi, cover, dims, cover_mats, sections, act):
        self.lo, self.hi, self.cover = lo, hi, cover
        self.dims, self.cover_mats, self.sections, self.act = dims, cover_mats, sections, act


def eager_cokernel(cover, rel, lo, hi):
    """The loop that built module_from_cover whole: every degree of lo..hi
    row-reduced when the module was made."""
    field = cover.field
    dims, cover_mats, sections = {}, {}, {}
    for d in range(lo, hi + 1):
        eye = linalg.eye(field, cover.dim(d))
        span = linalg.Echelon.of(field, rel.matrix(d) if rel is not None else eye[:, :0])
        r = span.rank
        idxs = span.extend(eye)
        dims[d] = len(idxs)
        sections[d] = eye[:, idxs]
        cover_mats[d] = span.coords(eye)[r:]

    def act(d, e):
        u = act_rows(field, sections[d].T, cover.act_tensor(d, e))
        return linalg.matmul(field, u, cover_mats[d + e].T)

    return Eager(lo, hi, cover, dims, cover_mats, sections, act)


def eager_free(alg, gdegs, lo, hi):
    """(+) alg(-g): identity cover maps in every degree, and the algebra's
    multiplication tensors for its action."""
    field = alg.field
    dims = {d: sum(alg.dim(d - g) for g in gdegs) for d in range(lo, hi + 1)}
    eyes = {d: linalg.eye(field, n) for d, n in dims.items()}

    def act(d, e):
        return block_diag(field, [alg.mult_tensor(d - g, e) if d >= g else
                                  linalg.zeros(field, 0, alg.dim(e), alg.dim(d + e - g))
                                  for g in gdegs])

    return Eager(lo, hi, None, dims, eyes, eyes, act)


def eager_sum(parts, covers):
    """The loop that merged the summands' presentations in direct_sum."""
    field = covers[0].field
    lo = min(p.lo for p in parts)
    hi = min(p.hi for p in parts)
    dims, cover_mats, sections = {}, {}, {}
    for d in range(lo, hi + 1):
        dims[d] = sum(p.dims.get(d, 0) for p in parts)
        cover_mats[d] = block_diag(field, [p.cover_mats.get(d, linalg.zeros(field, p.dims.get(d, 0), c.dim(d)))
                                           for p, c in zip(parts, covers)])
        sections[d] = block_diag(field, [p.sections.get(d, linalg.zeros(field, c.dim(d), p.dims.get(d, 0)))
                                         for p, c in zip(parts, covers)])

    alg = covers[0].algebra

    def act(d, e):
        return block_diag(field, [p.act(d, e) if p.dims.get(d) and p.dims.get(d + e)
                                  else linalg.zeros(field, p.dims.get(d, 0), alg.dim(e), p.dims.get(d + e, 0))
                                  for p in parts])

    return Eager(lo, hi, None, dims, cover_mats, sections, act)


def lazy_and_eager(alg):
    """(name, lazy module, its eager oracle) for a cyclic module with two
    relations, a free module with generators in degrees 0 and 1, and the
    sum of those and a second cyclic module."""
    gens1 = [parse_poly(e, alg.gens, alg.field) for e in ("x", "y + z")]
    gens2 = [parse_poly("x - y + z", alg.gens, alg.field)]
    M1 = module_from_cover(*cyclic_cover(alg, gens1), 0, MAX_DEG)
    M2 = module_from_cover(*cyclic_cover(alg, gens2), 0, MAX_DEG)
    F = free_graded_module(alg, [0, -1], 0, MAX_DEG)
    E1 = eager_cokernel(*cyclic_cover(alg, gens1), 0, MAX_DEG)
    E2 = eager_cokernel(*cyclic_cover(alg, gens2), 0, MAX_DEG)
    EF = eager_free(alg, [0, 1], 0, MAX_DEG)
    S = direct_sum([F, M1, M2])
    ES = eager_sum([EF, E1, E2], [F, E1.cover, E2.cover])
    # the summands read fresh, before the sum reads them
    M1s = module_from_cover(*cyclic_cover(alg, gens1), 0, MAX_DEG)
    return [("cyclic", M1s, E1), ("free", F, EF), ("sum", S, ES)]


def test_every_piece_read_in_reverse_matches_the_eager_loop(alg):
    field = alg.field
    for name, M, E in lazy_and_eager(alg):
        P = M.presentation()
        assert (M.valid_from, M.valid_to) == (E.lo, E.hi), name
        # outside the window: as before, zero below and an error above;
        # the presentation's maps have no entry there
        for d in (E.lo - 1, E.hi + 1):
            for table in (P.cover_mats, P.sections):
                assert table.get(d) is None and d not in table
                with pytest.raises(KeyError):
                    table[d]
        assert M.dim(E.lo - 1) == 0
        with pytest.raises(DegreeBeyondTruncation):
            M.dim(E.hi + 1)
        for d in range(E.hi, E.lo - 1, -1):
            assert M.dim(d) == E.dims[d], (name, d)
            for got, want in ((P.cover_mats[d], E.cover_mats[d]), (P.sections[d], E.sections[d])):
                assert got.shape == want.shape and np.array_equal(got, want), (name, d)
            for e in range(E.hi - d, -1, -1):
                got = M.act_tensor(d, e)
                want = (E.act(d, e) if E.dims[d] and E.dims[d + e]
                        else linalg.zeros(field, E.dims[d], alg.dim(e), E.dims[d + e]))
                assert got.shape == want.shape and np.array_equal(got, want), (name, d, e)
        assert list(P.cover_mats) == list(range(E.lo, E.hi + 1)) and len(P.sections) == E.hi - E.lo + 1


def test_the_sum_presents_the_summands_side_by_side(alg):
    gens = [parse_poly(e, alg.gens, alg.field) for e in ("x", "y + z")]
    F = free_graded_module(alg, [0, -1], 0, MAX_DEG)
    M1 = module_from_cover(*cyclic_cover(alg, gens), 0, MAX_DEG)
    M2 = module_from_cover(*cyclic_cover(alg, gens[:1]), 0, MAX_DEG)
    P = direct_sum([F, M1, M2]).presentation()
    parts = [M.presentation() for M in (F, M1, M2)]
    assert P.cover.summands == [s for p in parts for s in p.cover.summands]
    for d in range(MAX_DEG, -1, -1):
        want = block_diag(alg.field, [p.rel.matrix(d) if p.rel is not None
                                      else linalg.zeros(alg.field, p.cover.dim(d), 0) for p in parts])
        assert np.array_equal(P.rel.matrix(d), want), d


def test_hom_from_the_free_module_reads_one_degree_of_x1(tmp_path, capsys, monkeypatch):
    """`ncg hom AF X1 0` completes A's basis only, never S's, and builds
    X1's pieces in degree 0 only: Hom(A, X1) is X1's degree-0 piece."""
    completed, built = [], []
    complete, piece = algebra.truncated_groebner, gmodule._cokernel_piece
    monkeypatch.setattr(algebra, "truncated_groebner",
                        lambda pres, D: completed.append(pres) or complete(pres, D))
    monkeypatch.setattr(gmodule, "_cokernel_piece",
                        lambda cover, rel, d: built.append(d) or piece(cover, rel, d))
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    assert main(["hom", "AF", "X1", "0", "-w", str(wsfile)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1
    assert [len(p.relations) for p in completed] == [4]  # A's: S's three and x^2 + y^2
    assert set(built) == {0}


def test_a_workspace_loads_without_completing_an_unread_algebra(monkeypatch):
    completed = []
    complete = algebra.truncated_groebner
    monkeypatch.setattr(algebra, "truncated_groebner",
                        lambda pres, D: completed.append(pres) or complete(pres, D))
    ws = cli.parse_workspace(EXAMPLE_WORKSPACE.split("[module")[0], max_deg=4)
    assert sorted(ws.algebras) == ["A", "S"] and completed == []
    assert ws.algebra("S").dim(2) == 6 and len(completed) == 1
    assert ws.algebra("S").gb is ws.algebra("S").gb and len(completed) == 1


def test_a_truncation_below_a_relation_fails_before_completion(monkeypatch):
    completed = []
    complete = algebra.truncated_groebner
    monkeypatch.setattr(algebra, "truncated_groebner",
                        lambda pres, D: completed.append(pres) or complete(pres, D))
    rels = tuple(parse_poly(t, GENS, QQ) for t in RELATIONS)
    with pytest.raises(TruncationTooLow, match="D=1 below max relation degree 2"):
        build_presented_algebra(Presentation(QQ, GENS, rels), 1)
    assert completed == []
