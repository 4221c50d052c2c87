"""eval_iso_check against the dense construction it replaced.

The oracle builds the whole Kronecker relation matrix of T_d, checks the
balance as one product ev @ rel and takes linalg.rank of rel; the library
never builds that matrix.  Every report must agree field for field."""

import numpy as np
import pytest

from ncgraded import gmodule, linalg
from ncgraded.cli import EXAMPLE_WORKSPACE, parse_workspace
from ncgraded.freealg import parse_poly
from ncgraded.gmodule import compose_hom, cyclic_module, direct_sum, hom_basis, shift_module
from ncgraded.homology import Window, eval_iso_check

WINDOWS = (Window(0, 2, 2, 4), Window(-2, 2, 2, 4))


def _stacked(field, homs):
    """The stacked generator images of the homs, one column each."""
    return np.stack([h.stacked() for h in homs], axis=1) if homs else linalg.zeros(field, 0, 0)


def oracle_eval_iso(X, M, window):
    field = M.field
    report = {"window": window.tag(), "degrees": {}, "verdict": True}
    a_lo = M.valid_from
    for d in range(max(window.internal_lo, M.valid_from), min(window.internal_hi, M.valid_to) + 1):
        a_hi = min(d - X.valid_from, M.valid_to)
        homs = {a: hom_basis(X, M, a) for a in range(a_lo, a_hi + 1)
                if X.valid_from <= d - a <= X.valid_to}
        off, total = {}, 0
        for a in homs:
            off[a] = total
            total += len(homs[a]) * X.dim(d - a)
        terms = [(a, e, hom_basis(X, X, e)) for a in homs for e in range(0, a_hi - a + 1)
                 if X.valid_from <= d - a - e <= X.valid_to and X.dim(d - a - e)]
        rel = linalg.zeros(field, total, sum(len(homs[a]) * len(bb) * X.dim(d - a - e)
                                             for a, e, bb in terms))
        col = 0
        for a, e, bb in terms:
            na, nb = len(homs[a]), X.dim(d - a - e)
            C = gmodule.hom_coords(field, homs[a + e], _stacked(
                field, [compose_hom(beta, f) for beta in bb for f in homs[a]]))
            rows_ae = slice(off[a + e], off[a + e] + len(homs[a + e]) * nb)
            rows_a = slice(off[a], off[a] + na * X.dim(d - a))
            for k, beta in enumerate(bb):
                cols = slice(col, col + na * nb)
                rel[rows_ae, cols] += np.kron(C[:, k * na : (k + 1) * na], linalg.eye(field, nb))
                rel[rows_a, cols] -= np.kron(linalg.eye(field, na), beta.matrix(d - a - e))
                col += na * nb
        rel = linalg.reduce(field, rel)
        ev = np.concatenate([linalg.zeros(field, M.dim(d), 0)]
                            + [h.matrix(d - a) for a in homs for h in homs[a]], axis=1)
        rk_rel = linalg.rank(field, rel)
        rk_ev = linalg.rank(field, ev)
        bal = not np.count_nonzero(linalg.matmul(field, ev, rel))
        ok = bal and rk_ev == M.dim(d) and (total - rk_rel) == rk_ev
        report["degrees"][d] = {
            "tensor_dim": total, "relation_rank": rk_rel,
            "quotient_dim": total - rk_rel, "module_dim": M.dim(d), "bijective": ok,
        }
        if not ok:
            report["verdict"] = False
    return report


def _modules(field_name, max_deg):
    """(sources X, targets M) of the example over field_name.  X3 and X4 need
    a square root of -1, so over QQ they are left out; so is X1(1), which
    starts in degree -1 (the two GF(13) windows differ on it) and whose
    degree 2 is slow over QQ."""
    qq = field_name == "QQ"
    names = ("AF", "X1", "X2") if qq else ("AF", "X1", "X2", "X3", "X4")
    drop = {"[module X]"} | ({"[module X3]", "[module X4]"} if qq else set())
    text = "\n\n".join(b for b in EXAMPLE_WORKSPACE.split("\n\n") if b.split("\n")[0] not in drop)
    ws = parse_workspace(text.replace('"GF(13)"', f'"{field_name}"'), max_deg=max_deg)
    A = ws.algebra("A")
    mods = {n: ws.module(n) for n in names}
    mods["k"] = cyclic_module(A, [parse_poly(g, A.gens, ws.field) for g in "xyz"], max_deg)
    sources = {"X": direct_sum([mods[n] for n in names]), "X1": mods["X1"],
               "X1+X2": direct_sum([mods["X1"], mods["X2"]])}
    if "X3" in mods:
        sources["X'"] = direct_sum([mods[n] for n in ("AF", "X1", "X2", "X3")])
    targets = mods if qq else dict(mods, **{"X1(1)": shift_module(mods["X1"], 1)})
    return sources, targets


@pytest.fixture(scope="module")
def gf13():
    return _modules("GF(13)", 5)


@pytest.fixture(scope="module")
def qq():
    return _modules("QQ", 5)


@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: w.tag())
def test_reports_match_dense_oracle_gf13(gf13, window):
    sources, targets = gf13
    verdicts = set()
    for X in sources.values():
        for M in targets.values():
            rep = eval_iso_check(X, M, window)
            assert rep == oracle_eval_iso(X, M, window)
            verdicts.add(rep["verdict"])
    assert verdicts == {True, False}


def test_reports_match_dense_oracle_qq(qq):
    sources, targets = qq
    window = WINDOWS[0]
    for X in sources.values():
        for M in targets.values():
            assert eval_iso_check(X, M, window) == oracle_eval_iso(X, M, window)


def test_unbalanced_relations_match_oracle(monkeypatch):
    """Corrupt the coordinates of f o beta whenever f o beta lies in degree
    2: those relations no longer die under evaluation, which only degree 2
    of the window sees.  The fast path must then give up the free rows and
    agree with the oracle."""
    window = WINDOWS[0]

    def run():
        sources, targets = _modules("GF(13)", 5)
        X, M = sources["X1+X2"], targets["X1"]
        return eval_iso_check(X, M, window), oracle_eval_iso(X, M, window)

    clean, clean_oracle = run()
    assert clean == clean_oracle and clean["verdict"] is True

    coords = gmodule.hom_coords

    def corrupted(field, basis, rhs):
        out = coords(field, basis, rhs)
        if out.size and basis[0].s == 2:  # the composites lie where the basis does
            out = out.copy()
            out[0, 0] = field.add(out[0, 0], field.one)
        return out

    monkeypatch.setattr(gmodule, "hom_coords", corrupted)
    rep, oracle = run()
    assert rep == oracle
    assert [rep["degrees"][d]["bijective"] for d in (0, 1, 2)] == [True, True, False]
    assert rep["degrees"][2]["relation_rank"] != clean["degrees"][2]["relation_rank"]
