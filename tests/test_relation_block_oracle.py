"""The relation blocks of eval_iso_check against the Kronecker construction
they replaced.

The oracle writes kron(C, I) into the rows of Hom(X, M(a+e))_0 (x) X_{d-a-e}
and subtracts kron(I, beta_k), one k after another, from the rows of
Hom(X, M(a))_0 (x) X_{d-a}, then reduces the whole block.  eval_iso_check
gives each block as its nonzero entries (row, column, value); every block it
builds on the example is densified and compared whole: those with e = 0,
whose two row slices are the same, and those with e > 0."""

from fractions import Fraction

import numpy as np
import pytest

from ncgraded import homology, linalg
from ncgraded.cli import EXAMPLE_WORKSPACE, parse_workspace
from ncgraded.homology import Window, eval_iso_check


def oracle_relation_block(field, total, rows_a, rows_ae, C, betas):
    na, nb = C.shape[1] // len(betas), betas[0].shape[1]
    block = linalg.zeros(field, total, C.shape[1] * nb)
    block[rows_ae] += np.kron(C, linalg.eye(field, nb))
    block[rows_a] -= np.concatenate([np.kron(linalg.eye(field, na), b) for b in betas], axis=1)
    return linalg.reduce(field, block)


def _example(field_name):
    """X = AF + X1 + X2 and the modules AF, X1, X2 of the example over
    field_name (X3 and X4 need a square root of -1, which QQ lacks)."""
    blocks = [b for b in EXAMPLE_WORKSPACE.split("\n\n")
              if not b.startswith(("[module X3]", "[module X4]"))]
    text = "\n\n".join(blocks).replace('"AF, X1, X2, X3, X4"', '"AF, X1, X2"')
    ws = parse_workspace(text.replace('"GF(13)"', f'"{field_name}"'), max_deg=5)
    return ws.module("X"), [ws.module(n) for n in ("AF", "X1", "X2")]


@pytest.mark.parametrize("field_name", ["GF(13)", "QQ"])
def test_relation_blocks_match_kronecker_oracle(monkeypatch, field_name):
    built = homology._relation_entries
    kinds = {"e = 0": 0, "e > 0": 0}

    def checked(field, rows_a, rows_ae, C, betas):
        rows, cols, vals = built(field, rows_a, rows_ae, C, betas)
        # rows past both slices are zero in the oracle
        total = max(rows_a.stop, rows_ae.stop)
        want = oracle_relation_block(field, total, rows_a, rows_ae, C, betas)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)  # one entry a place
        assert all(v != 0 for v in vals.tolist())
        got = linalg.zeros(field, *want.shape)
        got[rows, cols] = vals
        assert np.array_equal(got, want)
        if vals.dtype == object:
            assert all(type(v) is Fraction for v in vals)
        else:
            assert vals.dtype == np.int64
        kinds["e = 0" if rows_a == rows_ae else "e > 0"] += 1
        return rows, cols, vals

    monkeypatch.setattr(homology, "_relation_entries", checked)
    X, targets = _example(field_name)
    for M in targets:
        eval_iso_check(X, M, Window(0, 2, 2, 4))
    assert all(kinds.values()), kinds
