"""The benchmark's workloads: seeded inputs, the tasks a user would run on
them, and the check of every task's output against `oracles`.

A workload object is built from a seed (that is the benchmark's input
generation) and hands out one round of tasks at a time.  Every round holds
the same tasks, so a round is the unit of work behind `wall_s`; each task
builds its own algebras and modules, so nothing computed in one task is
reused by the next.

Library calls go through module attributes (`cli.main`, `koszul.quadratic_dual`)
so that the tracer's replacements are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import numpy as np

from ncgraded import algebra, cli, freealg, gbasis, koszul, scalars
from ncgraded.homology import Window

import oracles
from oracles import expect

# primes = 1 mod 4 (the fixture needs a square root of -1), each checked to
# pass all eleven verify-example checks in PaperExample.WINDOW
FIXTURE_PRIMES = (13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113)


class Task:
    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run      # () -> output; the timed part
        self.check = check  # output -> None, raises oracles.Mismatch


# ---------------------------------------------------------------------------
# paper-example: the paper's full pipeline, one verify-example per task
# ---------------------------------------------------------------------------


class PaperExample:
    """`cli.verify_example(cli.example_workspace(p))` over GF(p).

    The window is narrowed from the default (-6..6, cap 8), which takes
    about 114 s per task, to the smallest one in which all eleven checks
    still pass with the paper's numbers: internal degrees -3..3 (the
    pairwise non-isomorphism check tries shifts -3..3), Ext up to 2, and
    algebra degree cap 4 (B_0..B_3 = 9, 27, 45, 63 need cap >= 3, the
    Gorenstein resolution of k needs 4).
    """

    name = "paper-example"
    min_rounds = 1
    WINDOW = (-3, 3, 2, 4)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        self.p = rng.choice(FIXTURE_PRIMES)
        self.iso_seed = rng.randrange(1 << 16)
        self.fixture = oracles.PaperFixture(self.p)

    def inputs(self):
        return {"p": self.p, "iso_seed": self.iso_seed, "window": self.WINDOW}

    def round_tasks(self):
        def run():
            ws = cli.example_workspace(self.p, window=Window(*self.WINDOW))
            return cli.verify_example(ws, seed=self.iso_seed)

        def check(rep):
            oracles.check_paper_report(rep, self.p, self.fixture)

        return [Task(f"verify-example p={self.p}", run, check)]


# ---------------------------------------------------------------------------
# presentations: Groebner completion and multiplication tables
# ---------------------------------------------------------------------------


class Presentations:
    """Sklyanin-type algebras k<x,y,z>/(a xy + b yx + c z^2 and cyclic shifts),
    half over GF(p) and half over QQ.  Per algebra: completion through
    degree D, the Hilbert series, TENSORS, and the quadratic dual with its
    dimensions."""

    name = "presentations"
    min_rounds = 1
    D = 6
    DUAL_D = 4
    TENSORS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))
    PRIMES = (10007, 32003)
    PER_FIELD = 8
    NF_SAMPLES = 6

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        p = rng.choice(self.PRIMES)
        self.algebras = ([(p, self._coeffs(rng, p)) for _ in range(self.PER_FIELD)]
                         + [(None, self._coeffs(rng, None)) for _ in range(self.PER_FIELD)])
        self.samples = [self._word_pairs(rng) for _ in self.algebras]
        self._dims = {}

    @staticmethod
    def _coeffs(rng, p):
        while True:
            if p:
                abc = tuple(rng.randrange(1, p) for _ in range(3))
            else:
                abc = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))
                            for _ in range(3))
            if oracles.sklyanin_nondegenerate(abc, p):
                return abc

    def _word_pairs(self, rng):
        pairs = []
        for _ in range(self.NF_SAMPLES):
            lu = rng.randint(1, self.D - 1)
            lv = rng.randint(1, self.D - lu)
            pairs.append((tuple(rng.randrange(3) for _ in range(lu)),
                          tuple(rng.randrange(3) for _ in range(lv))))
        return pairs

    def inputs(self):
        return [{"field": f"GF({p})" if p else "QQ", "abc": [str(c) for c in abc]}
                for p, abc in self.algebras]

    def round_tasks(self):
        return [Task(f"sklyanin #{k} over {'GF(%d)' % p if p else 'QQ'}",
                     lambda p=p, abc=abc: self.run(p, abc),
                     lambda out, k=k: self.check(k, out))
                for k, (p, abc) in enumerate(self.algebras)]

    def run(self, p, abc) -> dict:
        field = scalars.Field(p)
        gens = freealg.Gens(("x", "y", "z"), (1, 1, 1))
        rels = tuple(freealg.NcPoly(gens, field, r) for r in oracles.sklyanin_relations(abc, p))
        pres = gbasis.Presentation(field, gens, rels, freealg.MonomialOrder(gens, (0, 1, 2)))
        A = algebra.build_presented_algebra(pres, self.D)
        series = algebra.hilbert_series(A, self.D)
        tensors = {k: A.mult_tensor(*k) for k in self.TENSORS}
        dual = koszul.quadratic_dual(pres)
        dual_alg = algebra.build_presented_algebra(dual, self.DUAL_D)
        return {"algebra": A, "dims": list(series.coeffs), "tensors": tensors,
                "dual": dual, "dual_dims": [dual_alg.dim(d) for d in range(self.DUAL_D + 1)]}

    def check(self, k: int, out: dict):
        p, abc = self.algebras[k]
        rels = oracles.sklyanin_relations(abc, p)
        if k not in self._dims:
            self._dims[k] = oracles.quotient_dims(rels, p, 4)
        dims = out["dims"]
        expect(dims[:5] == self._dims[k], f"dims {dims[:5]} != row reduction {self._dims[k]}")
        expect(dims == oracles.polynomial_ring_dims(self.D), f"dims {dims} != 1/(1-t)^3")
        self._check_normal_forms(out["algebra"], k)
        check_associative(out["tensors"], p)
        dual_rels = [r.terms for r in out["dual"].relations]
        r_rank = oracles.rank([{oracles.word_index(w): c for w, c in r.items()} for r in rels], p)
        expect(r_rank + len(dual_rels) == 9, f"dim R + dim R-perp = {r_rank} + {len(dual_rels)}")
        for rd in dual_rels:
            for r in rels:
                expect(not oracles.canon(sum(c * rd.get(w, 0) for w, c in r.items()), p),
                       "dual relation not orthogonal to R")
        expect(out["dual_dims"] == [1, 3, 3, 1, 0], f"dual dims {out['dual_dims']}")

    def _check_normal_forms(self, A, k: int):
        nf = A.gb.normal_form
        for u, v in self.samples[k]:
            fu = nf(freealg.NcPoly.word(A.gens, A.field, u))
            fv = nf(freealg.NcPoly.word(A.gens, A.field, v))
            fuv = nf(freealg.NcPoly.word(A.gens, A.field, u + v))
            expect(nf(fuv) == fuv, f"normal form of {u + v} is not idempotent")
            expect(nf(fu * fv) == fuv, f"normal form not multiplicative on {u}, {v}")


def check_associative(T: dict, p):
    """(ab)c = a(bc) on basis elements, for every triple of degrees the tensors cover."""
    if p:
        for t in T.values():
            expect(t.min() >= 0 and t.max() < p, "tensor entries not reduced mod p")
    for d1, d2, d3 in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)):
        left = np.tensordot(T[(d1, d2)], T[(d1 + d2, d3)], axes=(2, 0))
        right = np.tensordot(T[(d1, d2 + d3)], T[(d2, d3)], axes=(1, 2)).transpose(0, 2, 3, 1)
        diff = left - right
        if p:
            diff %= p
        expect(not np.any(diff != 0), f"mult_tensor not associative in degrees {(d1, d2, d3)}")


# ---------------------------------------------------------------------------
# cli-queries: many short ncg commands, each building its own workspace
# ---------------------------------------------------------------------------


def fixture_text(p) -> str:
    """The paper fixture as a workspace file over GF(p), or over QQ without
    X3, X4 (their generators need a square root of -1)."""
    text = cli.EXAMPLE_WORKSPACE
    if p:
        return text.replace('"GF(13)"', f'"GF({p})"').replace("5*z", f"{oracles.sqrt_minus_one(p)}*z")
    blocks = [b for b in text.replace('"GF(13)"', '"QQ"').split("\n\n")
              if not b.startswith(("[module X3]", "[module X4]"))]
    text = "\n\n".join(blocks).replace('"AF, X1, X2, X3, X4"', '"AF, X1, X2"')
    expect('"QQ"' in text and "X3" not in text and '"AF, X1, X2"' in text,
           "the fixture layout changed; cannot derive the QQ workspace")
    return text


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, buf.getvalue()


class CliQueries:
    """ncg commands in-process against generated .nws files: two GF(p)
    fixtures and one QQ fixture, with small truncation degrees."""

    name = "cli-queries"
    min_rounds = 3
    INTERNAL = (-2, 2)
    GF_FLAGS = ("--max-deg", "6", "--window=-2,2,2,4")
    QQ_FLAGS = ("--max-deg", "4", "--window=-2,2,2,3")
    WORKSPACES = 2

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        os.makedirs(workdir, exist_ok=True)
        self.commands = []
        for p in rng.sample(FIXTURE_PRIMES, self.WORKSPACES) + [None]:
            path = os.path.join(workdir, f"fixture_{p or 'qq'}.nws")
            with open(path, "w") as fh:
                fh.write(fixture_text(p))
            fixture = oracles.PaperFixture(p)
            if p:
                self.commands += self._gf_commands(rng, path, fixture)
            else:
                self.commands += self._qq_commands(rng, path, fixture)
        rng.shuffle(self.commands)

    def inputs(self):
        return [task.label for task in self.round_tasks()]

    def round_tasks(self):
        return [Task(" ".join(argv[:-5]) + " @" + os.path.basename(argv[-4]),
                     lambda argv=argv: run_cli(argv), check)
                for argv, check in self.commands]

    def _gf_commands(self, rng, path, fx):
        # the module-specific commands run on every module, so that the
        # seed changes the inputs but hardly the work
        i, j = rng.sample(range(1, 5), 2)
        jj = rng.choice((i, j))
        hom_degrees = [rng.randrange(0, 3) for _ in range(4)]
        shift = rng.randrange(-2, 3)
        D = int(self.GF_FLAGS[1])
        cap = int(self.GF_FLAGS[2].split(",")[-1])
        cmds = [
            (["hilbert", "A", "--match", "(1+t)/(1-t)^2"],
             _report(0, lambda r: expect(r["coeffs"] == oracles.hilbert_A(D)
                                         and r["coeffs"][:5] == fx.dims("A", 4), "A dims"))),
            (["hilbert", "S", "--match", "1/(1-t)^3"],
             _report(0, lambda r: expect(r["coeffs"] == oracles.polynomial_ring_dims(D)
                                         and r["coeffs"][:5] == fx.dims("S", 4), "S dims"))),
            (["gb", "A"], _report(0, lambda r: expect(r["dims"] == oracles.hilbert_A(D), "gb dims"))),
            *((["hom", "AF", f"X{k}", str(s)], _hom(fx.dims, f"X{k}", s))
              for k, s in enumerate(hom_degrees, start=1)),
            (["hom", f"X{i}", f"X{jj}", "0"],
             _report(0, lambda r: expect(r["dim"] == int(i == jj), f"dim Hom(X{i}, X{jj})_0"))),
            *((["ext", f"X{k}", "AF", str(rng.randrange(1, 3))], _ext_zero) for k in range(1, 5)),
            *((["mcm", f"X{k}"], _report(0)) for k in range(1, 5)),
            *((["indec", f"X{k}"], _report(0)) for k in range(1, 5)),
            (["indec", "X"], _report(1)),
            (["iso", f"X{i}", f"X{j}", "--shift", str(shift)], _report(1)),
            (["koszul-dual", "A"], _report(0, lambda r: expect(
                r["dual_dims"] == oracles.dual_A_dims(D) and len(r["dual_relations"]) == 5,
                "quadratic dual of A"))),
            (["clifford", "A", "--central", "x^2"], _report(0, lambda r: expect(
                r["dim"] == 4 and r["checks"][1]["evidence"]["blocks"] == [1, 1, 1, 1],
                "C(A) = k^4"))),
            (["points", "A", oracles.POINT_POLYS],
             _report(0, lambda r: oracles.check_points(r["points"], fx.p))),
            (["asgorenstein", "A", "--d", "2", "--ell", "1"], _report(0)),
            (["endo", "X", "--match", "(9+9*t)/(1-t)^2"], _report(0, lambda r: expect(
                all(v == 0 for d, v in r["dims"].items() if int(d) < 0)
                and [r["dims"][str(d)] for d in range(cap + 1)] == oracles.endo_dims(cap),
                f"End(X) dims {r['dims']}"))),
            (["quiver", "X"], _report(0, _quiver)),
            *((["eval-iso", "X", f"X{n}"], _report(0)) for n in range(1, 5)),
        ]
        return [(argv + ["-w", path, *self.GF_FLAGS], check) for argv, check in cmds]

    def _qq_commands(self, rng, path, fx):
        s = rng.randrange(0, 3)
        D = int(self.QQ_FLAGS[1])
        cmds = [
            (["hilbert", "A", "--match", "(1+t)/(1-t)^2"],
             _report(0, lambda r: expect(r["coeffs"] == oracles.hilbert_A(D)
                                         and r["coeffs"] == fx.dims("A", D), "A dims over QQ"))),
            (["gb", "A"], _report(0, lambda r: expect(r["dims"] == oracles.hilbert_A(D), "gb dims"))),
            (["koszul-dual", "A"], _report(0, lambda r: expect(
                r["dual_dims"] == oracles.dual_A_dims(D), "quadratic dual of A over QQ"))),
            (["hom", "AF", "X1", str(s)], _hom(fx.dims, "X1", s)),
            (["hom", "X1", "X2", "0"], _report(0, lambda r: expect(r["dim"] == 0, "Hom(X1, X2)_0"))),
            (["ext", "X1", "AF", "1"], _ext_zero),
            (["indec", "X2"], _report(0)),
            (["iso", "X1", "X2", "--shift", str(rng.randrange(-2, 3))], _report(1)),
        ]
        return [(argv + ["-w", path, *self.QQ_FLAGS], check) for argv, check in cmds]


def _report(code: int, more=None):
    """Check the exit code, a verdict that agrees with it, and `more` on the report."""

    def check(out):
        got, stdout = out
        expect(got == code, f"exit code {got}, expected {code}: {stdout[-300:]}")
        rep = json.loads(stdout)
        expect(rep["verdict"] == ("pass", "fail")[code], f"verdict {rep['verdict']}")
        if more is not None:
            more(rep)

    return check


def _hom(dims, module: str, s: int):
    """dim Hom(A, M(s)) = dim M_s, with M_s from row reduction."""
    return _report(0, lambda r: expect(r["dim"] == dims(module, s)[s],
                                       f"dim Hom(AF, {module}({s})) = {r['dim']}"))


def _ext_zero(out):
    """Ext^i(X_k, A) = 0 for i >= 1 in every internal degree: X_k is MCM."""

    def zero(r):
        lo, hi = CliQueries.INTERNAL
        expect(sorted(int(s) for s in r["dims"]) == list(range(lo, hi + 1)), "Ext degrees")
        expect(not any(r["dims"].values()), f"Ext dims {r['dims']}")

    _report(0, zero)(out)


def _quiver(r):
    expect(r["degree_zero_dim"] == 9 and r["radical_dim"] == 4 and r["idempotents"] == 5,
           f"B0 structure {r}")
    oracles.check_sink_quiver(r["quiver"])


WORKLOADS = {w.name: w for w in (PaperExample, Presentations, CliQueries)}
