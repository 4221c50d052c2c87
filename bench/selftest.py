"""Self-tests of the benchmark: checkers, tracer and input generation.

    python3 -m pytest -q bench/selftest.py

Not collected by a plain `pytest` run (the file name does not match
test_*.py); it takes a few seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from oracles import Mismatch  # noqa: E402


# ---------------------------------------------------------------------------
# the checkers reject wrong answers
# ---------------------------------------------------------------------------


def paper_report(p=13):
    """A report with the paper's numbers, shaped like cli.verify_example's."""
    i = oracles.sqrt_minus_one(p)
    ev = {
        "hilbert-series": {"S": oracles.polynomial_ring_dims(8), "A": oracles.hilbert_A(8)},
        "clifford-k4": {"dim": 4, "blocks": [1, 1, 1, 1], "dual_dims": [1, 3, 4, 4, 4]},
        "point-count": {"count": 4, "points": [[i, i, 1], [p - i, p - i, 1], [1, p - 1, 1],
                                               [p - 1, 1, 1]]},
        "endo-hilbert-series": {"coeffs": oracles.endo_dims(4)},
        "degree-zero-structure": {
            "dim": 9, "radical_dim": 4, "idempotents": 5,
            "quiver": {"vertices": [f"v{k}" for k in range(5)],
                       "arrows": [{"src": f"v{k}", "dst": "v0", "mult": 1} for k in range(1, 5)]}},
    }
    checks = [{"check": c, "verdict": "pass", "evidence": ev.get(c, {})}
              for c in oracles.PAPER_CHECKS]
    return {"command": "verify-example", "inputs": {"p": p, "seed": 0}, "checks": checks,
            "verdict": "pass"}


def test_paper_checker_accepts_the_paper_numbers():
    oracles.check_paper_report(paper_report(), 13, oracles.PaperFixture(13))


@pytest.mark.parametrize("corrupt", [
    lambda r: r["checks"][5].update(verdict="fail"),
    lambda r: r["checks"][7]["evidence"]["coeffs"].__setitem__(2, 44),
    lambda r: r["checks"][8]["evidence"].update(radical_dim=3),
    lambda r: r["checks"][8]["evidence"]["quiver"]["arrows"][0].update(dst="v2"),
    lambda r: r["checks"][3]["evidence"].update(blocks=[1, 1, 2]),
    lambda r: r["checks"][4]["evidence"]["points"][0].__setitem__(2, 2),
    lambda r: r["checks"][0]["evidence"]["A"].__setitem__(3, 8),
    lambda r: r["checks"].pop(),
])
def test_paper_checker_flags_wrong_answers(corrupt):
    rep = paper_report()
    corrupt(rep)
    with pytest.raises(Mismatch):
        oracles.check_paper_report(rep, 13, oracles.PaperFixture(13))


@pytest.fixture(scope="module")
def presentations():
    wl = workloads.Presentations(7, "")
    k = wl.PER_FIELD  # first algebra over QQ
    task = wl.round_tasks()[0], wl.round_tasks()[k]
    return wl, [(t, t.run()) for t in task]


def test_presentations_checker_accepts_real_outputs(presentations):
    _, done = presentations
    for task, out in done:
        task.check(out)


@pytest.mark.parametrize("corrupt", [
    lambda o: o["dims"].__setitem__(3, o["dims"][3] + 1),
    lambda o: o["dual_dims"].__setitem__(2, 4),
    lambda o: o["tensors"][(1, 2)].__setitem__((0, 1, 2), o["tensors"][(1, 2)][0, 1, 2] + 1),
    lambda o: o.update(dual=type("P", (), {"relations": o["dual"].relations[:-1]})()),
])
def test_presentations_checker_flags_wrong_answers(presentations, corrupt):
    _, done = presentations
    for task, out in done:
        bad = dict(out, dims=list(out["dims"]), dual_dims=list(out["dual_dims"]),
                   tensors={k: v.copy() for k, v in out["tensors"].items()})
        corrupt(bad)
        with pytest.raises(Mismatch):
            task.check(bad)


def test_associativity_check_flags_a_wrong_product():
    t = {k: np.zeros((3 ** k[0], 3 ** k[1], 3 ** (k[0] + k[1])), dtype=np.int64)
         for k in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))}
    workloads.check_associative(t, 13)
    t[(1, 1)][0, 0, 0] = 1
    t[(2, 1)][0, 0, 0] = 1
    with pytest.raises(Mismatch):
        workloads.check_associative(t, 13)


@pytest.fixture(scope="module")
def cli_queries(tmp_path_factory):
    return workloads.CliQueries(3, str(tmp_path_factory.mktemp("cli")))


def _find(wl, prefix):
    return next((argv, check) for argv, check in wl.commands if " ".join(argv).startswith(prefix))


@pytest.mark.parametrize("prefix", ["indec X -w", "hom AF", "iso ", "quiver X", "ext "])
def test_cli_checker_accepts_real_outputs(cli_queries, prefix):
    argv, check = _find(cli_queries, prefix)
    check(workloads.run_cli(argv))


def _edit(out, **changes):
    code, stdout = out
    rep = json.loads(stdout)
    rep.update(changes)
    return code, json.dumps(rep)


@pytest.mark.parametrize("prefix, corrupt", [
    ("indec X -w", lambda out: (0, out[1])),                       # exit code flipped
    ("indec X -w", lambda out: _edit(out, verdict="pass")),       # verdict flipped
    ("iso ", lambda out: (0, out[1].replace('"fail"', '"pass"'))),
    ("hom AF", lambda out: _edit(out, dim=json.loads(out[1])["dim"] + 1)),
    ("ext ", lambda out: _edit(out, dims={**json.loads(out[1])["dims"], "1": 1})),
    ("quiver X", lambda out: _edit(out, radical_dim=5)),
    ("points A", lambda out: _edit(out, points=json.loads(out[1])["points"][:3])),
    ("endo X", lambda out: _edit(out, dims={**json.loads(out[1])["dims"], "2": 44})),
])
def test_cli_checker_flags_wrong_answers(cli_queries, prefix, corrupt):
    argv, check = _find(cli_queries, prefix)
    with pytest.raises(Mismatch):
        check(corrupt(workloads.run_cli(argv)))


def test_brute_force_dims_of_the_fixture():
    fx = oracles.PaperFixture(13)
    assert fx.dims("S", 4) == [1, 3, 6, 10, 15]
    assert fx.dims("A", 4) == [1, 3, 5, 7, 9]
    assert fx.dims("X3", 3) == [1, 2, 3, 4]
    assert oracles.PaperFixture(None).dims("X1", 3) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_self_time_on_a_nested_span_tree():
    #  0 [0, 10]
    #  +- 1 [1, 4]
    #  |  +- 2 [2, 3]
    #  +- 3 [5, 9]
    #     +- 4 [6, 7]  +- 5 [7, 8.5]
    start = np.array([0, 1, 2, 5, 6, 7], dtype=float)
    end = np.array([10, 4, 3, 9, 7, 8.5])
    parent = np.array([-1, 0, 1, 0, 3, 3], dtype=np.int32)
    own = tracer_mod.self_times(end - start, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    assert own.sum() == 10.0


def test_layer_metrics_from_recorded_spans():
    t = tracer_mod.Tracer()
    for name, s, e, par in (("gmodule.hom_basis", 0.0, 4.0, -1), ("linalg.rref", 1.0, 2.0, 0),
                            ("linalg.rref", 2.5, 3.0, 0), ("cli.parse_workspace", 5.0, 6.0, -1)):
        t.name.append(t._id(name))
        t.start.append(s)
        t.end.append(e)
        t.parent.append(par)
        t.task.append(0)
    t.rounds["spans"] = 2
    t.counts["scalars.op_calls"] = 30  # recorded in a single count round
    t.rounds["counts"] = 1
    m = tracer_mod.layer_metrics(t)
    assert m["gmodule.hom_basis_s"]["value"] == pytest.approx(2.5 / 2)
    assert m["linalg.rref_s"]["value"] == pytest.approx(1.5 / 2)
    assert m["linalg.rref_calls"]["value"] == 1.0
    assert m["cli.workspace_build_s"]["value"] == pytest.approx(0.5)
    assert m["scalars.op_calls"]["value"] == 30


def test_tracer_wraps_every_import_site_and_restores_them():
    from ncgraded import endo, findim, gmodule, homology

    orig = gmodule.hom_basis
    assert endo.hom_basis is orig and homology.hom_basis is orig
    t = tracer_mod.Tracer()
    with t:
        for mod in (gmodule, endo, homology):
            assert mod.hom_basis is not orig and mod.hom_basis.__wrapped__ is orig
        assert endo._findim_quiver.__wrapped__ is findim.gabriel_quiver.__wrapped__
    assert gmodule.hom_basis is orig and endo.hom_basis is orig and homology.hom_basis is orig


def test_traced_calls_count_repeats_by_identity():
    from ncgraded import cli

    t = tracer_mod.Tracer()
    t.begin_task(0)
    ws = cli.example_workspace(13, max_deg=4)
    X1, AF = ws.module("X1"), ws.module("AF")
    with t:
        from ncgraded import homology

        homology.hom_space(X1, AF, 1, ws.window)
        homology.hom_space(X1, AF, 1, ws.window)
    assert t.counts["gmodule.hom_basis_calls"] == 2
    assert t.counts["gmodule.hom_basis_repeats"] == 1
    assert t.counts["linalg.rref_cells"] > 0 and "scalars.op_calls" not in t.counts
    t.install("counts")
    try:
        homology.hom_space(X1, AF, 1, ws.window)
    finally:
        t.uninstall()
    assert t.counts["scalars.op_calls"] > 0 and t.counts["gmodule.hom_basis_calls"] == 2


def test_reference_speed_scales_round_times():
    rnd = worker.Round(None)
    rnd.ref.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3 * worker.REF_INTERVAL_S:
        pass
    rnd.ref.stop()
    assert rnd.ref.slices >= 2 and rnd.ref.wall > 0
    speed = rnd.speed
    rnd.ref.wall *= 2  # twice as slow a machine: times scale down by half
    assert rnd.speed == pytest.approx(speed / 2)
    assert 0 < worker.reference_speed(2) < 100


def test_span_clock_stops_during_reference_slices():
    ref = worker.RefClock()
    c0 = ref.clock()
    ref._tick(None, None)  # one slice, as the timer would run it mid-span
    assert ref.wall > 0.002 and ref.clock() - c0 < 0.002


# ---------------------------------------------------------------------------
# seeded inputs, and the metric names BENCHMARK.json promises
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_only(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a = make(1, str(tmp_path / "a")).inputs()
    b = make(1, str(tmp_path / "b")).inputs()
    c = make(2, str(tmp_path / "c")).inputs()
    assert a == b
    assert a != c


def test_fixture_files_differ_only_in_the_field():
    gf = workloads.fixture_text(17)
    assert '"GF(17)"' in gf and "4*z" in gf  # 4^2 = -1 mod 17
    qq = workloads.fixture_text(None)
    assert '"QQ"' in qq and "X3" not in qq and '"AF, X1, X2"' in qq


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rnd = worker.Round(None)
    rnd.task_walls, rnd.cpu, rnd.ok = [1.0, 2.0], 2.5, 2
    rnd.ref.stop()  # one reference slice, so that the round has a speed
    e2e = set(worker.summarize([rnd], None)["metrics"]) | {"setup_s"}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    per_layer = set(tracer_mod.LAYER_METRICS) | {"trace.overhead_s", "trace.spans"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
