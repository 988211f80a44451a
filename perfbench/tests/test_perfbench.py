"""Tests of the benchmark itself (not of coringlab).

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The last test runs every workload's command list once, about a minute.
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.pin_environment()


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, "cmd")


def test_self_times_subtract_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("hochschild.cup", 1.0, 4.0, 0),
        _span("linalg.mul_mod", 2.0, 3.0, 1),
        _span("amitsur.omega_product", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["hochschild.cup.calls"] == 1
    assert metrics["share.linalg"] == pytest.approx(0.1)
    # the mul_mod second is charged to cup, its caller
    assert spans.charged_layers(tree) == ["cli", "hochschild", "hochschild", "amitsur"]
    assert metrics["charged_share.hochschild"] == pytest.approx(0.3)
    assert metrics["charged_share.linalg"] == 0.0
    assert metrics["hochschild.cup.total_s"] == pytest.approx(3.0)
    assert metrics["cli.main.total_s"] == pytest.approx(10.0)


def _bindings():
    """Every coringlab namespace entry and class attribute a target touches."""
    out = {}
    for target in spans.TARGETS:
        owner, attr = spans._resolve(target)
        out[(owner, attr)] = owner.__dict__[attr]
        if isinstance(owner, type):
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("coringlab"):
                for name, value in vars(mod).items():
                    if value is out[(owner, attr)]:
                        out[(mod, name)] = value
    return out


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _bindings()
    recorder = spans.Recorder()
    with spans.install(recorder):
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in before.items())
        cli, wl = run.setup("law-check", 3, tmp_path)
        cmd = next(c for c in wl.commands if c.id == "hopf-check:hopf_c2_gf3")
        outcome = run.run_command(cli, cmd.id, cmd.argv)
    assert run.check(cmd, outcome) == []
    names = {s.name for s in recorder.take()}
    assert {"cli.main", "schemas.load", "algebras.validate", "hochschild.build_complex",
            "linalg.mul_mod", "corings.CoringWithGrouplike"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_graph_generator_is_deterministic_and_in_range(tmp_path, seed):
    one = workloads.build("incidence", seed, run.ROOT, tmp_path / "a")
    two = workloads.build("incidence", seed, run.ROOT, tmp_path / "b")
    assert [c.argv[2:] for c in one.commands] == [c.argv[2:] for c in two.commands]
    assert [c.checks for c in one.commands] == [c.checks for c in two.commands]
    for a, b in zip(one.facet_inputs, two.facet_inputs):
        assert a.read_text() == b.read_text()
    low, high = workloads.PAIR_RANGE
    for v, e in workloads.GRAPH_SLOTS:
        facets = workloads.random_graph(random.Random(seed), v, e)
        assert low <= workloads.incidence_pairs(facets) <= high
        assert len({f for f in facets if len(f) == 2}) == e
        assert {x for f in facets for x in f} == set(range(v))


def test_graph_betti_counts_components_and_cycles():
    # a triangle, a separate edge and an isolated vertex
    facets = [(0, 1), (1, 2), (0, 2), (3, 4), (5,)]
    assert workloads.graph_betti(facets) == [3, 1]


def test_a_wrong_answer_is_a_mismatch():
    cmd = workloads.Command("x", (), 0, {"cohomology": {"dims": [1, 0, 0]}})
    good = {"ok": True, "checks": [{"name": "cohomology", "ok": True,
                                    "detail": {"dims": [1, 0, 0]}}]}
    bad = {"ok": True, "checks": [{"name": "cohomology", "ok": True,
                                   "detail": {"dims": [1, 1, 0]}}]}
    assert workloads.mismatches(cmd, 0, good) == []
    assert workloads.mismatches(cmd, 0, bad)
    assert workloads.mismatches(cmd, 1, good)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_expected_answers_match_the_program(tmp_path, name):
    cli, wl = run.setup(name, 1, tmp_path)
    problems = {}
    for cmd in wl.commands:
        found = run.check(cmd, run.run_command(cli, cmd.id, cmd.argv))
        if found:
            problems[cmd.id] = found
    assert problems == {}


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    layer, _ = run.per_layer("law-check", 1, 0.1, tmp_path / "a", {"seed": 1})
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"]
                                                     for m in spec["per_layer"]}
    cli, wl = run.setup("law-check", 1, tmp_path / "b")
    e2e, _ = run.end_to_end(cli, wl, 0.1, [0.2])
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"]
                                                   for m in spec["end_to_end"]}
