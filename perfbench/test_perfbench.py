"""Tests of the benchmark itself: its checks, oracles and span arithmetic.

    python3 -m pytest perfbench
"""

import json
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from robustiso import Assignment, Graph, setsystems  # noqa: E402
from robustiso import graphs as rgraphs  # noqa: E402
from robustiso.errors import BudgetExceededError  # noqa: E402
from robustiso.wl import WlComparison  # noqa: E402


def _pair(n, seed):
    return workloads._random_pair(n)(random.Random(seed))


def _ged_result(mapping, cost):
    return SimpleNamespace(
        assignment=Assignment(tuple(mapping)),
        cost=cost,
        report=SimpleNamespace(best_cost=2 * cost),
    )


def test_ged_check_accepts_the_optimum_and_rejects_a_cost_below_it():
    inputs = _pair(6, 3)
    opt, best = rgraphs.edit_distance_bruteforce(inputs["g"], inputs["h"])
    assert opt > 0
    ok, quality = workloads.check_ged(inputs, _ged_result(best.mapping, opt), {})
    assert ok == [] and quality["gap"] == 0
    failures, _ = workloads.check_ged(
        inputs, _ged_result(best.mapping, opt - 1), {}
    )
    assert any("below the exact optimum" in f for f in failures)


def test_wl_check_rejects_a_distinguished_relabelled_copy():
    g = workloads.generators.gen_random_graph(8, seed=4)
    h = workloads.relabel(g, random.Random(1))
    wrong = WlComparison(True, 0, {0: 8}, {1: 8}, 2)
    failures = workloads.check_comparison(g, h, wrong, True, {})
    assert any("relabelled copy" in f for f in failures)
    right = WlComparison(False, None, {0: 8}, {0: 8}, 2)
    assert workloads.check_comparison(g, h, right, True, {}) == []


def test_self_time_of_a_nested_trace():
    trace = [
        spans.Span("root", 0.0, 10.0, -1, "i"),
        spans.Span("a", 1.0, 4.0, 0, "i"),
        spans.Span("leaf", 2.0, 3.0, 1, "i"),
        spans.Span("b", 5.0, 9.0, 0, "i"),
        spans.Span("b", 11.0, 12.0, -1, "j"),
    ]
    assert spans.self_times(trace) == {"root": 3.0, "a": 2.0, "leaf": 1.0, "b": 5.0}
    assert spans.call_counts(trace) == {"root": 1, "a": 1, "leaf": 1, "b": 2}


def test_budget_error_counts_as_a_failed_instance():
    def run_budget(inputs):
        raise BudgetExceededError("over budget", 7)

    def never_checked(inputs, output, memo):
        raise AssertionError("a failed run is not checked")

    kind = workloads.Kind("budget", None, run_budget, never_checked)
    good = workloads.Kind("good", None, lambda inputs: 1, lambda i, o, m: ([], {}))
    outcomes = [run.run_instance(kind, 0, {}), run.run_instance(good, 0, {})]
    assert run.check_all(outcomes, {}) == 1
    assert "BudgetExceededError" in outcomes[0].failures[0]


def test_tracer_catches_calls_made_inside_the_library_and_restores():
    original = setsystems.vc_dimension_exact
    tracer = spans.Tracer(
        {
            "setsystems.vc_dimension_exact": original,
            "setsystems.epsilon_approximation_sample": setsystems.epsilon_approximation_sample,
        },
        {"setsystems.vc_dimension_exact": run._vc_observer},
    )
    system = setsystems.neighbourhood_system(workloads.generators.gen_random_graph(12, seed=2))
    tracer.install()
    try:
        setsystems.epsilon_approximation_sample(system, Fraction(1, 2), Fraction(1, 2), seed=1)
    finally:
        tracer.uninstall()
    assert setsystems.vc_dimension_exact is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [
        ("setsystems.epsilon_approximation_sample", -1),
        ("setsystems.vc_dimension_exact", 0),
    ]
    assert tracer.counts == {"setsystems.family_size": len(system)}


def test_vc_oracle_matches_the_library_on_small_systems():
    rng = random.Random(5)
    for _ in range(200):
        ground = rng.randint(0, 8)
        masks = {rng.getrandbits(ground) if ground else 0 for _ in range(rng.randint(0, 70))}
        system = setsystems.SetSystem(ground, frozenset(masks))
        d, witness = oracles.vc_dimension(ground, masks)
        assert d == setsystems.vc_dimension_exact(system)
        assert len(witness) == max(d, 0)
        assert d < 0 or setsystems.is_shattered(system, witness)


def test_ged_oracle_matches_the_library_brute_force():
    for seed in range(4):
        rng = random.Random(seed)
        n = 6
        g, h = (
            Graph(n, x.edges, weights={e: Fraction(rng.randint(1, 6), 2) for e in x.edges})
            for x in (workloads.generators.gen_random_graph(n, seed=10 * seed + i) for i in (1, 2))
        )
        a_g = oracles.weight_matrix(n, g.edges, g.weights)
        a_h = oracles.weight_matrix(n, h.edges, h.weights)
        dist, best = rgraphs.edit_distance_bruteforce(g, h)
        assert oracles.edit_distance(a_g, a_h) == dist
        assert oracles.assignment_cost(a_g, a_h, best.mapping) == dist


def test_design_record_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(design["workloads"]) == sorted(workloads.WORKLOADS)
    for name in names:
        assert list(design["workloads"][name]["mix"]) == [
            k.name for k in workloads.WORKLOADS[name]
        ]
    assert [m["name"] for m in spec["per_layer"]] == list(design["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in design["per_layer"].values():
        for target in entry["moves"]:
            assert target["metric"] in end_to_end and target["workload"] in names
