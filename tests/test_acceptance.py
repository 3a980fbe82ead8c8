"""Acceptance suite: end-to-end checks against exact brute-force oracles.

Each test prints one PASS line (run with -s to see them); a failed assert
is the corresponding FAIL.  Tolerances are exact (rational arithmetic)
unless a check explicitly says otherwise.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from conftest import chunk_colouring, er_graph, lp_value, random_qap, relabelled_copy
from paper_lemmas import mean_threshold_estimate, threshold_grid
from robustiso import Assignment
from robustiso.approx import approximate_ged, build_alpha_lp, lp_model, m_bound, solve_lp
from robustiso.errors import VerificationError
from robustiso.generators import gen_blowup_pair, gen_cfi_pair, gen_random_graph, gen_vc_gap_qap
from robustiso.graphs import (
    blowup,
    edit_cost,
    edit_distance_bruteforce,
    is_isomorphic_bruteforce,
    neighbour_masks,
)
from robustiso.qap import b_alpha, ged_to_qap, qap_bruteforce, qap_cost, weighted_ged_to_qap
from robustiso.setsystems import (
    epsilon_approximation_sample,
    neighbourhood_system,
    qap_threshold_system,
    vc_dimension_exact,
)
from robustiso.wl import homogenising_set_coloured, is_homogenising, robust_gi, wl_compare


def report(line):
    print(f"PASS {line}", flush=True)


def test_qap_reduction_doubles_edit_cost():
    rng = random.Random(20260101)
    exhaustive_pairs = 0
    for trial in range(200):
        n = rng.randint(2, 7)
        g = er_graph(n, 0.5, 10_000 + trial)
        h = er_graph(n, 0.5, 20_000 + trial)
        q = ged_to_qap(g, h)
        if trial < 20:
            bijections = itertools.permutations(range(n))
            exhaustive_pairs += 1
        else:
            bijections = []
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                bijections.append(tuple(perm))
        for perm in bijections:
            pi = Assignment(perm)
            assert qap_cost(q, pi) == 2 * edit_cost(g, h, pi)
    report(
        "qap reduction counts every edge twice "
        f"(200 random pairs, all bijections on {exhaustive_pairs})"
    )


def test_vc_sandwich_between_graph_and_reduction_systems():
    rng = random.Random(20260102)
    done = 0
    while done < 100:
        n = rng.randint(3, 6)
        g = er_graph(n, 0.5, rng.randrange(10**9))
        h = er_graph(n, 0.5, rng.randrange(10**9))
        d_g = vc_dimension_exact(neighbourhood_system(g))
        d_h = vc_dimension_exact(neighbourhood_system(h))
        if d_g < 1 or d_h < 1:
            continue
        d = max(d_g, d_h)
        q = ged_to_qap(g, h)
        full = vc_dimension_exact(qap_threshold_system(q, 0))
        assert full <= 10 * d
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            restricted = vc_dimension_exact(
                qap_threshold_system(q, 0, Assignment(tuple(perm)))
            )
            assert d <= restricted <= full
        done += 1
    report("vc sandwich d <= restricted <= full <= 10d (100 pairs, 5 bijections each)")


def test_log_gap_construction_dimensions():
    rng = random.Random(20260103)
    for n in (4, 8, 16):
        q = gen_vc_gap_qap(n)
        assert vc_dimension_exact(qap_threshold_system(q, 0)) == n.bit_length() - 1
        bijections = [tuple(range(n)), tuple(reversed(range(n)))]
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            bijections.append(tuple(perm))
        for mapping in bijections:
            s = qap_threshold_system(q, 0, Assignment(mapping))
            assert vc_dimension_exact(s) <= 1
    report("log-gap construction: full VC = floor(log2 n), restrictions <= 1 (n in {4,8,16})")


def test_threshold_mean_interval_containment():
    rng = random.Random(20260104)
    failures = 0
    for trial in range(1000):
        n = rng.randint(2, 6)
        q = random_qap(n, rng.randrange(10**9), bmax=2, denom=4,
                       fill=rng.choice([0.2, 0.5, 0.9]))
        b = max(q.bound_b, Fraction(1))
        eps = Fraction(rng.randint(1, 6), rng.choice([1, 2]))
        grid = threshold_grid(b, eps)
        size = rng.randint(1, n)
        perm = list(range(n))
        rng.shuffle(perm)
        sources = rng.sample(range(n), size)
        alpha = tuple((w, perm[w]) for w in sources)
        est = mean_threshold_estimate(
            q, alpha, grid, rng.randrange(n), rng.randrange(n)
        )
        if not est.contains:
            failures += 1
    assert failures == 0
    report("threshold-mean interval contains the partial-sum estimate (1000 draws, exact)")


def test_lp_value_bounded_by_optimum_plus_third_slack():
    rng = random.Random(20260105)
    eps = Fraction(1)
    solved = 0
    for trial in range(50):
        n = rng.randint(3, 5)
        if trial % 5 == 0:
            g = er_graph(n, 0.5, rng.randrange(10**9))
            h = er_graph(n, 0.5, rng.randrange(10**9))
            q = ged_to_qap(g, h)
        else:
            q = random_qap(n, rng.randrange(10**9), bmax=1, denom=4, fill=0.5)
        cost_star, phi_star = qap_bruteforce(q)
        full = tuple(enumerate(phi_star.mapping))
        pairs = list(full)
        for size in (1, 2):
            for alpha in itertools.combinations(pairs, size):
                qualifies = all(
                    abs(b_alpha(q, full, v, vp) - b_alpha(q, alpha, v, vp))
                    <= eps * n / 3
                    for v in range(n)
                    for vp in range(n)
                )
                if not qualifies:
                    continue
                lp = build_alpha_lp(lp_model(q), alpha, eps)
                x = solve_lp(lp, "exact")
                assert x is not None
                assert lp_value(lp, x) <= cost_star + eps * n * n / 3
                solved += 1
    assert solved > 50
    report(f"lp optimum stays within cost* + eps*n^2/3 ({solved} exact solves, zero tolerance)")


def test_end_to_end_additive_approximation():
    rng = random.Random(20260106)
    for trial in range(100):
        n = rng.randint(4, 6)
        g = er_graph(n, 0.5, 30_000 + trial)
        h = er_graph(n, 0.5, 40_000 + trial)
        result = approximate_ged(g, h, 1, 2, seed=50_000 + trial, mode="exhaustive")
        oracle, _ = edit_distance_bruteforce(g, h)
        assert result.cost <= oracle + n * n
        assert result.cost >= oracle
    report("exhaustive m=2 pipeline lands within eps*n^2 of the oracle (100 pairs, eps=1)")


def test_end_to_end_additive_approximation_below_the_edge_count():
    # eps * n^2 < C(n, 2), so an answer far from the optimum can break the
    # bound.  Relabelled copies have optimum 0, and the identity map breaks it
    # on some of them; on independent G(n, 1/2) pairs this small it rarely
    # does.  m is the paper's sample size for the threshold systems.
    rng = random.Random(20260111)
    eps = Fraction(1, 6)
    identity_breaks = 0
    for trial in range(10):
        n = 5 + trial % 2
        assert eps * n * n < math.comb(n, 2)
        g = er_graph(n, 0.5, 110_000 + trial)
        h = relabelled_copy(g, 120_000 + trial)
        q = weighted_ged_to_qap(g, h)
        values = q.value_set()
        d = max(vc_dimension_exact(qap_threshold_system(q, t)) for t in values)
        m = m_bound(q.bound_b, 2 * eps, d, len(values), n=n)
        result = approximate_ged(g, h, eps, m, seed=rng.randrange(10**9), mode="sampled")
        oracle, _ = edit_distance_bruteforce(g, h)
        assert oracle <= result.cost <= oracle + eps * n * n
        identity_breaks += edit_cost(g, h, Assignment.identity(n)) > oracle + eps * n * n
    assert identity_breaks > 0
    report(
        "sampled m=m_bound pipeline lands within eps*n^2 of the oracle "
        f"(10 relabelled pairs, eps=1/6; the identity map breaks it on {identity_breaks})"
    )


def test_uniform_sampling_approximates_neighbourhoods():
    failures = 0
    for trial in range(200):
        g = gen_random_graph(40, edge_prob=0.5, seed=60_000 + trial)
        system = neighbourhood_system(g)
        try:
            epsilon_approximation_sample(
                system,
                Fraction(3, 10),
                Fraction(1, 10),
                seed=70_000 + trial,
                retries=0,
            )
        except VerificationError:
            failures += 1
    assert failures <= 40  # twice the failure probability bound, over 200 trials
    report(f"uniform samples pass the exact approximation check ({failures}/200 failures, <= 40 allowed)")


def test_promise_isomorphism_answers_are_sound():
    rng = random.Random(20260108)
    eps = Fraction(1, 2)
    isomorphic_answers = 0
    far_answers = 0
    for trial in range(100):
        n = rng.randint(4, 7)
        colours = chunk_colouring(n, 3)
        g = er_graph(n, 0.5, 80_000 + trial, colours=colours)
        if trial % 2 == 0:
            h = relabelled_copy(g, 90_000 + trial)
        else:
            h = er_graph(n, 0.5, 100_000 + trial, colours=colours)
        cert = robust_gi(g, h, eps, strategy="coloured")
        if cert.answer == "isomorphic":
            dist, _ = edit_distance_bruteforce(g, h)
            assert dist <= eps * n * n
            isomorphic_answers += 1
        else:
            assert is_isomorphic_bruteforce(g, h) is None
            far_answers += 1
    assert isomorphic_answers and far_answers
    report(
        "promise answers sound against brute force "
        f"({isomorphic_answers} isomorphic / {far_answers} far, zero failures)"
    )


def test_promise_isomorphism_answers_are_sound_where_pairs_are_far():
    # the same pairs at eps = 1/8: eps*n^2 < C(n,2), and some non-isomorphic
    # pairs lie beyond eps*n^2, so an "isomorphic" answer on one of them fails
    rng = random.Random(20260108)
    eps = Fraction(1, 8)
    beyond = 0
    for trial in range(100):
        n = rng.randint(4, 7)
        colours = chunk_colouring(n, 3)
        g = er_graph(n, 0.5, 80_000 + trial, colours=colours)
        if trial % 2 == 0:
            h = relabelled_copy(g, 90_000 + trial)
        else:
            h = er_graph(n, 0.5, 100_000 + trial, colours=colours)
        dist, _ = edit_distance_bruteforce(g, h)
        beyond += dist > eps * n * n
        cert = robust_gi(g, h, eps, strategy="coloured")
        if cert.answer == "isomorphic":
            assert dist <= eps * n * n
        else:
            assert is_isomorphic_bruteforce(g, h) is None
    assert beyond >= 10
    report(f"promise answers sound at eps=1/8 ({beyond}/100 pairs beyond eps*n^2)")


def test_greedy_homogenising_size_and_progress():
    rng = random.Random(20260109)
    for trial in range(200):
        n = rng.randint(4, 12)
        s = rng.choice([2, 3, 4])
        g = er_graph(n, rng.choice([0.3, 0.5, 0.7]), 110_000 + trial,
                     colours=chunk_colouring(n, s))
        eps = Fraction(rng.choice([1, 2, 4]), 4)
        hom = homogenising_set_coloured(g, eps)
        max_class = max(len(c) for c in g.colour_classes().values())
        assert len(hom.vertices) <= Fraction(max_class - 1) / eps
        assert is_homogenising(g, hom.vertices, eps)
        counts = hom.class_counts
        assert all(b > a for a, b in zip(counts, counts[1:]))
    report("greedy homogenising sets obey the (s-1)/eps bound with strict class growth (200 graphs)")


def test_blowup_distance_scaling_and_wl_transfer():
    rng = random.Random(20260110)
    for trial in range(20):
        n = rng.randint(2, 4)
        colours = {v: 0 for v in range(n)}
        g = er_graph(n, 0.5, 120_000 + trial, colours=colours)
        h = er_graph(n, 0.5, 130_000 + trial, colours=colours)
        base_dist, _ = edit_distance_bruteforce(g, h)
        bg, bh = blowup(g, 2), blowup(h, 2)
        blown_dist, _ = edit_distance_bruteforce(bg, bh)
        assert blown_dist >= math.ceil(Fraction(4, 3) * base_dist)
        for k in (1, 2):
            assert (
                wl_compare(g, h, k).distinguishes == wl_compare(bg, bh, k).distinguishes
            )
    report("blowups scale edit distance by >= ell^2/3 and preserve WL verdicts (20 pairs, k in {1,2})")


def test_gadget_pair_and_its_blowup():
    bundle = gen_cfi_pair("k4")
    g, h = bundle.g, bundle.h
    assert is_isomorphic_bruteforce(g, h) is None
    for graph in (g, h):
        assert all(row.bit_count() == 3 for row in neighbour_masks(graph))
        assert max(len(c) for c in graph.colour_classes().values()) <= 4
    assert wl_compare(g, h, 1).distinguishes is False
    blown = gen_blowup_pair(bundle, 2)
    assert wl_compare(blown.g, blown.h, 1).distinguishes is False
    assert is_isomorphic_bruteforce(blown.g, blown.h) is None
    report("gadget pair: non-isomorphic, 3-regular, classes <= 4, invisible to colour refinement (also after blowup)")


CLI_ENV = dict(os.environ)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "robustiso.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


def strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if k not in ("timing_ms", "ms")
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def test_cli_outputs_are_deterministic(tmp_path):
    k3 = tmp_path / "k3.graph"
    k3.write_text("n 3\ne 0 1\ne 0 2\ne 1 2\n")
    p3 = tmp_path / "p3.graph"
    p3.write_text("n 3\ne 0 1\ne 1 2\n")
    c6 = tmp_path / "c6.graph"
    c6.write_text("n 6\n" + "".join(f"e {i} {(i + 1) % 6}\n" for i in range(6)))
    tc3 = tmp_path / "2c3.graph"
    tc3.write_text("n 6\ne 0 1\ne 0 2\ne 1 2\ne 3 4\ne 3 5\ne 4 5\n")
    qap_file = tmp_path / "small.qap"
    qap_file.write_text("qap 3\nq 0 0 1 1 2\nq 1 1 0 0 -1/2\n")

    commands = [
        ["vc", "--graph", str(k3)],
        ["vc", "--graph", str(c6), "--mixed"],
        ["vc", "--qap", str(qap_file), "--weak-d", "1"],
        ["ged", str(k3), str(p3), "--eps", "1", "--seed", "7"],
        ["ged", str(k3), str(p3), "--eps", "1", "--seed", "7", "--lp", "exact"],
        # 36 alphas and no stop at cost 0: the solver pool's window fills
        ["ged", str(c6), str(tc3), "--eps", "1", "--seed", "7"],
        ["qap", str(qap_file), "--eps", "1", "--seed", "3"],
        ["robust-gi", str(k3), str(k3), "--eps", "1/2"],
        ["robust-gi", str(c6), str(tc3), "--eps", "1/4"],
        ["wl", str(p3), "--k", "1"],
        ["wl", str(c6), str(tc3), "--k", "2"],
        ["gen", "vcgap", "--n", "8", "--out", str(tmp_path / "l36.qap")],
        ["gen", "cfi", "--base", "k4", "--out", str(tmp_path / "cfi")],
        ["gen", "random", "--n", "9", "--p", "1/2", "--seed", "5",
         "--out", str(tmp_path / "r.graph")],
        ["oracle", "ged", str(k3), str(p3)],
        ["oracle", "qap", str(qap_file)],
        ["oracle", "iso", str(c6), str(tc3)],
    ]
    for args in commands:
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode, args
        a, b = json.loads(first.stdout), json.loads(second.stdout)
        sa = json.dumps(strip_timing(a), sort_keys=True)
        sb = json.dumps(strip_timing(b), sort_keys=True)
        assert sa == sb, args
        if "timing_ms" not in first.stdout and '"ms"' not in first.stdout:
            assert first.stdout == second.stdout, args
    report(f"cli output byte-identical across reruns ({len(commands)} commands, timing excluded)")
