"""The benchmark's workloads: seeded instance kinds, the library calls each
instance makes, and the independent checks on their outputs.

A workload is a fixed mix of kinds run round-robin, one instance of each
kind per round.  Inputs come from the workload seed alone; the library sees
only the generated graphs and QAP instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import networkx as nx
import numpy as np
from scipy.optimize import quadratic_assignment

import oracles
from robustiso import Graph, QapInstance
from robustiso import approx, generators, graphs, qap, setsystems, wl

# Seed of the algorithm's own randomised rounding and sampling.  It is fixed
# so that two workload seeds differ only in the instances they generate.
ALGO_SEED = 1

EPS_SAMPLE = Fraction(3, 10)
GAMMA_SAMPLE = Fraction(1, 10)
ORACLE_MAX_N = 8


@dataclass(frozen=True)
class Kind:
    """One family of instances: how to make, run and check an instance."""

    name: str
    make: Callable  # (random.Random) -> inputs dict
    run: Callable  # (inputs) -> output; the only timed part
    check: Callable  # (inputs, output, memo dict) -> (failures, quality dict)
    # traced runs only: the library's own oracle against ours -> failures
    cross_check: Callable | None = None


# ---------------------------------------------------------------- inputs


def _graph_seed(rng):
    return rng.getrandbits(32)


def relabel(g: Graph, rng) -> Graph:
    """An isomorphic copy of g under a seeded vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = frozenset((perm[u], perm[v]) for u, v in g.edges)
    weights = None
    if g.weights is not None:
        weights = {(perm[u], perm[v]): w for (u, v), w in g.weights.items()}
    colours = None
    if g.colours is not None:
        colours = {perm[v]: c for v, c in g.colours.items()}
    return Graph(g.n, edges, weights=weights, colours=colours)


def fresh(inputs):
    """Rebuild the graphs of an instance, dropping per-object caches."""
    out = {}
    for key, value in inputs.items():
        if isinstance(value, Graph):
            value = Graph(value.n, value.edges, value.weights, value.colours)
        out[key] = value
    return out


def _random_pair(n, weighted=False):
    def make(rng):
        g = generators.gen_random_graph(n, seed=_graph_seed(rng))
        h = generators.gen_random_graph(n, seed=_graph_seed(rng))
        if weighted:
            g, h = (
                Graph(n, x.edges, weights={
                    e: Fraction(rng.randint(1, 6), 2) for e in sorted(x.edges)
                })
                for x in (g, h)
            )
        return {"g": g, "h": h}

    return make


def _bipartite_two_regular(n, rng) -> Graph:
    """Two edge-disjoint random perfect matchings between the colour classes
    [0, n/2) and [n/2, n).  The graph is 2-regular, so 1-WL keeps both
    classes whole and robust_gi has to individualise vertices."""
    half = n // 2
    first = list(range(half))
    rng.shuffle(first)
    while True:
        second = list(range(half))
        rng.shuffle(second)
        if all(a != b for a, b in zip(first, second)):
            break
    edges = {(i, half + first[i]) for i in range(half)}
    edges |= {(i, half + second[i]) for i in range(half)}
    return Graph(n, frozenset(edges), colours={v: int(v >= half) for v in range(n)})


# ---------------------------------------------------------------- GED


def _matrices(inputs):
    g, h = inputs["g"], inputs["h"]
    return (
        oracles.weight_matrix(g.n, g.edges, g.weights),
        oracles.weight_matrix(h.n, h.edges, h.weights),
    )


def check_ged(inputs, result, memo, faq=False):
    """Reported cost = cost of the returned bijection, = half the QAP cost,
    and not below the exact optimum (brute force for n <= ORACLE_MAX_N)."""
    failures, quality = [], {}
    n = inputs["g"].n
    a_g, a_h = _matrices(inputs)
    mapping = tuple(result.assignment.mapping)
    if sorted(mapping) != list(range(n)):
        return [f"assignment {mapping} is not a bijection"], quality
    cost = oracles.assignment_cost(a_g, a_h, mapping)
    if result.cost != cost:
        failures.append(f"reported cost {result.cost} != cost {cost} of its bijection")
    if result.report.best_cost != 2 * result.cost:
        failures.append(
            f"QAP cost {result.report.best_cost} != twice the edit cost {result.cost}"
        )
    if n <= ORACLE_MAX_N:
        if "opt" not in memo:
            memo["opt"] = oracles.edit_distance(a_g, a_h)
        opt = memo["opt"]
        if result.cost < opt:
            failures.append(f"cost {result.cost} below the exact optimum {opt}")
        quality["gap"] = (result.cost - opt) / n**2
    else:
        # total weight moves by at most the edit cost
        bound = Fraction(abs(int(a_g.sum()) - int(a_h.sum())), 2 * oracles.WEIGHT_SCALE)
        if result.cost < bound:
            failures.append(f"cost {result.cost} below the lower bound {bound}")
    if faq:
        if "faq" not in memo:
            res = quadratic_assignment(
                a_g, a_h, method="faq", options={"maximize": True, "rng": np.random.default_rng(0)}
            )
            memo["faq"] = oracles.assignment_cost(a_g, a_h, res.col_ind)
        quality["faq_gap"] = (result.cost - memo["faq"]) / n**2
    return failures, quality


def cross_check_ged(inputs):
    """The library's brute-force edit distance agrees with ours."""
    theirs, _ = graphs.edit_distance_bruteforce(inputs["g"], inputs["h"])
    ours = oracles.edit_distance(*_matrices(inputs))
    return [] if theirs == ours else [f"edit_distance_bruteforce {theirs} != {ours}"]


def ged_kind(name, n, lp_method, weighted=False, faq=False):
    def run(inputs):
        return approx.approximate_ged(
            inputs["g"], inputs["h"], 1, 1, seed=ALGO_SEED, lp_method=lp_method
        )

    def check(inputs, result, memo):
        return check_ged(inputs, result, memo, faq=faq)

    cross = cross_check_ged if n <= ORACLE_MAX_N else None
    return Kind(name, _random_pair(n, weighted), run, check, cross)


# ---------------------------------------------------------------- WL


def to_networkx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from((v, {"c": str(g.colour_of(v))}) for v in range(g.n))
    out.add_edges_from(g.edges)
    return out


def nx_isomorphic(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(
        to_networkx(g), to_networkx(h), node_match=lambda a, b: a["c"] == b["c"]
    )


def nx_wl_differs(g: Graph, h: Graph) -> bool:
    """1-WL verdict from networkx's hash, run past stabilisation."""
    rounds = g.n + 1
    return nx.weisfeiler_lehman_graph_hash(
        to_networkx(g), node_attr="c", iterations=rounds
    ) != nx.weisfeiler_lehman_graph_hash(to_networkx(h), node_attr="c", iterations=rounds)


def check_comparison(g, h, comparison, copies, memo):
    """Copies are never distinguished; a distinguished pair is
    non-isomorphic; a 1-WL verdict matches networkx's WL hash."""
    failures = []
    if comparison.distinguishes:
        if copies:
            failures.append(f"{comparison.k}-WL distinguished a relabelled copy")
        else:
            if "iso" not in memo:
                memo["iso"] = nx_isomorphic(g, h)
            if memo["iso"]:
                failures.append(f"{comparison.k}-WL distinguished isomorphic graphs")
    if comparison.k == 1:
        if "wl_hash_differs" not in memo:
            memo["wl_hash_differs"] = nx_wl_differs(g, h)
        if memo["wl_hash_differs"] != comparison.distinguishes:
            failures.append("1-WL verdict disagrees with networkx's WL hash")
    return failures


def compare_kind(name, make, k, copies):
    def run(inputs):
        return wl.wl_compare(inputs["g"], inputs["h"], k)

    def check(inputs, result, memo):
        return check_comparison(inputs["g"], inputs["h"], result, copies, memo), {}

    return Kind(name, make, run, check)


def _cfi_pair(rng):
    bundle = generators.gen_cfi_pair("prism")
    return {
        "g": relabel(bundle.g, rng),
        "h": relabel(bundle.h, rng),
        "claims": bundle.metadata["claims"],
    }


def _cfi_copies(rng):
    g = generators.gen_cfi_pair("prism").g
    return {"g": relabel(g, rng), "h": relabel(g, rng)}


def _random_copy(n):
    def make(rng):
        g = generators.gen_random_graph(n, seed=_graph_seed(rng))
        return {"g": g, "h": relabel(g, rng)}

    return make


def _cfi_pair_run(inputs):
    g, h = inputs["g"], inputs["h"]
    return wl.wl_compare(g, h, 1), wl.wl_compare(g, h, 2)


def _cfi_pair_check(inputs, result, memo):
    g, h = inputs["g"], inputs["h"]
    one, two = result
    failures = check_comparison(g, h, one, False, memo)
    failures += check_comparison(g, h, two, False, memo)
    if inputs["claims"].get("wl_1_indistinguishable") and one.distinguishes:
        failures.append("the CFI pair's wl_1_indistinguishable claim failed")
    return failures, {}


def _gi_pair(copies):
    def make(rng):
        g = _bipartite_two_regular(10, rng)
        h = relabel(g, rng) if copies else _bipartite_two_regular(10, rng)
        return {"g": g, "h": h}

    return make


def _gi_run(inputs):
    return wl.robust_gi(inputs["g"], inputs["h"], 1, strategy="coloured")


def _gi_check(inputs, cert, memo):
    """A "far" answer is confirmed non-isomorphic by exhaustive search."""
    if cert.answer == "far":
        if "iso" not in memo:
            memo["iso"] = graphs.is_isomorphic_bruteforce(inputs["g"], inputs["h"])
        if memo["iso"] is not None:
            return ["robust_gi answered far on isomorphic graphs"], {}
    elif cert.answer != "isomorphic":
        return [f"unknown robust_gi answer {cert.answer!r}"], {}
    return [], {}


# ---------------------------------------------------------------- VC


def _check_vc(system, d, memo, expected_sets=None):
    failures = []
    if expected_sets is not None and set(system.sets) != expected_sets:
        failures.append("set system differs from the one built from the inputs")
    if "vc" not in memo:
        memo["vc"] = oracles.vc_dimension(system.ground_size, system.sets)
    want, witness = memo["vc"]
    if d != want:
        failures.append(f"VC dimension {d}, brute force gives {want}")
    if witness and not setsystems.is_shattered(system, witness):
        failures.append(f"brute-force witness {witness} is not shattered")
    return failures


def _neighbourhood_masks(g: Graph):
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return set(rows)


def _nbhd_make(rng):
    return {"g": generators.gen_random_graph(40, seed=_graph_seed(rng))}


def _nbhd_run(inputs):
    system = setsystems.neighbourhood_system(inputs["g"])
    d = setsystems.vc_dimension_exact(system)
    sample = setsystems.epsilon_approximation_sample(
        system, EPS_SAMPLE, GAMMA_SAMPLE, seed=ALGO_SEED, d=d
    )
    return system, d, sample


def _nbhd_check(inputs, result, memo):
    system, d, sample = result
    failures = _check_vc(system, d, memo, _neighbourhood_masks(inputs["g"]))
    if not oracles.epsilon_approximation_ok(
        system.ground_size, system.sets, sample, EPS_SAMPLE
    ):
        failures.append("sample is not an eps-approximation")
    return failures, {}


def _qap_threshold_run(inputs):
    q = qap.ged_to_qap(inputs["g"], inputs["h"])
    system = setsystems.qap_threshold_system(q, 0)
    return system, setsystems.vc_dimension_exact(system)


def _qap_threshold_check(inputs, result, memo):
    system, d = result
    a_g, a_h = _matrices(inputs)
    n = a_g.shape[0]
    expected = set()
    for v in range(n):
        for vp in range(n):
            differ = a_g[v][:, None] != a_h[vp][None, :]
            expected.add(sum(1 << int(i) for i in np.flatnonzero(differ.ravel())))
    return _check_vc(system, d, memo, expected), {}


def _gap_make(n):
    def make(rng):
        base = generators.gen_vc_gap_qap(n)
        pi = list(range(n))
        sigma = list(range(n))
        rng.shuffle(pi)
        rng.shuffle(sigma)
        entries = {
            (pi[v], sigma[vp], pi[w], sigma[wp]): value
            for (v, vp, w, wp), value in base.nonzero_entries()
        }
        return {"q": QapInstance(n, entries)}

    return make


def _gap_run(inputs):
    system = setsystems.qap_threshold_system(inputs["q"], 0)
    return system, setsystems.vc_dimension_exact(system)


def _gap_check(inputs, result, memo):
    system, d = result
    failures = _check_vc(system, d, memo)
    want = int(math.log2(inputs["q"].n))
    if d != want:
        failures.append(f"vc-gap instance has VC {d}, construction promises {want}")
    return failures, {}


# ---------------------------------------------------------------- mixes

WORKLOADS = {
    "ged-highs": [
        ged_kind("ged-n8", 8, "highs", faq=True),
        ged_kind("ged-n10", 10, "highs", faq=True),
        ged_kind("ged-w7", 7, "highs", weighted=True),
    ],
    # n = 4 rather than 5 or 6: exact solves vary by about 25% from pair to
    # pair, and only at n = 4 (0.2 s a pair on a 2-core x86 VM, Python 3.11)
    # do enough pairs fit in a run for its figures to repeat across seeds.
    # The simplex still takes about 80% of the time.
    "ged-exact": [
        ged_kind("exact-n4", 4, "exact"),
    ],
    "wl-cfi": [
        Kind("cfi-prism-pair-k2", _cfi_pair, _cfi_pair_run, _cfi_pair_check),
        compare_kind("cfi-prism-copy-k2", _cfi_copies, 2, copies=True),
        compare_kind("gnp14-pair-k3", _random_pair(14), 3, copies=False),
        compare_kind("gnp14-copy-k3", _random_copy(14), 3, copies=True),
        compare_kind("gnp14-pair-k1", _random_pair(14), 1, copies=False),
        Kind("gi-bip10-pair", _gi_pair(False), _gi_run, _gi_check),
        Kind("gi-bip10-copy", _gi_pair(True), _gi_run, _gi_check),
    ],
    "vc-sets": [
        Kind("nbhd-gnp40", _nbhd_make, _nbhd_run, _nbhd_check),
        Kind("qap-gnp6-t0", _random_pair(6), _qap_threshold_run, _qap_threshold_check),
        Kind("vcgap-qap16", _gap_make(16), _gap_run, _gap_check),
    ],
}


# Rounds of each mix generated in set-up: more than a 20 s run uses, so its
# instances are distinct; longer runs cycle through them.
POOL_ROUNDS = {"ged-highs": 16, "ged-exact": 128, "wl-cfi": 8, "vc-sets": 64}


def generate(workload, seed):
    """Rounds x kinds inputs; instance (r, k) depends only on seed, r and k."""
    kinds = WORKLOADS[workload]
    pool = []
    for r in range(POOL_ROUNDS[workload]):
        row = []
        for kind in kinds:
            rng = random.Random(f"{workload}/{seed}/{r}/{kind.name}")
            row.append(kind.make(rng))
        pool.append(row)
    return pool
