import hashlib
import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chunk_colouring,
    complete_graph,
    cycle_graph,
    er_graph,
    path_graph,
    random_qap,
    random_weighted_graph,
    relabelled_copy,
)
from robustiso import Assignment, Graph, QapInstance
from robustiso.approx import approximate_ged
from robustiso.errors import BudgetExceededError, ParseError
from robustiso.generators import gen_cfi_pair
from robustiso.graphs import (
    BIJECTION_CHUNK,
    blowup,
    colour_preserving_bijections,
    edit_cost,
    edit_distance_bruteforce,
    is_isomorphic_bruteforce,
    neighbour_masks,
    parse_graph,
    partial_injection,
    serialize_graph,
    threshold_graph,
)
from robustiso.qap import ged_to_qap, qap_bruteforce, weighted_ged_to_qap
from robustiso.setsystems import mixed_system, neighbourhood_system, weighted_graph_vc
from robustiso.wl import colour_refinement, robust_gi, wl_compare


K3 = complete_graph(3)
PATH3 = path_graph(3)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, {(0, 0)})

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, {(0, 2)})

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="nonzero"):
            Graph(2, {(0, 1)}, weights={(0, 1): 0})

    def test_rejects_weight_on_non_edge(self):
        with pytest.raises(ValueError, match="non-edge"):
            Graph(3, {(0, 1)}, weights={(1, 2): 1})

    def test_edges_are_normalised(self):
        g = Graph(3, {(2, 0), (1, 0)})
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_normal_frozenset_is_kept_not_copied(self):
        g = er_graph(12, 0.5, 31)
        assert Graph(g.n, g.edges).edges is g.edges
        assert Graph(g.n, g.edges, colours={0: 1}).edges is g.edges

    @pytest.mark.parametrize("edges", [
        {(0, 1), (0, 2), (1, 3)}, [(0, 1), (0, 2), (1, 3)],
        {(1, 0), (0, 2), (3, 1)}, frozenset({(1, 0), (2, 0), (1, 3)}),
    ])
    def test_other_inputs_become_a_normal_frozenset(self, edges):
        g = Graph(4, edges)
        assert type(g.edges) is frozenset and g.edges is not edges
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 3)})

    @pytest.mark.parametrize("edges", [
        frozenset({(0, 1), (2, 2)}), frozenset({(0, 1), (1, 3)}),
        frozenset({(0, 1), (-1, 2)}),
    ])
    def test_kept_frozenset_is_still_validated(self, edges):
        with pytest.raises(ValueError, match="self-loop|out of range"):
            Graph(3, edges)

    def test_weights_completed_with_unit(self):
        g = Graph(3, {(0, 1), (1, 2)}, weights={(0, 1): Fraction(3, 2)})
        assert g.weights[(1, 2)] == 1

    def test_colours_completed_with_zero(self):
        g = Graph(3, {(0, 1)}, colours={2: 5})
        assert g.colour_of(0) == 0 and g.colour_of(2) == 5

    def test_rejects_colour_of_unknown_vertex(self):
        with pytest.raises(ValueError, match="colour given for unknown vertex 3"):
            Graph(3, colours={3: 1})

    def test_rejects_negative_colour(self):
        with pytest.raises(ValueError, match="colours must be non-negative"):
            Graph(3, colours={0: -1})

    def test_order_past_the_vertex_cap_is_refused(self):
        # refused before the colour map is completed over range(n)
        from robustiso.graphs import VERTEX_CAP

        assert Graph(VERTEX_CAP).n == VERTEX_CAP
        for n in (VERTEX_CAP + 1, 10**10):
            with pytest.raises(BudgetExceededError, match="vertex cap") as err:
                Graph(n, colours={0: 1})
            assert err.value.attempted == n

    def test_blowup_past_the_edge_cap_is_refused(self, monkeypatch):
        # |E| * ell^2 edges are counted before any is built; the cap itself is allowed
        from robustiso import graphs

        monkeypatch.setattr(graphs, "EDGE_CAP", 8)
        path = Graph(3, {(0, 1), (1, 2)})
        assert len(graphs.blowup(path, 2).edges) == 8
        for g, ell in ((path, 3), (Graph(2, {(0, 1)}), 3)):
            with pytest.raises(BudgetExceededError, match="edge cap") as err:
                graphs.blowup(g, ell)
            assert err.value.attempted == len(g.edges) * ell**2

    def test_bound(self):
        assert Graph(3, set()).bound_b() == 0
        assert K3.bound_b() == 1
        g = Graph(2, {(0, 1)}, weights={(0, 1): Fraction(-7, 2)})
        assert g.bound_b() == Fraction(7, 2)


class TestPlainValue:
    def test_entry_points_leave_no_derived_state(self):
        # every computation derives what it needs per call, so a graph keeps
        # exactly its four fields however it has been read
        g = er_graph(8, 0.5, 8700, colours=chunk_colouring(8, 3))
        h = relabelled_copy(g, 8701)
        u = er_graph(6, 0.5, 8702)
        v = relabelled_copy(u, 8703)
        w = random_weighted_graph(6, 8704)
        colour_refinement(g, (0, 3))
        for k in (1, 2):
            wl_compare(g, h, k)
        for strategy in ("net", "coloured"):
            robust_gi(g, h, Fraction(1, 4), strategy=strategy)
        neighbourhood_system(g)
        mixed_system(g)
        weighted_graph_vc(w)
        pi = is_isomorphic_bruteforce(g, h)
        assert edit_cost(g, h, pi) == 0
        approximate_ged(u, v, 1, 1, seed=1)
        for graph in (g, h, u, v, w):
            assert set(vars(graph)) == {"n", "edges", "weights", "colours"}


class TestAssignment:
    def test_identity(self):
        assert Assignment.identity(3).mapping == (0, 1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Assignment((0, 0, 1))

    def test_graph_of_assignment(self):
        pairs = partial_injection(enumerate(Assignment((1, 0)).mapping), 2)
        assert pairs == ((0, 1), (1, 0))
        assert partial_injection([(2, 0), (0, 1)], 3) == ((0, 1), (2, 0))

    def test_partial_injection_validation(self):
        with pytest.raises(ValueError, match="alpha repeats a source or a target"):
            partial_injection(((0, 1), (0, 2)), 3)
        with pytest.raises(ValueError, match="alpha repeats a source or a target"):
            partial_injection(((0, 1), (2, 1)), 3)


class TestEditCost:
    def test_identity_on_equal_graphs(self):
        assert edit_cost(K3, K3, Assignment.identity(3)) == 0

    def test_one_mismatching_pair(self):
        assert edit_cost(K3, PATH3, Assignment.identity(3)) == 1

    def test_weighted_difference(self):
        g = Graph(2, {(0, 1)}, weights={(0, 1): 3})
        h = Graph(2, {(0, 1)}, weights={(0, 1): 1})
        assert edit_cost(g, h, Assignment.identity(2)) == 2

    def test_size_mismatch_is_error(self):
        with pytest.raises(ValueError, match="order"):
            edit_cost(K3, Graph(4, set()), Assignment.identity(3))

    def test_colour_violation_is_error(self):
        g = Graph(2, set(), colours={0: 0, 1: 1})
        h = Graph(2, set(), colours={0: 0, 1: 1})
        with pytest.raises(ValueError, match="colour"):
            edit_cost(g, h, Assignment((1, 0)))

    def test_symmetry_under_inverse(self):
        rng = random.Random(1)
        for trial in range(40):
            n = rng.randint(2, 7)
            g = er_graph(n, 0.5, 100 + trial)
            h = er_graph(n, 0.5, 200 + trial)
            perm = list(range(n))
            rng.shuffle(perm)
            pi = Assignment(tuple(perm))
            inverse = Assignment(tuple(perm.index(w) for w in range(n)))
            assert edit_cost(g, h, pi) == edit_cost(h, g, inverse)

    def test_unweighted_equals_unit_weighted(self):
        rng = random.Random(2)
        for trial in range(25):
            n = rng.randint(2, 6)
            g = er_graph(n, 0.5, 300 + trial)
            h = er_graph(n, 0.5, 400 + trial)
            gw = Graph(n, g.edges, weights={e: 1 for e in g.edges})
            hw = Graph(n, h.edges, weights={e: 1 for e in h.edges})
            perm = list(range(n))
            rng.shuffle(perm)
            pi = Assignment(tuple(perm))
            assert edit_cost(g, h, pi) == edit_cost(gw, hw, pi)


class TestEditDistanceBruteforce:
    def test_isomorphic_cycles(self):
        c4 = cycle_graph(4)
        c4r = Graph(4, {(0, 2), (2, 1), (1, 3), (3, 0)})
        dist, _ = edit_distance_bruteforce(c4, c4r)
        assert dist == 0

    def test_triangle_vs_path(self):
        dist, pi = edit_distance_bruteforce(K3, PATH3)
        assert dist == 1
        # independently: scan all six bijections for value and tie-break
        best = min(
            (edit_cost(K3, PATH3, Assignment(p)), p)
            for p in itertools.permutations(range(3))
        )
        assert (dist, pi.mapping) == best

    def test_cycle_vs_path_five(self):
        dist, _ = edit_distance_bruteforce(cycle_graph(5), path_graph(5))
        assert dist == 1

    def test_weighted_bruteforce(self):
        g = Graph(2, {(0, 1)}, weights={(0, 1): 3})
        h = Graph(2, {(0, 1)}, weights={(0, 1): 1})
        dist, _ = edit_distance_bruteforce(g, h)
        assert dist == 2

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            edit_distance_bruteforce(Graph(11, set()), Graph(11, set()))

    def test_colour_histogram_mismatch(self):
        g = Graph(2, set(), colours={0: 0, 1: 0})
        h = Graph(2, set(), colours={0: 0, 1: 1})
        with pytest.raises(ValueError, match="histogram"):
            edit_distance_bruteforce(g, h)

    def test_colour_preserving_restriction(self):
        # same underlying graphs; colours force the costly bijection
        g = Graph(2, {(0, 1)}, colours={0: 0, 1: 1})
        h = Graph(2, set(), colours={0: 0, 1: 1})
        dist, pi = edit_distance_bruteforce(g, h)
        assert dist == 1 and pi.mapping == (0, 1)

    def test_zero_distance_iff_isomorphic(self):
        rng = random.Random(3)
        for trial in range(30):
            n = rng.randint(2, 6)
            g = er_graph(n, 0.5, 500 + trial)
            h = (
                relabelled_copy(g, 600 + trial)
                if trial % 2
                else er_graph(n, 0.5, 700 + trial)
            )
            dist, _ = edit_distance_bruteforce(g, h)
            assert (dist == 0) == (is_isomorphic_bruteforce(g, h) is not None)

    def test_zero_distance_iff_isomorphic_at_cap_scale(self):
        for trial, isomorphic in ((0, True), (1, False)):
            g = er_graph(8, 0.5, 710 + trial)
            h = relabelled_copy(g, 720) if isomorphic else er_graph(8, 0.5, 730)
            dist, _ = edit_distance_bruteforce(g, h)
            assert (dist == 0) == (is_isomorphic_bruteforce(g, h) is not None)
            assert (dist == 0) == isomorphic


class TestBijectionEnumeration:
    def test_each_colour_preserving_bijection_once_in_lexicographic_order(self):
        rng = random.Random(7050)
        cases = [(Graph(7), Graph(7))]
        for n in range(8):
            g = Graph(n, set(), colours={v: rng.randint(0, 2) for v in range(n)})
            cases.append((g, relabelled_copy(g, 7060 + n)))
        for g, h in cases:
            chunks = list(colour_preserving_bijections(g, h))
            assert all(1 <= len(chunk) <= BIJECTION_CHUNK for chunk in chunks)
            rows = [tuple(row) for chunk in chunks for row in chunk.tolist()]
            assert rows == [
                p
                for p in itertools.permutations(range(g.n))
                if all(g.colour_of(v) == h.colour_of(p[v]) for v in range(g.n))
            ]
        assert len(list(colour_preserving_bijections(Graph(7), Graph(7)))) == 2


class TestIsomorphismSearch:
    def test_finds_relabelling(self):
        g = er_graph(8, 0.5, 42)
        h = relabelled_copy(g, 43)
        pi = is_isomorphic_bruteforce(g, h)
        assert pi is not None
        assert edit_cost(g, h, pi) == 0

    def test_detects_non_isomorphic(self):
        assert is_isomorphic_bruteforce(K3, PATH3) is None

    def test_respects_colours(self):
        g = Graph(2, set(), colours={0: 0, 1: 1})
        h = Graph(2, set(), colours={0: 1, 1: 0})
        pi = is_isomorphic_bruteforce(g, h)
        assert pi is not None and pi.mapping == (1, 0)


def moved_edge_copy(g, seed):
    """A relabelled copy of g with one edge moved onto a non-edge, so that
    the edge count and the colour histogram stay."""
    rng = random.Random(seed)
    h = relabelled_copy(g, seed)
    non_edges = sorted(set(itertools.combinations(range(g.n), 2)) - h.edges)
    if not h.edges or not non_edges:
        return h
    edges = (h.edges - {rng.choice(sorted(h.edges))}) | {rng.choice(non_edges)}
    return Graph(g.n, edges, colours=h.colours)


def oracle_pairs():
    """Seeded pairs for the isomorphism oracle: for every order n <= 9,
    relabelled copies, G(n, 1/2) pairs and moved-edge copies, uncoloured and
    coloured, then the k4 CFI pair and a relabelled copy of its first graph."""
    rng = random.Random(8100)
    pairs = []
    for n in range(10):
        for colours in (None, {v: rng.randrange(3) for v in range(n)}):
            g = er_graph(n, 0.5, rng.randrange(10**9), colours=colours)
            other = er_graph(n, 0.5, rng.randrange(10**9), colours=colours)
            pairs += [
                (g, relabelled_copy(g, rng.randrange(10**9))),
                (g, other),
                (g, moved_edge_copy(g, rng.randrange(10**9))),
            ]
    cfi = gen_cfi_pair("k4")
    pairs += [(cfi.g, cfi.h), (cfi.g, relabelled_copy(cfi.g, 8200))]
    return pairs


def as_networkx(g):
    graph = nx.Graph()
    graph.add_nodes_from((v, {"colour": g.colour_of(v)}) for v in range(g.n))
    graph.add_edges_from(g.edges)
    return graph


# sha256 of the oracle's answers on oracle_pairs(), taken with the
# frozenset-adjacency search that ran before the neighbourhood bitmasks
PINNED_ISOMORPHISMS_DIGEST = "6a2ab447d739d4963e1e6ffcb7dc85001a76b8cc8e5879fa50bb46785244a084"


class TestIsomorphismOracle:
    def test_agrees_with_networkx_and_returns_isomorphisms(self):
        answers = []
        for g, h in oracle_pairs():
            pi = is_isomorphic_bruteforce(g, h)
            expected = nx.is_isomorphic(
                as_networkx(g), as_networkx(h),
                node_match=lambda a, b: a["colour"] == b["colour"],
            )
            assert (pi is not None) == expected
            if pi is not None:
                assert all(g.colour_of(v) == h.colour_of(pi[v]) for v in range(g.n))
                assert {tuple(sorted((pi[u], pi[v]))) for u, v in g.edges} == h.edges
            answers.append("None" if pi is None else str(pi.mapping))
        assert sum(a != "None" for a in answers) >= len(answers) // 3
        digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
        assert digest == PINNED_ISOMORPHISMS_DIGEST


def mixed(g, v, w):
    """The mixed neighbourhood N(v) ^ N(w) as a bitmask."""
    rows = neighbour_masks(g)
    return rows[v] ^ rows[w]


class TestMixedNeighbourhood:
    def test_same_vertex_empty(self):
        assert mixed(K3, 1, 1) == 0

    def test_path_endpoints_agree(self):
        assert mixed(PATH3, 0, 2) == 0

    def test_path_endpoint_vs_centre(self):
        assert mixed(PATH3, 0, 1) == 0b111

    @given(st.integers(0, 2**15 - 1), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_identity(self, bits, v, w):
        edges = set()
        pairs = list(itertools.combinations(range(6), 2))
        for i, e in enumerate(pairs):
            if bits >> i & 1:
                edges.add(e)
        g = Graph(6, frozenset(edges))
        rows = neighbour_masks(g)
        assert all(
            (rows[a] >> b & 1) == ((min(a, b), max(a, b)) in g.edges)
            for a in range(6) for b in range(6)
        )
        nv, nw = rows[v], rows[w]
        size = (nv ^ nw).bit_count()
        assert size == nv.bit_count() + nw.bit_count() - 2 * (nv & nw).bit_count()


class TestThresholdGraph:
    TRI = Graph(3, {(0, 1), (0, 2), (1, 2)},
                weights={(0, 1): 1, (0, 2): 2, (1, 2): 3})

    def test_below_min_keeps_everything(self):
        assert threshold_graph(self.TRI, 0).edges == self.TRI.edges

    def test_at_max_empties(self):
        assert threshold_graph(self.TRI, 3).edges == frozenset()

    def test_intermediate(self):
        assert threshold_graph(self.TRI, Fraction(3, 2)).edges == frozenset(
            {(0, 2), (1, 2)}
        )

    def test_unweighted_behaves_as_unit_weights(self):
        assert threshold_graph(K3, Fraction(1, 2)).edges == K3.edges
        assert threshold_graph(K3, 1).edges == frozenset()


class TestBlowup:
    def test_factor_one_is_isomorphic(self):
        b = blowup(PATH3, 1)
        assert b.n == 3 and b.edges == PATH3.edges
        assert all(b.colour_of(v) == 0 for v in range(3))

    def test_single_edge_becomes_k22(self):
        b = blowup(Graph(2, {(0, 1)}), 2)
        assert b.n == 4 and len(b.edges) == 4
        # no edges inside a copy-class
        assert (0, 1) not in b.edges and (2, 3) not in b.edges

    def test_counts(self):
        rng = random.Random(4)
        for trial in range(15):
            n = rng.randint(1, 5)
            ell = rng.randint(1, 3)
            g = er_graph(n, 0.6, 800 + trial)
            b = blowup(g, ell)
            assert b.n == ell * n
            assert len(b.edges) == ell * ell * len(g.edges)

    def test_colour_encoding_is_injective(self):
        g = Graph(3, {(0, 1)}, colours={0: 0, 1: 1, 2: 2})
        b = blowup(g, 2)
        assert b.colour_of(0) == 0 and b.colour_of(1) == 1
        assert b.colour_of(2) == 2 and b.colour_of(3) == 3
        assert b.colour_of(4) == 4 and b.colour_of(5) == 5

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            blowup(K3, 0)

    def test_large_blowups_scale_edit_distance(self):
        # quadratic growth of blowup distance at desk scale
        rng = random.Random(5)
        checked = 0
        while checked < 8:
            n = rng.randint(2, 4)
            seed = rng.randint(0, 10**6)
            cols = {v: 0 for v in range(n)}
            g = er_graph(n, 0.5, seed, colours=cols)
            h = er_graph(n, 0.5, seed + 1, colours=cols)
            base, _ = edit_distance_bruteforce(g, h)
            blown, _ = edit_distance_bruteforce(blowup(g, 2), blowup(h, 2))
            assert blown >= Fraction(1, 3) * 4 * base
            checked += 1


class TestGraphFiles:
    def test_parse_simple_path(self):
        assert parse_graph("n 3\ne 0 1\ne 1 2") == PATH3

    def test_parse_decimal_weight(self):
        g = parse_graph("n 2\ne 0 1 2.5")
        assert g.weights[(0, 1)] == Fraction(5, 2)

    def test_parse_fraction_weight_and_comments(self):
        g = parse_graph("# header\nn 2\ne 0 1 -7/3   # a weight\n")
        assert g.weights[(0, 1)] == Fraction(-7, 3)

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("n 2\ne 0 0")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_graph("n 2\ne 0 1\ne 1 0")

    @pytest.mark.parametrize("text, match", [
        ("n 2\nc 0 -1", "line 2: colour must be non-negative"),
        ("n 2\nc 1 1\nc 1 2", "line 3: duplicate colour for vertex 1"),
        ("n 2\ne 0 1 0", "line 2: edge weight must be nonzero"),
        ("n 3\ne 0 1\ne 1 2 0/7", "line 3: edge weight must be nonzero"),
    ])
    def test_bad_colour_or_weight_reports_line(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_graph(text)

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("n 2\ne 0 2")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("e 0 1")

    def test_unknown_line(self):
        with pytest.raises(ParseError, match="unknown line"):
            parse_graph("n 1\nx 0")

    def test_round_trip_plain(self):
        rng = random.Random(6)
        for trial in range(10):
            g = er_graph(rng.randint(0, 7), 0.5, 900 + trial)
            assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_weighted_coloured(self):
        g = random_weighted_graph(5, 17)
        assert parse_graph(serialize_graph(g)) == g
        gc = Graph(4, {(0, 1), (2, 3)}, colours={0: 2, 1: 2, 2: 0, 3: 1})
        assert parse_graph(serialize_graph(gc)) == gc


def _recoloured(g, colours):
    return Graph(g.n, g.edges, weights=g.weights, colours=colours)


def pinned_graph_pairs():
    """Seeded pairs for the oracle pins, from n = 0 up to n = 8.

    Unweighted pairs; weighted pairs mixing denominators 2 and 3 with
    negative weights; weights of 2^70 and of +-2^61, whose sums leave int64;
    a weighted graph against an unweighted one; coloured pairs (sparse, so
    optima tie), coloured on one side only, and with different colour
    histograms.
    """
    pairs = [(er_graph(n, 0.5, 5000 + n), er_graph(n, 0.5, 5100 + n)) for n in range(9)]
    pairs += [
        (
            random_weighted_graph(n, 5200 + n, denom=2 + n % 2),
            random_weighted_graph(n, 5300 + n, denom=3 - n % 2),
        )
        for n in range(1, 8)
    ]
    pairs.append((er_graph(5, 0.5, 5400), random_weighted_graph(5, 5401, denom=3)))
    pairs.append(
        (
            Graph(4, {(0, 1), (1, 2), (2, 3)}, weights={(0, 1): 2**70, (1, 2): Fraction(-1, 3)}),
            Graph(4, {(0, 2), (1, 3)}, weights={(0, 2): 2**70 + 1, (1, 3): Fraction(1, 2)}),
        )
    )
    big = 2**61
    pairs.append(
        (
            Graph(4, {(0, 1), (1, 2), (2, 3)}, weights={(0, 1): big, (1, 2): -big, (2, 3): big}),
            Graph(4, {(0, 2), (1, 3), (0, 3)}, weights={(0, 2): -big, (1, 3): big, (0, 3): -big}),
        )
    )
    for n in range(2, 9):
        colours = chunk_colouring(n, 3)
        g = er_graph(n, 0.3, 5500 + n, colours=colours)
        pairs.append((g, er_graph(n, 0.3, 5600 + n, colours=colours)))
        pairs.append((g, relabelled_copy(er_graph(n, 0.3, 5700 + n, colours=colours), 5800 + n)))
    for n in (3, 5, 6):
        colours = chunk_colouring(n, 2)
        pairs.append(
            (
                _recoloured(random_weighted_graph(n, 5900 + n, denom=3), colours),
                _recoloured(random_weighted_graph(n, 6000 + n, denom=2), colours),
            )
        )
    pairs.append((er_graph(4, 0.5, 6100, colours={0: 0}), er_graph(4, 0.5, 6101)))
    pairs.append((er_graph(3, 0.5, 6200, colours={0: 1}), er_graph(3, 0.5, 6201)))
    return pairs


def pinned_qap_instances():
    """Reductions of uncoloured pinned pairs up to n = 7, random and 2^70 instances."""
    out = [
        (weighted_ged_to_qap if g.is_weighted or h.is_weighted else ged_to_qap)(g, h)
        for g, h in pinned_graph_pairs()
        if g.n <= 7 and not (g.is_coloured or h.is_coloured)
    ]
    out += [ged_to_qap(cycle_graph(n), path_graph(n)) for n in (4, 6)]
    out += [random_qap(n, 6300 + n, bmax=2, denom=3) for n in range(6)]
    out.append(
        QapInstance(3, {(0, 1, 1, 0): Fraction(2**70, 3), (1, 1, 2, 2): Fraction(-1, 2)})
    )
    return out


def _outcome(fn, *args):
    try:
        cost, pi = fn(*args)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    return f"{cost} {pi.mapping}"


def pinned_oracle_records():
    rng = random.Random(6400)
    records = {"edit_distance_bruteforce": [], "qap_bruteforce": [], "edit_cost": []}
    for g, h in pinned_graph_pairs():
        records["edit_distance_bruteforce"].append(_outcome(edit_distance_bruteforce, g, h))
        bijections = [Assignment.identity(g.n), Assignment.identity(g.n + 1)]
        bijections += [Assignment(rng.sample(range(g.n), g.n)) for _ in range(4)]
        for pi in bijections:
            try:
                records["edit_cost"].append(str(edit_cost(g, h, pi)))
            except ValueError as err:
                records["edit_cost"].append(f"{type(err).__name__}: {err}")
    for q in pinned_qap_instances():
        records["qap_bruteforce"].append(_outcome(qap_bruteforce, q))
    return records


# sha256 of the records above, taken with the per-permutation oracles that
# forked on whether a graph is weighted
PINNED_ORACLE_DIGESTS = {
    "edit_distance_bruteforce": "ae2afcc57dc4a9533e9f9dcd06142394ed92b7e312e95c0a17bbd7c9a62b332d",
    "qap_bruteforce": "7bf478e5873eea7884d2c7cbe37b529c021af0c0c257877c76c5247e4ca178fe",
    "edit_cost": "6353f20203034ba147145b00e8fab8113151917e0ba34e080ab7313d80768db0",
}


class TestPinnedOracles:
    def test_oracles_match_pinned_digests(self):
        digests = {
            name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in pinned_oracle_records().items()
        }
        assert digests == PINNED_ORACLE_DIGESTS


def _stored_weight(g, e):
    return (g.weights or {}).get(e, Fraction(1))


def reference_edit_cost(g, h, pi):
    """Edit cost as the per-edge Fraction loop the weighted graphs once took.

    It reads the stored weights, not the integer weight matrices, so it is
    independent of weight_matrices (which both sides of the reduction
    identity qap_cost == 2 * edit_cost read).
    """
    total = Fraction(0)
    seen = set()
    for u, v in g.edges:
        f = (min(pi[u], pi[v]), max(pi[u], pi[v]))
        seen.add(f)
        total += abs(_stored_weight(g, (u, v)) - (_stored_weight(h, f) if f in h.edges else 0))
    for f in h.edges - seen:
        total += abs(_stored_weight(h, f))
    return total


def colour_preserving_shuffle(g, h, rng):
    """A random bijection sending each colour class of g onto the one of h."""
    mapping = [0] * g.n
    h_classes = h.colour_classes()
    for colour, sources in g.colour_classes().items():
        targets = rng.sample(h_classes[colour], len(sources))
        for s, t in zip(sources, targets):
            mapping[s] = t
    return Assignment(tuple(mapping))


class TestEditCostReference:
    def test_matches_fraction_loop_on_seeded_bijections(self):
        rng = random.Random(6500)
        for trial in range(200):
            n = rng.randint(0, 8)
            kind = trial % 4
            if kind == 0:
                g, h = er_graph(n, 0.5, 6600 + trial), er_graph(n, 0.5, 6800 + trial)
            elif kind == 1:
                g = random_weighted_graph(n, 6600 + trial, denom=rng.choice((1, 2, 3)))
                h = random_weighted_graph(n, 6800 + trial, denom=rng.choice((2, 3, 5)))
            elif kind == 2:
                g = er_graph(n, 0.5, 6600 + trial)
                h = random_weighted_graph(n, 6800 + trial, wmax=2**40, denom=7)
            else:
                colours = {v: rng.randint(0, 2) for v in range(n)}
                g = _recoloured(random_weighted_graph(n, 6600 + trial, denom=3), colours)
                h = relabelled_copy(_recoloured(er_graph(n, 0.5, 6800 + trial), colours), trial)
            pi = colour_preserving_shuffle(g, h, rng)
            assert edit_cost(g, h, pi) == reference_edit_cost(g, h, pi)


def _networkx_graph(g, denom):
    x = nx.Graph()
    x.add_nodes_from((v, {"colour": g.colour_of(v)}) for v in range(g.n))
    for u, v in g.edges:
        w = _stored_weight(g, (u, v)) * denom
        x.add_edge(u, v, weight=int(w))
    return x


def networkx_edit_distance(g, h):
    """networkx's exact graph_edit_distance, restricted to bijections.

    Weights are scaled to integers.  Deleting or inserting a vertex, or
    substituting one colour for another, costs n^2 (1 + 2B), more than any
    bijection's edit cost, so the optimal edit path is a colour-preserving
    bijection; an edge costs |w| to delete or insert, |w1 - w2| to substitute.
    """
    weights = [_stored_weight(x, e) for x in (g, h) for e in x.edges]
    denom = math.lcm(1, *(w.denominator for w in weights))
    big = g.n**2 * (1 + 2 * max((abs(w) * denom for w in weights), default=0))
    dist = nx.graph_edit_distance(
        _networkx_graph(g, denom),
        _networkx_graph(h, denom),
        node_subst_cost=lambda a, b: 0 if a["colour"] == b["colour"] else big,
        node_del_cost=lambda a: big,
        node_ins_cost=lambda a: big,
        edge_subst_cost=lambda a, b: abs(a["weight"] - b["weight"]),
        edge_del_cost=lambda a: abs(a["weight"]),
        edge_ins_cost=lambda a: abs(a["weight"]),
    )
    assert dist == int(dist)
    return Fraction(int(dist), denom)


class TestAgainstNetworkx:
    def test_bruteforce_matches_networkx_graph_edit_distance(self):
        rng = random.Random(6900)
        pairs = []
        for n in range(1, 7):
            colours = {v: rng.randint(0, 1) for v in range(n)}
            pairs += [
                (er_graph(n, 0.5, 7000 + n), er_graph(n, 0.5, 7100 + n)),
                (random_weighted_graph(n, 7200 + n, denom=3),
                 random_weighted_graph(n, 7300 + n, denom=2)),
                (er_graph(n, 0.5, 7400 + n), random_weighted_graph(n, 7500 + n, wmax=3)),
                (er_graph(n, 0.5, 7600 + n, colours=colours),
                 relabelled_copy(er_graph(n, 0.5, 7700 + n, colours=colours), n)),
                (_recoloured(random_weighted_graph(n, 7800 + n, denom=3), colours),
                 relabelled_copy(_recoloured(random_weighted_graph(n, 7900 + n), colours), n)),
            ]
        assert len(pairs) == 30
        for g, h in pairs:
            dist, _ = edit_distance_bruteforce(g, h)
            assert dist == networkx_edit_distance(g, h)
