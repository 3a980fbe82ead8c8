import random
from fractions import Fraction

import pytest

from conftest import (
    chunk_colouring,
    complete_graph,
    cycle_graph,
    er_graph,
    path_graph,
    relabelled_copy,
)
from paper_lemmas import homogenising_reference, size_target
from robustiso import Graph, setsystems, wl
from robustiso.errors import BudgetExceededError
from robustiso.graphs import (
    blowup,
    edit_distance_bruteforce,
    is_isomorphic_bruteforce,
    neighbour_masks,
)
from robustiso.wl import (
    colour_refinement,
    homogenising_set_coloured,
    homogenising_set_net,
    is_homogenising,
    k_wl_stable,
    robust_gi,
    wl_compare,
)


C6 = cycle_graph(6)
TWO_C3 = Graph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})


def disjoint_union(g, h):
    colours = {v: x.colour_of(v - s) for x, s in ((g, 0), (h, g.n)) for v in range(s, s + x.n)}
    edges = g.edges | {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, edges, colours=colours if g.is_coloured else None)


def coloured_pair(n, class_size, seed, isomorphic):
    colours = chunk_colouring(n, class_size)
    g = er_graph(n, 0.5, seed, colours=colours)
    if isomorphic:
        h = relabelled_copy(g, seed + 1)
    else:
        h = er_graph(n, 0.5, seed + 10**6, colours=colours)
    return g, h


class TestColourRefinement:
    def test_edgeless_is_single_class(self):
        assert colour_refinement(Graph(5, set())).num_classes() == 1

    def test_regular_cycle_is_single_class(self):
        assert colour_refinement(C6).num_classes() == 1

    def test_path_splits_by_degree(self):
        part = colour_refinement(path_graph(3)).vertex_partition()
        assert sorted(sorted(c) for c in part.values()) == [[0, 2], [1]]

    def test_individualisation_refines(self):
        sc = colour_refinement(C6, individualised=(0,))
        # distance from the individualised vertex separates classes
        part = sorted(sorted(c) for c in sc.vertex_partition().values())
        assert part == [[0], [1, 5], [2, 4], [3]]

    def test_existing_colours_participate(self):
        g = Graph(3, set(), colours={0: 1, 1: 0, 2: 0})
        part = colour_refinement(g).vertex_partition()
        assert sorted(sorted(c) for c in part.values()) == [[0], [1, 2]]

    def test_individualised_out_of_range(self):
        with pytest.raises(ValueError):
            colour_refinement(C6, individualised=(9,))

    def test_histogram_counts_vertices(self):
        sc = colour_refinement(path_graph(4))
        assert sum(sc.histogram.values()) == 4


class TestKwlStable:
    def test_k1_matches_colour_refinement(self):
        for g in (path_graph(3), C6, er_graph(6, 0.5, 90)):
            a = k_wl_stable(g, 1).vertex_partition()
            b = colour_refinement(g).vertex_partition()
            assert sorted(map(sorted, a.values())) == sorted(map(sorted, b.values()))

    def test_triangle_two_tuple_classes(self):
        sc = k_wl_stable(complete_graph(3), 2)
        assert sc.num_classes() == 2
        assert sum(sc.histogram.values()) == 9

    def test_edgeless_single_class(self):
        assert k_wl_stable(Graph(4, set()), 1).num_classes() == 1

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            k_wl_stable(C6, 9)

    def test_budget_counts_the_work_of_a_round(self):
        # 6^2 = 36 tuples fit, but a round reads 6^3 = 216 (tuple, vertex) pairs
        with pytest.raises(BudgetExceededError, match="216") as err:
            k_wl_stable(C6, 2, budget=215)
        assert err.value.attempted == 216
        with pytest.raises(BudgetExceededError, match="216"):
            wl_compare(C6, TWO_C3, 2, budget=215)
        assert k_wl_stable(C6, 2, budget=216).num_classes() == 4

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_wl_stable(C6, 0)


class TestDistinguishing:
    def test_relabelled_cycles_never_distinguished(self):
        c5 = cycle_graph(5)
        c5r = relabelled_copy(c5, 91)
        for k in (1, 2, 3):
            assert wl_compare(c5, c5r, k).distinguishes is False

    def test_triangles_vs_hexagon(self):
        assert wl_compare(C6, TWO_C3, 1).distinguishes is False
        assert wl_compare(C6, TWO_C3, 2).distinguishes is True

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            wl_compare(C6, complete_graph(3), 1)

    def test_isomorphism_invariance_of_histograms(self):
        rng = random.Random(92)
        for trial in range(8):
            n = rng.randint(3, 8)
            g = er_graph(n, 0.5, 4000 + trial)
            h = relabelled_copy(g, 4100 + trial)
            for k in (1, 2, 3):
                comparison = wl_compare(g, h, k)
                assert comparison.distinguishes is False
                assert comparison.histogram_g == comparison.histogram_h

    def test_distinguishing_is_monotone_in_k(self):
        rng = random.Random(93)
        for trial in range(12):
            n = rng.randint(3, 6)
            g = er_graph(n, 0.5, 4200 + trial)
            h = er_graph(n, 0.5, 4300 + trial)
            for k in (1, 2):
                if wl_compare(g, h, k).distinguishes:
                    assert wl_compare(g, h, k + 1).distinguishes

    def test_colour_histogram_mismatch_detected_at_k1(self):
        g = Graph(2, set(), colours={0: 0, 1: 0})
        h = Graph(2, set(), colours={0: 0, 1: 1})
        assert wl_compare(g, h, 1).distinguishes is True


def random_tree(n, seed):
    """Tree from a random Pruefer sequence (independent of the package)."""
    rng = random.Random(seed)
    if n == 1:
        return Graph(1, set())
    if n == 2:
        return Graph(2, {(0, 1)})
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = set()
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect

            bisect.insort(leaves, v)
    u, w = leaves
    edges.add((min(u, w), max(u, w)))
    return Graph(n, frozenset(edges))


def triangle_count(g):
    rows = neighbour_masks(g)
    return sum((rows[u] & rows[v]).bit_count() for u, v in g.edges) // 3


class TestKnownSeparations:
    def test_nonisomorphic_trees_split_by_colour_refinement(self):
        # classic fact: colour refinement decides isomorphism on trees
        rng = random.Random(200)
        checked = 0
        while checked < 25:
            n = rng.randint(4, 8)
            t1 = random_tree(n, rng.randrange(10**9))
            t2 = random_tree(n, rng.randrange(10**9))
            isomorphic = is_isomorphic_bruteforce(t1, t2) is not None
            assert wl_compare(t1, t2, 1).distinguishes == (not isomorphic)
            checked += 1

    def test_differing_degree_sequences_split_at_k1(self):
        rng = random.Random(201)
        checked = 0
        while checked < 20:
            n = rng.randint(3, 8)
            g = er_graph(n, 0.5, rng.randrange(10**9))
            h = er_graph(n, 0.5, rng.randrange(10**9))
            degs = sorted(row.bit_count() for row in neighbour_masks(g))
            degs_h = sorted(row.bit_count() for row in neighbour_masks(h))
            if degs == degs_h:
                continue
            assert wl_compare(g, h, 1).distinguishes
            checked += 1

    def test_differing_triangle_counts_split_at_k2(self):
        rng = random.Random(202)
        checked = 0
        while checked < 15:
            n = rng.randint(4, 7)
            g = er_graph(n, 0.5, rng.randrange(10**9))
            h = er_graph(n, 0.5, rng.randrange(10**9))
            if triangle_count(g) == triangle_count(h):
                continue
            assert wl_compare(g, h, 2).distinguishes
            checked += 1


class TestHomogenising:
    def test_full_individualisation(self):
        g = er_graph(6, 0.5, 94)
        assert is_homogenising(g, tuple(range(6)), Fraction(1, 100))

    def test_edgeless(self):
        assert is_homogenising(Graph(5, set()), (), Fraction(1, 100))

    def test_star_leaves_share_neighbourhood(self):
        star = Graph(6, {(0, i) for i in range(1, 6)})
        assert is_homogenising(star, (), Fraction(1, 10))

    def test_cycle_fails_tight_requirement(self):
        # all vertices equal-coloured but mixed neighbourhoods of size 4 exist
        assert not is_homogenising(C6, (), Fraction(1, 12))

    def test_agrees_with_the_frozenset_reference(self):
        rng = random.Random(96)
        answers = []
        for trial in range(80):
            n = rng.randint(0, 6)
            colours = {v: rng.randrange(2) for v in range(n)} if trial % 2 else None
            g = er_graph(n, rng.choice([0.2, 0.5, 0.8]), 4600 + trial, colours=colours)
            if trial % 4 < 2:
                # beside a relabelled copy, every class of 1-WL has two or more vertices
                g = disjoint_union(g, relabelled_copy(g, 4700 + trial))
            vertices = tuple(rng.sample(range(g.n), min(g.n, rng.choice((0, 0, 1, 3)))))
            # limits of 1 to 4 vertices, so that a mixed neighbourhood can meet one
            eps = Fraction(rng.randint(1, 3), max(g.n, 4))
            answer = is_homogenising(g, vertices, eps)
            assert answer == homogenising_reference(g, vertices, eps), trial
            answers.append(answer)
        assert 20 <= sum(answers) <= 60


class TestNetConstruction:
    def test_edgeless_gives_empty_set(self):
        hom = homogenising_set_net(Graph(5, set()), Fraction(1, 2))
        assert hom.vertices == ()

    def test_clique_pairs_all_hit(self):
        k4 = complete_graph(4)
        hom = homogenising_set_net(k4, Fraction(2, 5))
        assert len(hom.vertices) <= 3
        hit = sum(1 << v for v in hom.vertices)
        rows = neighbour_masks(k4)
        for v in range(4):
            for w in range(v + 1, 4):
                m = rows[v] ^ rows[w]
                if m.bit_count() > Fraction(2, 5) * 4:
                    assert m & hit

    def test_cycle_verified(self):
        hom = homogenising_set_net(C6, Fraction(1, 2))
        assert is_homogenising(C6, hom.vertices, Fraction(1, 2))

    def test_reports_dimension_based_target(self):
        k4 = complete_graph(4)
        hom = homogenising_set_net(k4, Fraction(2, 5))
        assert size_target(k4, hom.eps) > 0

    def test_answers_without_the_exact_vc_dimension(self, monkeypatch):
        # the net is built without a VC dimension: wl has no VC search
        def refuse(system, budget=None):
            raise AssertionError("exact VC dimension computed")

        assert not hasattr(wl, "vc_dimension_exact")
        monkeypatch.setattr(setsystems, "vc_dimension_exact", refuse)
        g = er_graph(10, 0.5, 2024)
        hom = homogenising_set_net(g, Fraction(1, 4))
        assert is_homogenising(g, hom.vertices, Fraction(1, 4))
        assert robust_gi(g, g, Fraction(3, 4), strategy="net").answer == "isomorphic"

    def test_colour_equal_vertices_avoid_net_in_mixed_neighbourhood(self):
        rng = random.Random(95)
        for trial in range(10):
            g = er_graph(rng.randint(4, 8), 0.5, 4400 + trial)
            eps = Fraction(rng.randint(1, 3), 4)
            hom = homogenising_set_net(g, eps)
            gamma = colour_refinement(g, hom.vertices)
            hit = sum(1 << v for v in hom.vertices)
            rows = neighbour_masks(g)
            for members in gamma.vertex_partition().values():
                for i, v in enumerate(members):
                    for w in members[i + 1 :]:
                        assert not hit & (rows[v] ^ rows[w])


class TestColouredGreedy:
    def test_singleton_classes_need_nothing(self):
        g = Graph(4, {(0, 1)}, colours={v: v for v in range(4)})
        hom = homogenising_set_coloured(g, Fraction(1, 2))
        assert hom.vertices == ()

    def test_requires_colours(self):
        with pytest.raises(ValueError):
            homogenising_set_coloured(complete_graph(3), Fraction(1, 2))

    def test_size_bound_and_verification(self):
        rng = random.Random(96)
        for trial in range(30):
            n = rng.randint(4, 10)
            s = rng.choice([2, 3, 4])
            g = er_graph(n, 0.5, 4500 + trial, colours=chunk_colouring(n, s))
            eps = Fraction(rng.choice([1, 2]), 2)
            hom = homogenising_set_coloured(g, eps)
            max_class = max(len(c) for c in g.colour_classes().values())
            assert len(hom.vertices) <= (max_class - 1) / eps
            assert is_homogenising(g, hom.vertices, eps)

    def test_class_count_strictly_increases(self):
        rng = random.Random(97)
        for trial in range(20):
            n = rng.randint(4, 10)
            g = er_graph(n, 0.6, 4600 + trial, colours=chunk_colouring(n, 4))
            hom = homogenising_set_coloured(g, Fraction(1, 4))
            counts = hom.class_counts
            assert all(b > a for a, b in zip(counts, counts[1:]))


class TestSmallEditDistanceWhenNotDistinguished:
    def test_undistinguished_pairs_are_close(self):
        # homogenise at eps/2, then WL silence certifies small distance
        rng = random.Random(98)
        eps = Fraction(1, 2)
        checked = 0
        for trial in range(40):
            n = rng.randint(4, 6)
            g, h = coloured_pair(n, 3, 4700 + trial, isomorphic=trial % 2 == 0)
            hom = homogenising_set_coloured(g, eps / 2)
            k = len(hom.vertices) + 1
            if wl_compare(g, h, k).distinguishes:
                continue
            dist, _ = edit_distance_bruteforce(g, h)
            assert dist <= eps * n * n
            checked += 1
        assert checked >= 10


class TestBlowupTransfer:
    def test_two_wl_transfer(self):
        rng = random.Random(99)
        for trial in range(12):
            n = rng.randint(2, 4)
            cols = {v: 0 for v in range(n)}
            g = er_graph(n, 0.5, 4800 + trial, colours=cols)
            h = er_graph(n, 0.5, 4900 + trial, colours=cols)
            base = wl_compare(g, h, 2).distinguishes
            blown = wl_compare(blowup(g, 2), blowup(h, 2), 2).distinguishes
            assert base == blown


class TestRobustGi:
    def test_isomorphic_pair(self):
        g = cycle_graph(4)
        h = relabelled_copy(g, 101)
        cert = robust_gi(g, h, Fraction(1, 2))
        assert cert.answer == "isomorphic"

    def test_far_pair(self):
        cert = robust_gi(C6, TWO_C3, Fraction(1, 4))
        assert cert.answer == "far"
        assert cert.distinguishing_colour is not None
        assert cert.k >= 2

    def test_far_implies_nonisomorphic(self):
        cert = robust_gi(C6, TWO_C3, Fraction(1, 4))
        assert cert.answer == "far"
        assert is_isomorphic_bruteforce(C6, TWO_C3) is None

    def test_certificate_fields(self):
        cert = robust_gi(C6, TWO_C3, Fraction(1, 4))
        assert cert.strategy == "net"
        assert len(cert.histograms_digest) == 64
        assert cert.eps == Fraction(1, 4)

    def test_coloured_strategy(self):
        g, h = coloured_pair(6, 3, 103, isomorphic=True)
        cert = robust_gi(g, h, Fraction(1, 2), strategy="coloured")
        assert cert.answer == "isomorphic"
        assert cert.strategy == "coloured-greedy"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            robust_gi(C6, C6, Fraction(1, 2), strategy="magic")

    def test_certificate_strategy_name_is_not_an_input(self):
        g, h = coloured_pair(6, 3, 103, isomorphic=True)
        with pytest.raises(ValueError, match="unknown strategy"):
            robust_gi(g, h, Fraction(1, 2), strategy="coloured-greedy")

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            robust_gi(C6, complete_graph(3), Fraction(1, 2))

    def test_budget_error_reports_k(self):
        g = er_graph(14, 0.5, 104)
        h = er_graph(14, 0.5, 105)
        with pytest.raises(BudgetExceededError) as err:
            robust_gi(g, h, Fraction(1, 50), budget=1000)
        # the n^(k+1) pairs of a round, the figure compared with the budget
        attempted = err.value.attempted
        assert attempted > 1000 and attempted in {14**e for e in range(3, 16)}


class TestWeightedGraphsRefused:
    # WL reads no edge weight.  It saw the path with every weight 1 and the
    # same path with every weight 5 as isomorphic, so robust_gi answered
    # "isomorphic" at eps = 1/4 although their distance 12 passes eps * n^2 = 4
    EDGES = {(0, 1), (1, 2), (2, 3)}
    ONES = Graph(4, EDGES, weights=dict.fromkeys(EDGES, 1))
    FIVES = Graph(4, EDGES, weights=dict.fromkeys(EDGES, 5))
    PAIRS = [(ONES, FIVES), (path_graph(4), FIVES), (FIVES, path_graph(4))]

    @pytest.mark.parametrize("g, h", PAIRS)
    def test_robust_gi_refuses(self, g, h):
        with pytest.raises(ValueError, match="unweighted graphs only"):
            robust_gi(g, h, Fraction(1, 4))

    @pytest.mark.parametrize("g, h", PAIRS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_wl_compare_refuses(self, g, h, k):
        with pytest.raises(ValueError, match="unweighted graphs only"):
            wl_compare(g, h, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_graph_runs_refuse(self, k):
        with pytest.raises(ValueError, match="unweighted graphs only"):
            k_wl_stable(self.FIVES, k)
        with pytest.raises(ValueError, match="unweighted graphs only"):
            colour_refinement(self.ONES, individualised=(0,))
