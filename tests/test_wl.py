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
from robustiso import (
    Graph,
    blowup,
    colour_refinement,
    edit_distance_bruteforce,
    homogenising_set_coloured,
    homogenising_set_net,
    is_homogenising,
    is_isomorphic_bruteforce,
    k_wl_stable,
    mixed_neighbourhood,
    robust_gi,
    wl_distinguishes,
)
from robustiso.errors import BudgetExceededError
from robustiso.wl import wl_compare


C6 = cycle_graph(6)
TWO_C3 = Graph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})


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
        assert err.value.attempted == 2
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
            assert wl_distinguishes(c5, c5r, k) is False

    def test_triangles_vs_hexagon(self):
        assert wl_distinguishes(C6, TWO_C3, 1) is False
        assert wl_distinguishes(C6, TWO_C3, 2) is True

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            wl_distinguishes(C6, complete_graph(3), 1)

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
                if wl_distinguishes(g, h, k):
                    assert wl_distinguishes(g, h, k + 1)

    def test_colour_histogram_mismatch_detected_at_k1(self):
        g = Graph(2, set(), colours={0: 0, 1: 0})
        h = Graph(2, set(), colours={0: 0, 1: 1})
        assert wl_distinguishes(g, h, 1) is True


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
    total = 0
    for u, v in g.edges:
        total += len(g.adj[u] & g.adj[v])
    return total // 3


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
            assert wl_distinguishes(t1, t2, 1) == (not isomorphic)
            checked += 1

    def test_differing_degree_sequences_split_at_k1(self):
        rng = random.Random(201)
        checked = 0
        while checked < 20:
            n = rng.randint(3, 8)
            g = er_graph(n, 0.5, rng.randrange(10**9))
            h = er_graph(n, 0.5, rng.randrange(10**9))
            degs = sorted(len(g.adj[v]) for v in range(n))
            degs_h = sorted(len(h.adj[v]) for v in range(n))
            if degs == degs_h:
                continue
            assert wl_distinguishes(g, h, 1)
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
            assert wl_distinguishes(g, h, 2)
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


class TestNetConstruction:
    def test_edgeless_gives_empty_set(self):
        hom = homogenising_set_net(Graph(5, set()), Fraction(1, 2))
        assert hom.vertices == ()

    def test_clique_pairs_all_hit(self):
        k4 = complete_graph(4)
        hom = homogenising_set_net(k4, Fraction(2, 5))
        assert len(hom.vertices) <= 3
        hit = set(hom.vertices)
        for v in range(4):
            for w in range(v + 1, 4):
                m = mixed_neighbourhood(k4, v, w)
                if len(m) > Fraction(2, 5) * 4:
                    assert m & hit

    def test_cycle_verified(self):
        hom = homogenising_set_net(C6, Fraction(1, 2))
        assert is_homogenising(C6, hom.vertices, Fraction(1, 2))

    def test_reports_dimension_based_target(self):
        hom = homogenising_set_net(complete_graph(4), Fraction(2, 5))
        assert hom.size_target is not None and hom.size_target > 0

    def test_colour_equal_vertices_avoid_net_in_mixed_neighbourhood(self):
        rng = random.Random(95)
        for trial in range(10):
            g = er_graph(rng.randint(4, 8), 0.5, 4400 + trial)
            eps = Fraction(rng.randint(1, 3), 4)
            hom = homogenising_set_net(g, eps)
            gamma = colour_refinement(g, hom.vertices)
            for members in gamma.vertex_partition().values():
                for i, v in enumerate(members):
                    for w in members[i + 1 :]:
                        assert not (
                            set(hom.vertices) & mixed_neighbourhood(g, v, w)
                        )


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
            if wl_distinguishes(g, h, k):
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
            base = wl_distinguishes(g, h, 2)
            blown = wl_distinguishes(blowup(g, 2), blowup(h, 2), 2)
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

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            robust_gi(C6, complete_graph(3), Fraction(1, 2))

    def test_budget_error_reports_k(self):
        g = er_graph(14, 0.5, 104)
        h = er_graph(14, 0.5, 105)
        with pytest.raises(BudgetExceededError) as err:
            robust_gi(g, h, Fraction(1, 50), budget=1000)
        assert err.value.attempted is not None
