import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from robustiso import Assignment, generators
from robustiso.errors import BudgetExceededError, VerificationError
from robustiso.generators import (
    InstanceBundle,
    cfi_graph,
    gen_blowup_pair,
    gen_cfi_pair,
    gen_random_graph,
    gen_vc_gap_qap,
    load_bundle,
    save_bundle,
    stock_base,
)
from robustiso.graphs import (
    Graph,
    edit_distance_bruteforce,
    is_isomorphic_bruteforce,
    neighbour_masks,
)
from robustiso.setsystems import (
    is_shattered,
    neighbourhood_system,
    qap_threshold_system,
    vc_dimension_exact,
)
from robustiso.wl import wl_compare


class TestLogGapInstance:
    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            gen_vc_gap_qap(3)

    @pytest.mark.parametrize("n", list(range(4, 17)))
    def test_unrestricted_dimension_is_log(self, n):
        q = gen_vc_gap_qap(n)
        expected = n.bit_length() - 1
        assert vc_dimension_exact(qap_threshold_system(q, 0)) == expected

    @pytest.mark.parametrize("n", list(range(4, 17)))
    def test_every_restriction_is_at_most_one(self, n):
        q = gen_vc_gap_qap(n)
        rng = random.Random(n)
        bijections = [tuple(range(n)), tuple(reversed(range(n)))]
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            bijections.append(tuple(perm))
        for mapping in bijections:
            s = qap_threshold_system(q, 0, Assignment(mapping))
            assert vc_dimension_exact(s) <= 1

    def test_named_shattered_row_exists(self):
        q = gen_vc_gap_qap(8)
        s = qap_threshold_system(q, 0)
        # pairs (0, x) for the first three targets, encoded x on ground [n*n]
        assert is_shattered(s, [0, 1, 2])


class TestStockBases:
    @pytest.mark.parametrize("name", ["k4", "prism", "petersen", "mobius_kantor"])
    def test_three_regular(self, name):
        g = stock_base(name)
        assert all(row.bit_count() == 3 for row in neighbour_masks(g))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            stock_base("k5")


class TestCfi:
    def test_rejects_irregular_base(self):
        with pytest.raises(ValueError, match="3-regular"):
            cfi_graph(Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))

    def test_rejects_disconnected_base(self):
        two_k4 = Graph(
            8,
            {(i, j) for i in range(4) for j in range(i + 1, 4)}
            | {(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)},
        )
        with pytest.raises(ValueError, match="connected"):
            cfi_graph(two_k4)

    def test_rejects_twisted_non_edge(self):
        base = stock_base("prism")
        non_edge = next(e for e in itertools.combinations(range(base.n), 2) if e not in base.edges)
        with pytest.raises(ValueError, match="not in the base graph"):
            cfi_graph(base, twisted_edges=[non_edge])

    def test_pair_shape(self):
        bundle = gen_cfi_pair("k4")
        for g in (bundle.g, bundle.h):
            assert g.n == 40
            assert all(row.bit_count() == 3 for row in neighbour_masks(g))
            assert max(Counter(g.colours.values()).values()) <= 4

    def test_pair_not_isomorphic_but_same_twist_parity_is(self):
        base = stock_base("k4")
        edges = sorted(base.edges)
        plain = cfi_graph(base)
        one = cfi_graph(base, (edges[0],))
        assert is_isomorphic_bruteforce(plain, one) is None
        assert is_isomorphic_bruteforce(plain, cfi_graph(base, ())) is not None
        two = cfi_graph(base, (edges[0], edges[3]))
        assert is_isomorphic_bruteforce(plain, two) is not None

    def test_colour_refinement_cannot_tell(self):
        bundle = gen_cfi_pair("k4")
        assert wl_compare(bundle.g, bundle.h, 1).distinguishes is False

    def test_neighbourhood_dimension_small(self):
        bundle = gen_cfi_pair("k4")
        for g in (bundle.g, bundle.h):
            assert vc_dimension_exact(neighbourhood_system(g)) <= 3

    def test_metadata_claims(self):
        bundle = gen_cfi_pair("prism")
        claims = bundle.metadata["claims"]
        assert claims["non_isomorphic"] and claims["max_colour_class_size"] == 4


class TestBlowupBundles:
    def base_bundle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        cols = {v: 0 for v in range(n)}
        edges_a = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6}
        edges_b = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6}
        return InstanceBundle(
            Graph(n, frozenset(edges_a), colours=cols),
            Graph(n, frozenset(edges_b), colours=cols),
            {"family": "manual", "params": {}, "claims": {}},
        )

    def test_factor_one_preserves_graphs(self):
        bundle = self.base_bundle(1)
        same = gen_blowup_pair(bundle, 1)
        assert same.g.edges == bundle.g.edges
        assert same.g.n == bundle.g.n

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            gen_blowup_pair(self.base_bundle(2), 0)

    def test_metadata_inherits(self):
        blown = gen_blowup_pair(gen_cfi_pair("k4"), 2)
        assert blown.metadata["family"] == "blowup"
        assert blown.metadata["params"]["ell"] == 2
        assert blown.metadata["claims"]["edit_distance_at_least"] == 2

    def test_edit_distance_scales(self):
        for seed in range(6):
            bundle = self.base_bundle(100 + seed)
            base, _ = edit_distance_bruteforce(bundle.g, bundle.h)
            blown = gen_blowup_pair(bundle, 2)
            dist, _ = edit_distance_bruteforce(blown.g, blown.h)
            assert dist >= Fraction(4, 3) * base


class TestRandomGraphs:
    def test_extreme_probabilities(self):
        assert gen_random_graph(5, edge_prob=0, seed=1).edges == frozenset()
        assert len(gen_random_graph(5, edge_prob=1, seed=1).edges) == 10

    @pytest.mark.parametrize("n, p, match", [
        (0, None, "n must be >= 1"),
        (-2, None, "n must be >= 1"),
        (5, -0.25, "edge probability must lie in"),
        (5, 1.5, "edge probability must lie in"),
    ])
    def test_bad_order_or_probability_rejected(self, n, p, match):
        with pytest.raises(ValueError, match=match):
            gen_random_graph(n, edge_prob=p, seed=1)

    def test_seeded_determinism(self):
        a = gen_random_graph(12, edge_prob=0.5, seed=7)
        b = gen_random_graph(12, edge_prob=0.5, seed=7)
        assert a == b
        assert len(a.edges) == 36  # frozen for seed 7

    def test_target_vc_reached(self):
        g = gen_random_graph(10, edge_prob=0.5, target_vc=2, seed=3)
        assert vc_dimension_exact(neighbourhood_system(g)) == 2

    def test_unreachable_target_errors(self):
        with pytest.raises(ValueError):
            gen_random_graph(4, edge_prob=0.5, target_vc=5, seed=3, retries=5)

    @pytest.mark.parametrize(
        "n, target", [(30, 9), (1, 1), (4, 3), (7, 3), (15, 4), (8, -1)]
    )
    def test_impossible_target_refused_before_sampling(self, monkeypatch, n, target):
        # n neighbourhoods shatter at most floor(log2 n) vertices
        def no_search(system):
            raise AssertionError("a VC dimension was computed")

        monkeypatch.setattr(generators, "vc_dimension_exact", no_search)
        with pytest.raises(ValueError, match=f"neighbourhood VC {target}"):
            gen_random_graph(n, target_vc=target, seed=1)

    def test_possible_target_not_found_is_a_failed_search(self):
        # edgeless graphs have VC 0, so the search for VC 1 runs out
        with pytest.raises(VerificationError, match="found in 3 samples") as err:
            gen_random_graph(4, edge_prob=0, target_vc=1, seed=1, retries=3)
        assert not isinstance(err.value, ValueError)

    @pytest.mark.parametrize("n, target", [(1, 0), (4, 2), (7, 2), (8, 3), (30, 4)])
    def test_largest_possible_target_is_searched(self, monkeypatch, n, target):
        monkeypatch.setattr(generators, "vc_dimension_exact", lambda system, budget: target)
        assert gen_random_graph(n, target_vc=target, seed=1).n == n

    @pytest.mark.parametrize("n, refused", [(5_793, False), (5_794, True), (10**5, True)])
    def test_draw_cap_is_checked_before_the_first_draw(self, monkeypatch, n, refused):
        # C(5793, 2) = 16,776,528 <= 2^24 < C(5794, 2) = 16,782,321
        class Drawn(Exception):
            pass

        def no_draws(seed):
            raise Drawn

        monkeypatch.setattr(generators.random, "Random", no_draws)
        if refused:
            with pytest.raises(BudgetExceededError, match="edge draws") as err:
                gen_random_graph(n, seed=1)
            assert err.value.attempted == n * (n - 1) // 2 > generators.DRAW_CAP
        else:
            with pytest.raises(Drawn):
                gen_random_graph(n, seed=1)


class TestBundleIo:
    def test_round_trip(self, tmp_path):
        bundle = gen_cfi_pair("k4")
        save_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        assert loaded.g == bundle.g
        assert loaded.h == bundle.h
        assert loaded.metadata == bundle.metadata

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            InstanceBundle(Graph(2, set()), Graph(3, set()), {})
