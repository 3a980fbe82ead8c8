import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    er_graph,
    path_graph,
    random_qap,
    random_weighted_graph,
)
from paper_lemmas import restricted_threshold_system, sauer_shelah_check
from robustiso import Assignment, Graph, QapInstance
from robustiso.errors import BudgetExceededError
from robustiso.generators import gen_random_graph, gen_vc_gap_qap
from robustiso.qap import ged_to_qap, weighted_ged_to_qap
from robustiso.setsystems import (
    SetSystem,
    epsilon_approximation_sample,
    epsilon_net_greedy,
    is_shattered,
    mixed_system,
    neighbourhood_system,
    qap_threshold_system,
    vc_dimension_exact,
    verify_epsilon_approximation,
    weak_vc_test,
    weighted_graph_vc,
)


def powerset_system(k):
    return SetSystem.from_iterables(
        k, ([x for x in range(k) if m >> x & 1] for m in range(1 << k))
    )


def reference_vc_dimension(system):
    """The unpruned search the branch and bound replaced: every shattered set
    of at most log2 |H| elements, extended by increasing element index.
    Returns the dimension and the number of shattered sets it visited, the
    empty set included."""
    family = list(system.sets)
    if not family:
        return -1, 0
    nf = len(family)
    full_sig = (1 << nf) - 1
    seen_sigs = set()
    sigs = []
    for x in range(system.ground_size):
        bit = 1 << x
        sig = 0
        for i, m in enumerate(family):
            if m & bit:
                sig |= 1 << i
        if sig not in seen_sigs:
            seen_sigs.add(sig)
            if sig != 0 and sig != full_sig:
                sigs.append(sig)
    best = 0
    visited = 0

    def extend(groups, size, start):
        nonlocal best, visited
        visited += 1
        best = max(best, size)
        if 1 << (size + 1) > nf:
            return
        for idx in range(start, len(sigs)):
            sig = sigs[idx]
            split = []
            for grp in groups:
                inside = grp & sig
                if inside == 0 or inside == grp:
                    split = None
                    break
                split.append(inside)
                split.append(grp & ~sig)
            if split is not None:
                extend(split, size + 1, idx + 1)

    extend([full_sig], 0, 0)
    return best, visited


def planted_family(rng, ground, k, size):
    """Random members over `ground` elements; most of the 2^k traces on k
    planted elements occur, so the dimension is often near k."""
    planted = rng.sample(range(ground), k)
    family = set()
    for pattern in range(1 << k):
        if rng.random() < 0.9:
            m = rng.getrandbits(ground)
            for j, x in enumerate(planted):
                m = m | 1 << x if pattern >> j & 1 else m & ~(1 << x)
            family.add(m)
    while len(family) < size:
        family.add(rng.getrandbits(ground))
    return SetSystem(ground, frozenset(family))


class TestSystemConstruction:
    def test_deduplicates(self):
        s = SetSystem.from_iterables(3, [[0, 1], [1, 0], [2]])
        assert len(s) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SetSystem.from_iterables(2, [[2]])

    def test_members_decode(self):
        s = SetSystem.from_iterables(4, [[3, 1], []])
        assert s.members() == [(), (1, 3)]

    @pytest.mark.parametrize("ground", [0, 1, 7, 8, 9, 63, 64, 65, 200])
    def test_members_survive_packing(self, ground):
        rng = random.Random(ground)
        masks = {rng.getrandbits(ground) for _ in range(30)} | {0, (1 << ground) - 1}
        s = SetSystem(ground, masks)
        assert s.sets == tuple(sorted(masks)) and len(s) == len(masks)
        assert s == SetSystem(ground, list(masks))
        assert hash(s) == hash(SetSystem(ground, frozenset(masks)))

    def test_numpy_integer_masks_are_read_as_ints(self):
        import numpy as np

        s = SetSystem(4, np.array([3, 5, 3], dtype=np.int64))
        assert s.sets == (3, 5) and type(s.sets[0]) is int
        with pytest.raises(TypeError):
            SetSystem(4, [1.0])

    @pytest.mark.parametrize("mask", [-1, 8, 1 << 70])
    def test_rejects_masks_outside_the_ground_set(self, mask):
        with pytest.raises(ValueError, match="exceeds"):
            SetSystem(3, [1, mask])


class TestNeighbourhoodSystem:
    def test_edgeless_collapses_to_empty_set(self):
        s = neighbourhood_system(Graph(3, set()))
        assert s.members() == [()]

    def test_triangle(self):
        s = neighbourhood_system(complete_graph(3))
        assert s.members() == [(0, 1), (0, 2), (1, 2)]

    def test_path_shares_endpoint_neighbourhood(self):
        s = neighbourhood_system(path_graph(3))
        assert s.members() == [(0, 2), (1,)]


    def test_rows_come_from_the_edges_not_the_adjacency_cache(self):
        g = er_graph(12, 0.5, 40)
        rows = {
            sum(1 << w for w in range(g.n) if (min(v, w), max(v, w)) in g.edges)
            for v in range(g.n)
        }
        h = Graph(g.n, g.edges)
        assert set(neighbourhood_system(h).sets) == rows
        assert set(mixed_system(h).sets) == {a ^ b for a in rows for b in rows}


class TestMixedSystem:
    def test_no_vertices(self):
        assert mixed_system(Graph(0)).members() == [()]

    def test_edgeless(self):
        assert mixed_system(Graph(4, set())).members() == [()]

    def test_path(self):
        assert mixed_system(path_graph(3)).members() == [(), (0, 1, 2)]

    def test_clique_gives_all_pairs(self):
        s = mixed_system(complete_graph(4))
        members = set(s.members())
        assert () in members
        assert members - {()} == {
            tuple(sorted(p)) for p in itertools.combinations(range(4), 2)
        }


class TestShattering:
    def test_empty_subset_with_nonempty_family(self):
        assert is_shattered(SetSystem.from_iterables(2, [[0]]), [])

    def test_empty_family_shatters_nothing(self):
        assert not is_shattered(SetSystem(2, frozenset()), [])

    def test_missing_pair_trace(self):
        s = SetSystem.from_iterables(3, [[0], [1], [2], []])
        assert not is_shattered(s, [0, 1])
        assert is_shattered(s, [0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_shattered(SetSystem(2, frozenset()), [5])


class TestVcDimension:
    def test_single_empty_member(self):
        assert vc_dimension_exact(SetSystem(3, frozenset({0}))) == 0

    def test_power_set(self):
        assert vc_dimension_exact(powerset_system(3)) == 3

    def test_clique_neighbourhoods(self):
        for n in (3, 4, 6):
            assert vc_dimension_exact(neighbourhood_system(complete_graph(n))) == 1

    def test_empty_family(self):
        assert vc_dimension_exact(SetSystem(4, frozenset())) == -1

    def test_matches_naive_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            ground = rng.randint(0, 7)
            family = frozenset(
                rng.getrandbits(ground) for _ in range(rng.randint(0, 12))
            )
            system = SetSystem(ground, family)
            expected = -1
            if family:
                expected = 0
                for k in range(1, ground + 1):
                    if any(
                        is_shattered(system, x)
                        for x in itertools.combinations(range(ground), k)
                    ):
                        expected = k
                    else:
                        break
            assert vc_dimension_exact(system) == expected

    def test_removing_sets_never_increases_vc(self):
        rng = random.Random(12)
        for _ in range(30):
            ground = rng.randint(1, 8)
            family = [rng.getrandbits(ground) for _ in range(rng.randint(1, 12))]
            full = vc_dimension_exact(SetSystem(ground, frozenset(family)))
            sub = rng.sample(family, rng.randint(0, len(family)))
            assert vc_dimension_exact(SetSystem(ground, frozenset(sub))) <= full


class TestVcAgainstReference:
    """The branch and bound against the unpruned search on systems where
    its bounds cut: every value agrees, and it builds fewer nodes than the
    reference visits shattered sets."""

    def check(self, systems, dimensions):
        seen = set()
        for system in systems:
            want, visited = reference_vc_dimension(system)
            assert vc_dimension_exact(system) == want
            # every node is a nonempty shattered set, each built once
            assert vc_dimension_exact(system, budget=max(visited - 1, 0)) == want
            seen.add(want)
        assert dimensions <= seen

    def test_random_families_past_64_members(self):
        rng = random.Random(41)
        systems = []
        for _ in range(240):
            ground = rng.randint(1, 14)
            k = rng.randint(0, min(ground, 6))
            size = rng.randint(1 << k, 120) if k < 6 else 120
            systems.append(planted_family(rng, ground, k, min(size, 1 << ground)))
        assert sum(len(s) > 64 for s in systems) >= 60
        self.check(systems, set(range(7)))

    def test_neighbourhood_and_mixed_systems(self):
        graphs = [
            er_graph(n, p, 4200 + 10 * n + int(10 * p) + trial)
            for n in range(1, 22) for p in (0.2, 0.5, 0.8) for trial in range(2)
        ]
        self.check([neighbourhood_system(g) for g in graphs], {0, 1, 2, 3})
        self.check([mixed_system(g) for g in graphs], set(range(7)))

    def test_qap_threshold_systems(self):
        systems = []
        for n in (5, 6, 7):
            for trial in range(3):
                g = er_graph(n, 0.5, 4300 + 10 * n + trial)
                h = er_graph(n, 0.5, 4400 + 10 * n + trial)
                q = ged_to_qap(g, h)
                systems.append(qap_threshold_system(q, 0))
                systems.append(restricted_threshold_system(q, 0, Assignment.identity(n)))
            q = random_qap(n, 4500 + n, fill=0.3)
            systems.extend(qap_threshold_system(q, t) for t in sorted(q.value_set()))
        self.check(systems, {2, 3, 4})

    def test_power_sets_and_planted_families(self):
        for k in range(9):
            assert vc_dimension_exact(powerset_system(k)) == k
        rng = random.Random(42)
        for k in (3, 4, 5):
            system = planted_family(rng, 9, k, 1 << k)
            assert vc_dimension_exact(system) == reference_vc_dimension(system)[0]


def seeded_system(kind, seed):
    if kind == "nbhd-gnp40":
        return neighbourhood_system(gen_random_graph(40, seed=seed))
    if kind == "mixed-gnp16":
        return mixed_system(gen_random_graph(16, seed=seed))
    if kind == "ged-gnp8-t0":
        g, h = gen_random_graph(8, seed=seed), gen_random_graph(8, seed=seed + 100)
        return qap_threshold_system(ged_to_qap(g, h), 0)
    system = planted_family(random.Random(seed), 20, 6, 200)
    assert len(system) > 64
    return system


class TestVcNodeCounts:
    """The search tree, pinned by its size: each search answers with a
    budget of exactly its node count and refuses one node less.  The counts
    were recorded with the search that pop-counted both parts of every
    split and tested classes in split order."""

    @pytest.mark.parametrize("kind, seed, dimension, nodes", [
        ("nbhd-gnp40", 0, 4, 340),
        ("nbhd-gnp40", 1, 4, 295),
        ("nbhd-gnp40", 2, 4, 364),
        ("mixed-gnp16", 0, 6, 11),
        ("mixed-gnp16", 1, 6, 210),
        ("mixed-gnp16", 2, 6, 40),
        ("ged-gnp8-t0", 0, 5, 617),
        ("ged-gnp8-t0", 1, 5, 557),
        ("ged-gnp8-t0", 2, 5, 57),
        ("planted-200", 43, 6, 1105),
    ])
    def test_node_count(self, kind, seed, dimension, nodes):
        system = seeded_system(kind, seed)
        assert vc_dimension_exact(system, budget=nodes) == dimension
        with pytest.raises(BudgetExceededError) as err:
            vc_dimension_exact(system, budget=nodes - 1)
        assert err.value.attempted == nodes


class TestWeightedGraphVc:
    def test_unweighted_triangle(self):
        assert weighted_graph_vc(complete_graph(3)) == 1

    def test_edgeless(self):
        assert weighted_graph_vc(Graph(5, set())) == 0

    def test_no_vertices_is_the_empty_family(self):
        # every threshold graph of order 0 has no neighbourhood at all
        assert vc_dimension_exact(neighbourhood_system(Graph(0))) == -1
        assert weighted_graph_vc(Graph(0)) == -1

    def test_distinct_weights_enumerate_all_threshold_graphs(self):
        g = Graph(3, {(0, 1), (0, 2), (1, 2)},
                  weights={(0, 1): 1, (0, 2): 2, (1, 2): 3})
        # oracle: max over the four distinct threshold graphs
        from robustiso.graphs import threshold_graph

        expected = max(
            vc_dimension_exact(neighbourhood_system(threshold_graph(g, t)))
            for t in (0, 1, 2, 3)
        )
        assert weighted_graph_vc(g) == expected

    def test_constant_weights_match_unweighted(self):
        rng = random.Random(13)
        for trial in range(10):
            base = er_graph(rng.randint(2, 6), 0.5, 1000 + trial)
            scaled = Graph(
                base.n, base.edges, weights={e: Fraction(5, 3) for e in base.edges}
            )
            assert weighted_graph_vc(scaled) == vc_dimension_exact(
                neighbourhood_system(base)
            )


class TestQapThresholdSystems:
    def test_all_zero_instance(self):
        q = QapInstance(3, {})
        assert qap_threshold_system(q, 0).members() == [()]

    def test_all_one_instance(self):
        entries = {k: 1 for k in itertools.product(range(2), repeat=4)}
        q = QapInstance(2, entries)
        s = qap_threshold_system(q, Fraction(1, 2))
        assert s.members() == [(0, 1, 2, 3)]

    def test_log_gap_instance_shatters_pair(self):
        s = qap_threshold_system(gen_vc_gap_qap(4), 0)
        assert is_shattered(s, [0, 1])  # ground ids of (0,0) and (0,1)
        assert vc_dimension_exact(s) == 2

    def test_restriction_never_exceeds_full_system(self):
        rng = random.Random(14)
        for trial in range(15):
            n = rng.randint(2, 4)
            q = random_qap(n, 1100 + trial, fill=0.4)
            full = vc_dimension_exact(qap_threshold_system(q, 0))
            perm = list(range(n))
            rng.shuffle(perm)
            restricted = vc_dimension_exact(
                restricted_threshold_system(q, 0, Assignment(tuple(perm)))
            )
            assert restricted <= full

    def test_reduction_vc_within_tenfold_of_graph_vc(self):
        rng = random.Random(15)
        done = 0
        while done < 12:
            n = rng.randint(3, 6)
            g = random_weighted_graph(n, rng.randint(0, 10**6))
            h = random_weighted_graph(n, rng.randint(0, 10**6))
            d = max(weighted_graph_vc(g), weighted_graph_vc(h))
            if d < 1:
                continue
            q = weighted_ged_to_qap(g, h)
            thresholds = sorted(q.value_set())
            thresholds = [thresholds[0] - 1] + thresholds
            for t in thresholds:
                assert vc_dimension_exact(qap_threshold_system(q, t)) <= 10 * d
            done += 1

    def test_unweighted_sandwich(self):
        rng = random.Random(16)
        done = 0
        while done < 10:
            n = rng.randint(3, 5)
            g = er_graph(n, 0.5, rng.randint(0, 10**6))
            h = er_graph(n, 0.5, rng.randint(0, 10**6))
            dg = vc_dimension_exact(neighbourhood_system(g))
            dh = vc_dimension_exact(neighbourhood_system(h))
            if dg < 1 or dh < 1:
                continue
            d = max(dg, dh)
            q = ged_to_qap(g, h)
            full = vc_dimension_exact(qap_threshold_system(q, 0))
            perm = list(range(n))
            rng.shuffle(perm)
            restricted = vc_dimension_exact(
                restricted_threshold_system(q, 0, Assignment(tuple(perm)))
            )
            assert d <= restricted <= full <= 10 * d
            done += 1

    def test_mixed_system_vc_within_tenfold(self):
        rng = random.Random(17)
        done = 0
        while done < 12:
            g = er_graph(rng.randint(3, 7), 0.5, rng.randint(0, 10**6))
            d = vc_dimension_exact(neighbourhood_system(g))
            if d < 1:
                continue
            assert vc_dimension_exact(mixed_system(g)) <= 10 * d
            done += 1


class TestWeakVcTest:
    def test_zero_instance(self):
        assert weak_vc_test(QapInstance(3, {}), 0) is True

    def test_maps_of_size_n_are_tested(self):
        # d + 1 = n: the one threshold 0 shatters {0, 1} under the identity,
        # with traces {}, {0}, {1} and {0, 1} at (0, 0), (0, 1), (1, 0), (1, 1)
        cells = [(0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
        q = QapInstance(2, dict.fromkeys(cells, 1))
        assert weak_vc_test(q, 1) is False

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError, match="d must be non-negative"):
            weak_vc_test(QapInstance(3, {}), -1)

    def test_log_gap_instance_weakly_one_dimensional(self):
        q = gen_vc_gap_qap(4)
        assert weak_vc_test(q, 1) is True
        assert weak_vc_test(q, 0) is False

    def test_work_counts_only_thresholds_that_can_shatter(self):
        # A 0/1 instance has one such threshold, 0: no cell lies above its
        # largest value and every cell above a value below its smallest.
        # Work is 1 threshold x C(8,2) source pairs x 8*7 target pairs.
        q = gen_vc_gap_qap(8)
        with pytest.raises(BudgetExceededError) as info:
            weak_vc_test(q, 1, budget=1567)
        assert info.value.attempted == 1568
        assert weak_vc_test(q, 1, budget=1568) is True

    def test_matches_exhaustive_over_bijections(self):
        rng = random.Random(18)
        for trial in range(14):
            n = 3 if trial < 10 else 4
            q = random_qap(n, 1200 + trial, fill=0.4)
            for d in (0, 1, 2):
                expected = True
                thresholds = sorted(q.value_set())
                thresholds = [thresholds[0] - 1] + thresholds
                for t in thresholds:
                    for perm in itertools.permutations(range(n)):
                        s = restricted_threshold_system(q, t, Assignment(perm))
                        if vc_dimension_exact(s) > d:
                            expected = False
                assert weak_vc_test(q, d) is expected, (trial, d)


class TestEpsilonNets:
    def test_no_large_sets(self):
        s = SetSystem.from_iterables(5, [[]])
        assert epsilon_net_greedy(s, Fraction(1, 2)) == ()

    def test_single_full_set(self):
        s = SetSystem.from_iterables(10, [range(10)])
        assert len(epsilon_net_greedy(s, Fraction(1, 2))) == 1

    def test_cycle_neighbourhoods_all_hit(self):
        c6 = cycle_graph(6)
        s = neighbourhood_system(c6)
        net = epsilon_net_greedy(s, Fraction(1, 4))
        for member in s.members():
            if len(member) > Fraction(1, 4) * 6:
                assert set(member) & set(net)

    def test_net_property_on_random_systems(self):
        rng = random.Random(19)
        for _ in range(30):
            ground = rng.randint(1, 12)
            fam = [rng.getrandbits(ground) for _ in range(rng.randint(1, 15))]
            s = SetSystem(ground, frozenset(fam))
            eps = Fraction(rng.randint(1, 4), 4)
            net = epsilon_net_greedy(s, eps)
            assert len(net) <= max(1, math.ceil(math.log(len(s)) / float(eps)))
            for m in fam:
                if bin(m).count("1") > eps * ground:
                    assert any(m >> x & 1 for x in net)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            epsilon_net_greedy(SetSystem(1, frozenset()), 0)

    def test_members_of_exactly_eps_n_elements_need_no_hit(self):
        s = SetSystem.from_iterables(4, [[0, 1]])
        assert epsilon_net_greedy(s, Fraction(1, 2)) == ()
        assert epsilon_net_greedy(s, Fraction(1, 4)) == (0,)

    def test_ties_go_to_the_smallest_element(self):
        s = SetSystem.from_iterables(4, [[1, 2, 3]])
        assert epsilon_net_greedy(s, Fraction(1, 2)) == (1,)

    def test_empty_family_has_the_empty_net(self):
        # ln|H| is undefined for no members: the size bound is not checked
        assert epsilon_net_greedy(SetSystem(4, ()), Fraction(1, 2)) == ()


class TestEpsilonApproximation:
    def test_trivial_families_always_verify(self):
        s = SetSystem.from_iterables(6, [[]])
        sample = epsilon_approximation_sample(s, Fraction(1, 2), Fraction(1, 2), 1)
        assert verify_epsilon_approximation(s, sample, Fraction(1, 2))
        full = SetSystem.from_iterables(6, [range(6)])
        sample = epsilon_approximation_sample(full, Fraction(1, 2), Fraction(1, 2), 1)
        assert verify_epsilon_approximation(full, sample, Fraction(1, 2))

    def test_random_graph_sample_verifies(self):
        g = er_graph(20, 0.5, 77)
        s = neighbourhood_system(g)
        sample = epsilon_approximation_sample(
            s, Fraction(3, 10), Fraction(1, 10), seed=5
        )
        assert verify_epsilon_approximation(s, sample, Fraction(3, 10))

    def test_deterministic_given_seed(self):
        g = er_graph(15, 0.4, 78)
        s = neighbourhood_system(g)
        a = epsilon_approximation_sample(s, Fraction(1, 3), Fraction(1, 10), seed=9)
        b = epsilon_approximation_sample(s, Fraction(1, 3), Fraction(1, 10), seed=9)
        assert a == b

    def test_approximation_is_also_a_net(self):
        rng = random.Random(20)
        for trial in range(10):
            g = er_graph(rng.randint(8, 16), 0.5, 1300 + trial)
            s = neighbourhood_system(g)
            eps = Fraction(1, 3)
            sample = epsilon_approximation_sample(s, eps, Fraction(1, 10), seed=trial)
            hit = set(sample)
            for member in s.members():
                if len(member) > eps * s.ground_size:
                    assert set(member) & hit

    def test_parameter_validation(self):
        s = SetSystem.from_iterables(3, [[0]])
        with pytest.raises(ValueError):
            epsilon_approximation_sample(s, 1, Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            epsilon_approximation_sample(s, Fraction(1, 2), 0, 1)
        with pytest.raises(ValueError):
            epsilon_approximation_sample(s, Fraction(1, 2), 1, 1)

    @pytest.mark.parametrize("sample", [(0,), (2,)])
    def test_interval_ends_are_inside(self, sample):
        # {0, 1} of 4 has size 2, and eps * n = 2: sample (0,) estimates 4,
        # (2,) estimates 0, each 2 away, at the interval's lower and upper end
        s = SetSystem(4, [0b11])
        assert verify_epsilon_approximation(s, sample, Fraction(1, 2)) is True


class TestSauerShelah:
    def test_clique_pairs(self):
        s = neighbourhood_system(complete_graph(4))
        assert sauer_shelah_check(s, 2) is True

    def test_power_set_of_two(self):
        assert sauer_shelah_check(powerset_system(2), 2) is True

    def test_requires_positive_dimension(self):
        with pytest.raises(ValueError):
            sauer_shelah_check(SetSystem(2, frozenset({0})), 1)

    def test_random_systems(self):
        rng = random.Random(21)
        done = 0
        while done < 15:
            ground = rng.randint(2, 9)
            fam = [rng.getrandbits(ground) for _ in range(rng.randint(2, 14))]
            s = SetSystem(ground, frozenset(fam))
            d = vc_dimension_exact(s)
            if d < 1:
                continue
            for extra in (0, 1, 2):
                if d + extra <= ground:
                    assert sauer_shelah_check(s, d + extra) is True
            done += 1
