import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    complete_graph,
    er_graph,
    path_graph,
    random_qap,
    random_weighted_graph,
    relabelled_copy,
)
from paper_lemmas import mean_threshold_estimate, restricted_threshold_system, threshold_grid
from robustiso import Assignment, QapInstance, qap
from robustiso.approx import approximate_qap, m_bound
from robustiso.errors import BudgetExceededError, ParseError
from robustiso.generators import gen_vc_gap_qap
from robustiso.graphs import Graph, edit_cost, edit_distance_bruteforce
from robustiso.qap import (
    b_alpha,
    ged_to_qap,
    parse_qap,
    qap_bruteforce,
    qap_cost,
    serialize_qap,
    weighted_ged_to_qap,
)
from robustiso.setsystems import qap_threshold_system, weak_vc_test


K3 = complete_graph(3)
PATH3 = path_graph(3)


def random_partial_injection(rng, n, size):
    sources = rng.sample(range(n), size)
    targets = rng.sample(range(n), size)
    return tuple(zip(sources, targets))


class TestQapInstance:
    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            QapInstance(2, {(0, 0, 0, 2): 1})

    def test_zero_entries_dropped(self):
        q = QapInstance(3, {(0, 0, 0, 0): 0})
        assert q.nonzero_entries() == []
        assert q.bound_b == 0

    def test_c_reads_stored_and_implicit_coefficients(self):
        large = QapInstance(12, {(0, 1, 2, 3): Fraction(5, 2), (11, 0, 0, 11): -1})
        small = QapInstance(4, {(0, 1, 2, 3): Fraction(5, 2)})
        assert small.c(0, 1, 2, 3) == Fraction(5, 2)
        assert small.c(3, 2, 1, 0) == 0
        assert large.c(11, 0, 0, 11) == -1
        assert large.c(0, 1, 2, 3) == Fraction(5, 2)
        assert large.c(11, 11, 11, 11) == 0

    def test_scaled_block_is_exact(self):
        for n, fill in ((4, 0.5), (12, 0.02)):
            q = random_qap(n, 2300 + n, bmax=2, denom=6, fill=fill)
            block, denom = q.scaled_block()
            assert block.shape == (n * n, n * n) and block.dtype == np.int64
            # c reads the block too, so both are checked against the stored entries
            stored = dict(q.nonzero_entries())
            for v, vp, w, wp in itertools.product(range(n), repeat=4):
                value = Fraction(int(block[v * n + vp, w * n + wp]), denom)
                assert value == q.c(v, vp, w, wp) == stored.get((v, vp, w, wp), 0)

    def test_scaled_block_keeps_huge_values_exact(self):
        q = QapInstance(
            2, {(0, 1, 1, 0): Fraction(2**70, 3), (1, 1, 1, 1): Fraction(1, 2)}
        )
        block, denom = q.scaled_block()
        assert block.dtype == object and denom == 6
        assert block[1, 2] == 2**71 and block[3, 3] == 3

    def test_value_set_includes_implicit_zero(self):
        q = QapInstance(3, {(0, 0, 0, 0): 1})
        assert q.value_set() == {0, 1}

    def test_value_set_of_empty_instance_is_zero(self):
        q = QapInstance(0, {})
        assert q.value_set() == {0}
        assert len(q.value_set()) == 1
        assert m_bound(1, 1, 0, len(q.value_set())) == 1
        assert weak_vc_test(q, 0) is True

    def test_equal_whichever_constructor(self):
        for seed in range(5):
            g = random_weighted_graph(4, 4900 + seed, denom=4)
            h = random_weighted_graph(4, 4950 + seed, denom=4)
            q = weighted_ged_to_qap(g, h)
            assert q == QapInstance(4, dict(q.nonzero_entries()))
            assert np.gcd.reduce(q.scaled, initial=q.denom) == 1
        doubled = QapInstance.from_array(np.full((2, 2, 2, 2), 2), 4)
        halves = dict.fromkeys(itertools.product(range(2), repeat=4), Fraction(1, 2))
        assert doubled == QapInstance(2, halves)
        assert doubled.denom == 2 and doubled.scaled.tolist() == [1] * 16

    def test_denominator_past_int64(self):
        # an int64 array over a denominator of 2^70, and the GED reduction of
        # weights 1e-20 and 3e-20 (common denominator 10^20 >= 2^63)
        scaled = np.zeros((2,) * 4, dtype=np.int64)
        scaled[0, 1, 1, 0], scaled[1, 1, 1, 1] = 4, 6
        q = QapInstance.from_array(scaled, 2**70)
        assert q.denom == 2**69 and q.scaled.dtype == np.int64
        assert q.scaled.tolist() == [2, 3]
        zero = QapInstance.from_array(np.zeros((2,) * 4, dtype=np.int64), 2**70)
        assert zero == QapInstance(2) and zero.denom == 1
        g = Graph(3, {(0, 1), (1, 2)}, weights={(0, 1): "1e-20", (1, 2): "3e-20"})
        q = weighted_ged_to_qap(g, g)
        assert q.c(0, 0, 0, 1) == Fraction(1, 10**20)
        assert q == QapInstance(3, dict(q.nonzero_entries()))

    def test_dense_forms_past_the_cell_cap_are_refused(self, monkeypatch):
        # the block, the threshold mask and the GED reduction of an order-65
        # instance (65^4 > 2^24 cells) raise before allocating; at a cap of
        # 3^4 order 3 still builds and order 4 does not.  A coefficient, a
        # cost and b_alpha read the block, so they are refused with it
        builds = {
            "block": lambda n: QapInstance(n, {}).scaled_block(),
            "mask": lambda n: QapInstance(n, {}).exceeds(0),
            "reduction": lambda n: weighted_ged_to_qap(Graph(n), Graph(n)),
            "coefficient": lambda n: QapInstance(n, {(0, 1, 1, 0): 1}).c(0, 1, 1, 0),
            "cost": lambda n: qap_cost(QapInstance(n, {}), Assignment.identity(n)),
            "b_alpha": lambda n: b_alpha(QapInstance(n, {}), [(0, 0)], 0, 0),
        }
        for name, build in builds.items():
            with pytest.raises(BudgetExceededError) as info:
                build(65)
            assert info.value.attempted == 65**4, name
        monkeypatch.setattr(qap, "CELL_CAP", 3**4)
        for name, build in builds.items():
            build(3)
            with pytest.raises(BudgetExceededError) as info:
                build(4)
            assert info.value.attempted == 4**4, name


class TestQapCost:
    def test_zero_instance(self):
        q = QapInstance(4, {})
        assert qap_cost(q, Assignment.identity(4)) == 0

    def test_reduction_doubles_single_mismatch(self):
        q = ged_to_qap(K3, PATH3)
        assert qap_cost(q, Assignment.identity(3)) == 2

    def test_single_coefficient_survives(self):
        q = QapInstance(2, {(0, 0, 1, 1): 5})
        assert qap_cost(q, Assignment.identity(2)) == 5

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            qap_cost(QapInstance(3, {}), Assignment.identity(2))


class TestGedReduction:
    def test_edgeless_pair_is_zero_instance(self):
        q = ged_to_qap(Graph(3, set()), Graph(3, set()))
        assert q.nonzero_entries() == []

    def test_factor_two_for_every_bijection(self):
        rng = random.Random(31)
        for trial in range(20):
            n = rng.randint(2, 5)
            g = er_graph(n, 0.5, 2000 + trial)
            h = er_graph(n, 0.5, 3000 + trial)
            q = ged_to_qap(g, h)
            for perm in itertools.permutations(range(n)):
                pi = Assignment(perm)
                assert qap_cost(q, pi) == 2 * edit_cost(g, h, pi)

    def test_isomorphic_pair_has_zero_optimum(self):
        g = er_graph(5, 0.5, 2100)
        h = relabelled_copy(g, 2101)
        q = ged_to_qap(g, h)
        cost, _ = qap_bruteforce(q)
        assert cost == 0

    def test_rejects_weighted_input(self):
        g = Graph(2, {(0, 1)}, weights={(0, 1): 2})
        with pytest.raises(ValueError, match="weighted"):
            ged_to_qap(g, Graph(2, set()))

    def test_rejects_coloured_input(self):
        g = Graph(2, set(), colours={0: 0, 1: 1})
        with pytest.raises(ValueError, match="colour"):
            ged_to_qap(g, Graph(2, set()))

    def test_bound_is_one(self):
        assert ged_to_qap(K3, PATH3).bound_b == 1


class TestWeightedReduction:
    def test_identical_graphs_zero_under_identity(self):
        g = random_weighted_graph(4, 41)
        q = weighted_ged_to_qap(g, g)
        assert qap_cost(q, Assignment.identity(4)) == 0

    def test_single_edge_difference(self):
        g = Graph(2, {(0, 1)}, weights={(0, 1): 3})
        h = Graph(2, {(0, 1)}, weights={(0, 1): 1})
        q = weighted_ged_to_qap(g, h)
        assert qap_cost(q, Assignment.identity(2)) == 4

    def test_factor_two_for_every_bijection(self):
        rng = random.Random(32)
        for trial in range(10):
            n = rng.randint(2, 4)
            g = random_weighted_graph(n, 2200 + trial)
            h = random_weighted_graph(n, 2300 + trial)
            q = weighted_ged_to_qap(g, h)
            for perm in itertools.permutations(range(n)):
                pi = Assignment(perm)
                assert qap_cost(q, pi) == 2 * edit_cost(g, h, pi)

    def test_bound_within_sum_of_graph_bounds(self):
        g = random_weighted_graph(4, 43)
        h = random_weighted_graph(4, 44)
        q = weighted_ged_to_qap(g, h)
        assert q.bound_b <= g.bound_b() + h.bound_b()


class TestQapBruteforce:
    def test_zero_instance_returns_identity(self):
        cost, pi = qap_bruteforce(QapInstance(3, {}))
        assert cost == 0 and pi.mapping == (0, 1, 2)

    def test_matches_edit_distance(self):
        cost, _ = qap_bruteforce(ged_to_qap(K3, PATH3))
        dist, _ = edit_distance_bruteforce(K3, PATH3)
        assert cost == 2 * dist

    def test_reversal_rewarding_instance(self):
        n = 4
        entries = {
            (v, n - 1 - v, w, n - 1 - w): -1
            for v in range(n)
            for w in range(n)
        }
        cost, pi = qap_bruteforce(QapInstance(n, entries))
        assert pi.mapping == (3, 2, 1, 0)
        assert cost == -16

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            qap_bruteforce(QapInstance(10, {}))


def stored_cost(q, mapping):
    """The QAP cost of mapping summed over the stored coefficients, not the block."""
    return sum(
        (value for (v, vp, w, wp), value in q.nonzero_entries()
         if mapping[v] == vp and mapping[w] == wp),
        Fraction(0),
    )


class TestBlockTotals:
    def instances(self):
        for n in range(5):
            yield random_qap(n, 8100 + n, bmax=3, denom=6, fill=0.4)
        # 2^70 keeps the block in Python ints
        yield QapInstance(2, {(0, 0, 0, 0): 2**70, (0, 1, 0, 1): 2**70})

    def test_matches_the_stored_coefficients(self):
        for q in self.instances():
            block, denom = q.scaled_block()
            perms = np.array(list(itertools.permutations(range(q.n))), dtype=np.int64)
            want = [stored_cost(q, p) for p in perms.tolist()]
            for p, cost in zip(perms.tolist(), want):
                assert Fraction(int(qap.block_totals(block, p)), denom) == cost, (q, p)
            batch = qap.block_totals(block, perms)
            assert batch.shape == (len(perms),)
            assert [Fraction(int(t), denom) for t in batch] == want
            if len(perms) % 2 == 0:
                stacked = qap.block_totals(block, perms.reshape(2, -1, q.n))
                assert stacked.shape == (2, len(perms) // 2)
                assert [Fraction(int(t), denom) for t in stacked.ravel()] == want

    def test_costs_agree(self):
        for seed in range(6):
            q = random_qap(4, 8200 + seed, bmax=2, denom=3, fill=0.5)
            oracle, phi = qap_bruteforce(q)
            costs = [qap_cost(q, Assignment(p)) for p in itertools.permutations(range(4))]
            assert oracle == min(costs) == qap_cost(q, phi) == stored_cost(q, phi.mapping)
            for lp_method in ("exact", "highs"):
                report = approximate_qap(q, 1, 1, seed=seed, lp_method=lp_method)
                assert report.best_cost == qap_cost(q, report.best_assignment)
                assert report.best_cost == stored_cost(q, report.best_assignment.mapping)
                assert report.best_cost >= oracle


class TestBAlpha:
    def test_zero_instance(self):
        q = QapInstance(4, {})
        alpha = ((0, 0),)
        assert b_alpha(q, alpha, 1, 2) == 0

    def test_singleton_scaling(self):
        q = QapInstance(4, {(2, 3, 0, 0): 3})
        alpha = ((0, 0),)
        assert b_alpha(q, alpha, 2, 3) == 12

    def test_full_graph_matches_restricted_member_size(self):
        # 0/1 instance: b over the whole bijection graph counts the
        # restricted threshold members exactly
        g = er_graph(4, 0.5, 51)
        h = er_graph(4, 0.5, 52)
        q = ged_to_qap(g, h)
        phi = Assignment((1, 3, 0, 2))
        alpha = tuple(enumerate(phi.mapping))
        for v in range(4):
            for vp in range(4):
                size = sum(1 for w in range(4) if q.c(v, vp, w, phi[w]) > 0)
                assert b_alpha(q, alpha, v, vp) == size

    def test_empty_alpha_rejected(self):
        with pytest.raises(ValueError):
            b_alpha(QapInstance(2, {}), (), 0, 0)

    @pytest.mark.parametrize("pair", [(0, 3), (3, 0), (0, -1), (-1, 0)])
    def test_alpha_outside_the_ground_set_rejected(self, pair):
        # unchecked, (0, 3) read the coefficient of (1, 0): b = 3, not 0
        q = ged_to_qap(Graph(3, {(0, 1)}), Graph(3, {(1, 2)}))
        assert b_alpha(q, ((1, 0),), 0, 1) == 3
        with pytest.raises(ValueError, match="alpha exceeds the ground set"):
            b_alpha(q, (pair,), 0, 1)

    @pytest.mark.parametrize("v, vp", [(0, 3), (3, 0), (0, -1), (-1, 0)])
    def test_pair_outside_the_ground_set_rejected(self, v, vp):
        q = ged_to_qap(Graph(3, {(0, 1)}), Graph(3, {(1, 2)}))
        with pytest.raises(ValueError, match=r"\(v, v'\) exceeds the ground set"):
            b_alpha(q, ((0, 0),), v, vp)

    def test_linear_in_coefficients(self):
        rng = random.Random(33)
        for trial in range(10):
            n = rng.randint(2, 5)
            q = random_qap(n, 2400 + trial)
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = QapInstance(
                n, {k: lam * v for k, v in q.nonzero_entries()}
            )
            alpha = random_partial_injection(rng, n, rng.randint(1, n))
            v, vp = rng.randrange(n), rng.randrange(n)
            assert b_alpha(scaled, alpha, v, vp) == lam * b_alpha(q, alpha, v, vp)


class TestThresholdGrid:
    def test_unit_bound_unit_eps(self):
        grid = threshold_grid(1, 1)
        assert grid.k == 24
        assert grid.thresholds[0] == -1
        assert grid.step == Fraction(1, 12)

    def test_single_interval(self):
        grid = threshold_grid(1, 24)
        assert grid.k == 1 and grid.thresholds == (Fraction(-1),)

    def test_fractional_bound(self):
        grid = threshold_grid(Fraction(1, 2), 3)
        assert grid.k == 4
        assert grid.thresholds == (
            Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4),
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            threshold_grid(0, 1)
        with pytest.raises(ValueError):
            threshold_grid(1, 0)

    def test_intervals_cover_range_exactly_once(self):
        rng = random.Random(34)
        for _ in range(20):
            b = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            eps = Fraction(rng.randint(1, 30), rng.randint(1, 3))
            grid = threshold_grid(b, eps)
            for _ in range(10):
                x = Fraction(rng.randint(-100, 99), 100) * b
                if not -b <= x < b:
                    continue
                holding = [
                    t for t in grid.thresholds if t <= x < t + grid.step
                ]
                assert len(holding) == 1


class TestMeanThresholdEstimate:
    def test_zero_instance_contained(self):
        q = QapInstance(3, {})
        grid = threshold_grid(1, 1)
        alpha = ((0, 0), (1, 1))
        est = mean_threshold_estimate(q, alpha, grid, 0, 0)
        assert est.contains

    def test_reduction_instance_contained(self):
        q = ged_to_qap(K3, PATH3)
        grid = threshold_grid(q.bound_b, 1)
        alpha = ((0, 0), (1, 1), (2, 2))
        for v in range(3):
            for vp in range(3):
                assert mean_threshold_estimate(q, alpha, grid, v, vp).contains

    def test_random_draws_contained(self):
        rng = random.Random(35)
        for trial in range(100):
            n = rng.randint(2, 5)
            q = random_qap(n, 2500 + trial, bmax=2)
            b = max(q.bound_b, Fraction(1))
            grid = threshold_grid(b, Fraction(rng.randint(1, 6), 2))
            alpha = random_partial_injection(rng, n, rng.randint(1, n))
            est = mean_threshold_estimate(
                q, alpha, grid, rng.randrange(n), rng.randrange(n)
            )
            assert est.contains

    def test_grid_below_instance_bound_rejected(self):
        q = QapInstance(2, {(0, 0, 0, 0): 5})
        grid = threshold_grid(1, 1)
        with pytest.raises(ValueError, match="bound"):
            mean_threshold_estimate(q, ((0, 0),), grid, 0, 0)


class TestDistinctValues:
    def test_zero_instance(self):
        assert len(QapInstance(5, {}).value_set()) == 1

    def test_binary_instance(self):
        assert len(ged_to_qap(K3, PATH3).value_set()) == 2

    def test_four_values(self):
        q = QapInstance(
            2,
            {
                (0, 0, 0, 0): -1,
                (0, 0, 1, 1): Fraction(1, 2),
                (1, 1, 0, 0): 1,
            },
        )
        assert len(q.value_set()) == 4


class TestQapFiles:
    def test_round_trip(self):
        rng = random.Random(36)
        for trial in range(10):
            q = random_qap(rng.randint(1, 4), 2600 + trial, fill=0.3)
            assert parse_qap(serialize_qap(q)) == q

    def test_parse_example(self):
        q = parse_qap("qap 2\nq 0 0 1 1 5\n# done\n")
        assert q.c(0, 0, 1, 1) == 5 and q.n == 2

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse_qap("q 0 0 0 0 1")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_qap("qap 2\nq 0 0 0 2 1")

    def test_duplicate_coefficient(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_qap("qap 2\nq 0 0 0 1 1\nq 0 0 0 1 2")

    def test_serialisation_sorted(self):
        q = QapInstance(2, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2})
        lines = serialize_qap(q).splitlines()
        assert lines[1].startswith("q 0 1") and lines[2].startswith("q 1 0")


def pinned_instances():
    """39 seeded instances: random, GED reductions, vc-gap and one past int64."""
    out = [
        random_qap(n, 4100 + n, bmax=2, denom=3, fill=0.5 if n <= 8 else 0.02)
        for n in (*range(9), 12, 13)
    ]
    for n in range(1, 11):
        out.append(ged_to_qap(er_graph(n, 0.5, 4200 + n), er_graph(n, 0.5, 4300 + n)))
        out.append(
            weighted_ged_to_qap(
                random_weighted_graph(n, 4400 + n), random_weighted_graph(n, 4500 + n)
            )
        )
    for n in (3, 6, 8, 10):
        g = er_graph(n, 0.5, 4600 + n)
        out.append(ged_to_qap(g, relabelled_copy(g, 4700 + n)))
    out += [gen_vc_gap_qap(n) for n in (4, 8, 16)]
    out.append(
        QapInstance(2, {(0, 1, 1, 0): Fraction(2**70, 3), (1, 1, 1, 1): Fraction(1, 2)})
    )
    return out


def pinned_records(q, rng):
    """Printable outputs of every QAP consumer on q, grouped by function."""
    n = q.n
    perms = [Assignment.identity(n)] + [
        Assignment(rng.sample(range(n), n)) for _ in range(2)
    ]
    block, denom = q.scaled_block()
    records = {
        "serialize_qap": [serialize_qap(q)],
        "scaled_block": [f"{block.tolist()} / {denom}"],
        "qap_cost": [str(qap_cost(q, phi)) for phi in perms],
        "b_alpha": [],
        "qap_threshold_system": [],
        "weak_vc_test": [],
    }
    for _ in range(2 if n else 0):
        alpha = random_partial_injection(rng, n, rng.randint(1, n))
        records["b_alpha"] += [
            str(b_alpha(q, alpha, v, vp)) for v in range(n) for vp in range(n)
        ]
    for t in (-1, Fraction(-1, 3), 0, Fraction(1, 2), 1):
        restricted = restricted_threshold_system(q, t, perms[-1])
        for system in (qap_threshold_system(q, t), restricted):
            records["qap_threshold_system"].append(
                f"{system.ground_size} {sorted(system.sets)}"
            )
    if n <= 6 or n == 8 and q.bound_b == 1:
        for d in (0, 1):
            try:
                verdict = weak_vc_test(q, d, budget=20_000)
            except BudgetExceededError as err:
                verdict = f"budget {err}"
            records["weak_vc_test"].append(str(verdict))
    return records


# sha256 of the records above, taken before QapInstance moved to one array form
PINNED_DIGESTS = {
    "serialize_qap": "e3cb3f988abac7063b09c3773829a6929a75d0f39ea998930f6b40c3be57c8c8",
    "scaled_block": "35de3dcef30d7f5aba48dd0e85429f430ecc94d59178ea3b11d8a9d9826df13b",
    "qap_cost": "893b1a685121990e728765be8f99fd3837c1518030dfbf659eb2d9bc362d009c",
    "b_alpha": "a761d708aa081730d41b57db8da5e32e484388b319f152f1c34640d66fc34983",
    "qap_threshold_system": "de3125ad330fd48d7e14819d83a447f5ca64ecd127e117a9993307e1b1ed7ab9",
    "weak_vc_test": "09ad687d60c990da5ad369d839aa75c79716504005d0703957b6164b8fa9828c",
}


class TestPinnedOutputs:
    def test_outputs_match_pinned_digests(self):
        rng = random.Random(4800)
        joined = {}
        for q in pinned_instances():
            for name, lines in pinned_records(q, rng).items():
                joined.setdefault(name, []).extend(lines)
        digests = {
            name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in joined.items()
        }
        assert digests == PINNED_DIGESTS
