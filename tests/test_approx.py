import collections
import functools
import hashlib
import itertools
import math
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import (
    complete_graph,
    cycle_graph,
    er_graph,
    lp_value,
    path_graph,
    random_qap,
    random_weighted_graph,
    relabelled_copy,
)
from paper_lemmas import threshold_grid
from robustiso import Assignment, Graph, QapInstance, approx, simplex
from robustiso.approx import (
    approximate_ged,
    approximate_qap,
    build_alpha_lp,
    complete_matching,
    lp_model,
    m_bound,
    round_apec,
    solve_lp,
)
from robustiso.errors import BudgetExceededError
from robustiso.generators import gen_random_graph
from robustiso.graphs import edit_distance_bruteforce
from robustiso.qap import b_alpha, ged_to_qap, qap_bruteforce, qap_cost, weighted_ged_to_qap


K3 = complete_graph(3)
PATH3 = path_graph(3)


class TestMBound:
    def test_basic_value(self):
        assert m_bound(1, 1, 1, 2) == 2

    def test_larger_value(self):
        assert m_bound(1, Fraction(1, 2), 3, 2) == 15

    def test_clamped_to_n(self):
        assert m_bound(4, Fraction(1, 10), 5, 16, n=6) == 6

    def test_clamped_to_one_at_order_zero(self):
        # approximate_qap refuses m < 1, so order 0 still gets m = 1
        assert m_bound(1, 1, 0, 1, n=0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            m_bound(0, 1, 1, 2)


def fraction_rows(model):
    """The rows a(v, v') of the model as lists of Fractions."""
    return [[Fraction(c, model.denom) for c in row] for row in model.block.tolist()]


def int_bounds(lp):
    """lp.integer_bounds with lo and hi as lists of Python ints."""
    lows, highs, den = lp.integer_bounds
    return lows.tolist(), highs.tolist(), den


class TestBuildAlphaLp:
    def test_zero_instance_rows(self):
        lp = build_alpha_lp(lp_model(QapInstance(2, {})), ((0, 0),), 1)
        assert len(lp.b_num) == 4
        rows = fraction_rows(lp.model)
        lows, highs, den = int_bounds(lp)
        # two inequality rows each at solve time
        assert len(lows) == len(highs) == len(rows) == 4
        for coeffs, lo, hi in zip(rows, lows, highs):
            assert all(c == 0 for c in coeffs)
            assert (Fraction(lo, den), Fraction(hi, den)) == (Fraction(-2, 3), Fraction(2, 3))

    def test_objective_is_b_alpha(self):
        q = ged_to_qap(K3, PATH3)
        alpha = ((0, 1), (2, 0))
        lp = build_alpha_lp(lp_model(q), alpha, 1)
        for v in range(3):
            for vp in range(3):
                b = Fraction(int(lp.b_num[v * 3 + vp]), lp.b_den)
                assert b == b_alpha(q, alpha, v, vp)

    def test_optimal_solution_feasible_for_matching_alpha(self):
        # alpha inside an isomorphism's graph keeps its indicator feasible
        g = er_graph(4, 0.5, 61)
        h = relabelled_copy(g, 62)
        q = ged_to_qap(g, h)
        _, phi = qap_bruteforce(q)
        assert qap_cost(q, phi) == 0
        alpha = tuple(enumerate(phi.mapping))[:2]
        lp = build_alpha_lp(lp_model(q), alpha, 1)
        lows, highs, den = int_bounds(lp)
        for coeffs, lo, hi in zip(fraction_rows(lp.model), lows, highs):
            lo, hi = Fraction(lo, den), Fraction(hi, den)
            value = sum(
                coeffs[w * 4 + wp]
                for w in range(4)
                for wp in range(4)
                if phi[w] == wp
            )
            assert lo <= value <= hi

    def test_empty_alpha_rejected(self):
        with pytest.raises(ValueError):
            build_alpha_lp(lp_model(QapInstance(2, {})), (), 1)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_pairs_outside_the_ground_set_rejected(self, pair):
        # a negative index would pick a column from the other end of the block
        with pytest.raises(ValueError, match="ground set"):
            build_alpha_lp(lp_model(ged_to_qap(K3, PATH3)), [pair], 1)


class TestSolveLp:
    def test_zero_objective_gives_doubly_stochastic(self):
        lp = build_alpha_lp(lp_model(QapInstance(3, {})), ((0, 0),), 1)
        x = solve_lp(lp, "exact")
        assert len(x) == 9 and lp_value(lp, x) == 0
        for v in range(3):
            assert sum(x[v * 3 : v * 3 + 3]) == 1
            assert sum(x[v::3]) == 1

    def test_contradictory_rows_infeasible(self):
        # on the assignment polytope row (0, 0) is 3 + 19 x(0, 0) <= 22, but
        # alpha puts it in [59, 61]
        entries = {(0, 0, w, wp): 1 for w in range(3) for wp in range(3)}
        entries[(0, 0, 0, 0)] = 20
        lp = build_alpha_lp(lp_model(QapInstance(3, entries)), ((0, 0),), 1)
        lows, highs, den = int_bounds(lp)
        assert Fraction(lows[0], den) == 59 and Fraction(highs[0], den) == 61
        assert solve_lp(lp, "exact") is None
        assert solve_lp(lp, "highs") is None

    def test_bounds_are_computed_once_per_lp(self):
        # _refutes and solve_lp both read them: one set of arrays per LP
        lp = build_alpha_lp(lp_model(ged_to_qap(K3, PATH3)), ((0, 1),), 1)
        first = lp.integer_bounds
        assert solve_lp(lp, "exact") is not None
        assert lp.integer_bounds is first

    def test_backends_agree(self):
        rng = random.Random(63)
        for trial in range(15):
            n = rng.randint(2, 4)
            q = random_qap(n, 3000 + trial)
            size = rng.randint(1, n)
            alpha = tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size)))
            lp = build_alpha_lp(lp_model(q), alpha, Fraction(rng.randint(1, 4), 2))
            exact = solve_lp(lp, "exact")
            fast = solve_lp(lp, "highs")
            assert (exact is None) == (fast is None)
            if exact is not None:
                assert abs(float(lp_value(lp, exact)) - lp_value(lp, fast)) < 1e-6

    def test_highs_agrees_with_linprog(self):
        # reference: linprog on the same LP, each ranged row split into two
        counts = {"optimal": 0, "infeasible": 0}
        for model, lps in seeded_highs_lps():
            n = model.n
            rows = [[float(c) for c in row] for row in fraction_rows(model)]
            for lp in lps:
                lows, highs, den = int_bounds(lp)
                res = linprog(
                    [b / lp.b_den for b in lp.b_num.tolist()],
                    A_ub=rows + [[-c for c in row] for row in rows],
                    b_ub=[hi / den for hi in highs] + [-lo / den for lo in lows],
                    A_eq=model.assignment,
                    b_eq=[1] * (2 * n),
                    method="highs",
                )
                assert res.status in (0, 2)
                fast = solve_lp(lp, "highs")
                assert (fast is None) == (res.status == 2)
                if res.status == 0:
                    counts["optimal"] += 1
                    assert abs(lp_value(lp, fast) - res.fun) < 1e-9
                else:
                    counts["infeasible"] += 1
        assert counts["optimal"] >= 10 and counts["infeasible"] >= 10

    def test_highs_floats_round_as_their_fractions(self):
        # HiGHS's values reach the rounding as floats, unconverted; each
        # vector rounds to the matching its exact Fraction values give
        rounded = 0
        for model, lps in seeded_highs_lps():
            for lp in lps:
                x = solve_lp(lp, "highs")
                if x is None:
                    continue
                assert len(x) == model.n**2 and all(type(xi) is float for xi in x)
                exact = tuple(map(Fraction, x))
                for seed in range(4):
                    assert round_apec(x, lp, seed) == round_apec(exact, lp, seed)
                    rounded += 1
        assert rounded >= 40

    @pytest.mark.parametrize(
        "status", ["kInfeasible", "kUnboundedOrInfeasible", "kTimeLimit", "kSolveError"]
    )
    def test_highs_status_mapping(self, monkeypatch, status):
        code = getattr(approx._highs.HighsModelStatus, status)

        class StoppedSolver(approx._highs._Highs):
            def getModelStatus(self):
                return code

        monkeypatch.setattr(approx._highs, "_Highs", StoppedSolver)
        lp = build_alpha_lp(lp_model(QapInstance(3, {})), ((0, 0),), 1)
        if status in ("kInfeasible", "kUnboundedOrInfeasible"):
            assert solve_lp(lp, "highs") is None
        else:
            with pytest.raises(RuntimeError, match="HiGHS stopped"):
                solve_lp(lp, "highs")

    def test_dual_simplex_stop_is_retried_with_the_primal(self, monkeypatch):
        # without presolve HiGHS's dual simplex stopped with status Unknown on
        # these two infeasible LPs; the primal simplex, run once more from
        # scratch, finds them infeasible.  The bracket lets them through and
        # the tight ranges refute them, so HiGHS gets their arrays directly
        cleared = []
        real = approx._highs._Highs

        class Counted(real):
            def clearSolver(self):
                cleared.append(self.getModelStatus())
                return super().clearSolver()

        monkeypatch.setattr(approx._highs, "_Highs", Counted)
        for lp in unknown_status_lps():
            assert not approx._refutes(lp, lp.model.row_ranges)
            assert approx._refutes(lp, lp.model.tight_row_ranges)
            assert approx._highs_solve(*list_highs_arrays(lp), lp.model.csc) is None
            assert solve_lp(lp, "highs") is None
            assert solve_lp(lp, "exact") is None
        assert cleared == [approx._highs.HighsModelStatus.kUnknown] * 2

    def test_a_reused_solver_carries_nothing_over(self):
        # one thread's solver takes the primal retry on the two Unknown-status
        # LPs, then solves every seeded LP that the bracket lets through: each
        # answer equals a fresh solver's on the same LP given as Python lists,
        # so no strategy, basis or option passes from one solve to the next
        lps = list(unknown_status_lps())
        lps += [
            lp for _, seeded in seeded_highs_lps() for lp in seeded
            if not approx._refutes(lp, lp.model.row_ranges)
        ]
        answers, solvers = [], set()

        def solve_all():
            for lp in lps:
                answers.append(approx._highs_solve(*list_highs_arrays(lp), lp.model.csc))
                solvers.add(id(approx._local.solver))

        thread = threading.Thread(target=solve_all)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert len(answers) == len(lps) and len(solvers) == 1
        for lp, x in zip(lps, answers):
            assert x == fresh_list_solve(lp)
        feasible = sum(x is not None for x in answers)
        assert feasible >= 10 and len(lps) - feasible >= 10

    def test_refused_thread_count_is_retried_with_zero(self, monkeypatch):
        # a solver with threads=2 starts this thread's HiGHS scheduler with two
        # threads; the thread's own solver then has its run refused at
        # threads=1, and runs again at threads=0, which takes that scheduler
        model = lp_model(ged_to_qap(gen_random_graph(6, seed=1), gen_random_graph(6, seed=2)))
        lps = [build_alpha_lp(model, ((v, w),), 4) for v in range(2) for w in range(3)]
        clean = [solve_lp(lp, "highs") for lp in lps]
        assert all(x is not None for x in clean)
        real = approx._highs._Highs
        threads, answers, errors = [], [], []

        class Recorded(real):
            def setOptionValue(self, name, value):
                if name == "threads":
                    threads.append(value)
                return super().setOptionValue(name, value)

        def solve_after_two_threads():
            other = real()
            other.setOptionValue("output_flag", False)
            other.setOptionValue("threads", 2)
            other.run()
            monkeypatch.setattr(approx._highs, "_Highs", Recorded)
            try:
                answers.extend(solve_lp(lp, "highs") for lp in lps)
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=solve_after_two_threads)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and errors == []
        assert threads == [1, 0]
        assert answers == clean

    def test_both_simplex_stops_raise_with_the_status(self, monkeypatch):
        strategies = []
        simplex = approx._highs.simplex_constants.SimplexStrategy

        class Stopped(approx._highs._Highs):
            def run(self):
                strategies.append(self.getOptionValue("simplex_strategy")[1])
                return super().run()

            def getModelStatus(self):
                return approx._highs.HighsModelStatus.kUnknown

        monkeypatch.setattr(approx._highs, "_Highs", Stopped)
        lp = build_alpha_lp(lp_model(QapInstance(3, {})), ((0, 0),), 1)
        with pytest.raises(RuntimeError, match="^HiGHS stopped with status Unknown$"):
            solve_lp(lp, "highs")
        assert strategies == [
            int(simplex.kSimplexStrategyDual), int(simplex.kSimplexStrategyPrimal)
        ]

    def test_highs_reads_a_full_rank_matrix(self, monkeypatch):
        # HiGHS gets the block rows and 2n - 1 assignment rows; its vectors
        # still meet all 2n unit sums, the left-out last target sum included
        rows = []
        real = approx._highs_solve

        def solve(cost, row_lower, row_upper, csc):
            rows.append(len(row_lower))
            assert len(row_upper) == len(row_lower)
            assert max(csc[1]) == len(row_lower) - 1
            return real(cost, row_lower, row_upper, csc)

        monkeypatch.setattr(approx, "_highs_solve", solve)
        feasible = collections.Counter()
        for n in range(1, 9):
            for kind, q in (
                ("unweighted", ged_to_qap(er_graph(n, 0.5, 3600 + n), er_graph(n, 0.5, 3700 + n))),
                ("weighted", weighted_ged_to_qap(
                    random_weighted_graph(n, 3600 + n), random_weighted_graph(n, 3700 + n)
                )),
                ("qap", random_qap(n, 3600 + n, fill=0.3)),
            ):
                model = lp_model(q)
                rng = random.Random(3800 + n)
                for eps in (1, 2, 4):
                    for _ in range(2):
                        alpha = ((rng.randrange(n), rng.randrange(n)),)
                        lp = build_alpha_lp(model, alpha, eps)
                        del rows[:]
                        x = solve_lp(lp, "highs")
                        assert rows in ([], [n * n + 2 * n - 1])
                        if x is None:
                            continue
                        feasible[kind] += 1
                        for v in range(n):
                            assert abs(sum(x[v * n : v * n + n]) - 1) < 1e-9
                            assert abs(sum(x[v::n]) - 1) < 1e-9
        assert min(feasible.values()) >= 10 and len(feasible) == 3

    def test_order_zero_builds_no_lp(self, monkeypatch):
        # n = 0 keeps no assignment row: 2n - 1 is never taken as row -1
        assert [a.tolist() for a in lp_model(QapInstance(0, {})).csc] == [[0], [], []]

        def no_lp(*args):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(approx, "build_alpha_lp", no_lp)
        assert approximate_qap(QapInstance(0, {}), 1, 1, seed=1).alphas_tried == 0

    def test_value_bounded_by_optimal_cost_plus_slack(self):
        # solved value never exceeds the true optimum by more than eps*n^2/3
        # when alpha estimates the optimal row sums well enough
        eps = Fraction(2)
        q = ged_to_qap(K3, PATH3)
        cost_star, phi_star = qap_bruteforce(q)
        alpha = tuple(enumerate(phi_star.mapping))
        lp = build_alpha_lp(lp_model(q), alpha, eps)
        x = solve_lp(lp, "exact")
        assert x is not None
        assert lp_value(lp, x) <= cost_star + eps * 9 / 3

    def test_unknown_method(self):
        lp = build_alpha_lp(lp_model(QapInstance(2, {})), ((0, 0),), 1)
        with pytest.raises(ValueError):
            solve_lp(lp, "nope")


def seeded_highs_lps():
    """(model, LPs) per seeded instance: G(n, 1/2) and weighted GED pairs at
    n = 4..7, with three alphas of size 1 or 2 at each eps in 1/4, 1, 2."""
    for trial in range(12):
        n = 4 + trial % 4
        if trial % 2:
            q = weighted_ged_to_qap(
                random_weighted_graph(n, 3300 + trial),
                random_weighted_graph(n, 3400 + trial),
            )
        else:
            q = ged_to_qap(er_graph(n, 0.5, 3300 + trial), er_graph(n, 0.5, 3400 + trial))
        model = lp_model(q)
        rng = random.Random(3500 + trial)
        lps = []
        for eps in (Fraction(1, 4), Fraction(1), Fraction(2)):
            for _ in range(3):
                size = rng.randint(1, 2)
                pairs = zip(rng.sample(range(n), size), rng.sample(range(n), size))
                lps.append(build_alpha_lp(model, tuple(pairs), eps))
        yield model, lps


def list_highs_arrays(lp):
    """(cost, row_lower, row_upper) of lp for HiGHS, from Python lists: b_alpha,
    then b_alpha -+ slack, each float(Fraction), the correctly rounded value,
    and the unit bounds of the 2n - 1 assignment rows that LpModel.csc keeps."""
    b = [Fraction(c, lp.b_den) for c in lp.b_num.tolist()]
    ones = [1.0] * (2 * lp.n - 1)
    return (
        np.array([float(c) for c in b]),
        np.array([float(c - lp.slack) for c in b] + ones),
        np.array([float(c + lp.slack) for c in b] + ones),
    )


def fresh_list_solve(lp):
    """_highs_solve on lp's arrays, on a fresh HiGHS solver given the model as
    Python lists in a HighsLp."""
    highs = approx._highs
    n = lp.n
    cost, row_lower, row_upper = (a.tolist() for a in list_highs_arrays(lp))
    start, index, value = (a.tolist() for a in lp.model.csc)
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = n * n, n * n + 2 * n - 1
    model.col_cost_ = cost
    model.col_lower_ = [0.0] * (n * n)
    model.col_upper_ = [highs.kHighsInf] * (n * n)
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    matrix = model.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = model.num_col_, model.num_row_
    matrix.start_, matrix.index_, matrix.value_ = start, index, value
    solver = highs._Highs()
    for option, setting in (("output_flag", False), ("threads", 1), ("presolve", "off")):
        solver.setOptionValue(option, setting)
    solver.passModel(model)
    strategies = highs.simplex_constants.SimplexStrategy
    for strategy in (strategies.kSimplexStrategyDual, strategies.kSimplexStrategyPrimal):
        solver.setOptionValue("simplex_strategy", int(strategy))
        solver.run()
        status = solver.getModelStatus()
        if status == highs.HighsModelStatus.kOptimal:
            return tuple(solver.getSolution().col_value)
        if status in (
            highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kUnboundedOrInfeasible
        ):
            return None
        solver.clearSolver()
    raise AssertionError(f"fresh solver stopped with {status}")


def unknown_status_lps():
    """Two weighted G(7, 1/2) LPs of the ged-highs benchmark's mix, rebuilt as
    it builds them from the key workload/seed/round/kind, at their alphas."""
    for key, alpha in (("ged-highs/14/12/ged-w7", ((6, 5),)),
                       ("ged-highs/21/14/ged-w7", ((6, 1),))):
        rng = random.Random(key)
        g = gen_random_graph(7, seed=rng.getrandbits(32))
        h = gen_random_graph(7, seed=rng.getrandbits(32))
        g, h = (
            Graph(7, x.edges, weights={e: Fraction(rng.randint(1, 6), 2) for e in sorted(x.edges)})
            for x in (g, h)
        )
        yield build_alpha_lp(lp_model(weighted_ged_to_qap(g, h)), alpha, 2)


def exact_pin_instances():
    """Seeded instances for the exact-LP pin: unweighted GED at n = 3..5,
    weighted GED with denom 2 and 4, and rational random QAPs."""
    instances = [
        ged_to_qap(er_graph(n, 0.5, 9_000 + n), er_graph(n, 0.5, 9_100 + n))
        for n in (3, 4, 4, 5)
    ]
    for seed, denom in ((7, 2), (3, 4), (2, 2), (0, 4)):
        instances.append(weighted_ged_to_qap(
            random_weighted_graph(4, seed, denom=denom),
            random_weighted_graph(4, seed + 100, denom=denom),
        ))
    instances += [random_qap(n, 9_200 + n, denom=4) for n in (3, 4, 4)]
    return instances


@functools.cache
def exact_pin_solves():
    """(q, lp, exact solution) for seeded alphas of sizes 1 and 2 on every
    pin instance, with eps from B/2 to 4B so both verdicts occur."""
    solves = []
    for i, q in enumerate(exact_pin_instances()):
        model = lp_model(q)
        rng = random.Random(9_300 + i)
        n = q.n
        for eps in (q.bound_b / 2, q.bound_b, 2 * q.bound_b, 4 * q.bound_b):
            for _ in range(5):
                size = rng.randint(1, 2)
                pairs = zip(rng.sample(range(n), size), rng.sample(range(n), size))
                lp = build_alpha_lp(model, tuple(pairs), eps)
                solves.append((q, lp, solve_lp(lp, "exact")))
    # weighted LPs whose exact vertex moves when a row's scale changes (a
    # search found 5 among 2160): Bland's phase-1 objective sums scaled rows
    for seed, n, denom, eps, pairs in SCALE_SENSITIVE_LPS:
        q = weighted_ged_to_qap(
            random_weighted_graph(n, 500 + seed, denom=denom),
            random_weighted_graph(n, 700 + seed, denom=denom),
        )
        lp = build_alpha_lp(lp_model(q), tuple(pairs), eps)
        solves.append((q, lp, solve_lp(lp, "exact")))
    return solves


SCALE_SENSITIVE_LPS = [
    (3, 4, 2, Fraction(3), ((1, 0),)),
    (36, 3, 6, Fraction(16, 3), ((1, 2),)),
    (41, 4, 4, Fraction(7, 2), ((1, 0), (2, 3))),
    (52, 3, 4, Fraction(7, 2), ((1, 0),)),
]


def test_exact_vertex_does_not_depend_on_row_scale():
    # each scale-sensitive LP, split into <= rows at the block's common
    # denominator and at each row's least clearing integer r, gives one result
    for seed, n, denom, eps, pairs in SCALE_SENSITIVE_LPS:
        q = weighted_ged_to_qap(
            random_weighted_graph(n, 500 + seed, denom=denom),
            random_weighted_graph(n, 700 + seed, denom=denom),
        )
        model = lp_model(q)
        lp = build_alpha_lp(model, tuple(pairs), eps)
        lows, highs, den = int_bounds(lp)
        objective = [Fraction(b, lp.b_den) for b in lp.b_num.tolist()]
        results = []
        for reduce in (False, True):
            a_ub, b_ub = [], []
            for row, lo, hi in zip(model.block.tolist(), lows, highs):
                g = math.gcd(model.denom, *row) if reduce else 1
                row, r = [c // g for c in row], model.denom // g
                a_ub += (row, [-c for c in row])
                b_ub += (Fraction(hi * r, den), Fraction(-lo * r, den))
            results.append(simplex.simplex_min(
                objective, a_ub, b_ub, model.assignment.tolist(), [1] * (2 * n)
            ))
        assert results[0][0] == simplex.OPTIMAL
        assert results[0] == results[1], seed


def exact_pin_lines():
    """One line per solved LP: 'infeasible', or the objective value and x."""
    lines = []
    for _, lp, x in exact_pin_solves():
        if x is None:
            lines.append("infeasible")
        else:
            lines.append(" ".join(str(xi) for xi in [lp_value(lp, x), *x]))
    return lines


def test_exact_pin_covers_scaled_rows():
    # the weighted instances must hold a nonzero row whose entries share a
    # factor with denom, where reduced rows and the raw block differ
    reduced = 0
    for q in exact_pin_instances():
        block, denom = q.scaled_block()
        reduced += sum(
            1 for row in block.tolist() if any(row) and math.gcd(denom, *row) > 1
        )
    assert reduced >= 10


def test_exact_solutions_pinned():
    # sha256 of every exact solve above, recorded with the Fraction-row
    # simplex input: any change to row scaling, bounds or pivoting shows here
    lines = exact_pin_lines()
    assert "infeasible" in lines and len(set(lines)) > 80
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "62722c9e6d5c9d1b0c090d689ed4a86e05452f6ef8f004c8d85973acbfda8415"


def test_exact_solutions_feasible_on_rational_instances():
    # every optimal exact solution meets its rows and the assignment sums,
    # checked in Fractions, and HiGHS agrees on every verdict
    counts = {"optimal": 0, "infeasible": 0}
    for q, lp, x in exact_pin_solves():
        if q.denom == 1:
            continue
        fast = solve_lp(lp, "highs")
        assert (fast is None) == (x is None)
        if x is None:
            counts["infeasible"] += 1
            continue
        counts["optimal"] += 1
        n = q.n
        assert len(x) == n * n and all(isinstance(xi, Fraction) and xi >= 0 for xi in x)
        for v in range(n):
            assert sum(x[v * n : v * n + n]) == 1
            assert sum(x[v::n]) == 1
        block, denom = q.scaled_block()
        lows, highs, den = int_bounds(lp)
        for row, lo, hi in zip(block.tolist(), lows, highs):
            value = sum(Fraction(c, denom) * xi for c, xi in zip(row, x))
            assert Fraction(lo, den) <= value <= Fraction(hi, den)
    assert counts["optimal"] >= 50 and counts["infeasible"] >= 20


def test_wide_tableau_gives_the_same_exact_solutions(monkeypatch):
    # every solve in object dtype from the start: the same integers, so the
    # same pivots and the same vertex as the int64 tableau
    solves = exact_pin_solves()
    monkeypatch.setattr(simplex, "_INT64_LIMIT", 0)
    for q, lp, sol in solves:
        assert solve_lp(lp, "exact") == sol


def vertex_pin_instances():
    """(kind, q) for the exact-vertex pin: unweighted G(n, 1/2) pairs at
    n = 4..6, pairs weighted in halves at n = 4, 5, and pairs weighted in
    halves times 2^52 (int64 block) and times 2^62 (object block), whose
    row bounds pass 2^53 and so are Python ints."""
    instances = [
        ("ged", ged_to_qap(er_graph(n, 0.5, 9_900 + n), er_graph(n, 0.5, 9_950 + n)))
        for n in (4, 5, 6)
    ]
    for n in (4, 5):
        g, h = (random_weighted_graph(n, seed + n, wmax=3) for seed in (9_910, 9_960))
        instances.append(("halves", weighted_ged_to_qap(g, h)))
    for n, scale in ((4, 2**52), (3, 2**62)):
        g, h = (random_weighted_graph(n, seed + n) for seed in (9_920, 9_970))
        g, h = (Graph(n, x.edges, weights={e: w * scale for e, w in x.weights.items()})
                for x in (g, h))
        instances.append(("wide", weighted_ged_to_qap(g, h)))
    return instances


def vertex_pin_solves():
    """(kind, lp, exact solution) for seeded alphas of sizes 1 and 2, four
    per eps in B, 2B and 3B, on every vertex pin instance."""
    solves = []
    for i, (kind, q) in enumerate(vertex_pin_instances()):
        model = lp_model(q)
        rng = random.Random(9_990 + i)
        n = q.n
        for eps in (q.bound_b, 2 * q.bound_b, 3 * q.bound_b):
            for _ in range(4):
                size = rng.randint(1, 2)
                pairs = zip(rng.sample(range(n), size), rng.sample(range(n), size))
                lp = build_alpha_lp(model, tuple(pairs), eps)
                solves.append((kind, lp, solve_lp(lp, "exact")))
    return solves


def test_exact_vertices_pinned():
    # sha256 of every vertex above, recorded with the Fraction bounds that
    # solve_lp passed the simplex before it read the integer block directly
    lines, kinds = [], collections.Counter()
    for kind, lp, x in vertex_pin_solves():
        wide = lp.integer_bounds[0].dtype == object
        assert wide == (kind == "wide")
        kinds[kind, x is None] += 1
        lines.append("infeasible" if x is None else " ".join(map(str, x)))
    for kind in ("ged", "halves", "wide"):
        assert kinds[kind, False] and kinds[kind, True], kind
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a340cccd0fed07bd9551489f213da7140fdaabb8878930e5ae5dbed884ed7d6d"


def exact_trace_lines():
    """cost, mapping, counts and every trace entry of approximate_ged with
    the exact backend: exhaustive m = 1 and sampled m = 2, on G(n, 1/2)
    pairs at n = 4, 5 and on pairs weighted in halves at n = 4, 5."""
    pairs = []
    for n in (4, 5):
        pairs.append((er_graph(n, 0.5, 9_930 + n), er_graph(n, 0.5, 9_980 + n)))
        pairs.append((random_weighted_graph(n, 9_940 + n, wmax=3),
                      random_weighted_graph(n, 9_990 + n, wmax=3)))
    lines = []
    for g, h in pairs:
        for mode, m in (("exhaustive", 1), ("sampled", 2)):
            res = approximate_ged(
                g, h, 1, m, seed=5, mode=mode, lp_method="exact", keep_trace=True
            )
            report = res.report
            lines.append(" ".join(map(str, (
                res.cost, res.assignment.mapping, report.alphas_tried, report.lps_infeasible
            ))))
            lines += map(str, report.trace)
    return lines


def test_exact_traces_pinned():
    # sha256 of the traces above, recorded as for test_exact_vertices_pinned
    lines = exact_trace_lines()
    assert sum("'ok'" in line for line in lines) >= 20
    assert sum("'infeasible'" in line for line in lines) >= 5
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "12dc4706d8090d536cb2c53447f0182a2c045d0a3e81ca181c752101c6f00a3a"


def small_alphas(n):
    """Every alpha of size 1 and 2 on n vertices."""
    for size in (1, 2):
        for sources in itertools.combinations(range(n), size):
            for targets in itertools.permutations(range(n), size):
                yield tuple(zip(sources, targets))


def agreement_instance(kind, n):
    """A seeded order-n instance: unweighted GED, weighted GED or rational QAP."""
    if kind == "ged":
        return ged_to_qap(er_graph(n, 0.5, 9_400 + n), er_graph(n, 0.5, 9_500 + n))
    if kind == "weighted-ged":
        return weighted_ged_to_qap(
            random_weighted_graph(n, 9_600 + n), random_weighted_graph(n, 9_700 + n)
        )
    return random_qap(n, 9_800 + n, denom=4)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["ged", "weighted-ged", "qap"])
def test_lp_backends_agree_on_every_small_alpha(kind, n):
    # both backends on every alpha of size 1 and 2, at an eps where some LPs
    # are infeasible and at one where more are feasible: same verdict, and
    # optimal values within 1e-6
    q = agreement_instance(kind, n)
    model = lp_model(q)
    verdicts = collections.Counter()
    for eps in (q.bound_b / 2, 2 * q.bound_b):
        for alpha in small_alphas(q.n):
            lp = build_alpha_lp(model, alpha, eps)
            exact, fast = solve_lp(lp, "exact"), solve_lp(lp, "highs")
            verdicts["infeasible" if exact is None else "optimal"] += 1
            assert (exact is None) == (fast is None), (eps, alpha)
            if exact is not None:
                gap = float(lp_value(lp, exact)) - lp_value(lp, fast)
                assert abs(gap) < 1e-6, (eps, alpha)
    assert verdicts["infeasible"] > 0 and verdicts["optimal"] > 0, verdicts


def permutation_activities(model):
    """(n^2, n!) array: block row . x at every permutation matrix x."""
    n = model.n
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    columns = np.arange(n) * n + perms  # (n!, n): the cells each permutation takes
    return model.block[:, columns].sum(axis=2)


def brackets(ranges, activities):
    """Whether every row's activity at every permutation lies in its range."""
    lower, upper = (np.array(bound, dtype=object)[:, None] for bound in ranges)
    return bool(((lower <= activities) & (activities <= upper)).all())


def test_row_ranges_bracket_every_permutation():
    # the polytope is the hull of the permutation matrices, so the ranges must
    # hold each row's activity at all n! of them; on most instances a range
    # tightened by one unit at either end must not, or the check could not
    # catch a wrong bound
    caught = collections.Counter()
    for kind in ("ged", "weighted-ged", "qap"):
        for n in (2, 3, 4, 5):
            model = lp_model(agreement_instance(kind, n))
            activities = permutation_activities(model)
            lower, upper = model.row_ranges
            assert brackets((lower, upper), activities), (kind, n)
            tighter = [lo + 1 for lo in lower], [hi - 1 for hi in upper]
            caught["lower"] += not brackets((tighter[0], upper), activities)
            caught["upper"] += not brackets((lower, tighter[1]), activities)
    assert caught["lower"] >= 6 and caught["upper"] >= 6, caught


def test_tight_row_ranges_are_each_rows_extremes():
    # the tight ranges are each row's least and greatest activity over all n!
    # permutation matrices, the polytope's vertices; the bracket is looser on
    # some rows of every kind, so it would not pass here
    looser = collections.Counter()
    for kind in ("ged", "weighted-ged", "qap"):
        for n in (2, 3, 4, 5):
            model = lp_model(agreement_instance(kind, n))
            activities = permutation_activities(model)
            lower, upper = model.tight_row_ranges
            assert lower.tolist() == activities.min(axis=1).tolist(), (kind, n)
            assert upper.tolist() == activities.max(axis=1).tolist(), (kind, n)
            bracket_lower, bracket_upper = model.row_ranges
            looser[kind] += int((bracket_lower != lower).sum() + (bracket_upper != upper).sum())
    assert min(looser.values()) > 0 and len(looser) == 3, looser


def test_refused_lps_are_infeasible_for_both_solvers(monkeypatch):
    # every alpha of size 1 and 2 at n = 3..5, at the eps of the backend
    # agreement test: each LP the tight ranges refuse (871 LPs; the
    # bracket refuses 443 of them and no other) is infeasible for
    # the exact simplex and for HiGHS too
    real = approx._refutes
    refused = []
    for kind in ("ged", "weighted-ged", "qap"):
        for n in (3, 4, 5):
            q = agreement_instance(kind, n)
            model = lp_model(q)
            for eps in (q.bound_b / 2, 2 * q.bound_b):
                for alpha in small_alphas(n):
                    lp = build_alpha_lp(model, alpha, eps)
                    if real(lp, model.tight_row_ranges):
                        refused.append(lp)
                    else:
                        assert not real(lp, model.row_ranges), (kind, n, alpha)
    monkeypatch.setattr(approx, "_refutes", lambda lp, ranges: False)
    for lp in refused:
        assert solve_lp(lp, "exact") is None, lp.b_num
        assert solve_lp(lp, "highs") is None, lp.b_num
    assert len(refused) >= 400


@pytest.mark.parametrize("n", [3, 4])
def test_twin_alphas_share_one_solve(monkeypatch, n):
    # in P3 the ends 0 and 2 are twins, so alphas that differ only there have
    # equal LPs: one solve each, and the same report as solving every alpha.
    # At n = 4 both graphs gain an isolated vertex 3, whose zero column (3, 3)
    # gives alphas of sizes 1 and 2 equal b_num over different b_den
    q = ged_to_qap(Graph(n, K3.edges), Graph(n, PATH3.edges))
    model = lp_model(q)
    assert model.twin_columns[:3] == [True, False, True]
    alphas = sum(math.comb(n, s) * math.perm(n, s) for s in (1, 2))
    real_solve = approx.solve_lp
    solved = []

    def solve(lp, method="exact"):
        solved.append((tuple(lp.b_num.tolist()), lp.b_den))
        return real_solve(lp, method)

    def separately(model, alphas, eps, lp_method):
        for pairs in alphas:
            lp = build_alpha_lp(model, pairs, eps)
            yield pairs, lp, real_solve(lp, lp_method)

    for method in ("exact", "highs"):
        for eps in (Fraction(1, 2), 1):
            for workers in (1, 2):
                monkeypatch.setattr(approx, "_workers", lambda: workers)
                monkeypatch.setattr(approx, "solve_lp", solve)
                solved.clear()
                report = approximate_qap(q, eps, 2, seed=3, lp_method=method, keep_trace=True)
                monkeypatch.setattr(approx, "solve_lp", real_solve)
                lps = {
                    (tuple(lp.b_num.tolist()), lp.b_den)
                    for lp in (build_alpha_lp(model, e["alpha"], eps) for e in report.trace)
                }
                assert report.alphas_tried == alphas and len(lps) < alphas
                assert sorted(solved) == sorted(lps)
                with monkeypatch.context() as m:
                    m.setattr(approx, "_solved", separately)
                    m.setattr(approx, "_refutes", lambda lp, ranges: False)
                    reference = approximate_qap(
                        q, eps, 2, seed=3, lp_method=method, keep_trace=True
                    )
                assert report == reference, (method, eps, workers)


def csc_pin_instances():
    """Instances for the CSC pin: n = 0..6, weighted, rational, an object-dtype
    block (a 2^70 coefficient) and denominators above 2^53."""
    instances = [
        ged_to_qap(er_graph(n, 0.5, 9_400 + n), er_graph(n, 0.5, 9_500 + n))
        for n in range(7)
    ]
    instances.append(weighted_ged_to_qap(
        random_weighted_graph(5, 9_600, denom=4), random_weighted_graph(5, 9_601)
    ))
    instances.append(random_qap(4, 9_700, denom=12))
    instances.append(QapInstance(3, {(0, 1, 2, 0): 2**70, (1, 1, 1, 1): Fraction(1, 3),
                                     (2, 0, 0, 2): -7}))
    instances.append(QapInstance(2, {(0, 0, 1, 1): Fraction(1, 3**40),
                                     (1, 0, 0, 1): Fraction(-2, 7)}))
    instances.append(QapInstance(2, {(0, 1, 1, 0): Fraction(5, 2**55 + 1),
                                     (1, 1, 0, 0): 3}))
    return instances


def test_csc_pinned():
    # sha256 of HiGHS's float matrix, recorded with scipy.sparse's csc_array
    # over dense rows of float(c(v, v', w, w')) and the first 2n - 1 unit-sum
    # rows; with all 2n rows the digest was c56a4bcb...707c61
    parts = []
    for q in csc_pin_instances():
        start, index, value = (a.tolist() for a in lp_model(q).csc)
        parts.append(repr((start, index, [x.hex() for x in value])))
    assert lp_model(csc_pin_instances()[-3]).block.dtype == object
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "4245eefcefeab156317583707425044e8b148f62d194f9fe11ca86dfac98a2cd"


def test_highs_gets_the_floats_python_division_gives(monkeypatch):
    # the float64 cost and row bounds that solve_lp hands HiGHS are bit for
    # bit the correctly rounded values: from int64 arrays on the seeded LPs,
    # from Python ints on the CSC pin instances whose block is object dtype
    # or whose denominators pass 2^53
    handed = []
    monkeypatch.setattr(approx, "_refutes", lambda lp, ranges: False)
    monkeypatch.setattr(approx, "_highs_solve", lambda *arrays: handed.append(arrays[:3]))
    lps = [lp for _, seeded in seeded_highs_lps() for lp in seeded]
    for q in csc_pin_instances():
        model = lp_model(q)
        lps += [
            build_alpha_lp(model, ((v, (v + 1) % q.n),), eps)
            for v in range(q.n) for eps in (Fraction(1, 7), 3)
        ]
    paths = collections.Counter()
    for lp in lps:
        handed.clear()
        assert solve_lp(lp, "highs") is None
        (arrays,) = handed
        for ours, listed in zip(arrays, list_highs_arrays(lp)):
            assert ours.dtype == np.float64 and ours.tobytes() == listed.tobytes()
        paths["python" if lp.integer_bounds[0].dtype == object else "int64"] += 1
    assert paths["int64"] >= 100 and paths["python"] >= 10, paths
    # the 2^70 coefficient and a denominator past 2^53 take the Python-int path
    for q in (csc_pin_instances()[-3], csc_pin_instances()[-1]):
        lp = build_alpha_lp(lp_model(q), ((0, 0),), 1)
        assert lp.integer_bounds[0].dtype == object


def vector(n, entries):
    """solve_lp's flat vector with the given (v, v') entries, 0 elsewhere."""
    return tuple(entries.get((v, vp), Fraction(0)) for v in range(n) for vp in range(n))


class TestRounding:
    def lp3(self):
        return build_alpha_lp(lp_model(QapInstance(3, {})), ((0, 0),), 1)

    def test_integral_solution_returned_unchanged(self):
        x = vector(3, {(v, v): Fraction(1) for v in range(3)})
        partial = round_apec(x, self.lp3(), seed=1)
        assert partial == ((0, 0), (1, 1), (2, 2))

    def test_integral_solution_is_drawn_once(self, monkeypatch):
        # with one target per source every retry draws alike: one retry of
        # n draws; with a split row all 32 retries run, and in each of them
        # sources 0 and 2 always have a target left to draw
        draws = []
        real = random.Random.random
        monkeypatch.setattr(
            random.Random, "random", lambda rng: draws.append(1) or real(rng)
        )
        integral = {(v, (v + 1) % 3): Fraction(1) for v in range(3)}
        partial = round_apec(vector(3, integral), self.lp3(), seed=1)
        assert partial == ((0, 1), (1, 2), (2, 0)) and len(draws) == 3
        draws.clear()
        split = {**integral, (0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)}
        round_apec(vector(3, split), self.lp3(), seed=1)
        assert len(draws) >= 2 * 32

    def test_zero_float_total_raises_as_random_choices_does(self):
        # positive masses that round to 0.0 as floats leave nothing to draw by
        tiny = (Fraction(1, 10**400),) * 9
        with pytest.raises(ValueError, match="greater than zero"):
            round_apec(tiny, self.lp3(), seed=1)

    def test_uniform_matrix_rounds_to_perfect_matching(self):
        partial = round_apec((Fraction(1, 3),) * 9, self.lp3(), seed=5)
        assert len(partial) == 3

    def test_support_containment(self):
        rng = random.Random(64)
        lp4 = build_alpha_lp(lp_model(QapInstance(4, {})), ((0, 0),), 1)
        for trial in range(10):
            # mix of two random permutations
            p1 = list(range(4))
            p2 = list(range(4))
            rng.shuffle(p1)
            rng.shuffle(p2)
            lam = Fraction(rng.randint(1, 3), 4)
            x = [Fraction(0)] * 16
            for v in range(4):
                x[v * 4 + p1[v]] += lam
                x[v * 4 + p2[v]] += 1 - lam
            partial = round_apec(x, lp4, seed=trial)
            for v, vp in partial:
                assert x[v * 4 + vp] > 0

    def test_deterministic(self):
        x = (Fraction(1, 3),) * 9
        a = round_apec(x, self.lp3(), seed=9)
        b = round_apec(x, self.lp3(), seed=9)
        assert a == b

    def test_draws_below_mass_floor_are_dropped(self):
        # the only mass in row 0 sits below 1/(2n): source 0 stays unmatched
        lp2 = build_alpha_lp(lp_model(QapInstance(2, {})), ((0, 0),), 1)
        x = (Fraction(1, 8), Fraction(0), Fraction(0), Fraction(1))
        partial = round_apec(x, lp2, seed=3, retries=8)
        assert partial == ((1, 1),)

    def test_float_below_the_floor_is_dropped(self):
        # the float nearest 1/6 = 1/(2n) lies below it: compared exactly it
        # misses the floor, where a float comparison would keep it
        below = float(Fraction(1, 6))
        assert below < Fraction(1, 6) and below >= 1 / 6
        exact = {(0, 0): Fraction(1, 6), (1, 1): 1.0, (2, 2): 1.0}
        partial = round_apec(vector(3, exact), self.lp3(), seed=1)
        assert partial == ((0, 0), (1, 1), (2, 2))
        partial = round_apec(vector(3, {**exact, (0, 0): below}), self.lp3(), seed=1)
        assert partial == ((1, 1), (2, 2))


def test_rounding_stays_inside_the_support():
    # exact fractional solutions, several seeds each: the returned pairs form
    # an injection, and each has mass at least the floor 1/(2n), exactly
    below_floor = 0
    for q, lp, x in exact_pin_solves():
        if x is None:
            continue
        n = q.n
        floor = Fraction(1, 2 * n)
        below_floor += any(0 < xi < floor for xi in x)
        for seed in range(8):
            pairs = round_apec(x, lp, seed=seed)
            assert len({v for v, _ in pairs}) == len({vp for _, vp in pairs}) == len(pairs)
            assert all(x[v * n + vp] >= floor for v, vp in pairs), (x, seed)
    # solutions with positive mass under the floor, where the floor decides
    assert below_floor >= 5


def choices_rounding(x, lp, seed, retries=32, skipped=None):
    """round_apec as written with one random.choices call per draw; appends
    to `skipped` each source passed over because all its targets are used."""
    n = lp.n
    floor = Fraction(1, 2 * n)
    rng = random.Random(seed)
    support = [
        [(vp, float(mass), mass >= floor) for vp in range(n)
         if (mass := x[v * n + vp]) > 0]
        for v in range(n)
    ]
    if all(len(options) <= 1 for options in support):
        retries = 1
    best = None
    for _ in range(max(1, retries)):
        used, pairs, obj = set(), [], 0
        for v in range(n):
            options = [entry for entry in support[v] if entry[0] not in used]
            if not options:
                if support[v] and skipped is not None:
                    skipped.append(v)
                continue
            vp, _, kept = rng.choices(options, weights=[w for _, w, _ in options])[0]
            if kept:
                pairs.append((v, vp))
                used.add(vp)
                obj += int(lp.b_num[v * n + vp])
        key = (-len(pairs), obj, tuple(pairs))
        best = key if best is None or key < best else best
    return best[2]


def test_rounding_draws_as_random_choices_does():
    # every exact pin solution, every seeded HiGHS vector and every pinned
    # case, several seeds each: the same partial matching as one
    # random.choices call per draw
    cases = [
        (x, lp, seed, 32)
        for _, lp, x in exact_pin_solves() if x is not None
        for seed in range(4)
    ]
    highs = [(lp, solve_lp(lp, "highs")) for _, lps in seeded_highs_lps() for lp in lps]
    cases += [(x, lp, seed, 32) for lp, x in highs if x is not None for seed in range(4)]
    cases += [rounding_case(i) for i in range(len(PINNED_ROUNDINGS))]
    skipped = []
    for x, lp, seed, retries in cases:
        ours = round_apec(x, lp, seed=seed, retries=retries)
        assert ours == choices_rounding(x, lp, seed, retries, skipped), (x, seed)
    assert len(cases) > 500
    # sources whose targets were all used: the draws that round_apec skips
    # on an empty bitmask, after memoised draws on smaller ones
    assert len(skipped) > 0


def rounding_case(i):
    """Seeded round_apec input: mixtures of permutations at n = 3..8, some
    with a component below the mass floor, some passed through floats."""
    rng = random.Random(7_000 + i)
    n = 3 + i % 6
    weights = [rng.randint(1, 5) for _ in range(1 + i % 3)]
    if i % 3 == 0:
        weights += [1, 2 * n]  # a component of mass below 1/(2n)
    total = sum(weights)
    x = [Fraction(0)] * (n * n)
    for w in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        for v in range(n):
            x[v * n + perm[v]] += Fraction(w, total)
    if i % 5 == 1:  # as the float backend returns them
        x = [float(xi) for xi in x]
    q = ged_to_qap(er_graph(n, 0.5, 7_100 + i), er_graph(n, 0.5, 7_200 + i))
    size = rng.randint(1, 2)
    alpha = tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size)))
    lp = build_alpha_lp(lp_model(q), alpha, 1)
    return tuple(x), lp, rng.randrange(10**6), (1, 4, 8, 32)[i % 4]


# fixed round_apec outputs on these inputs: any change to its seeded random
# stream, its mass floor or its tie-breaks shows here
PINNED_ROUNDINGS = [
    ((0, 2), (1, 0), (2, 1)),
    ((0, 1), (1, 0), (2, 3), (3, 2)),
    ((0, 3), (1, 4), (2, 1), (3, 2), (4, 0)),
    ((0, 1), (1, 4), (2, 3), (3, 5), (4, 0), (5, 2)),
    ((0, 2), (1, 6), (2, 3), (3, 0), (4, 5), (5, 1)),
    ((0, 3), (1, 6), (2, 0), (3, 5), (4, 7), (5, 1), (6, 2), (7, 4)),
    ((0, 0), (1, 1), (2, 2)),
    ((0, 1), (1, 0), (2, 3), (3, 2)),
    ((0, 1), (1, 2), (2, 0), (3, 4)),
    ((0, 3), (1, 5), (2, 0), (3, 4), (4, 2), (5, 1)),
    ((0, 1), (1, 4), (2, 0), (3, 5), (4, 3), (5, 2), (6, 6)),
    ((0, 6), (1, 3), (2, 7), (3, 4), (4, 0), (5, 5), (6, 1), (7, 2)),
    ((0, 1), (1, 2), (2, 0)),
    ((0, 1), (1, 2), (2, 3), (3, 0)),
    ((0, 2), (1, 0), (2, 3), (3, 4), (4, 1)),
    ((0, 2), (1, 1), (2, 4), (3, 5), (4, 3), (5, 0)),
    ((0, 4), (1, 5), (2, 0), (3, 2), (4, 3), (5, 6), (6, 1)),
    ((0, 0), (1, 6), (2, 5), (3, 4), (4, 1), (5, 7), (6, 3), (7, 2)),
    ((0, 1), (1, 0), (2, 2)),
    ((0, 0), (1, 2), (2, 3), (3, 1)),
    ((0, 2), (1, 1), (2, 0), (3, 3)),
    ((0, 4), (1, 2), (2, 5), (3, 0), (4, 1), (5, 3)),
    ((0, 2), (1, 3), (2, 1), (3, 6), (4, 0), (5, 5), (6, 4)),
    ((0, 2), (1, 5), (2, 0), (3, 7), (4, 1), (5, 4), (6, 6), (7, 3)),
]


@pytest.mark.parametrize("i", range(len(PINNED_ROUNDINGS)))
def test_rounding_outputs_pinned(i):
    x, lp, seed, retries = rounding_case(i)
    partial = round_apec(x, lp, seed=seed, retries=retries)
    assert partial == PINNED_ROUNDINGS[i]


class TestCompleteMatching:
    def test_perfect_input_unchanged(self):
        partial = ((0, 2), (1, 0), (2, 1))
        assert complete_matching(partial, 3).mapping == (2, 0, 1)

    def test_empty_gives_identity(self):
        assert complete_matching((), 3).mapping == (0, 1, 2)

    def test_greedy_fill(self):
        partial = ((0, 2),)
        assert complete_matching(partial, 3).mapping == (2, 0, 1)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_pairs_outside_the_ground_set_rejected(self, pair):
        # a negative source would index the mapping from its end: (-1, 0) maps 2
        with pytest.raises(ValueError, match="ground set"):
            complete_matching((pair,), 3)


@pytest.mark.parametrize(
    "alpha, message",
    [
        (((0, 3),), "alpha exceeds the ground set"),
        (((-1, 0),), "alpha exceeds the ground set"),
        (((0, 1), (0, 2)), "alpha repeats a source or a target"),
        (((0, 1), (2, 1)), "alpha repeats a source or a target"),
    ],
    ids=["target-past-n", "negative-source", "repeated-source", "repeated-target"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda alpha: build_alpha_lp(lp_model(ged_to_qap(K3, PATH3)), alpha, 1),
        lambda alpha: b_alpha(ged_to_qap(K3, PATH3), alpha, 0, 1),
        lambda alpha: complete_matching(alpha, 3),
    ],
    ids=["build_alpha_lp", "b_alpha", "complete_matching"],
)
def test_malformed_alpha_rejected_alike(call, alpha, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(alpha)


class TestApproximateQap:
    def test_zero_instance(self):
        report = approximate_qap(QapInstance(3, {}), 1, 1, seed=3)
        assert report.best_cost == 0
        assert report.best_cost == qap_cost(QapInstance(3, {}), report.best_assignment)

    def test_every_cost_is_qap_cost(self, monkeypatch):
        # each completion is costed from the LP block: the costs equal
        # qap_cost on weighted, rational, negative and object-dtype instances
        # (exact LPs: HiGHS refuses the 2^70 coefficient)
        completed = []
        real = approx.complete_matching
        monkeypatch.setattr(
            approx, "complete_matching",
            lambda partial, n: completed.append(real(partial, n)) or completed[-1],
        )
        costed = collections.Counter()
        for q in csc_pin_instances():
            completed.clear()
            report = approximate_qap(
                q, 4 * max(q.bound_b, 1), 1, seed=2, lp_method="exact", keep_trace=True
            )
            costs = [entry["cost"] for entry in report.trace if entry["status"] == "ok"]
            assert costs == [qap_cost(q, phi) for phi in completed]
            assert report.best_cost == qap_cost(q, report.best_assignment)
            costed[lp_model(q).block.dtype == object] += len(costs)
        assert costed[True] > 0 and costed[False] > 50

    def test_isomorphic_pair_reaches_zero(self):
        g = cycle_graph(4)
        h = relabelled_copy(g, 71)
        report = approximate_qap(ged_to_qap(g, h), 2, 2, seed=11)
        assert report.best_cost == 0

    def test_guarantee_against_bruteforce(self):
        g = Graph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
        h = cycle_graph(6)
        q = ged_to_qap(g, h)
        oracle, _ = qap_bruteforce(q)
        report = approximate_qap(q, 1, 2, seed=13)
        assert report.best_cost <= oracle + 36
        assert report.best_cost >= oracle

    def test_deterministic_reports(self):
        q = ged_to_qap(K3, PATH3)
        a = approximate_qap(q, 1, 2, seed=42)
        b = approximate_qap(q, 1, 2, seed=42)
        assert a == b

    def test_sampled_mode_is_labelled_and_deterministic(self):
        q = ged_to_qap(er_graph(5, 0.5, 70), er_graph(5, 0.5, 71))
        a = approximate_qap(q, 1, 2, seed=5, mode="sampled", keep_trace=True)
        b = approximate_qap(q, 1, 2, seed=5, mode="sampled", keep_trace=True)
        assert a == b

    def test_sampled_mode_scales_past_exhaustive_reach(self):
        # P(7, 2) = 42 alphas where exhaustive mode tries 7 * 7 + 21 * 42 = 931
        g = er_graph(7, 0.5, 72)
        h = er_graph(7, 0.5, 73)
        q = ged_to_qap(g, h)
        with pytest.raises(BudgetExceededError):
            approximate_qap(q, 1, 2, seed=9, budget=100)
        report = approximate_qap(q, 1, 2, seed=9, mode="sampled", budget=100)
        assert report.alphas_tried == math.perm(7, 2) == 42
        assert report.best_cost == qap_cost(q, report.best_assignment)

    def test_sampled_mode_takes_every_image_of_one_source_set(self):
        # every alpha maps one sorted seeded source set of size min(m, n),
        # and the images are those of itertools.permutations, in its order;
        # every assignment costs n, so no alpha stops the run at cost 0
        for n, m in [(6, 1), (6, 2), (5, 3), (3, 3), (3, 5)]:
            q = QapInstance(n, {(v, vp, v, vp): 1 for v in range(n) for vp in range(n)})
            size = min(m, n)
            sources = set()
            for seed in range(4):
                report = approximate_qap(q, 1, m, seed=seed, mode="sampled", keep_trace=True)
                alphas = [entry["alpha"] for entry in report.trace]
                assert report.alphas_tried == len(alphas) == math.perm(n, size)
                source = tuple(v for v, _ in alphas[0])
                assert {tuple(v for v, _ in alpha) for alpha in alphas} == {source}
                assert list(source) == sorted(source) and len(source) == size
                images = [tuple(vp for _, vp in alpha) for alpha in alphas]
                assert images == list(itertools.permutations(range(n), size))
                sources.add(source)
            # the seed draws the set
            assert len(sources) > 1 or size == n

    def test_sampled_mode_never_repeats_an_alpha(self):
        report = approximate_qap(
            ged_to_qap(er_graph(6, 0.5, 74), er_graph(6, 0.5, 75)), 1, 3, seed=5,
            mode="sampled", keep_trace=True,
        )
        alphas = [entry["alpha"] for entry in report.trace]
        assert len(alphas) == report.alphas_tried == math.perm(6, 3)
        assert len(set(alphas)) == len(alphas)

    @pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 2)])
    def test_rejects_nonpositive_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            approximate_qap(ged_to_qap(K3, PATH3), eps, 1, seed=1)
        with pytest.raises(ValueError, match="eps must be positive"):
            approximate_ged(K3, PATH3, eps, 1, seed=1)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            approximate_qap(QapInstance(2, {}), 1, 0, seed=1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'random'"):
            approximate_qap(QapInstance(2, {}), 1, 1, seed=1, mode="random")

    def test_alpha_budget(self):
        with pytest.raises(BudgetExceededError):
            approximate_qap(ged_to_qap(K3, PATH3), 1, 2, seed=1, budget=3)

    def test_budget_is_checked_before_the_first_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(approx, "solve_lp", no_lp)
        with pytest.raises(BudgetExceededError) as err:
            approximate_qap(ged_to_qap(K3, PATH3), 1, 2, seed=1, budget=26)
        assert err.value.attempted == 27
        # sampled mode: P(3, 2) = 6 images of one source set of size 2
        with pytest.raises(BudgetExceededError) as err:
            approximate_qap(ged_to_qap(K3, PATH3), 1, 2, seed=1, mode="sampled", budget=5)
        assert err.value.attempted == 6

    def test_trace_records_alphas(self):
        report = approximate_qap(
            ged_to_qap(K3, PATH3), 1, 1, seed=2, keep_trace=True
        )
        assert len(report.trace) == report.alphas_tried


class TestApproximateGed:
    def test_equal_graphs(self):
        g = er_graph(4, 0.5, 81)
        result = approximate_ged(g, g, 1, 1, seed=1)
        assert result.cost <= 16
        oracle, _ = edit_distance_bruteforce(g, g)
        assert oracle == 0

    def test_triangle_vs_path(self):
        result = approximate_ged(K3, PATH3, 1, 2, seed=7)
        oracle, _ = edit_distance_bruteforce(K3, PATH3)
        assert result.cost <= oracle + 9
        assert result.cost == qap_cost(
            ged_to_qap(K3, PATH3), result.assignment
        ) / 2

    def test_weighted_pair(self):
        g = Graph(2, {(0, 1)}, weights={(0, 1): 3})
        h = Graph(2, {(0, 1)}, weights={(0, 1): 1})
        result = approximate_ged(g, h, 1, 1, seed=3)
        assert result.cost <= 2 + 4

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            approximate_ged(K3, Graph(4, set()), 1, 1, seed=1)

    def test_coloured_inputs_rejected(self):
        g = Graph(3, set(), colours={0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError, match="colour"):
            approximate_ged(g, g, 1, 1, seed=1)


class TestWorkerPool:
    """HiGHS LPs are solved on worker threads; reports and errors must be
    those of the serial run, and no worker may outlive the call."""

    def test_order_zero(self, monkeypatch):
        # no alpha and no block row: the pool's warm-up must not reduce over
        # an empty block, so two workers report what one does
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(approx, "_workers", lambda: workers)
            results[workers] = (
                approximate_ged(Graph(0), Graph(0), 1, 1, seed=1),
                approximate_qap(QapInstance(0, {}), 1, 1, seed=1),
            )
        ged, qap = results[2]
        assert ged.cost == 0 and qap.best_cost == 0
        assert results[2] == results[1]

    @staticmethod
    def reports_by_workers(monkeypatch, run):
        """run() for 1, 2 and 3 workers: equal results, solves off the main
        thread exactly when workers > 1, and no thread left behind."""
        names = []
        real = approx.solve_lp

        def solve(lp, method="exact"):
            names.append(threading.current_thread().name)
            return real(lp, method)

        monkeypatch.setattr(approx, "solve_lp", solve)
        reports = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(approx, "_workers", lambda: workers)
            names.clear()
            before = threading.active_count()
            reports[workers] = run()
            assert threading.active_count() == before
            main = threading.main_thread().name
            assert (set(names) == {main}) == (workers == 1)
        assert reports[2] == reports[1] and reports[3] == reports[1]
        return reports[1]

    def test_gnp_pair(self, monkeypatch):
        g, h = er_graph(8, 0.5, 910), er_graph(8, 0.5, 911)
        result = self.reports_by_workers(
            monkeypatch, lambda: approximate_ged(g, h, 1, 1, seed=4, keep_trace=True)
        )
        assert result.report.alphas_tried == 64

    def test_weighted_pair_with_infeasible_lps(self, monkeypatch):
        g = random_weighted_graph(7, 700, p=0.5)
        h = random_weighted_graph(7, 800, p=0.5)
        result = self.reports_by_workers(
            monkeypatch, lambda: approximate_ged(g, h, 2, 1, seed=0, keep_trace=True)
        )
        assert 0 < result.report.lps_infeasible < result.report.alphas_tried

    def test_sampled_mode(self, monkeypatch):
        q = ged_to_qap(er_graph(6, 0.5, 920), er_graph(6, 0.5, 921))
        report = self.reports_by_workers(
            monkeypatch,
            lambda: approximate_qap(q, 1, 3, seed=6, mode="sampled", keep_trace=True),
        )
        alphas = [entry["alpha"] for entry in report.trace]
        assert report.alphas_tried == len(set(alphas)) == math.perm(6, 3)

    def test_stop_at_cost_zero_with_solves_in_flight(self, monkeypatch):
        g = er_graph(6, 0.5, 900)
        h = relabelled_copy(g, 1000)
        result = self.reports_by_workers(
            monkeypatch, lambda: approximate_ged(g, h, 1, 1, seed=0, keep_trace=True)
        )
        # the stop leaves at least 6 of the 36 alphas, so solves are in flight
        assert result.cost == 0 and result.report.alphas_tried + 6 <= 36

    def test_solver_error_as_in_serial_run(self, monkeypatch):
        class FailedSolver(approx._highs._Highs):
            def getModelStatus(self):
                return approx._highs.HighsModelStatus.kSolveError

        monkeypatch.setattr(approx._highs, "_Highs", FailedSolver)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(approx, "_workers", lambda: workers)
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="HiGHS stopped") as err:
                approximate_qap(ged_to_qap(K3, PATH3), 1, 1, seed=1)
            assert threading.active_count() == before
            errors.append(str(err.value))
        assert errors[0] == errors[1] == "HiGHS stopped with status Solve error"

    def test_first_error_in_alpha_order_is_raised(self, monkeypatch):
        # alphas 9 and 11 fail, 9 the later of the two in time: the error
        # of alpha 9 is raised, after alphas 0..8 and before any later one
        built = []
        real_build, real_solve = approx.build_alpha_lp, approx.solve_lp

        def build(model, alpha, eps):
            built.append(real_build(model, alpha, eps))
            return built[-1]

        def solve(lp, method="exact"):
            index = next(i for i, b in enumerate(built) if b is lp)
            if index == 9:
                time.sleep(0.2)
            if index in (9, 11):
                raise RuntimeError(f"alpha {index}")
            return real_solve(lp, method)

        monkeypatch.setattr(approx, "build_alpha_lp", build)
        monkeypatch.setattr(approx, "solve_lp", solve)
        monkeypatch.setattr(approx, "_workers", lambda: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^alpha 9$"):
            approximate_ged(er_graph(7, 0.5, 930), er_graph(7, 0.5, 931), 1, 1, seed=1)
        assert threading.active_count() == before
        # at most 8 * 3 solves in flight: alpha 9 was consumed with at most
        # 33 of the 49 alphas built
        assert len(built) <= 9 + 8 * 3

    def test_highs_scheduler_started_larger_on_this_thread(self):
        # HiGHS refuses threads=1 on a thread whose scheduler an earlier
        # solve started with more threads; the inline solves must then run
        # on that scheduler and give the same report
        script = (
            "from robustiso import Graph, approx\n"
            "from robustiso.approx import approximate_qap, build_alpha_lp, lp_model\n"
            "from robustiso.qap import ged_to_qap\n"
            "c6 = Graph(6, {(i, (i + 1) % 6) for i in range(6)})\n"
            "tc3 = Graph(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})\n"
            "q = ged_to_qap(c6, tc3)\n"
            "real = approx._highs._Highs\n"
            "class Wide(real):\n"
            "    def passModel(self, *args):\n"
            "        self.setOptionValue('threads', 2)\n"
            "        return super().passModel(*args)\n"
            "approx._highs._Highs = Wide\n"
            "lp = build_alpha_lp(lp_model(q), ((0, 0),), 2)\n"
            "approx.solve_lp(lp, 'highs')\n"
            "approx._highs._Highs = real\n"
            "approx._workers = lambda: 1\n"
            "print(repr(approximate_qap(q, 2, 1, seed=42, keep_trace=True)))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        c6 = cycle_graph(6)
        tc3 = Graph(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})
        here = approximate_qap(ged_to_qap(c6, tc3), 2, 1, seed=42, keep_trace=True)
        assert res.stdout.strip() == repr(here)


def per_threshold_approximation_holds(q, phi_star, alpha, grid, eps):
    """The sampled counts of every optimal-row threshold set stay within
    (eps / 12B) * n of their scaled estimates, for all grid thresholds."""
    n = q.n
    slack = eps / (12 * grid.b) * n
    scale = Fraction(n, len(alpha))
    sources = {w for w, _ in alpha}
    for t in grid.thresholds:
        for v in range(n):
            for vp in range(n):
                full = sum(
                    1 for w in range(n) if q.c(v, vp, w, phi_star[w]) > t
                )
                hit = sum(
                    1 for w in sources if q.c(v, vp, w, phi_star[w]) > t
                )
                if not (
                    scale * hit - slack <= full <= scale * hit + slack
                ):
                    return False
    return True


class TestSamplingChain:
    def test_good_alpha_exists_and_implies_b_approximation(self):
        # A subsample of the optimal matching whose per-threshold counts
        # estimate well also estimates every b value within eps*n/3.
        rng = random.Random(65)
        found_below_full = 0
        for trial in range(12):
            n = rng.randint(4, 5)
            q = random_qap(n, 3100 + trial, bmax=1, fill=0.6)
            if q.bound_b == 0:
                continue
            eps = Fraction(1)
            grid = threshold_grid(q.bound_b, eps)
            _, phi_star = qap_bruteforce(q)
            pairs = list(enumerate(phi_star.mapping))
            d = 1
            size = m_bound(q.bound_b, eps, d, len(q.value_set()), n=n)
            alpha = None
            while True:
                for _ in range(20):
                    candidate = tuple(rng.sample(pairs, size))
                    if per_threshold_approximation_holds(
                        q, phi_star, candidate, grid, eps
                    ):
                        alpha = candidate
                        break
                if alpha is not None or size == n:
                    break
                size = min(2 * size, n)
            assert alpha is not None  # size n always qualifies exactly
            if len(alpha) < n:
                found_below_full += 1
            # chained conclusion: b over alpha approximates b over phi*
            b_full = tuple(enumerate(phi_star.mapping))
            for v in range(n):
                for vp in range(n):
                    lhs = b_alpha(q, b_full, v, vp)
                    rhs = b_alpha(q, alpha, v, vp)
                    assert abs(lhs - rhs) <= eps * n / 3


class TestLpValueBound:
    def test_zeta_bound_on_random_instances(self):
        # single-instance version; the acceptance suite runs the full sweep
        rng = random.Random(66)
        eps = Fraction(1)
        for trial in range(5):
            n = rng.randint(3, 4)
            q = random_qap(n, 3200 + trial, bmax=1, fill=0.5)
            cost_star, phi_star = qap_bruteforce(q)
            pairs = list(enumerate(phi_star.mapping))
            for size in (1, 2):
                for alpha in itertools.combinations(pairs, size):
                    qualifies = all(
                        abs(
                            b_alpha(q, tuple(enumerate(phi_star.mapping)), v, vp)
                            - b_alpha(q, alpha, v, vp)
                        )
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
