import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from robustiso import simplex
from robustiso.simplex import INFEASIBLE, OPTIMAL, simplex_min


def solve_with_scipy(c, a_ub, b_ub, a_eq, b_eq):
    res = linprog(
        [float(v) for v in c],
        A_ub=np.array([[float(v) for v in r] for r in a_ub]) if a_ub else None,
        b_ub=[float(v) for v in b_ub] if b_ub else None,
        A_eq=np.array([[float(v) for v in r] for r in a_eq]) if a_eq else None,
        b_eq=[float(v) for v in b_eq] if b_eq else None,
        bounds=(0, None),
        method="highs",
    )
    return res


def test_simple_minimisation():
    # min -x subject to x <= 3
    status, x, value = simplex_min(
        [Fraction(-1)], [[Fraction(1)]], [Fraction(3)], [], []
    )
    assert status == OPTIMAL and x == [3] and value == -3


def test_equality_binding():
    # min x + y with x + y = 2
    status, x, value = simplex_min(
        [Fraction(1), Fraction(1)],
        [],
        [],
        [[Fraction(1), Fraction(1)]],
        [Fraction(2)],
    )
    assert status == OPTIMAL and value == 2


def test_infeasible_detected():
    # x <= 1 and x >= 3
    status, x, value = simplex_min(
        [Fraction(0)],
        [[Fraction(1)], [Fraction(-1)]],
        [Fraction(1), Fraction(-3)],
        [],
        [],
    )
    assert status == INFEASIBLE and x is None


def test_unbounded_raises():
    with pytest.raises(RuntimeError, match="unbounded"):
        simplex_min([Fraction(-1)], [], [], [], [])


def test_degenerate_redundant_equalities():
    # duplicated constraint rows must not break phase transitions
    status, x, value = simplex_min(
        [Fraction(2), Fraction(3)],
        [[Fraction(1), Fraction(0)]],
        [Fraction(5)],
        [
            [Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(1)],
            [Fraction(2), Fraction(2)],
        ],
        [Fraction(1), Fraction(1), Fraction(2)],
    )
    assert status == OPTIMAL and value == 2 and x == [1, 0]


def test_exact_rational_objective():
    status, x, value = simplex_min(
        [Fraction(1, 3), Fraction(1, 7)],
        [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]],
        [Fraction(-1, 2), Fraction(-1, 5)],
        [],
        [],
    )
    assert status == OPTIMAL
    assert value == Fraction(1, 6) + Fraction(1, 35)


def random_programs():
    """150 seeded bounded programs (c, a_ub, b_ub, a_eq, b_eq) in Fractions."""
    rng = random.Random(99)
    for trial in range(150):
        nv = rng.randint(1, 6)
        nub = rng.randint(0, 5)
        neq = rng.randint(0, 2)
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nv)]
        a_ub = [
            [Fraction(rng.randint(-4, 4)) for _ in range(nv)] for _ in range(nub)
        ]
        b_ub = [Fraction(rng.randint(-3, 8)) for _ in range(nub)]
        a_eq = [
            [Fraction(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(neq)
        ]
        b_eq = [Fraction(rng.randint(0, 5)) for _ in range(neq)]
        a_ub.append([Fraction(1)] * nv)  # keep it bounded
        b_ub.append(Fraction(10))
        yield c, a_ub, b_ub, a_eq, b_eq


def check_against_scipy(program, result, scipy_program=None, label=None):
    """result is optimal and exactly feasible with scipy's value, or both
    call the program infeasible.  scipy solves scipy_program, an equivalent
    program in smaller numbers, when given."""
    c, a_ub, b_ub, a_eq, b_eq = program
    status, x, value = result
    res = solve_with_scipy(*(scipy_program or program))
    if status == OPTIMAL:
        assert res.status == 0, label
        assert abs(float(value) - res.fun) < 1e-7, label
        for row, rhs in zip(a_ub, b_ub):
            assert sum(r * v for r, v in zip(row, x)) <= rhs
        for row, rhs in zip(a_eq, b_eq):
            assert sum(r * v for r, v in zip(row, x)) == rhs
        assert all(v >= 0 for v in x)
        assert sum(ci * vi for ci, vi in zip(c, x)) == value
    else:
        assert res.status == 2, label


def test_agrees_with_scipy_on_random_programs():
    for trial, program in enumerate(random_programs()):
        check_against_scipy(program, simplex_min(*program), label=trial)


@pytest.mark.parametrize("limit", [0, 2**10], ids=["wide-from-start", "wide-mid-solve"])
def test_wide_tableau_gives_the_same_results(monkeypatch, limit):
    # the object-dtype tableau holds the same integers as the int64 one, so
    # a lowered int64 limit changes no pivot and no result
    programs = list(random_programs())
    narrow = [simplex_min(*p) for p in programs]
    monkeypatch.setattr(simplex, "_INT64_LIMIT", limit)
    assert [simplex_min(*p) for p in programs] == narrow


def largest_denominator(result):
    status, x, value = result
    return max(v.denominator for v in [*x, value])


def test_inputs_beyond_int64():
    # rows K*a + e with K = 3^41 > 2^64: the tableau is wide from the start;
    # scipy solves the same rows divided by K
    big = 3**41
    a_ub = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    perturb = [[1, 0, 2], [0, -1, 1], [2, 1, 0], [0, 0, 0]]
    b_ub = [4 * big + 3, 5 * big - 2, 6 * big + 1, 10 * big]
    rows = [[big * a + e for a, e in zip(r, p)] for r, p in zip(a_ub, perturb)]
    c = [Fraction(-1), Fraction(-2), Fraction(-1, 3)]
    program = (c, rows, b_ub, [], [])
    scaled = [[Fraction(a, big) for a in row] for row in rows]
    result = simplex_min(*program)
    assert result[0] == OPTIMAL
    assert max(abs(a) for row in rows for a in row) >= 2**63
    check_against_scipy(program, result, (c, scaled, [Fraction(b, big) for b in b_ub], [], []))


def test_intermediate_entries_beyond_int64():
    # dense rows of 31-bit coefficients fit int64, but their basis
    # determinants do not: a vertex denominator above 2^63 means the
    # tableau held an entry that int64 cannot, so the solve went wide midway
    rng = random.Random(2028)
    nv = 6
    a_ub = [
        [rng.choice((-1, 1)) * rng.randint(2**30, 2**31) for _ in range(nv)]
        for _ in range(nv)
    ]
    b_ub = [rng.randint(2**30, 2**32) for _ in range(nv)]
    a_ub.append([1] * nv)  # keep it bounded
    b_ub.append(10)
    c = [Fraction(rng.randint(-9, 9)) for _ in range(nv)]
    program = (c, a_ub, b_ub, [], [])
    result = simplex_min(*program)
    assert result[0] == OPTIMAL
    assert max(abs(a) for row in [*a_ub, b_ub] for a in row) < 2**32
    assert largest_denominator(result) >= 2**63
    check_against_scipy(program, result)


def test_vertex_invariant_under_row_rescaling():
    # every row enters the tableau in lowest integer terms, so scaling one
    # row and its right-hand side by a positive factor changes no pivot; a
    # zero objective makes the phase-1 vertex the answer
    rng = random.Random(5)
    for trial in range(200):
        nv = rng.randint(1, 6)
        nub = rng.randint(0, 5)
        neq = rng.randint(0, 2)
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nv)]
        if trial % 2:
            c = [Fraction(0)] * nv
        a_ub = [[Fraction(rng.randint(-4, 4)) for _ in range(nv)] for _ in range(nub)]
        b_ub = [Fraction(rng.randint(-3, 8)) for _ in range(nub)]
        a_eq = [[Fraction(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(neq)]
        b_eq = [Fraction(rng.randint(0, 5)) for _ in range(neq)]
        a_ub.append([Fraction(1)] * nv)  # keep it bounded
        b_ub.append(Fraction(10))
        base = simplex_min(c, a_ub, b_ub, a_eq, b_eq)
        for rows, rhs in ((a_ub, b_ub), (a_eq, b_eq)):
            for i in range(len(rows)):
                for factor in (2, 3, 6):
                    scaled_rows = [*rows[:i], [factor * a for a in rows[i]], *rows[i + 1:]]
                    scaled_rhs = [*rhs[:i], factor * rhs[i], *rhs[i + 1:]]
                    if rows is a_ub:
                        result = simplex_min(c, scaled_rows, scaled_rhs, a_eq, b_eq)
                    else:
                        result = simplex_min(c, a_ub, b_ub, scaled_rows, scaled_rhs)
                    assert result == base, (trial, i, factor)


def test_deterministic_pivoting():
    rng = random.Random(7)
    nv = 5
    c = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
    a_ub = [[Fraction(rng.randint(-2, 3)) for _ in range(nv)] for _ in range(6)]
    b_ub = [Fraction(rng.randint(0, 6)) for _ in range(6)]
    a_ub.append([Fraction(1)] * nv)  # keep it bounded
    b_ub.append(Fraction(10))
    first = simplex_min(c, a_ub, b_ub, [], [])
    second = simplex_min(c, a_ub, b_ub, [], [])
    assert first == second
