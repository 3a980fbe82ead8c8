"""Exact rational LP solving via an integer (fraction-free) two-phase simplex.

The tableau is kept over the integers using determinant-scaled (lrs-style)
pivoting: every stored entry equals the true rational value times the
current basis determinant, so all sign tests and ratio comparisons are
integer comparisons and every pivot division is exact.  Bland's rule makes
the pivot order deterministic and cycle-free.

Every constraint row enters the tableau as a primitive integer vector: its
denominators cleared, then divided by the gcd of its coefficients and
right-hand side.  So the returned vertex is invariant under a positive
rescaling of any row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


def _scaled_int_row(coeffs, rhs):
    denom = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    scaled = [c.numerator * (denom // c.denominator) for c in (*coeffs, rhs)]
    g = gcd(*scaled) or 1
    return [c // g for c in scaled[:-1]], scaled[-1] // g


def simplex_min(objective, a_ub, b_ub, a_eq, b_eq):
    """Minimise objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    All inputs are sequences of ints or Fractions.  Returns (status, x,
    value) with exact Fractions, or (INFEASIBLE, None, None).  Raises on an
    unbounded program (callers here only solve bounded ones).
    """
    nvars = len(objective)
    obj_denom = lcm(1, *(c.denominator for c in objective))
    obj_ints = [c.numerator * (obj_denom // c.denominator) for c in objective]

    num_ub = len(a_ub)
    num_eq = len(a_eq)
    m = num_ub + num_eq
    slack_base = nvars
    art_base = nvars + num_ub

    prepared = []  # (structural coeffs, slack coeff or None, rhs >= 0)
    for i in range(num_ub):
        coeffs, beta = _scaled_int_row(a_ub[i], b_ub[i])
        slack = 1
        if beta < 0:
            coeffs = [-x for x in coeffs]
            beta = -beta
            slack = -1
        prepared.append((coeffs, slack, beta))
    for i in range(num_eq):
        coeffs, beta = _scaled_int_row(a_eq[i], b_eq[i])
        if beta < 0:
            coeffs = [-x for x in coeffs]
            beta = -beta
        prepared.append((coeffs, None, beta))

    needs_art = [
        not (slack == 1) for _, slack, _ in prepared
    ]  # rows without a +1 slack start from an artificial
    num_art = sum(needs_art)
    ncols = nvars + num_ub + num_art
    rhs_col = ncols

    t = []
    basis = []
    art_cols = []
    next_art = art_base
    for idx, (coeffs, slack, beta) in enumerate(prepared):
        full = list(coeffs) + [0] * (num_ub + num_art) + [beta]
        if slack is not None:
            full[slack_base + idx] = slack
        if needs_art[idx]:
            full[next_art] = 1
            art_cols.append(next_art)
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(slack_base + idx)
        t.append(full)

    p2 = obj_ints + [0] * (num_ub + num_art) + [0]
    p1 = [0] * (ncols + 1)
    for idx in range(m):
        if needs_art[idx]:
            for j in range(ncols + 1):
                p1[j] -= t[idx][j]
    for col in art_cols:
        p1[col] = 0
    t.append(p2)
    t.append(p1)

    det = 1
    active = [True] * ncols
    row_active = [True] * m
    p2_row = m
    p1_row = m + 1

    def pivot(r, c):
        nonlocal det
        piv = t[r][c]
        old = det
        tr = t[r]
        for i in range(len(t)):
            if i == r or (i < m and not row_active[i]):
                continue
            ti = t[i]
            tic = ti[c]
            if tic == 0:
                if piv != old:
                    for j in range(ncols + 1):
                        ti[j] = ti[j] * piv // old
            else:
                for j in range(ncols + 1):
                    ti[j] = (ti[j] * piv - tic * tr[j]) // old
        det = piv
        basis[r] = c

    def run_phase(obj_row):
        while True:
            sd = 1 if det > 0 else -1
            obj = t[obj_row]
            enter = -1
            for j in range(ncols):
                if active[j] and obj[j] * sd < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            for i in range(m):
                if not row_active[i]:
                    continue
                tic = t[i][enter]
                if tic * sd <= 0:
                    continue
                if leave < 0:
                    leave = i
                    continue
                lhs = t[i][rhs_col] * t[leave][enter]
                rhs_v = t[leave][rhs_col] * tic
                if lhs < rhs_v or (lhs == rhs_v and basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                raise RuntimeError("linear program is unbounded")
            left_var = basis[leave]
            pivot(leave, enter)
            if left_var >= art_base:
                active[left_var] = False

    run_phase(p1_row)
    sd = 1 if det > 0 else -1
    if t[p1_row][rhs_col] * sd != 0:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis (or drop redundant rows)
    for i in range(m):
        if not row_active[i] or basis[i] < art_base:
            continue
        pivot_col = -1
        for j in range(art_base):
            if active[j] and t[i][j] != 0:
                pivot_col = j
                break
        if pivot_col < 0:
            row_active[i] = False
        else:
            pivot(i, pivot_col)
    for col in art_cols:
        active[col] = False

    run_phase(p2_row)

    x = [Fraction(0)] * nvars
    for i in range(m):
        if row_active[i] and basis[i] < nvars:
            x[basis[i]] = Fraction(t[i][rhs_col], det)
    value = Fraction(-t[p2_row][rhs_col], det) / obj_denom
    return OPTIMAL, x, value
