"""Exact rational LP solving via an integer (fraction-free) two-phase simplex.

The tableau is kept over the integers using determinant-scaled (lrs-style)
pivoting: every stored entry equals the true rational value times the
current basis determinant, so all sign tests and ratio comparisons are
integer comparisons and every pivot division is exact (Bareiss).  Bland's
rule makes the pivot order deterministic and cycle-free.

The tableau is one numpy array, and a pivot updates all of it at once (a
dropped row is zeroed, and pivots keep it zero).  It is int64 while that
is provably safe and object dtype (Python ints) from the first pivot that
might overflow: before each int64 pivot the bound max|T| |piv| + max|col|
max|row| on every intermediate of the update is computed in Python ints
and compared with 2^63.  A tableau whose entries do not fit starts in object
dtype.  The ratio test compares products of Python ints.  Both dtypes hold
the same integers, so the pivots and the vertex do not depend on which ran.

Every constraint row enters the tableau as a primitive integer vector: its
denominators cleared, then divided by the gcd of its coefficients and
right-hand side.  So the returned vertex is invariant under a positive
rescaling of any row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# int64 holds every integer of absolute value below this
_INT64_LIMIT = 2**63

_denominator = attrgetter("denominator")


def _primitive_row(coeffs, rhs) -> list:
    """[coeffs..., rhs] as Python ints, denominators cleared, divided by their gcd."""
    row = [*coeffs, rhs]
    denom = lcm(*map(_denominator, row))
    row = [c.numerator * (denom // c.denominator) for c in row]
    g = gcd(*row)
    return row if g < 2 else [c // g for c in row]


def _first(mask) -> int:
    """Index of the first True in a boolean array, or -1."""
    hits = mask.nonzero()[0]
    return int(hits[0]) if hits.size else -1


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
    m = num_ub + len(a_eq)
    slack_base = nvars
    art_base = nvars + num_ub

    # each row with rhs >= 0; a <= row so negated gets slack -1, and it and
    # every equality start from an artificial
    rows = [_primitive_row(a, b) for a, b in zip(a_ub, b_ub)]
    rows += [_primitive_row(a, b) for a, b in zip(a_eq, b_eq)]
    slack = [1] * num_ub
    for i, row in enumerate(rows):
        if row[-1] < 0:
            rows[i] = [-c for c in row]
            if i < num_ub:
                slack[i] = -1
    art_rows = [i for i in range(m) if i >= num_ub or slack[i] < 0]
    num_art = len(art_rows)
    ncols = art_base + num_art
    rhs_col = ncols
    p2_row = m
    p1_row = m + 1

    # the phase-1 row sums num_art rows, so this bounds every initial entry
    largest = max(map(abs, chain(obj_ints, *rows)), default=0)
    dtype = np.int64 if largest * max(num_art, 1) < _INT64_LIMIT else object
    t = np.zeros((m + 2, ncols + 1), dtype=dtype)
    if m:
        body = np.array(rows, dtype=dtype)
        t[:m, :nvars] = body[:, :-1]
        t[:m, rhs_col] = body[:, -1]
    t[range(num_ub), range(slack_base, art_base)] = slack
    t[art_rows, range(art_base, ncols)] = 1
    t[p2_row, :nvars] = obj_ints
    t[p1_row, :art_base] = -t[art_rows, :art_base].sum(axis=0)
    t[p1_row, rhs_col] = -t[art_rows, rhs_col].sum()
    basis = list(range(slack_base, slack_base + m))
    for k, i in enumerate(art_rows):
        basis[i] = art_base + k

    det = 1
    tmax = int(np.abs(t).max())  # max |T| while the tableau is int64
    active = np.ones(ncols, dtype=bool)  # columns that may enter

    # A row leaves the problem by being zeroed: pivots keep it zero, so it
    # is never a ratio-test candidate and never needs masking out.
    def pivot(r, c):
        nonlocal t, det, tmax
        prow = t[r].copy()
        col = t[:, c].copy()
        piv = int(prow[c])
        if t.dtype != object:
            rmax = int(np.abs(prow).max())
            if tmax * abs(piv) + int(np.abs(col).max()) * rmax >= _INT64_LIMIT:
                t, col, prow = t.astype(object), col.astype(object), prow.astype(object)
        t *= piv
        t -= col[:, None] * prow
        t //= det
        t[r] = prow
        if t.dtype != object:
            tmax = int(np.abs(t).max())
        det = piv
        basis[r] = c

    def run_phase(obj_row):
        while True:
            obj = t[obj_row, :ncols]
            enter = _first(active & ((obj < 0) if det > 0 else (obj > 0)))
            if enter < 0:
                return
            col = t[:m, enter]
            rows = ((col > 0) if det > 0 else (col < 0)).nonzero()[0].tolist()
            if not rows:
                raise RuntimeError("linear program is unbounded")
            col = col.tolist()
            rhs = t[:m, rhs_col].tolist()
            leave = rows[0]
            for i in rows[1:]:
                lhs = rhs[i] * col[leave]
                rhs_v = rhs[leave] * col[i]
                if lhs < rhs_v or (lhs == rhs_v and basis[i] < basis[leave]):
                    leave = i
            left_var = basis[leave]
            pivot(leave, enter)
            if left_var >= art_base:
                active[left_var] = False

    run_phase(p1_row)
    if t[p1_row, rhs_col] != 0:
        return INFEASIBLE, None, None
    t[p1_row] = 0

    # drive leftover artificials out of the basis (or drop redundant rows)
    for i in range(m):
        if basis[i] < art_base:
            continue
        pivot_col = _first(active[:art_base] & (t[i, :art_base] != 0))
        if pivot_col < 0:
            t[i] = 0
        else:
            pivot(i, pivot_col)
    active[art_base:] = False

    run_phase(p2_row)

    x = [Fraction(0)] * nvars
    values = t[:, rhs_col].tolist()
    for i in range(m):
        if basis[i] < nvars:
            x[basis[i]] = Fraction(values[i], det)
    value = Fraction(-values[p2_row], det) / obj_denom
    return OPTIMAL, x, value
