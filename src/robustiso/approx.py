"""The additive-approximation pipeline for bounded-weight QAP instances.

For each candidate partial injection alpha, a linear program over the
assignment polytope constrains every linearised coefficient row to an
interval around the scaled partial-sum estimate b_alpha; its fractional
optimum is rounded to a partial matching which is then completed greedily.
The best completed assignment over all alphas (by true QAP cost) wins.
Exhaustive mode tries every alpha of size 1..m.  Sampled mode is the
paper's sampler, as in Arora, Frieze & Kaplan (Math. Program. 2002): one
seeded source set S of size m, and every injective image of S.

The constraint matrix does not depend on alpha, so it is built once per
instance (LpModel), as exact integers that both LP backends read; each
alpha adds only its objective and row bounds (LinearProgram).  HiGHS reads
it as numpy arrays without the last target row, which the other assignment
rows imply, and so runs without presolve (and retries with the primal
simplex if its dual simplex stops short of a verdict).  Each thread keeps
one HiGHS solver object, and each LP is passed to it afresh and solved cold.
An LP's answer is its flat vector of n^2 values, or None when the LP is
infeasible: exact Fractions from the simplex, and HiGHS's floats as it
returns them, unverified.  The rounding compares either kind exactly with
its mass floor, and each completion is costed from the same block.

Two shortcuts skip solves without changing any output.  Twin vertices give
equal block columns, so alphas that differ only in twins have equal LPs; a
memo keyed by (b_num, b_den) lets them share one solve (see _solved).  And
the range of each block row over the whole assignment polytope, the same
for every alpha, refutes any LP with a row interval outside it before
either backend runs (_refutes).  On the HiGHS path these are each row's
exact least and greatest values, two linear assignment problems per row
(LpModel.tight_row_ranges); the exact backend takes a cheaper bracket
(LpModel.row_ranges), so that it never loads scipy.optimize.

No LP depends on another, so with HiGHS on more than one usable core the
LPs are solved on a pool of worker threads (HiGHS releases the GIL while it
solves) and everything else, from building each LP to rounding and costing,
stays on the calling thread in alpha order; reports do not depend on the
number of workers.  That calling-thread work holds the GIL, so it is kept
small: the matrix goes to HiGHS as arrays made once per instance, each
alpha's bounds, refutation and floats are a few int64 array operations
(Python ints where a value might pass 2^53), the rounding reuses its
accumulated weights and compares float masses with a float floor, and a
cost is one indexed sum.
The exact simplex (an int64 numpy tableau, Python ints once entries might
overflow) holds the GIL for most of a solve, so threads would only slow
it: it solves inline.

HiGHS is loaded on first use: scipy's solver module is imported when the
"highs" backend solves its first LP, not when this module is imported, so
code that never runs that backend does not load scipy.optimize.  Nor does
it load concurrent.futures, which the first worker pool imports.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import itertools
import math
import os
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError
from .graphs import Assignment, Graph, edit_cost, partial_injection
from .qap import QapInstance, block_totals, weighted_ged_to_qap
from .rationals import as_fraction
from . import simplex


@dataclass(frozen=True, eq=False)
class LpModel:
    """The alpha-independent part of every interval LP of one QAP instance.

    Variables are x(v, v') indexed v*n + v'.  Row v*n + v' of `block` is the
    coefficient vector a(v, v') (entry w*n + w' is c(v, v', w, w')), times the
    common denominator `denom`, so the block is exact.  The exact simplex
    reads the block's rows as they are with all 2n assignment rows
    (`exact_rows`), HiGHS its float `csc`, which leaves out the implied last
    target row; no Fraction copy exists.  Per alpha only the objective and
    the row bounds change.
    """

    n: int
    block: np.ndarray  # (n^2, n^2) integers: the coefficients times denom
    denom: int

    @cached_property
    def assignment(self) -> np.ndarray:
        """The 2n unit-sum rows: one per source v, then one per target v'."""
        n = self.n
        eye = np.eye(n, dtype=np.int64)
        return np.vstack([np.repeat(eye, n, axis=1), np.tile(eye, n)])

    @cached_property
    def csc(self):
        """(start, index, value) of HiGHS's matrix in float CSC form.

        The rows are block / denom and the first 2n - 1 assignment rows.  The
        last target row, sum over v of x(v, n-1) = 1, is left out: the n source
        sums and the other n - 1 target sums imply it, so the matrix has full
        row rank and HiGHS needs no presolve to find the dependent row.
        Each value is one correctly rounded integer division, as float(Fraction).
        int32, int32 and float64 arrays, the dtypes of HiGHS's numpy passModel,
        made once per instance and handed over uncopied by every alpha's solve.
        """
        denom = self.denom
        kept = self.assignment[: max(2 * self.n - 1, 0)]
        # the stacked matrix by columns, in object dtype so any denom stays exact
        columns = np.vstack([self.block, kept.astype(object) * denom]).T
        col, row = np.nonzero(columns)
        start = np.searchsorted(col, np.arange(len(columns) + 1))
        value = [c / denom for c in columns[col, row].tolist()]
        return (start.astype(np.int32), row.astype(np.int32),
                np.array(value, dtype=np.float64))

    @cached_property
    def exact_rows(self):
        """(<= rows, equality rows) of the exact backend as Python ints.

        Each block row is followed by its negation, so a ranged row is two <=
        rows; the equalities are the assignment rows.  Shared by every alpha.
        """
        rows = []
        for row in self.block.tolist():
            rows += (tuple(row), tuple(-c for c in row))
        return tuple(rows), tuple(map(tuple, self.assignment.tolist()))

    @cached_property
    def extent(self) -> int:
        """n * max |block entry|: no block row . x is larger in size on the polytope."""
        return self.n * int(np.abs(self.block).max(initial=0))

    @cached_property
    def row_ranges(self):
        """(lower, upper): integer bounds on each block row . x over the polytope.

        Row v*n + v' is the n x n cell matrix M[w, w'] = block[v*n + v', w*n + w'].
        Every point of the assignment polytope takes one unit from each row of
        M and one from each column, so block row . x lies between the larger of
        the sums of M's row minima and of its column minima and the smaller of
        the sums of its row maxima and of its column maxima.  Arrays of the
        block's dtype.
        """
        n = self.n
        cells = self.block.reshape(n * n, n, n)
        lower = np.maximum(cells.min(axis=2).sum(axis=1), cells.min(axis=1).sum(axis=1))
        upper = np.minimum(cells.max(axis=2).sum(axis=1), cells.max(axis=1).sum(axis=1))
        return lower, upper

    @cached_property
    def tight_row_ranges(self):
        """(lower, upper): each block row's least and greatest value over the polytope.

        The polytope's vertices are the permutation matrices, so row v*n + v'
        ranges between the least and greatest assignment sums of its cell
        matrix M (row_ranges): two linear assignment problems, solved by scipy's
        linear_sum_assignment (Crouse, IEEE TAES 2016), whose chosen cells are
        summed in integers.  It solves in floats, which are exact while
        2n * max |c| < 2^53; past that, and for an object-dtype block, these are
        row_ranges' bounds.  The HiGHS path refutes with these, the exact
        backend with row_ranges, so that it never loads scipy.optimize.
        """
        n = self.n
        if self.block.dtype == object or 2 * self.extent >= 2**53:
            return self.row_ranges
        from scipy.optimize import linear_sum_assignment

        lower = np.empty(n * n, dtype=np.int64)
        upper = np.empty(n * n, dtype=np.int64)
        for row, cells in enumerate(self.block.reshape(n * n, n, n)):
            lower[row] = cells[linear_sum_assignment(cells)].sum()
            upper[row] = cells[linear_sum_assignment(cells, maximize=True)].sum()
        return lower, upper

    @cached_property
    def twin_columns(self) -> list:
        """Per block column w*n + w': whether another column is equal to it.

        Alphas that differ only in pairs with equal columns have equal LPs.
        """
        columns = list(map(tuple, self.block.T.tolist()))
        counts = collections.Counter(columns)
        return [counts[column] > 1 for column in columns]


def lp_model(q: QapInstance) -> LpModel:
    """The LP model shared by every alpha of q, from its exact coefficient block."""
    block, denom = q.scaled_block()
    return LpModel(q.n, block, denom)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Interval-constrained assignment LP for one alpha.

    Minimise sum b(v,v') x(v,v') over the assignment polytope (unit row and
    column sums, x >= 0) subject to b(v,v') - slack <= a(v,v') . x <=
    b(v,v') + slack for every pair, where b = b_num / b_den is b_alpha.
    """

    model: LpModel
    b_num: np.ndarray  # (n^2,) integers
    b_den: int
    slack: Fraction

    @property
    def n(self) -> int:
        return self.model.n

    @cached_property
    def integer_bounds(self):
        """(lo, hi, den): the row bounds b -+ slack as integers over one denominator,
        computed once per LP for _refutes and solve_lp alike.

        lo and hi are int64 arrays where every value and den are below 2^53 and
        _refutes' cross-multiplied comparisons stay inside int64, so that each
        lo / den in float64 is Python's correctly rounded int / int; otherwise,
        and for an object-dtype block, they are object arrays of Python ints.
        """
        sn, sd = self.slack.numerator, self.slack.denominator
        b_num = self.b_num
        shift = sn * self.b_den
        den = sd * self.b_den
        top = int(np.abs(b_num).max(initial=0)) * sd + shift  # no |lo| or |hi| is larger
        if not (
            b_num.dtype != object and top < 2**53 and den < 2**53
            and top * self.model.denom < 2**63 and self.model.extent * den < 2**63
        ):
            b_num = b_num.astype(object)
        centre = b_num * sd
        return centre - shift, centre + shift, den


@dataclass(frozen=True)
class ApproxReport:
    best_assignment: Assignment
    best_cost: Fraction
    alphas_tried: int
    lps_infeasible: int
    trace: tuple = ()


# The constant c in the sample size c * B^2 eps^-2 (d + ln K), as
# setsystems.C_APPROX is for eps-approximations.
C_M = 1


def m_bound(b, eps, d: int, k_values: int, n: int | None = None) -> int:
    """Sample-size bound ceil(C_M * B^2 eps^-2 (d + ln K)), clamped to [1, n]."""
    b = as_fraction(b)
    eps = as_fraction(eps)
    if b <= 0 or eps <= 0 or d < 0 or k_values < 1:
        raise ValueError("m_bound requires positive B, eps and K >= 1, d >= 0")
    raw = C_M * float(b) ** 2 * (d + math.log(k_values)) / float(eps) ** 2
    m = math.ceil(raw)
    if n is not None:
        m = min(m, n)
    return max(1, m)


def build_alpha_lp(model: LpModel, alpha, eps) -> LinearProgram:
    """LP: minimise sum b_alpha(v,v') x(v,v') with a(v,v') . x in [b +- eps*n/3].

    alpha is the pairs (w, w') of a partial injection of [n] (partial_injection).
    b_alpha(v, v') = (n/|alpha|) * sum of c(v, v', w, w') over alpha, for all
    pairs at once: a sum of the block's alpha columns.
    """
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    eps = as_fraction(eps)
    n = model.n
    alpha = partial_injection(alpha, n)
    columns = [w * n + wp for w, wp in alpha]
    b_num = n * model.block[:, columns].sum(axis=1)
    return LinearProgram(model, b_num, len(alpha) * model.denom, eps * n / 3)


def __getattr__(name):
    """`_highs` is scipy's bundled HiGHS `_core` module, imported on first use."""
    if name == "_highs":
        from scipy.optimize._highspy import _core

        return _core
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# each thread's HiGHS solver object, made on its first solve (_highs_solver)
_local = threading.local()


def _highs_solver(_highs):
    """This thread's solver: one per thread, with its options set once.

    Made again whenever its class is no longer `_highs._Highs`, so a solver
    class put in its place takes effect on every thread's next solve.
    """
    solver = getattr(_local, "solver", None)
    if type(solver) is not _highs._Highs:
        solver = _local.solver = _highs._Highs()
        solver.setOptionValue("output_flag", False)
        # one thread per solve: approximate_qap runs solves side by side, and
        # with HiGHS's default two such solves ran no faster than one
        solver.setOptionValue("threads", 1)
        # presolve took half of each run, and on these LPs its one reduction
        # was the implied assignment row that LpModel.csc leaves out
        solver.setOptionValue("presolve", "off")
    return solver


def _highs_solve(cost, row_lower, row_upper, csc):
    """Minimise cost . x subject to row_lower <= A x <= row_upper and x >= 0.

    cost and the row bounds are float64 arrays, and A is given as (start,
    index, value) in CSC form, with full row rank (LpModel.csc).  Runs scipy's
    bundled HiGHS through its private `_core` module, on this thread's solver
    object (_highs_solver), through the passModel that reads numpy arrays.
    Passing a model clears the solver's basis and solution, so nothing carries
    over from an earlier call: the dual simplex without presolve, and if that
    stops short of a verdict, the primal simplex once more from scratch.
    Returns x as HiGHS gives it, floats, or None when the program is infeasible.
    A model that HiGHS refuses, such as one with a matrix value past its
    large_matrix_value, raises ValueError.
    """
    _highs = __getattr__("_highs")
    start, index, value = csc
    num_col, num_row = len(cost), len(row_lower)
    solver = _highs_solver(_highs)
    if solver.passModel(
        num_col, num_row, len(value), int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, cost, np.zeros(num_col),
        np.full(num_col, _highs.kHighsInf), row_lower, row_upper, start, index, value,
        # every column continuous: this overload reads num_col entries here
        np.zeros(num_col, dtype=np.int32),
    ) == _highs.HighsStatus.kError:
        limit = solver.getOptionValue("large_matrix_value")[1]
        raise ValueError(
            f"HiGHS refused the LP: its matrix values must stay below {limit:g} "
            "(large_matrix_value); solve it with --lp exact"
        )
    strategies = _highs.simplex_constants.SimplexStrategy
    for strategy in (strategies.kSimplexStrategyDual, strategies.kSimplexStrategyPrimal):
        solver.setOptionValue("simplex_strategy", int(strategy))
        if solver.run() == _highs.HighsStatus.kError and (
            solver.getModelStatus() == _highs.HighsModelStatus.kNotset
        ):
            # HiGHS refuses a thread count other than that of this thread's
            # scheduler, which an earlier solve on this thread may have started
            solver.setOptionValue("threads", 0)
            solver.run()
        status = solver.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            return tuple(solver.getSolution().col_value)
        # x >= 0 with unit row sums is bounded, so "unbounded or infeasible" is infeasible
        if status in (
            _highs.HighsModelStatus.kInfeasible,
            _highs.HighsModelStatus.kUnboundedOrInfeasible,
        ):
            return None
        # without presolve the dual simplex can stop with status Unknown on an
        # infeasible LP; the primal simplex starts again from no basis
        solver.clearSolver()
    name = solver.modelStatusToString(status)
    raise RuntimeError(f"HiGHS stopped with status {name}")


def _refutes(lp: LinearProgram, ranges) -> bool:
    """Whether some row's interval misses the range of its row over the polytope.

    Row v*n + v' asks lo / den <= block row . x / denom <= hi / den, and
    block row . x lies in [lower, upper] (ranges: LpModel.row_ranges or
    tight_row_ranges) at every point of the assignment polytope; compared in
    integers, a miss proves the LP infeasible without solving it.
    """
    lows, highs, den = lp.integer_bounds
    lower, upper = ranges
    if lows.dtype == object:
        lower, upper = lower.astype(object), upper.astype(object)
    denom = lp.model.denom
    return bool(
        np.count_nonzero(highs * denom < lower * den)
        or np.count_nonzero(lows * denom > upper * den)
    )


def solve_lp(lp: LinearProgram, method: str = "exact"):
    """An optimal x as a flat tuple, x(v, v') = x[v*n + v'], or None if infeasible.

    Both backends read the instance's shared LpModel, and every LP is solved
    cold: no basis carries over between alphas, so a solution depends on its
    own alpha alone, whichever thread solves it.  "exact" runs the rational
    simplex (deterministic Bland pivoting, zero tolerance) on the block's
    integer rows, each ranged row split into two <= rows with its bounds
    scaled by denom, and on the integer objective b_num; the bounds are
    computed as integers over one denominator, and the simplex reduces each
    row itself.  Its tableau is int64 numpy while that cannot overflow and
    Python ints after; it holds the GIL for most of a solve, so
    approximate_qap calls it inline.  "highs" passes the ranged rows and the
    first 2n - 1 assignment equalities (LpModel.csc; they imply the last)
    straight to scipy's bundled HiGHS, one thread per solve, without
    presolve, with a primal simplex retry (_highs_solve); its solution stays
    floats, unverified, and round_apec compares them exactly with its floor.
    HiGHS releases the GIL while it solves, so approximate_qap calls this on
    worker threads when more than one core is usable.

    Before either backend runs, an LP that _refutes proves infeasible from
    the rows' ranges over the polytope gives None without a solve: the exact
    ranges on the HiGHS path (LpModel.tight_row_ranges), the cheaper bracket
    on the exact one (LpModel.row_ranges).
    """
    if method not in ("exact", "highs"):
        raise ValueError(f"unknown LP method {method!r}")
    model = lp.model
    if _refutes(lp, model.tight_row_ranges if method == "highs" else model.row_ranges):
        return None
    n = lp.n
    denom = model.denom
    lows, highs, den = lp.integer_bounds
    if method == "exact":
        a_ub, a_eq = model.exact_rows
        b_ub = []
        # a(v, v') . x <= hi  <=>  block row . x <= hi * denom
        for lo, hi in zip(lows.tolist(), highs.tolist()):
            b_ub += (Fraction(hi * denom, den), Fraction(-lo * denom, den))
        status, x, _ = simplex.simplex_min(
            lp.b_num.tolist(), a_ub, b_ub, a_eq, [1] * (2 * n)
        )
        return None if status == simplex.INFEASIBLE else tuple(x)
    # one correctly rounded division each: in float64 for int64 bounds (all
    # below 2^53), in Python for object ones; then the unit bounds of the
    # 2n - 1 assignment rows that LpModel.csc keeps
    b_num = lp.b_num.astype(object) if lows.dtype == object else lp.b_num
    rows = n * n + 2 * n - 1
    row_lower, row_upper = np.ones(rows), np.ones(rows)
    row_lower[: n * n] = lows / den
    row_upper[: n * n] = highs / den
    return _highs_solve(
        np.asarray(b_num / lp.b_den, dtype=np.float64), row_lower, row_upper, model.csc
    )


def round_apec(x, lp: LinearProgram, seed: int, retries: int = 32) -> tuple:
    """Seeded randomised rounding of a fractional assignment to a partial matching,
    as its (source, target) pairs in source order.

    x is solve_lp's vector, x(v, v') = x[v*n + v'], of Fractions or floats:
    Python compares a float with a Fraction exactly, so both give the same
    matching for the same values.

    Each retry draws targets source by source with probability proportional
    to the remaining fractional mass, dropping draws below the mass floor
    1/(2n).  Among all retries the result with the most matched pairs wins,
    ties broken by smaller LP objective, then lexicographically.  When no
    source has two targets to choose from, every retry draws alike, so one
    retry is made.

    Each draw is the one random.choices(options, weights) makes, call for
    call: one rng.random() scaled by the float total, bisected into the
    accumulated float weights of the source's targets not used yet.  Those
    weights depend only on the source and its free targets, so they are
    accumulated once per (source, free targets) and reused by later draws; a
    single free target still takes its rng.random(), with nothing to bisect.

    A float mass reaches the floor exactly when it reaches t = float(1/(2n)):
    no float lies strictly between the two, so it is mass >= t when t is at
    least the floor and mass > t when t lies below it.  Other masses are
    compared with the floor as Fractions.
    """
    n = lp.n
    floor = Fraction(1, 2 * n)
    t = 1 / (2 * n)
    t_reaches = Fraction(t) >= floor
    draw = random.Random(seed).random
    # b_alpha over one positive common denominator: integer sums order alike
    objective = lp.b_num.tolist()
    # per source: its targets of positive mass, each an option (pair, bit,
    # objective term) with its float weight, the pair None when the mass is
    # below the floor; the bitmask of those targets; and its draws by free
    # targets, each free-targets bitmask -> (options, accumulated weights,
    # total, last index)
    support = []
    for v in range(n):
        entries = []
        for vp, mass in enumerate(x[v * n : v * n + n]):
            if mass > 0:
                if type(mass) is float:
                    kept = mass >= t if t_reaches else mass > t
                else:
                    kept = mass >= floor
                option = ((v, vp) if kept else None, 1 << vp, objective[v * n + vp])
                entries.append((option, float(mass)))
        support.append((entries, sum(option[1] for option, _ in entries), {}))
    if all(len(entries) <= 1 for entries, _, _ in support):
        retries = 1
    best = None
    for _ in range(max(1, retries)):
        used = 0
        pairs = []
        obj = 0
        for entries, targets, draws in support:
            free = targets & ~used
            if not free:
                continue
            drawn = draws.get(free)
            if drawn is None:
                if free != targets:
                    entries = [entry for entry in entries if free & entry[0][1]]
                cumulative = list(itertools.accumulate(w for _, w in entries))
                total = cumulative[-1] + 0.0
                if not 0.0 < total < math.inf:
                    raise ValueError("Total of weights must be greater than zero and finite")
                options = [option for option, _ in entries]
                drawn = draws[free] = (options, cumulative, total, len(options) - 1)
            options, cumulative, total, last = drawn
            if last:
                pair, bit, term = options[bisect.bisect(cumulative, draw() * total, 0, last)]
            else:
                draw()
                pair, bit, term = options[0]
            if pair is None:
                continue
            pairs.append(pair)
            used |= bit
            obj += term
        key = (-len(pairs), obj, tuple(pairs))
        if best is None or key < best:
            best = key
    return best[2]


def complete_matching(partial, n: int) -> Assignment:
    """Extend the pairs of a partial injection of [n] (partial_injection) to a
    perfect matching: unmatched sources take the smallest free target."""
    mapping = [-1] * n
    used = set()
    for v, vp in partial_injection(partial, n):
        mapping[v] = vp
        used.add(vp)
    free = iter(sorted(set(range(n)) - used))
    for v in range(n):
        if mapping[v] < 0:
            mapping[v] = next(free)
    return Assignment(tuple(mapping))


def _alphas(n: int, m: int, mode: str, seed: int):
    """Each alpha to try, in order: a source set with every injective image
    of it, in permutations order.  Exhaustive mode takes every source set of
    size 1..m, sampled mode one seeded set of size m (m <= n)."""
    if mode == "exhaustive":
        source_sets = itertools.chain.from_iterable(
            itertools.combinations(range(n), s) for s in range(1, m + 1)
        )
    else:
        source_sets = [sorted(random.Random(seed).sample(range(n), m))] if m else []
    for sources in source_sets:
        for targets in itertools.permutations(range(n), len(sources)):
            yield tuple(zip(sources, targets))


def _workers() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solved(model: LpModel, alphas, eps, lp_method: str):
    """(alpha pairs, LP, solve_lp result) for each alpha, in alpha order.

    Alphas with equal LPs share one solve: a memo keyed by (b_num, b_den)
    holds the result, or its future on the worker pool.  It stores only
    alphas with a pair in a twin column, the alphas whose columns another
    alpha of the same size can repeat (alphas are distinct within a run),
    and it is cleared when the alpha size changes, since b_den changes with
    it; so it holds at most one size's twin alphas.

    With HiGHS and more than one usable core, solve_lp runs on a pool of one
    worker thread per core, at most eight solves per worker in flight, while
    this thread builds the next LPs; otherwise each LP is solved inline.
    Closing the generator, or an error it raises, cancels the solves not yet
    started and waits for the running ones, so no worker outlives it.
    """
    n = model.n
    twins = model.twin_columns
    memo = {}
    size = None

    def shared(pairs, lp, solve):
        """solve(lp), or the result an earlier alpha with an equal LP got."""
        nonlocal size
        if len(pairs) != size:
            memo.clear()
            size = len(pairs)
        key = (tuple(lp.b_num.tolist()), lp.b_den)
        if key in memo:
            return memo[key]
        result = solve(lp)
        if any(twins[w * n + wp] for w, wp in pairs):
            memo[key] = result
        return result

    lps = ((pairs, build_alpha_lp(model, pairs, eps)) for pairs in alphas)
    workers = _workers()
    # order 0 has no alpha, so no LP and nothing to warm up
    if lp_method != "highs" or workers < 2 or model.n == 0:
        for pairs, lp in lps:
            yield pairs, lp, shared(pairs, lp, lambda lp: solve_lp(lp, method=lp_method))
        return
    from concurrent.futures import ThreadPoolExecutor

    # first uses on this thread, so no worker races the imports, the CSC or
    # the ranges
    __getattr__("_highs")
    model.csc
    model.tight_row_ranges
    pool = ThreadPoolExecutor(workers)
    pending = collections.deque()
    try:
        for pairs, lp in lps:
            future = shared(pairs, lp, lambda lp: pool.submit(solve_lp, lp, method=lp_method))
            pending.append((pairs, lp, future))
            if len(pending) == 8 * workers:
                pairs, lp, future = pending.popleft()
                yield pairs, lp, future.result()
        while pending:
            pairs, lp, future = pending.popleft()
            yield pairs, lp, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def approximate_qap(
    q: QapInstance,
    eps,
    m: int,
    seed: int,
    mode: str = "exhaustive",
    lp_method: str = "highs",
    budget: int = 200_000,
    keep_trace: bool = False,
) -> ApproxReport:
    """Best completed assignment over partial injections alpha of [n].

    Exhaustive mode tries every alpha of size 1..m (the n^O(m) loop).
    Sampled mode is the paper's sampler: it draws one source set S of size m
    from the seed and tries every injective image of S, P(n, m) alphas.
    Both take m no larger than n.  The alpha count is checked against
    `budget` before the first LP.  HiGHS LPs may be solved on worker
    threads (see _solved), but every result is rounded, completed and costed
    here in alpha order, with the seed of its place in that order, and the
    first minimiser is kept: stopping at cost 0 or on an error leaves
    `alphas_tried`, the trace and the error as a serial run gives them.
    Identical arguments give identical reports.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    n = q.n
    size = min(m, n)
    if mode == "exhaustive":
        total = sum(math.comb(n, s) * math.perm(n, s) for s in range(1, size + 1))
    else:
        total = math.perm(n, size) if size else 0
    BudgetExceededError.check(total, budget, "alphas to try")
    model = lp_model(q)
    nonnegative = model.block.min(initial=0) >= 0
    cost_of = lambda a: Fraction(int(block_totals(model.block, a.mapping)), model.denom)
    best = None  # (cost, assignment)
    tried = 0
    infeasible = 0
    trace = []
    with contextlib.closing(
        _solved(model, _alphas(n, size, mode, seed), eps, lp_method)
    ) as solved:
        for pairs, lp, x in solved:
            tried += 1
            if x is None:
                infeasible += 1
                if keep_trace:
                    trace.append({"alpha": pairs, "status": "infeasible"})
                continue
            partial = round_apec(x, lp, seed=seed * 1_000_003 + tried)
            assignment = complete_matching(partial, n)
            cost = cost_of(assignment)
            if keep_trace:
                trace.append(
                    {"alpha": pairs, "status": "ok", "cost": cost,
                     "matched": len(partial)}
                )
            if best is None or cost < best[0]:
                best = (cost, assignment)
                if nonnegative and cost == 0:
                    break

    if best is None:
        assignment = Assignment.identity(n)
        best = (cost_of(assignment), assignment)
    return ApproxReport(
        best_assignment=best[1],
        best_cost=best[0],
        alphas_tried=tried,
        lps_infeasible=infeasible,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class GedApproxResult:
    assignment: Assignment
    cost: Fraction
    report: ApproxReport


def approximate_ged(
    g: Graph,
    h: Graph,
    eps,
    m: int,
    seed: int,
    mode: str = "exhaustive",
    lp_method: str = "highs",
    **kwargs,
) -> GedApproxResult:
    """Approximate edit distance via the QAP reduction.

    The QAP runs with doubled eps because its cost double-counts every edge,
    so the returned edit cost obeys the same eps * n^2 additive bound.
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    eps = as_fraction(eps)
    report = approximate_qap(
        weighted_ged_to_qap(g, h), 2 * eps, m, seed, mode=mode, lp_method=lp_method,
        **kwargs,
    )
    phi = report.best_assignment
    return GedApproxResult(phi, edit_cost(g, h, phi), report)
