"""Checks of the paper's lemmas that no command runs: the threshold grid and
the mean-threshold interval for b_alpha, the threshold system restricted to
a bijection, the Sauer-Shelah trace count, the dimension-based size target
of an eps-net, and the homogenising-set condition.  The tests use them as
oracles for the library's machinery."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from robustiso.errors import BudgetExceededError
from robustiso.qap import b_alpha
from robustiso.rationals import as_fraction
from robustiso.setsystems import (
    SetSystem,
    mixed_system,
    qap_threshold_system,
    vc_dimension_exact,
)


@dataclass(frozen=True)
class ThresholdGrid:
    """Left boundaries of k = ceil(24B/eps) equal intervals covering [-B, B)."""

    b: Fraction
    k: int
    thresholds: tuple

    @property
    def step(self) -> Fraction:
        return Fraction(2) * self.b / self.k


def threshold_grid(b, eps) -> ThresholdGrid:
    b = as_fraction(b)
    eps = as_fraction(eps)
    if b <= 0 or eps <= 0:
        raise ValueError("B and eps must be positive")
    ratio = 24 * b / eps
    k = -(-ratio.numerator // ratio.denominator)
    step = Fraction(2) * b / k
    thresholds = tuple(-b + i * step for i in range(k))
    return ThresholdGrid(b, k, thresholds)


@dataclass(frozen=True)
class MeanThresholdEstimate:
    """Interval check of the mean-threshold approximation of b_alpha."""

    b_value: Fraction
    lower: Fraction
    upper: Fraction

    @property
    def contains(self) -> bool:
        return self.lower <= self.b_value <= self.upper


def mean_threshold_estimate(q, alpha, grid: ThresholdGrid, v: int, vp: int):
    """Exact evaluation of the averaged threshold-count interval for b_alpha.

    The containment flag must be true whenever the grid bound dominates the
    instance bound.
    """
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    pairs = np.array(alpha, dtype=np.int64)
    scaled = q.scaled_block()[0][v * q.n + vp, pairs[:, 0] * q.n + pairs[:, 1]]
    if grid.b < q.bound_b:
        raise ValueError("grid bound is below the instance coefficient bound")
    n = q.n
    scale = Fraction(n, len(alpha))
    total = 0
    for t in grid.thresholds:
        total += int(np.count_nonzero(scaled > math.floor(t * q.denom)))
    centre = grid.step * scale * total - grid.b * n
    half = grid.step * n
    return MeanThresholdEstimate(b_alpha(q, alpha, v, vp), centre - half, centre + half)


def restricted_threshold_system(q, t, phi) -> SetSystem:
    """The threshold system of q (qap_threshold_system) restricted to the
    graph of the bijection phi, whose pair (w, phi(w)) is encoded by w: the
    member for (v, v') collects the w with c(v, v', w, phi(w)) > t."""
    n = q.n
    cells = [w * n + phi[w] for w in range(n)]
    return SetSystem(n, (
        sum((m >> cell & 1) << w for w, cell in enumerate(cells))
        for m in qap_threshold_system(q, t).sets
    ))


def sauer_shelah_check(system, s: int, budget: int = 2_000_000) -> bool:
    """Check the trace-count bound (e*s/d)^d over every s-subset of the ground set.

    Must return True for every valid input; a False return flags a bug in the
    VC machinery.
    """
    d = vc_dimension_exact(system)
    if d < 1:
        raise ValueError("requires a system of VC dimension >= 1")
    if s < d:
        raise ValueError("requires s >= VC dimension")
    subsets = math.comb(system.ground_size, s)
    if subsets > budget:
        raise BudgetExceededError("too many s-subsets to enumerate", subsets)
    bound = (math.e * s / d) ** d
    family = list(system.sets)
    for combo in itertools.combinations(range(system.ground_size), s):
        x = sum(1 << i for i in combo)
        traces = {m & x for m in family}
        if len(traces) > bound:
            return False
    return True


def size_target(g, eps) -> float:
    """(d/eps) log(1/eps), d the exact VC dimension of g's mixed system: the
    order of an eps-net's size; the constant is not asserted."""
    eps = float(as_fraction(eps))
    d = max(vc_dimension_exact(mixed_system(g)), 0)
    return d / eps * max(1.0, math.log(1 / eps))


def homogenising_reference(g, vertices, eps) -> bool:
    """Whether vertices equal under 1-WL with `vertices` individualised have
    mixed neighbourhoods N(v) ^ N(w) of at most eps * n vertices, over
    frozensets read from g.edges and with a colour refinement of its own."""
    nbrs = [frozenset(u for e in g.edges if v in e for u in e if u != v) for v in range(g.n)]
    individualised = sorted(set(vertices))
    colour = [
        ((g.colours or {}).get(v, 0), individualised.index(v) + 1 if v in individualised else 0)
        for v in range(g.n)
    ]
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in range(g.n)]
        rank = {s: i for i, s in enumerate(sorted(set(signature)))}
        if len(rank) == len(set(colour)):
            break
        colour = [rank[s] for s in signature]
    limit = Fraction(eps) * g.n
    return all(
        len(nbrs[v] ^ nbrs[w]) <= limit
        for v, w in itertools.combinations(range(g.n), 2)
        if colour[v] == colour[w]
    )
