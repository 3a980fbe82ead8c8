"""QAP instances, costs, the edit-distance reductions and the threshold grid.

All coefficients are exact rationals.  Instances of order below 12 use a
dense n^4 table; larger ones a sparse map with default 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, ParseError
from .graphs import Assignment, Graph, PartialInjection
from .rationals import as_fraction, format_rational

DENSE_LIMIT = 12


class QapInstance:
    """Order-n QAP given by rational coefficients c(v, v', w, w')."""

    def __init__(self, n: int, entries=None):
        """Build from a sparse {(v,v',w,w'): value} mapping (missing = 0)."""
        if n < 0:
            raise ValueError("order must be non-negative")
        self.n = n
        cleaned = {}
        for key, value in (entries or {}).items():
            v, vp, w, wp = key
            for idx in key:
                if not 0 <= idx < n:
                    raise ValueError(f"coefficient index {key} out of range")
            value = as_fraction(value)
            if value != 0:
                cleaned[(v, vp, w, wp)] = value
        self._dense = None
        self._sparse = None
        if n < DENSE_LIMIT:
            table = [Fraction(0)] * (n**4)
            for (v, vp, w, wp), value in cleaned.items():
                table[((v * n + vp) * n + w) * n + wp] = value
            self._dense = table
        else:
            self._sparse = cleaned
        self.bound_b = max((abs(x) for x in cleaned.values()), default=Fraction(0))

    def c(self, v: int, vp: int, w: int, wp: int) -> Fraction:
        if self._dense is not None:
            n = self.n
            return self._dense[((v * n + vp) * n + w) * n + wp]
        return self._sparse.get((v, vp, w, wp), Fraction(0))

    def nonzero_entries(self):
        """Sorted ((v,v',w,w'), value) pairs with nonzero value."""
        if self._sparse is not None:
            return sorted(self._sparse.items())
        n = self.n
        out = []
        for v in range(n):
            for vp in range(n):
                for w in range(n):
                    for wp in range(n):
                        val = self._dense[((v * n + vp) * n + w) * n + wp]
                        if val != 0:
                            out.append(((v, vp, w, wp), val))
        return out

    def scaled_block(self):
        """(block, denom): the n^2 x n^2 coefficient block as exact integers.

        block[v*n + v', w*n + w'] = c(v, v', w, w') * denom, where denom is the
        least common denominator of all coefficients.  The dtype is int64 when
        n^2 times the largest entry fits, and object (Python ints) otherwise.
        """
        n = self.n
        if self._dense is not None:
            index, values = slice(None), self._dense
        else:
            index = [((v * n + vp) * n + w) * n + wp for v, vp, w, wp in self._sparse]
            values = list(self._sparse.values())
        denom = math.lcm(1, *{x.denominator for x in values})
        scaled = [x.numerator * (denom // x.denominator) for x in values]
        largest = max(map(abs, scaled), default=0)
        block = np.zeros(n**4, dtype=np.int64 if largest * n * n < 2**62 else object)
        block[index] = scaled
        return block.reshape(n * n, n * n), denom

    def value_set(self):
        """All distinct coefficient values, including the implicit 0."""
        if self._dense is not None:
            return set(self._dense)
        values = set(self._sparse.values())
        if len(self._sparse) < self.n**4:
            values.add(Fraction(0))
        if not values:
            values.add(Fraction(0))
        return values

    def __eq__(self, other):
        if not isinstance(other, QapInstance):
            return NotImplemented
        return self.n == other.n and self.nonzero_entries() == other.nonzero_entries()

    def __repr__(self):
        return f"QapInstance(n={self.n}, nonzero={len(self.nonzero_entries())})"


def qap_cost(q: QapInstance, phi: Assignment) -> Fraction:
    """Sum of c(v, phi(v), w, phi(w)) over all ordered pairs, diagonal included."""
    if len(phi) != q.n:
        raise ValueError("assignment order does not match the instance")
    total = Fraction(0)
    images = phi.mapping
    for v in range(q.n):
        fv = images[v]
        for w in range(q.n):
            total += q.c(v, fv, w, images[w])
    return total


def ged_to_qap(g: Graph, h: Graph) -> QapInstance:
    """0/1 reduction: coefficient 1 exactly when edge status mismatches.

    For every bijection phi, the QAP cost is twice the edit cost (each edge
    is counted once per ordered pair).
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    if g.is_weighted or h.is_weighted:
        raise ValueError("weighted inputs: use weighted_ged_to_qap")
    if g.is_coloured or h.is_coloured:
        raise ValueError("the QAP reduction has no colour channel")
    n = g.n
    entries = {}
    for v in range(n):
        for w in range(n):
            in_g = g.has_edge(v, w) if v != w else False
            for vp in range(n):
                for wp in range(n):
                    in_h = h.has_edge(vp, wp) if vp != wp else False
                    if in_g != in_h:
                        entries[(v, vp, w, wp)] = 1
    return QapInstance(n, entries)


def weighted_ged_to_qap(g: Graph, h: Graph) -> QapInstance:
    """Weighted reduction: coefficient |w_G(v,w) - w_H(v',w')|."""
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    if g.is_coloured or h.is_coloured:
        raise ValueError("the QAP reduction has no colour channel")
    n = g.n
    entries = {}
    for v in range(n):
        for w in range(n):
            gw = g.weight(v, w)
            for vp in range(n):
                for wp in range(n):
                    diff = abs(gw - h.weight(vp, wp))
                    if diff != 0:
                        entries[(v, vp, w, wp)] = diff
    return QapInstance(n, entries)


def qap_bruteforce(q: QapInstance, cap: int = 9):
    """Exact minimum over all n! assignments; lexicographic tie-break."""
    if q.n > cap:
        raise CapExceededError(f"QAP brute force capped at n={cap}, got n={q.n}")
    best = None
    for perm in itertools.permutations(range(q.n)):
        cost = qap_cost(q, Assignment(perm))
        if best is None or cost < best[0]:
            best = (cost, perm)
    if best is None:  # n == 0
        return Fraction(0), Assignment(())
    return best[0], Assignment(best[1])


def b_alpha(q: QapInstance, alpha: PartialInjection, v: int, vp: int) -> Fraction:
    """Scaled partial cost estimate (n/|alpha|) * sum of c(v,v',w,w') over alpha."""
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    total = Fraction(0)
    for w, wp in alpha:
        total += q.c(v, vp, w, wp)
    return Fraction(q.n, len(alpha)) * total


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


def mean_threshold_estimate(
    q: QapInstance, alpha: PartialInjection, grid: ThresholdGrid, v: int, vp: int
) -> MeanThresholdEstimate:
    """Exact evaluation of the averaged threshold-count interval for b_alpha.

    The containment flag must be true whenever the grid bound dominates the
    instance bound; exposed as a testable oracle.
    """
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    if grid.b < q.bound_b:
        raise ValueError("grid bound is below the instance coefficient bound")
    n = q.n
    scale = Fraction(n, len(alpha))
    total = 0
    for t in grid.thresholds:
        total += sum(1 for w, wp in alpha if q.c(v, vp, w, wp) > t)
    centre = grid.step * scale * total - grid.b * n
    half = grid.step * n
    return MeanThresholdEstimate(b_alpha(q, alpha, v, vp), centre - half, centre + half)


def distinct_value_count(q: QapInstance) -> int:
    """Number of distinct coefficient values (implicit zeros included)."""
    return len(q.value_set())


def parse_qap(text: str) -> QapInstance:
    """Parse the line-based QAP format (see serialize_qap)."""
    n = None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "qap":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(tokens) != 2:
                raise ParseError("header must be 'qap <n>'", lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"invalid order {tokens[1]!r}", lineno)
            if n < 0:
                raise ParseError("order must be non-negative", lineno)
        elif tokens[0] == "q":
            if n is None:
                raise ParseError("coefficient line before header", lineno)
            if len(tokens) != 6:
                raise ParseError(
                    "coefficient line must be 'q <v> <v'> <w> <w'> <value>'", lineno
                )
            try:
                key = tuple(int(x) for x in tokens[1:5])
            except ValueError:
                raise ParseError("invalid coefficient indices", lineno)
            if any(not 0 <= i < n for i in key):
                raise ParseError(f"coefficient index out of range in {key}", lineno)
            if key in entries:
                raise ParseError(f"duplicate coefficient {key}", lineno)
            try:
                entries[key] = as_fraction(tokens[5])
            except ValueError:
                raise ParseError(f"invalid value {tokens[5]!r}", lineno)
        else:
            raise ParseError(f"unknown line kind {tokens[0]!r}", lineno)
    if n is None:
        raise ParseError("missing header line 'qap <n>'")
    return QapInstance(n, entries)


def serialize_qap(q: QapInstance) -> str:
    lines = [f"qap {q.n}"]
    for (v, vp, w, wp), value in q.nonzero_entries():
        lines.append(f"q {v} {vp} {w} {wp} {format_rational(value)}")
    return "\n".join(lines) + "\n"
