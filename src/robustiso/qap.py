"""QAP instances, costs and the edit-distance reductions.

All coefficients are exact rationals.  An instance stores them once, as
integers over one common denominator at the sorted flat positions of the
nonzero coefficients; threshold tests compare in integers on that form.
Coefficients, b_alpha and costs read the integer block scattered from it
(scaled_block), and every cost is one gather on that block (block_totals):
qap_cost, the brute-force optimum over the bijection enumeration of graphs,
and approx's completions.  The edit-distance reduction broadcasts the
integer weight matrices of graphs.weight_matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, ParseError
from .graphs import Assignment, Graph, cheapest_bijection, partial_injection, weight_matrices
from .graphs import parse_int, parse_value, read_records
from .rationals import as_fraction, format_rational


# The coefficient block, the threshold masks and the edit-distance
# reduction are dense n^4 arrays: orders past this many cells are refused
# before they are allocated.
CELL_CAP = 2**24


def _check_cells(n: int) -> None:
    """Raise BudgetExceededError when a dense n^4 array passes CELL_CAP."""
    BudgetExceededError.check(n**4, CELL_CAP, f"dense coefficient cells at order {n}")


class QapInstance:
    """Order-n QAP given by rational coefficients c(v, v', w, w').

    Only the nonzero coefficients are stored, in one form:
      index   increasing flat positions ((v*n + v')*n + w)*n + w' (int64);
      scaled  the coefficients times denom, int64 when n^2 times the largest
              stays below 2^62 and object (Python ints) otherwise;
      denom   the least common denominator of the coefficients.
    The form is reduced, so equal instances store equal arrays whichever
    constructor built them.
    """

    def __init__(self, n: int, entries=None):
        """Build from a sparse {(v,v',w,w'): value} mapping (missing = 0).

        The order must be non-negative, with its n^4 flat positions in int64.
        """
        if n < 0:
            raise ValueError("order must be non-negative")
        if n**4 >= 2**63:
            raise ValueError(f"order {n} has n^4 >= 2^63 coefficient positions, past int64")
        cleaned = {}
        for key, value in (entries or {}).items():
            v, vp, w, wp = key
            for idx in key:
                if not 0 <= idx < n:
                    raise ValueError(f"coefficient index {key} out of range")
            value = as_fraction(value)
            if value != 0:
                cleaned[((v * n + vp) * n + w) * n + wp] = value
        denom = math.lcm(1, *{x.denominator for x in cleaned.values()})
        index = np.array(sorted(cleaned), dtype=np.int64)
        scaled = np.array([int(cleaned[i] * denom) for i in index.tolist()], dtype=object)
        self._store(n, index, scaled, denom)

    @classmethod
    def from_array(cls, scaled: np.ndarray, denom: int = 1) -> "QapInstance":
        """Instance with c(v, v', w, w') = scaled[v, v', w, w'] / denom."""
        q = cls.__new__(cls)
        flat = scaled.reshape(-1)
        index = np.flatnonzero(flat)
        q._store(scaled.shape[0], index, flat[index], denom)
        return q

    def _store(self, n: int, index: np.ndarray, scaled: np.ndarray, denom: int):
        # denom may pass int64: it joins the gcd as a Python int, and no
        # empty int64 array is divided by it
        common = math.gcd(int(np.gcd.reduce(scaled, initial=0)), denom)
        scaled = scaled // common if scaled.size else scaled
        largest = int(np.abs(scaled).max(initial=0))
        self.n = n
        self.index = index
        self.scaled = scaled.astype(np.int64 if largest * n * n < 2**62 else object)
        self.denom = denom // common
        self.bound_b = Fraction(largest, self.denom)

    def c(self, v: int, vp: int, w: int, wp: int) -> Fraction:
        """One coefficient from a fresh scaled_block: O(n^4) per call, refused past CELL_CAP."""
        block, denom = self.scaled_block()
        return Fraction(int(block[v * self.n + vp, w * self.n + wp]), denom)

    def nonzero_entries(self):
        """Sorted ((v,v',w,w'), value) pairs with nonzero value."""
        coords = np.unravel_index(self.index, (self.n,) * 4)
        keys = zip(*(a.tolist() for a in coords))
        values = (Fraction(s, self.denom) for s in self.scaled.tolist())
        return list(zip(keys, values))

    def scaled_block(self):
        """(block, denom): the n^2 x n^2 coefficient block as exact integers.

        block[v*n + v', w*n + w'] = c(v, v', w, w') * denom, with the dtype of
        `scaled`.  Built afresh on each call; past CELL_CAP cells it raises
        BudgetExceededError instead.
        """
        n = self.n
        _check_cells(n)
        block = np.zeros(n**4, dtype=self.scaled.dtype)
        block[self.index] = self.scaled
        return block.reshape(n * n, n * n), self.denom

    def exceeds(self, t) -> np.ndarray:
        """Boolean n^2 x n^2 block of c(v, v', w, w') > t.

        Compared in integers: c > t exactly when scaled > floor(t * denom).
        Past CELL_CAP cells it raises BudgetExceededError instead.
        """
        k = math.floor(as_fraction(t) * self.denom)
        n = self.n
        _check_cells(n)
        above = np.full(n**4, k < 0)
        above[self.index] = self.scaled > k
        return above.reshape(n * n, n * n)

    def value_set(self):
        """All distinct coefficient values, including the implicit 0."""
        values = {Fraction(s, self.denom) for s in set(self.scaled.tolist())}
        if not values or self.index.size < self.n**4:
            values.add(Fraction(0))
        return values

    def __eq__(self, other):
        if not isinstance(other, QapInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.denom == other.denom
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.scaled, other.scaled)
        )

    def __repr__(self):
        return f"QapInstance(n={self.n}, nonzero={self.index.size})"


def block_totals(block: np.ndarray, mappings) -> np.ndarray:
    """Per mapping row p: the sum over ordered pairs (v, w) of block[v*n + p(v), w*n + p(w)].

    mappings is one row of n targets, or rows along its last axis under any
    leading shape, which the result keeps.  On a scaled_block each total is
    the QAP cost of p times denom.
    """
    mappings = np.asarray(mappings, dtype=np.int64)
    n = mappings.shape[-1]
    rows = np.arange(n) * n + mappings
    return block[rows[..., :, None], rows[..., None, :]].sum(axis=(-2, -1))


def qap_cost(q: QapInstance, phi: Assignment) -> Fraction:
    """Sum of c(v, phi(v), w, phi(w)) over all ordered pairs, diagonal included.

    O(n^4) per call and refused past CELL_CAP: it gathers a fresh scaled_block, as c does.
    """
    if len(phi) != q.n:
        raise ValueError("assignment order does not match the instance")
    block, denom = q.scaled_block()
    return Fraction(int(block_totals(block, phi.mapping)), denom)


def ged_to_qap(g: Graph, h: Graph) -> QapInstance:
    """0/1 reduction of unweighted graphs: weighted_ged_to_qap at unit weights."""
    if g.is_weighted or h.is_weighted:
        raise ValueError("weighted inputs: use weighted_ged_to_qap")
    return weighted_ged_to_qap(g, h)


def weighted_ged_to_qap(g: Graph, h: Graph) -> QapInstance:
    """Reduction with coefficient |w_G(v,w) - w_H(v',w')| on effective weights.

    For every bijection phi, the QAP cost is twice the edit cost (each pair
    is counted once per ordered pair).  Past CELL_CAP cells it raises
    BudgetExceededError before building anything.
    """
    _check_cells(g.n)
    a, b, denom = weight_matrices(g, h)
    if g.is_coloured or h.is_coloured:
        raise ValueError("the QAP reduction has no colour channel")
    return QapInstance.from_array(abs(a[:, None, :, None] - b[None, :, None, :]), denom)


def qap_bruteforce(q: QapInstance, cap: int = 9):
    """Exact minimum over all n! assignments; lexicographic tie-break."""
    BudgetExceededError.check(q.n, cap, "QAP positions to brute-force")
    block, denom = q.scaled_block()
    total, mapping = cheapest_bijection(Graph(q.n), Graph(q.n), lambda p: block_totals(block, p))
    return Fraction(total, denom), Assignment(mapping)


def b_alpha(q: QapInstance, alpha, v: int, vp: int) -> Fraction:
    """Scaled partial cost estimate (n/|alpha|) * sum of c(v,v',w,w') over alpha.

    alpha is the pairs of a partial injection of [n] (partial_injection), and
    (v, v') must lie in [0, n)^2.  It reads a fresh scaled_block, as c does.
    """
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    n = q.n
    alpha = partial_injection(alpha, n)
    if not (0 <= v < n and 0 <= vp < n):
        raise ValueError("(v, v') exceeds the ground set")
    block, denom = q.scaled_block()
    total = block[v * n + vp, [w * n + wp for w, wp in alpha]].sum()
    return Fraction(n, len(alpha)) * Fraction(int(total), denom)


def parse_qap(text: str) -> QapInstance:
    """Parse the line-based QAP format (see serialize_qap)."""
    n, records = read_records(text, "qap", {"q": "q <v> <v'> <w> <w'> <value>"})
    entries = {}
    for lineno, _, tokens in records:
        key = tuple(parse_int(t, lineno, n) for t in tokens[:4])
        if key in entries:
            raise ParseError(f"duplicate coefficient {key}", lineno)
        entries[key] = parse_value(tokens[4], lineno)
    try:
        return QapInstance(n, entries)
    except ValueError as exc:  # the order check: entries are in range here
        raise ParseError(str(exc)) from None


def serialize_qap(q: QapInstance) -> str:
    lines = [f"qap {q.n}"]
    for (v, vp, w, wp), value in q.nonzero_entries():
        lines.append(f"q {v} {vp} {w} {wp} {format_rational(value)}")
    return "\n".join(lines) + "\n"
