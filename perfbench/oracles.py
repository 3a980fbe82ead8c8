"""Independent oracles for the benchmark's output checks.

Nothing here calls into robustiso: edit costs, brute-force edit distance and
brute-force VC dimension are computed from plain adjacency matrices and
bitmasks with numpy, so a defect in the library cannot hide itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# Edge weights in the workloads are multiples of 1/2; matrices hold 2*w.
WEIGHT_SCALE = 2

_PERMS = {}


def weight_matrix(n, edges, weights=None):
    """Symmetric integer matrix of WEIGHT_SCALE * w (0 on non-edges)."""
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        w = Fraction(1) if weights is None else Fraction(weights[(u, v)])
        scaled = w * WEIGHT_SCALE
        if scaled.denominator != 1:
            raise ValueError(f"weight {w} is not a multiple of 1/{WEIGHT_SCALE}")
        a[u, v] = a[v, u] = int(scaled)
    return a


def _cost_of_scaled_sum(total) -> Fraction:
    # ordered pairs count each unordered pair twice
    return Fraction(int(total), 2 * WEIGHT_SCALE)


def assignment_cost(a_g, a_h, mapping) -> Fraction:
    """Edit cost of the bijection v -> mapping[v]."""
    p = np.asarray(mapping)
    return _cost_of_scaled_sum(np.abs(a_g - a_h[np.ix_(p, p)]).sum())


def _permutations(n):
    if n not in _PERMS:
        _PERMS[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return _PERMS[n]


def edit_distance(a_g, a_h, chunk=5040) -> Fraction:
    """Exact edit distance by enumerating all n! bijections."""
    n = a_g.shape[0]
    perms = _permutations(n)
    best = None
    for lo in range(0, len(perms), chunk):
        p = perms[lo : lo + chunk]
        mapped = a_h[p[:, :, None], p[:, None, :]]
        totals = np.abs(mapped - a_g[None, :, :]).sum(axis=(1, 2))
        low = int(totals.min())
        best = low if best is None else min(best, low)
    return _cost_of_scaled_sum(best)


def membership_matrix(ground_size, masks):
    """Rows are the family members, columns the ground elements (0/1)."""
    family = sorted(masks)
    rows = [[(m >> x) & 1 for x in range(ground_size)] for m in family]
    return np.array(rows, dtype=np.uint8).reshape(len(family), ground_size)


def _column_masks(m):
    """Each column of a 0/1 row matrix as a bitmask over rows, in uint64 words."""
    h = m.shape[0]
    words = max(1, -(-h // 64))
    padded = np.zeros((words * 64, m.shape[1]), dtype=np.uint64)
    padded[:h] = m
    shifts = (np.arange(words * 64) % 64).astype(np.uint64)
    parts = (padded << shifts[:, None]).reshape(words, 64, m.shape[1])
    return np.bitwise_or.reduce(parts, axis=1).T.copy()  # columns x words


def _extend(cols, sets, cells, chunk=512):
    """All shattered sets one larger than `sets`, which are all shattered.

    Each set carries its 2^k cells: the masks of the rows that meet each of
    its in/out patterns.  Adding a column j > max(set) splits every cell in
    two; the larger set is shattered when no cell is empty.
    """
    u = cols.shape[0]
    col = cols[None, :, None, :]
    new_sets, new_cells = [np.zeros((0, sets.shape[1] + 1), dtype=np.intp)], []
    for lo in range(0, len(sets), chunk):
        s, c = sets[lo : lo + chunk], cells[lo : lo + chunk]
        split = np.concatenate((c[:, None] & col, c[:, None] & ~col), axis=2)
        ok = split.any(axis=3).all(axis=2)  # sets x columns
        if s.shape[1]:
            ok &= np.arange(u)[None, :] > s[:, -1:]
        which, j = np.nonzero(ok)
        new_sets.append(np.concatenate((s[which], j[:, None]), axis=1))
        new_cells.append(split[which, j])
    cells = np.concatenate(new_cells) if new_cells else cells[:0]
    return np.concatenate(new_sets), cells


def vc_dimension(ground_size, masks):
    """(VC dimension, a shattered set of that size) by exhaustive search.

    Elements in every member or in none, and elements with the same
    membership column as a smaller one, are dropped first: no shattered set
    of two or more elements contains them.  Shattering is closed under
    subsets, so every shattered set extends a shattered set one smaller by
    a later element, and the first size with no shattered set ends the
    search.
    """
    if not masks:
        return -1, ()
    m = membership_matrix(ground_size, masks)
    h = m.shape[0]
    keep = []
    seen = set()
    for x in range(ground_size):
        col = m[:, x].tobytes()
        if col in seen or not 0 < int(m[:, x].sum()) < h:
            continue
        seen.add(col)
        keep.append(x)
    cols = _column_masks(m[:, keep])
    sets = np.zeros((1, 0), dtype=np.intp)
    # the empty set has one cell, holding every row
    cells = _column_masks(np.ones((h, 1), dtype=np.uint8))[None, :, :]
    witness = ()
    while True:
        sets, cells = _extend(cols, sets, cells)
        if not len(sets):
            return len(witness), witness
        witness = tuple(keep[i] for i in sets[0])


def epsilon_approximation_ok(ground_size, masks, sample, eps) -> bool:
    """Every member's size is estimated from the sample within eps * n."""
    if not sample:
        return False
    m = membership_matrix(ground_size, masks).astype(np.int64)
    inside = m[:, list(sample)].sum(axis=1)
    # |n * inside / |S| - |m|| <= eps * n, cleared of denominators
    lhs = np.abs(ground_size * inside - len(sample) * m.sum(axis=1))
    eps = Fraction(eps)
    bound = eps * ground_size * len(sample)
    return all(Fraction(int(x)) <= bound for x in lhs)
