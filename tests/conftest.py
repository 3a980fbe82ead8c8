"""Shared seeded instance builders and helpers for the test suite."""

import itertools
import random
from fractions import Fraction

from robustiso import Graph, QapInstance


def er_graph(n, p, seed, colours=None):
    """Erdos-Renyi sample with a local RNG (independent of the package's)."""
    rng = random.Random(seed)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }
    return Graph(n, frozenset(edges), colours=colours)


def chunk_colouring(n, size):
    """Colour classes 0..: consecutive chunks of at most `size` vertices."""
    return {v: v // size for v in range(n)}


def relabelled_copy(g, seed):
    """An isomorphic copy under a random permutation (colours carried along)."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = frozenset((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
    colours = None
    if g.is_coloured:
        colours = {perm[v]: g.colour_of(v) for v in range(g.n)}
    weights = None
    if g.is_weighted:
        weights = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])): w
            for (u, v), w in g.weights.items()
        }
    return Graph(g.n, edges, weights=weights, colours=colours)


def random_weighted_graph(n, seed, p=0.6, wmax=2, denom=2):
    rng = random.Random(seed)
    edges = set()
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = Fraction(0)
                while w == 0:
                    w = Fraction(rng.randint(-wmax * denom, wmax * denom), denom)
                edges.add((u, v))
                weights[(u, v)] = w
    return Graph(n, frozenset(edges), weights=weights)


def random_qap(n, seed, bmax=1, denom=4, fill=0.5):
    """Sparse random instance with rational coefficients in [-bmax, bmax]."""
    rng = random.Random(seed)
    entries = {}
    for key in itertools.product(range(n), repeat=4):
        if rng.random() < fill:
            value = Fraction(rng.randint(-bmax * denom, bmax * denom), denom)
            if value != 0:
                entries[key] = value
    return QapInstance(n, entries)


def complete_graph(n):
    return Graph(n, {(i, j) for i in range(n) for j in range(i + 1, n)})


def cycle_graph(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def path_graph(n):
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def lp_value(lp, x):
    """The objective b_alpha . x of lp at solve_lp's vector x."""
    return sum(b * xi for b, xi in zip(lp.b_num.tolist(), x)) / lp.b_den
