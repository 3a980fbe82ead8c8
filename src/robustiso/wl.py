"""Weisfeiler-Leman refinement, homogenising sets and robust isomorphism.

Colour ids are canonical across graphs refined in the same run: each round
collects the signatures of every tuple of every participating graph, sorts
them globally and renames to dense integers, so histograms are directly
comparable without hashing.

1-WL builds its signatures as Python tuples.  k-WL (k >= 2) works on one
numpy integer row per k-tuple.  The first rows are atomic types: 0/1
equality and adjacency bits, then the vertex colours.  In each round a
tuple's row is its colour followed by, for every vertex w, the colours of
the k tuples that put w at one position, packed into one order-preserving
integer code; the codes are sorted over w.  These rows compare exactly as
the signature tuples do, so ranking them with `np.lexsort` gives the ids
that sorting the tuples would give.  Colour histograms are `Histogram`
mappings over one compact count array.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .graphs import Graph, mixed_neighbourhood
from .rationals import as_fraction
from .setsystems import epsilon_net_greedy, mixed_system, vc_dimension_exact

# Largest n^(k+1), the (tuple, vertex) pairs one k-WL round reads per graph.
DEFAULT_WL_BUDGET = 1_000_000


class Histogram(Mapping):
    """Read-only map colour -> count over one array of counts.

    `counts[c]` is the number of tuples of colour c, zero for a colour that
    does not occur, trimmed after the last colour that does and stored in
    the narrowest unsigned dtype that holds the largest count.  Keys, values
    and items are Python ints, so a Histogram compares, serialises and
    digests like the dict with the same items.
    """

    __slots__ = ("counts",)

    def __init__(self, bincount):
        bincount = np.asarray(bincount)
        present = np.flatnonzero(bincount)
        end = int(present[-1]) + 1 if present.size else 0
        top = int(bincount.max(initial=0))
        self.counts = bincount[:end].astype(np.min_scalar_type(top))
        self.counts.flags.writeable = False

    def __getitem__(self, colour):
        if isinstance(colour, (int, np.integer)) and 0 <= colour < self.counts.size:
            count = int(self.counts[colour])
            if count:
                return count
        raise KeyError(colour)

    def __iter__(self):
        return iter(np.flatnonzero(self.counts).tolist())

    def __len__(self):
        return int(np.count_nonzero(self.counts))

    def items(self):
        return _HistogramItems(self)

    def __repr__(self):
        return f"Histogram({dict(self.items())!r})"


class _HistogramItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        counts = self._mapping.counts
        present = np.flatnonzero(counts)
        return zip(present.tolist(), counts[present].tolist())


@dataclass(frozen=True)
class StableColouring:
    """Fixed point of k-WL refinement on one graph.

    `colours[i]` is the colour of the k-tuple with base-n encoding i (most
    significant digit first); for k = 1 the index is the vertex itself.
    `rounds` is the number of strictly refining iterations.
    """

    k: int
    n: int
    colours: tuple
    histogram: Mapping
    rounds: int

    def colour_of(self, vertices) -> int:
        idx = 0
        for v in vertices:
            idx = idx * self.n + v
        return self.colours[idx]

    def num_classes(self) -> int:
        return len(self.histogram)

    def vertex_partition(self) -> dict:
        """Vertices grouped by colour (k = 1 only)."""
        if self.k != 1:
            raise ValueError("vertex partition is defined for k = 1")
        classes = {}
        for v, c in enumerate(self.colours):
            classes.setdefault(c, []).append(v)
        return classes


def _canonical(rounds_sigs):
    """Rename signature lists (one per graph) to dense shared integer ids."""
    table = {}
    for sigs in rounds_sigs:
        for s in sigs:
            table[s] = None
    for rank, s in enumerate(sorted(table)):
        table[s] = rank
    return [[table[s] for s in sigs] for sigs in rounds_sigs]


def _joint_refine_1wl(graphs, individualised):
    """Joint 1-WL; returns (colour arrays, rounds to stability)."""
    initial = []
    for g, ind in zip(graphs, individualised):
        ind_sorted = sorted(ind)
        for v in ind_sorted:
            if not 0 <= v < g.n:
                raise ValueError(f"individualised vertex {v} out of range")
        rank = {v: i + 1 for i, v in enumerate(ind_sorted)}
        initial.append(
            [(g.colour_of(v), rank.get(v, 0)) for v in range(g.n)]
        )
    cols = _canonical(initial)
    rounds = 0
    while True:
        sigs = []
        for g, col in zip(graphs, cols):
            adj = g.adj
            sigs.append(
                [
                    (col[v], tuple(sorted(col[u] for u in adj[v])))
                    for v in range(g.n)
                ]
            )
        new_cols = _canonical(sigs)
        old_classes = len({c for col in cols for c in col})
        new_classes = len({c for col in new_cols for c in col})
        if new_classes == old_classes:
            return cols, rounds
        cols = new_cols
        rounds += 1


def _rank_rows(rows):
    """Dense ranks of the rows of a 2-D integer array in lexicographic order;
    returns (ranks, number of distinct rows)."""
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), 0
    order = np.lexsort(rows.T[::-1])
    # Adjacent sorted rows compared a column at a time: gathering the whole
    # sorted matrix would double the round's peak memory.
    step = np.zeros(rows.shape[0] - 1, dtype=bool)
    for column in rows.T:
        ordered = column[order]
        step |= ordered[1:] != ordered[:-1]
    ranks = np.empty(rows.shape[0], dtype=np.int64)
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(step)
    return ranks, int(ranks[order[-1]]) + 1


def _atomic_types(graphs, k, n):
    """One integer row per k-tuple (base-n index order) of each graph, in
    the order of the tuple (eq, adj, colours): k*k equality bits, k*k
    adjacency bits, then the k vertex colours."""
    digits = np.indices((n,) * k).reshape(k, -1)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    eq = [digits[i] == digits[j] for i, j in pairs]
    # Ranked jointly, vertex colours keep their order and fit in int64.
    palette = sorted({g.colour_of(v) for g in graphs for v in range(n)})
    rank = {c: r for r, c in enumerate(palette)}
    blocks = []
    for g in graphs:
        adj = np.zeros((n, n), dtype=bool)
        if g.edges:
            u, v = np.array(list(g.edges)).T
            adj[u, v] = adj[v, u] = True
        colour = np.array([rank[g.colour_of(v)] for v in range(n)], dtype=np.int64)
        columns = (
            eq
            + [adj[digits[i], digits[j]] for i, j in pairs]
            + [colour[digits[pos]] for pos in range(k)]
        )
        blocks.append(np.stack(columns, axis=1, dtype=np.int64))
    return np.concatenate(blocks)


def _joint_refine_kwl(graphs, k, budget):
    """Joint k-WL over all k-tuples of graphs of one order; returns (one
    colour array per graph, indexed by base-n tuple index; rounds)."""
    for g in graphs:
        work = g.n ** (k + 1)
        if work > budget:
            raise BudgetExceededError(
                f"{k}-WL reads {work} (tuple, vertex) pairs per round on "
                f"{g.n} vertices, budget is {budget}",
                attempted=k,
            )
    n = graphs[0].n
    shape = (len(graphs),) + (n,) * k
    cols, base = _rank_rows(_atomic_types(graphs, k, n))
    # Row t: the colour of tuple t, then its neighbour codes sorted over w.
    rows = np.empty((cols.size, n + 1), dtype=np.int64)
    # codes[t, w] is a view of row t: the colours of t with position
    # 0..k-1 replaced by w, most significant first, as base-`base` digits.
    codes = rows[:, 1:].reshape(shape + (n,), copy=False)
    rounds = 0
    while True:
        colours = cols.reshape(shape)
        rows[:, 0] = cols
        codes.fill(0)
        bound = 1  # every code is below bound
        for pos in range(k):
            if bound * base > 2**63:
                # Re-rank rather than overflow int64.  Ranks number fewer
                # than the n^(k+1) codes, so rank * base stays far below
                # 2^63 for any array that fits in memory.
                uniq, inverse = np.unique(codes, return_inverse=True)
                codes[...] = inverse.reshape(codes.shape)
                bound = uniq.size
            codes *= base
            codes += np.expand_dims(np.moveaxis(colours, 1 + pos, -1), 1 + pos)
            bound *= base
        codes.sort(axis=-1)
        new_cols, new_base = _rank_rows(rows)
        if new_base == base:
            return list(cols.reshape(len(graphs), -1)), rounds
        cols, base = new_cols, new_base
        rounds += 1


def colour_refinement(g: Graph, individualised=()) -> StableColouring:
    """1-WL fixed point of g with the given vertices individualised.

    Individualised vertices receive unique initial colours (their rank in
    sorted order); pre-existing vertex colours join the initial signature.
    """
    cols, rounds = _joint_refine_1wl([g], [tuple(individualised)])
    colours = tuple(cols[0])
    histogram = Histogram(np.bincount(np.asarray(colours, dtype=np.int64)))
    return StableColouring(1, g.n, colours, histogram, rounds)


def k_wl_stable(g: Graph, k: int, budget: int = DEFAULT_WL_BUDGET) -> StableColouring:
    """The k-stable colouring of all k-tuples of g."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return colour_refinement(g)
    cols, rounds = _joint_refine_kwl([g], k, budget)
    histogram = Histogram(np.bincount(cols[0]))
    return StableColouring(k, g.n, tuple(cols[0].tolist()), histogram, rounds)


@dataclass(frozen=True)
class WlComparison:
    distinguishes: bool
    distinguishing_colour: int | None
    histogram_g: Mapping
    histogram_h: Mapping
    k: int

    def digest(self) -> str:
        payload = json.dumps(
            [sorted(self.histogram_g.items()), sorted(self.histogram_h.items())],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def wl_compare(g: Graph, h: Graph, k: int, budget: int = DEFAULT_WL_BUDGET) -> WlComparison:
    """Joint k-WL run on two graphs with shared canonical colour ids."""
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        cols, _ = _joint_refine_1wl([g, h], [(), ()])
    else:
        cols, _ = _joint_refine_kwl([g, h], k, budget)
    cols = [np.asarray(c, dtype=np.int64) for c in cols]
    size = max((int(c.max()) + 1 for c in cols if c.size), default=0)
    count_g, count_h = (np.bincount(c, minlength=size) for c in cols)
    differ = np.flatnonzero(count_g != count_h)
    witness = int(differ[0]) if differ.size else None
    hist_g = Histogram(count_g)
    hist_h = hist_g if witness is None else Histogram(count_h)
    return WlComparison(witness is not None, witness, hist_g, hist_h, k)


def wl_distinguishes(g: Graph, h: Graph, k: int, budget: int = DEFAULT_WL_BUDGET) -> bool:
    """True iff some canonical colour has different multiplicity in the two
    k-stable colourings (computed jointly)."""
    return wl_compare(g, h, k, budget).distinguishes


def is_homogenising(g: Graph, vertices, eps) -> bool:
    """Check: vertices equal under 1-WL with `vertices` individualised have
    mixed neighbourhoods of size at most eps * n."""
    eps = as_fraction(eps)
    gamma = colour_refinement(g, vertices)
    limit = eps * g.n
    classes = gamma.vertex_partition()
    for members in classes.values():
        for i, v in enumerate(members):
            for w in members[i + 1 :]:
                if len(mixed_neighbourhood(g, v, w)) > limit:
                    return False
    return True


@dataclass(frozen=True)
class HomogenisingSet:
    vertices: tuple
    eps: Fraction
    method: str
    class_counts: tuple = ()  # gamma classes per greedy iteration
    size_target: float | None = None  # (d/eps) log(1/eps), constant not asserted


def homogenising_set_net(g: Graph, eps) -> HomogenisingSet:
    """An eps-net for the mixed-neighbourhood system, hence eps-homogenising.

    The greedy net size is reported against the dimension-based target
    (d / eps) * log(1/eps), where d is the exact VC dimension of the mixed
    system; the target's hidden constant is informational only.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    system = mixed_system(g)
    net = epsilon_net_greedy(system, min(eps, Fraction(1)))
    d = max(vc_dimension_exact(system), 0)
    target = d / float(eps) * max(1.0, math.log(1 / float(eps)))
    result = HomogenisingSet(tuple(net), eps, "net", size_target=target)
    if not is_homogenising(g, result.vertices, eps):
        raise VerificationError("net-based set failed the homogenising check")
    return result


def homogenising_set_coloured(g: Graph, eps) -> HomogenisingSet:
    """Greedy individualisation until no colour-equal pair has a large mixed
    neighbourhood; the loop adds the second vertex of the lexicographically
    smallest violating pair.  |S| <= (s-1)/eps with s the largest input
    colour class."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not g.is_coloured:
        raise ValueError("requires a coloured graph")
    limit = eps * g.n
    s = max(len(c) for c in g.colour_classes().values()) if g.n else 1
    bound = Fraction(s - 1) / eps

    chosen = []
    counts = []
    while True:
        gamma = colour_refinement(g, chosen)
        counts.append(gamma.num_classes())
        violation = None
        for members in gamma.vertex_partition().values():
            for i, v in enumerate(members):
                for w in members[i + 1 :]:
                    if len(mixed_neighbourhood(g, v, w)) > limit:
                        pair = (v, w)
                        if violation is None or pair < violation:
                            violation = pair
        if violation is None:
            break
        if len(chosen) >= g.n:
            raise VerificationError("greedy homogenising loop failed to terminate")
        chosen.append(violation[1])
    if len(chosen) > bound:
        raise VerificationError(
            f"greedy set of size {len(chosen)} exceeds the (s-1)/eps bound {bound}"
        )
    return HomogenisingSet(
        tuple(sorted(chosen)), eps, "coloured-greedy", tuple(counts)
    )


@dataclass(frozen=True)
class GiCertificate:
    answer: str  # "isomorphic" | "far"
    eps: Fraction
    strategy: str
    s_vertices: tuple
    k: int
    distinguishing_colour: int | None
    histograms_digest: str


def robust_gi(
    g: Graph,
    h: Graph,
    eps,
    strategy: str = "net",
    budget: int = DEFAULT_WL_BUDGET,
) -> GiCertificate:
    """Promise-problem test: isomorphic versus edit distance >= eps * n^2.

    Computes an (eps/3)-homogenising set S in g and answers Far exactly when
    (|S|+1)-WL distinguishes the graphs.  Unconditionally, Far implies the
    graphs are non-isomorphic and Isomorphic implies edit distance at most
    eps * n^2.
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps_hom = eps / 3
    if strategy == "net":
        hom = homogenising_set_net(g, eps_hom)
    elif strategy in ("coloured", "coloured-greedy"):
        hom = homogenising_set_coloured(g, eps_hom)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    k = len(hom.vertices) + 1
    comparison = wl_compare(g, h, k, budget)
    return GiCertificate(
        answer="far" if comparison.distinguishes else "isomorphic",
        eps=eps,
        strategy=hom.method,
        s_vertices=hom.vertices,
        k=k,
        distinguishing_colour=comparison.distinguishing_colour,
        histograms_digest=comparison.digest(),
    )
