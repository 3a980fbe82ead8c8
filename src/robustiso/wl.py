"""Weisfeiler-Leman refinement, homogenising sets and robust isomorphism.

Every dimension refines through one fixpoint, `_refine`: each round builds
one numpy integer row per vertex (1-WL) or k-tuple (k-WL) of every graph
in the run and ranks the rows in lexicographic order, so colour ids are
canonical across those graphs and histograms compare without hashing.  A
1-WL row is the vertex's colour, then its neighbours' colours in
increasing order, padded with -1.  A k-WL row starts from the atomic type
(equality and adjacency bits, then vertex colours); in each round it is
the tuple's colour, then for every vertex w one order-preserving integer
code of the colours of the k tuples that put w at one position, sorted
over w.  Rows compare exactly as the signature tuples do, so their ranks
are the ids that sorting the tuples would give.

A round's row starts with the current colour, so only the rows of a class
that splits can change rank: each round compares every row with one row of
its class, sorts only the classes that split (Berkholz, Bonsma & Grohe,
ESA 2013), and stops without sorting when none does.  Colour histograms are
`Histogram` mappings over one compact count array.  Homogenising checks
compare mixed neighbourhoods N(v) ^ N(w) as graphs.neighbour_masks bitmasks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .graphs import Graph, neighbour_masks
from .rationals import as_fraction
from .setsystems import epsilon_net_greedy, mixed_system

# Largest n^(k+1), the (tuple, vertex) pairs one k-WL round reads per graph.
DEFAULT_WL_BUDGET = 1_000_000
# Below this many entries a round's rows are ranked whole: there numpy's
# per-call cost of finding and sorting the classes that split exceeds the
# sort it saves (about 2,200 entries, 2-WL on two 10-vertex graphs, is even).
_SPLIT_MIN_ENTRIES = 4096


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


def _distinct_steps(rows, order):
    """step[i]: whether rows order[i] and order[i + 1] differ.  Compared a
    column at a time: gathering the whole sorted matrix would double the
    round's peak memory."""
    step = np.zeros(order.size - 1, dtype=bool)
    for column in rows.T:
        ordered = column[order]
        step |= ordered[1:] != ordered[:-1]
    return step


def _rank_rows(rows):
    """Dense ranks of the rows of a 2-D integer array in lexicographic order,
    by one `np.lexsort` of the whole matrix; returns (ranks, number of
    distinct rows).  Ranks the first rows of a refinement, and a round's
    rows when most of them are in classes that split."""
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), 0
    order = np.lexsort(rows.T[::-1])
    ranks = np.empty(rows.shape[0], dtype=np.int64)
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(_distinct_steps(rows, order))
    return ranks, int(ranks[order[-1]]) + 1


def _split_ranks(rows, cols, classes):
    """The ranks `_rank_rows(rows)` gives when column 0 of `rows` is the
    dense colouring `cols` with `classes` classes, sorting only the rows of
    the classes that split; returns (ranks, number of distinct rows).

    A class splits when one of its rows differs from a chosen row of it.  A
    class that does not split gets a single id; a row of one that does gets
    the number of new classes below its class plus its rank within it.
    When no class splits this returns `cols` itself, sorting nothing.
    Matrices of fewer than `_SPLIT_MIN_ENTRIES` entries are ranked whole.
    """
    if rows.size < _SPLIT_MIN_ENTRIES:
        return _rank_rows(rows)
    anchor = np.empty(classes, dtype=np.intp)
    anchor[cols] = np.arange(cols.size)  # some row of each class
    anchor = anchor[cols]
    differs = np.zeros(cols.size, dtype=bool)
    for column in rows.T[1:]:
        differs |= column != column[anchor]
    split = np.zeros(classes, dtype=bool)
    split[cols[differs]] = True
    del anchor, differs
    moved = np.flatnonzero(split[cols])
    if moved.size == 0:
        return cols, classes
    if 2 * moved.size > cols.size:
        # Most rows move: one lexsort in place beats sorting them apart.
        return _rank_rows(rows)
    # Stable sorts from the last column to the first sort the moved rows
    # lexicographically, gathering one column of them at a time.
    order = moved
    for column in rows.T[::-1]:
        order = order[np.argsort(column[order], kind="stable")]
    starts = np.ones(order.size, dtype=bool)  # first row of each new class
    starts[1:] = _distinct_steps(rows, order)
    old = cols[order]
    counts = np.where(split, np.bincount(old[starts], minlength=classes), 1)
    below = np.cumsum(counts) - counts  # new classes in lower old classes
    ranks = below[cols]
    # A moved row's rank among the moved rows counts the new classes of the
    # lower split classes and its rank within its own: add the unsplit ones.
    unsplit_below = np.cumsum(~split) - ~split
    ranks[order] = np.cumsum(starts) - 1 + unsplit_below[old]
    return ranks, int(below[-1] + counts[-1])


def _refine(rows, signatures):
    """Colour the rows of `rows` by rank, then re-rank the rows that
    `signatures(colours, classes)` builds, whose column 0 is the current
    colour, until no class splits; returns (the stable colours, rounds).

    Each round sorts only the rows of the classes that split
    (`_split_ranks`), so the round that finds the colouring stable sorts
    nothing; the ids are those of ranking every row, as `_rank_rows` does.
    """
    cols, classes = _rank_rows(rows)
    del rows  # k-WL's atomic types are wide: free them before the rounds
    rounds = 0
    while True:
        new_cols, new_classes = _split_ranks(signatures(cols, classes), cols, classes)
        if new_classes == classes:
            return cols, rounds
        cols, classes = new_cols, new_classes
        rounds += 1


def _vertex_colours(graphs):
    """The vertex colours of all graphs, concatenated and ranked jointly, so
    they keep their order and fit in int64.  Every WL run starts here, and WL
    reads no edge weight, so a weighted graph is refused."""
    if any(g.is_weighted for g in graphs):
        raise ValueError("Weisfeiler-Leman takes unweighted graphs only")
    colours = [g.colour_of(v) for g in graphs for v in range(g.n)]
    rank = {c: r for r, c in enumerate(sorted(set(colours)))}
    return [rank[c] for c in colours]


def _joint_refine_1wl(graphs, individualised):
    """Joint 1-WL; returns (one colour array per graph, rounds to stability)."""
    ranks = []
    for g, ind in zip(graphs, individualised):
        ind_sorted = sorted(ind)
        for v in ind_sorted:
            if not 0 <= v < g.n:
                raise ValueError(f"individualised vertex {v} out of range")
        rank = {v: i + 1 for i, v in enumerate(ind_sorted)}
        ranks += [rank.get(v, 0) for v in range(g.n)]
    starts = list(itertools.accumulate((g.n for g in graphs), initial=0))
    adj = [[] for _ in range(starts[-1])]
    for g, s in zip(graphs, starts):
        for u, v in g.edges:
            adj[s + u].append(s + v)
            adj[s + v].append(s + u)
    width = max(map(len, adj), default=0)
    # neighbours[v]: the joint indices of v's neighbours, padded with -1.
    neighbours = np.array(
        [nbrs + [-1] * (width - len(nbrs)) for nbrs in adj], dtype=np.int64
    ).reshape(len(adj), width)
    pad = neighbours < 0

    def signatures(cols, classes):
        # Padding sorts last as `classes` and is then set below every colour.
        around = np.where(pad, classes, cols[neighbours])
        around.sort(axis=1)
        around[pad] = -1
        return np.column_stack([cols, around])

    initial = np.array([_vertex_colours(graphs), ranks], dtype=np.int64).T
    cols, rounds = _refine(initial, signatures)
    return [cols[a:b] for a, b in itertools.pairwise(starts)], rounds


def _atomic_types(graphs, k, n):
    """One integer row per k-tuple (base-n index order) of each graph, in
    the order of the tuple (eq, adj, colours): k*k equality bits, k*k
    adjacency bits, then the k vertex colours."""
    digits = np.indices((n,) * k).reshape(k, -1)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    eq = [digits[i] == digits[j] for i, j in pairs]
    blocks = []
    colours = np.array(_vertex_colours(graphs), dtype=np.int64).reshape(len(graphs), n)
    for g, colour in zip(graphs, colours):
        adj = np.zeros((n, n), dtype=bool)
        if g.edges:
            u, v = np.array(list(g.edges)).T
            adj[u, v] = adj[v, u] = True
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
    n = graphs[0].n
    BudgetExceededError.check(n ** (k + 1), budget, f"(tuple, vertex) pairs per {k}-WL round")
    shape = (len(graphs),) + (n,) * k

    def signatures(cols, base):
        colours = cols.reshape(shape)

        def digit(pos, scale):
            # [t, w]: scale times the colour of t with position pos set to w.
            return np.expand_dims(np.moveaxis(colours * scale, 1 + pos, -1), 1 + pos)

        # Row t: the colour of tuple t, then its neighbour codes sorted over w.
        rows = np.empty((cols.size, n + 1), dtype=np.int64)
        rows[:, 0] = cols
        # codes[t, w] is a view of row t: the colours of t with position
        # 0..k-1 replaced by w, most significant first, as base-`base` digits.
        codes = rows[:, 1:].reshape(shape + (n,), copy=False)
        if base**k <= 2**63:
            # Every code is below base^k: sum the pre-scaled digits (k >= 2).
            np.add(digit(0, base ** (k - 1)), digit(1, base ** (k - 2)), out=codes)
            for pos in range(2, k):
                codes += digit(pos, base ** (k - 1 - pos))
        else:
            codes[...] = 0
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
                codes += digit(pos, 1)
                bound *= base
        codes.sort(axis=-1)
        return rows

    cols, rounds = _refine(_atomic_types(graphs, k, n), signatures)
    return list(cols.reshape(len(graphs), -1)), rounds


def colour_refinement(g: Graph, individualised=()) -> StableColouring:
    """1-WL fixed point of g with the given vertices individualised.

    Individualised vertices receive unique initial colours (their rank in
    sorted order); pre-existing vertex colours join the initial signature.
    """
    cols, rounds = _joint_refine_1wl([g], [individualised])
    histogram = Histogram(np.bincount(cols[0]))
    return StableColouring(1, g.n, tuple(cols[0].tolist()), histogram, rounds)


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
    size = max((int(c.max()) + 1 for c in cols if c.size), default=0)
    count_g, count_h = (np.bincount(c, minlength=size) for c in cols)
    differ = np.flatnonzero(count_g != count_h)
    witness = int(differ[0]) if differ.size else None
    hist_g = Histogram(count_g)
    hist_h = hist_g if witness is None else Histogram(count_h)
    return WlComparison(witness is not None, witness, hist_g, hist_h, k)


def _violations(g: Graph, gamma: StableColouring, limit):
    """The pairs v < w of one gamma class whose mixed neighbourhood has
    more than `limit` vertices."""
    rows = neighbour_masks(g)
    for members in gamma.vertex_partition().values():
        for i, v in enumerate(members):
            for w in members[i + 1 :]:
                if (rows[v] ^ rows[w]).bit_count() > limit:
                    yield v, w


def is_homogenising(g: Graph, vertices, eps) -> bool:
    """Check: vertices equal under 1-WL with `vertices` individualised have
    mixed neighbourhoods of size at most eps * n."""
    gamma = colour_refinement(g, vertices)
    return next(_violations(g, gamma, as_fraction(eps) * g.n), None) is None


@dataclass(frozen=True)
class HomogenisingSet:
    vertices: tuple
    eps: Fraction
    method: str
    class_counts: tuple = ()  # gamma classes per greedy iteration


def homogenising_set_net(g: Graph, eps) -> HomogenisingSet:
    """An eps-net for the mixed-neighbourhood system, hence eps-homogenising."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    net = epsilon_net_greedy(mixed_system(g), min(eps, Fraction(1)))
    result = HomogenisingSet(tuple(net), eps, "net")
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
        violation = min(_violations(g, gamma, limit), default=None)
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
    eps * n^2.  Both graphs must be unweighted, since WL reads no edge
    weight; a weighted one raises ValueError.
    """
    if g.n != h.n:
        raise ValueError("graphs have different orders")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps_hom = eps / 3
    if strategy == "net":
        hom = homogenising_set_net(g, eps_hom)
    elif strategy == "coloured":
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
