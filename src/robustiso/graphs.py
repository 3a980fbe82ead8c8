"""Graphs, bijections, edit cost and the exact brute-force edit-distance oracle.

Vertices are dense 0-based integers.  Edge weights are exact rationals; an
unweighted graph is the graph with every edge of weight 1 and every non-edge
of weight 0.  Vertex colours are small non-negative integers; a colourless
graph is one colour class.  A Graph holds only n, edges, weights and colours;
set computations on neighbourhoods read the int bitmasks that neighbour_masks
builds from the edges per call.  Every edit cost reads one integer form of two
graphs' weights (weight_matrices), and both brute-force oracles minimise over
one lexicographic enumeration of colour-preserving bijections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, ParseError
from .rationals import as_fraction, format_rational

Edge = tuple[int, int]

# A graph's colour map, adjacency and every per-vertex pass are built over
# range(n): orders past this many vertices are refused before any of them.
VERTEX_CAP = 2**20
# The most edges one blowup may build: every base edge becomes ell^2 edges,
# so an order under VERTEX_CAP can still ask for ~10^10 of them.
EDGE_CAP = 2**24


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=True)
class Graph:
    """Undirected simple graph with optional edge weights and vertex colours.

    Immutable after construction; all operations on graphs are pure.
    If `weights` is given it is completed so that every edge has a stored
    (nonzero) weight; edges listed without one default to weight 1.
    If `colours` is given it is completed with colour 0 for missing vertices.
    Neither changes any cost where it would be empty, so an edgeless graph
    stores weights None and a graph with no vertices colours None, as the
    file format reads them.  An order past VERTEX_CAP raises BudgetExceededError.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    weights: dict | None = None
    colours: dict | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        BudgetExceededError.check(self.n, VERTEX_CAP, "vertices in one graph (the vertex cap)")
        n = self.n
        edges = self.edges
        # a frozenset of valid (u, v) tuples with u < v is kept, not copied
        if not isinstance(edges, frozenset) or not all(
            type(e) is tuple and len(e) == 2 and 0 <= e[0] < e[1] < n for e in edges
        ):
            edges = set()
            for e in self.edges:
                u, v = e
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge {e} out of range for n={n}")
                edges.add(_norm_edge(u, v))
            edges = frozenset(edges)
        object.__setattr__(self, "edges", edges)

        if self.weights is not None:
            weights = {}
            for e, w in self.weights.items():
                e = _norm_edge(*e)
                if e not in self.edges:
                    raise ValueError(f"weight given for non-edge {e}")
                w = as_fraction(w)
                if w == 0:
                    raise ValueError(f"stored weight for edge {e} must be nonzero")
                weights[e] = w
            for e in self.edges:
                weights.setdefault(e, Fraction(1))
            object.__setattr__(self, "weights", weights or None)

        if self.colours is not None:
            colours = {}
            for v, c in self.colours.items():
                if not 0 <= v < self.n:
                    raise ValueError(f"colour given for unknown vertex {v}")
                if c < 0:
                    raise ValueError("colours must be non-negative integers")
                colours[v] = int(c)
            for v in range(self.n):
                colours.setdefault(v, 0)
            object.__setattr__(self, "colours", colours or None)

    # weights/colours are plain dicts, so Graph values must not be hashed.
    __hash__ = None

    @property
    def edge_weights(self) -> dict:
        """Effective weight of every edge: the stored one, or 1 when unweighted."""
        return self.weights or dict.fromkeys(self.edges, Fraction(1))

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def is_coloured(self) -> bool:
        return self.colours is not None

    def colour_of(self, v: int) -> int:
        return 0 if self.colours is None else self.colours[v]

    def colour_classes(self) -> dict:
        classes = {}
        for v in range(self.n):
            classes.setdefault(self.colour_of(v), []).append(v)
        return classes

    def bound_b(self) -> Fraction:
        """Largest absolute effective edge weight (0 for an edgeless graph)."""
        return max(map(abs, self.edge_weights.values()), default=Fraction(0))


def neighbour_masks(g: Graph) -> list:
    """Each vertex's neighbourhood as an int bitmask, built from the edges per call."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


@dataclass(frozen=True)
class Assignment:
    """A bijection of [n] onto itself, in array form."""

    mapping: tuple

    def __post_init__(self):
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError("mapping is not a permutation of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "Assignment":
        return cls(tuple(range(n)))

    def __len__(self):
        return len(self.mapping)

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]


def partial_injection(pairs, n: int) -> tuple:
    """pairs as a partial injection of [n]: a tuple of (source, target) pairs
    sorted by source.

    Raises ValueError for a pair outside [0, n)^2 or a repeated source or target.
    """
    pairs = tuple(sorted(pairs))
    if not all(0 <= v < n and 0 <= vp < n for v, vp in pairs):
        raise ValueError("alpha exceeds the ground set")
    if len({v for v, _ in pairs}) < len(pairs) or len({vp for _, vp in pairs}) < len(pairs):
        raise ValueError("alpha repeats a source or a target")
    return pairs


def _check_same_order(g: Graph, h: Graph):
    if g.n != h.n:
        raise ValueError(f"graphs have different orders ({g.n} vs {h.n})")


def _check_colour_preserving(g: Graph, h: Graph, pi: Assignment):
    for v in range(g.n):
        if g.colour_of(v) != h.colour_of(pi[v]):
            raise ValueError(
                f"bijection does not preserve colours at vertex {v} "
                f"({g.colour_of(v)} vs {h.colour_of(pi[v])})"
            )


def weight_matrices(g: Graph, h: Graph):
    """(A, B, denom): the effective weights of g and h over one common denominator.

    A[v, w] = w_G(v, w) * denom as an n x n integer array (0 on the diagonal
    and at non-edges), and likewise B for h; denom is the least common
    denominator of both graphs' weights.  The arrays are int64 when
    2 n^2 max|A|, |B| < 2^62, so that any sum of n^2 differences stays in
    range, and object (Python ints) otherwise.
    """
    _check_same_order(g, h)
    stored = [x.edge_weights for x in (g, h)]
    denom = math.lcm(1, *(w.denominator for s in stored for w in s.values()))
    scaled = [
        {e: w.numerator * (denom // w.denominator) for e, w in s.items()} for s in stored
    ]
    largest = max((abs(x) for s in scaled for x in s.values()), default=0)
    dtype = np.int64 if 2 * g.n * g.n * largest < 2**62 else object
    matrices = np.zeros((2, g.n, g.n), dtype=dtype)
    for matrix, s in zip(matrices, scaled):
        for (u, v), x in s.items():
            matrix[u, v] = matrix[v, u] = x
    return matrices[0], matrices[1], denom


def _edit_totals(a: np.ndarray, b: np.ndarray, mappings: np.ndarray) -> np.ndarray:
    """Per mapping row p: the sum over ordered pairs (u, v) of |a[u,v] - b[p(u),p(v)]|."""
    return np.abs(a - b[mappings[:, :, None], mappings[:, None, :]]).sum(axis=(1, 2))


def edit_cost(g: Graph, h: Graph, pi: Assignment) -> Fraction:
    """Edit cost of the bijection pi between same-order graphs.

    The sum over unordered vertex pairs of the absolute difference of the
    effective weights, so for unweighted graphs the number of pairs whose
    edge/non-edge status disagrees under pi.
    """
    _check_same_order(g, h)
    if len(pi) != g.n:
        raise ValueError("bijection order does not match the graphs")
    _check_colour_preserving(g, h, pi)
    a, b, denom = weight_matrices(g, h)
    mapping = np.array(pi.mapping, dtype=np.int64).reshape(1, g.n)
    return Fraction(int(_edit_totals(a, b, mapping)[0]), 2 * denom)


# Mapping rows per array yielded by colour_preserving_bijections.
BIJECTION_CHUNK = 4096


def _matched_classes(g: Graph, h: Graph) -> dict:
    """h's colour classes; raises unless g and h have equal colour histograms."""
    if sorted(map(g.colour_of, range(g.n))) != sorted(map(h.colour_of, range(h.n))):
        raise ValueError("colour histograms differ; no colour-preserving bijection")
    return h.colour_classes()


def colour_preserving_bijections(g: Graph, h: Graph):
    """Yield every colour-preserving bijection of g onto h, in lexicographic order.

    Each item is a (P, n) int64 array of mapping rows, P <= BIJECTION_CHUNK.
    A colourless graph is one colour class.  Row r is unranked in mixed
    radix: vertex v takes the digit-th still unused target of its colour, so
    its radix is the number of such targets left.  Raises ValueError when
    the colour histograms differ.
    """
    classes = _matched_classes(g, h)
    colours = [g.colour_of(v) for v in range(g.n)]
    pools = [np.array(classes[c], dtype=np.int64) for c in colours]
    radices = [len(classes[c]) - colours[:v].count(c) for v, c in enumerate(colours)]
    count = math.prod(radices)
    BudgetExceededError.check(count, 2**63 - 1, "colour-preserving bijections to enumerate")
    places = [math.prod(radices[v + 1:]) for v in range(g.n)]
    for start in range(0, count, BIJECTION_CHUNK):
        ranks = np.arange(start, min(start + BIJECTION_CHUNK, count), dtype=np.int64)
        rows = np.arange(ranks.size)
        used = np.zeros((ranks.size, g.n), dtype=bool)
        out = np.empty((ranks.size, g.n), dtype=np.int64)
        for v, pool in enumerate(pools):
            digit = ranks // places[v] % radices[v]
            free = np.cumsum(~used[:, pool], axis=1)
            out[:, v] = pool[(free <= digit[:, None]).sum(axis=1)]
            used[rows, out[:, v]] = True
        yield out


def cheapest_bijection(g: Graph, h: Graph, cost):
    """(least total, mapping tuple) over the colour-preserving bijections.

    `cost` maps a (P, n) array of mapping rows to P totals.  Ties go to the
    lexicographically least mapping, which the enumeration yields first.
    """
    best = None
    for mappings in colour_preserving_bijections(g, h):
        totals = cost(mappings)
        i = int(np.argmin(totals))
        if best is None or totals[i] < best[0]:
            best = (totals[i], mappings[i])
    return int(best[0]), tuple(best[1].tolist())


def edit_distance_bruteforce(g: Graph, h: Graph, cap: int = 10):
    """Exact edit distance by enumerating all colour-preserving bijections.

    Returns (distance, minimising Assignment); ties are broken towards the
    lexicographically smallest mapping array.
    """
    _check_same_order(g, h)
    BudgetExceededError.check(g.n, cap, "vertices to brute-force")
    a, b, denom = weight_matrices(g, h)
    total, mapping = cheapest_bijection(g, h, lambda p: _edit_totals(a, b, p))
    return Fraction(total, 2 * denom), Assignment(mapping)


def is_isomorphic_bruteforce(g: Graph, h: Graph):
    """Exhaustive (backtracking) isomorphism search.

    Returns a colour-preserving isomorphism as an Assignment, or None.
    The search is complete: a None answer certifies non-isomorphism.
    """
    _check_same_order(g, h)
    if g.is_weighted or h.is_weighted:
        raise ValueError("isomorphism search is for unweighted graphs")
    if g.n == 0:
        return Assignment(())
    if len(g.edges) != len(h.edges):
        return None
    try:
        h_classes = _matched_classes(g, h)
    except ValueError:
        return None

    g_rows, h_rows = neighbour_masks(g), neighbour_masks(h)
    g_deg = [row.bit_count() for row in g_rows]
    h_deg = [row.bit_count() for row in h_rows]
    candidates = [
        [w for w in h_classes[g.colour_of(v)] if h_deg[w] == g_deg[v]]
        for v in range(g.n)
    ]
    if any(not c for c in candidates):
        return None

    # Assign vertices in BFS order from the most constrained one so that
    # adjacency mismatches prune early.
    start = min(range(g.n), key=lambda v: len(candidates[v]))
    order = []
    queue = [start]
    while queue or len(order) < g.n:
        if not queue:
            rest = min(v for v in range(g.n) if v not in order)
            queue.append(rest)
        v = queue.pop(0)
        if v in order:
            continue
        order.append(v)
        queue.extend(u for u in range(g.n) if g_rows[v] >> u & 1 and u not in order)

    mapping = [-1] * g.n
    used = [False] * h.n

    def backtrack(i):
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if used[w]:
                continue
            # mapped neighbours and non-neighbours must keep their status
            if any((g_rows[v] >> u & 1) != (h_rows[w] >> mapping[u] & 1) for u in order[:i]):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(i + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    if backtrack(0):
        return Assignment(tuple(mapping))
    return None


def threshold_graph(g: Graph, t) -> Graph:
    """Unweighted graph keeping exactly the edges of weight > t.

    An unweighted input is treated as having all weights equal to 1.
    """
    t = as_fraction(t)
    kept = frozenset(e for e, w in g.edge_weights.items() if w > t)
    return Graph(g.n, kept, weights=None, colours=g.colours)


def blowup(g: Graph, ell: int) -> Graph:
    """Replace every vertex by ell layered copies and every edge by K_{ell,ell}.

    Copy (v, i) gets id v*ell + i (layers i = 0..ell-1) and colour
    colour(v)*ell + i, which encodes the (base colour, layer) pair injectively.
    Edge weights, if present, are inherited from the base edge.  Past
    VERTEX_CAP vertices or EDGE_CAP edges it raises BudgetExceededError
    before building any edge.
    """
    if ell < 1:
        raise ValueError("blowup factor must be >= 1")
    Graph(g.n * ell)  # the vertex cap, checked before the ell^2 weights per edge
    BudgetExceededError.check(len(g.edges) * ell**2, EDGE_CAP, "edges in one blowup (the edge cap)")
    weights = {}
    for (u, v), w in g.edge_weights.items():
        for i in range(ell):
            for j in range(ell):
                weights[_norm_edge(u * ell + i, v * ell + j)] = w
    colours = {
        v * ell + i: g.colour_of(v) * ell + i
        for v in range(g.n)
        for i in range(ell)
    }
    return Graph(
        g.n * ell, frozenset(weights), weights=weights if g.is_weighted else None,
        colours=colours,
    )


def read_records(text: str, header: str, forms: dict):
    """(n, records) of a line-based file whose first line is '<header> <count>'.

    `#` starts a comment and blank lines are skipped.  `forms` maps each
    record kind to its usage, such as "e <u> <v> [weight]" (bracketed words
    optional).  `records` lazily yields (line number, kind, tokens after the
    kind), so the caller's checks and these raise ParseError in line order.
    """
    lines = (
        (lineno, tokens)
        for lineno, raw in enumerate(text.splitlines(), 1)
        if (tokens := raw.split("#", 1)[0].split())
    )
    lineno, tokens = next(lines, (None, []))
    if tokens[:1] != [header] or len(tokens) != 2:
        raise ParseError(f"first line must be the header '{header} <count>'", lineno)
    n = parse_int(tokens[1], lineno)
    if n < 0:
        raise ParseError(f"header count {n} must be non-negative", lineno)

    def records():
        for lineno, (kind, *rest) in lines:
            if kind not in forms:
                what = "duplicate header" if kind == header else "unknown line kind"
                raise ParseError(f"{what} {kind!r}", lineno)
            words = forms[kind].split()[1:]
            required = [w for w in words if not w.startswith("[")]
            if not len(required) <= len(rest) <= len(words):
                raise ParseError(f"line must be {forms[kind]!r}", lineno)
            yield lineno, kind, rest

    return n, records()


def parse_int(token: str, lineno: int, n: int | None = None) -> int:
    """The integer token of a record; with n, an index that must lie in [0, n)."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"invalid integer {token!r}", lineno) from None
    if n is not None and not 0 <= value < n:
        raise ParseError(f"index {value} out of range for n={n}", lineno)
    return value


def parse_value(token: str, lineno: int) -> Fraction:
    """The rational value token ("p/q" or decimal) of a record."""
    try:
        return as_fraction(token)
    except ValueError:
        raise ParseError(f"invalid value {token!r}", lineno) from None


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format (see serialize_graph)."""
    n, records = read_records(text, "n", {"e": "e <u> <v> [weight]", "c": "c <v> <colour>"})
    edges, weights, colours = set(), {}, {}
    for lineno, kind, tokens in records:
        if kind == "c":
            v, c = parse_int(tokens[0], lineno, n), parse_int(tokens[1], lineno)
            if c < 0:
                raise ParseError("colour must be non-negative", lineno)
            if v in colours:
                raise ParseError(f"duplicate colour for vertex {v}", lineno)
            colours[v] = c
            continue
        u, v = (parse_int(t, lineno, n) for t in tokens[:2])
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        e = _norm_edge(u, v)
        if e in edges:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        edges.add(e)
        if len(tokens) == 3:
            weights[e] = parse_value(tokens[2], lineno)
            if weights[e] == 0:
                raise ParseError("edge weight must be nonzero", lineno)
    return Graph(n, frozenset(edges), weights=weights or None, colours=colours or None)


def serialize_graph(g: Graph) -> str:
    """Serialize to the line-based format; parse(serialize(g)) == g."""
    lines = [f"n {g.n}"]
    if g.is_coloured:
        for v in range(g.n):
            lines.append(f"c {v} {g.colour_of(v)}")
    for u, v in sorted(g.edges):
        if g.is_weighted:
            lines.append(f"e {u} {v} {format_rational(g.weights[(u, v)])}")
        else:
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"
