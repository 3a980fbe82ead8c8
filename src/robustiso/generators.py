"""Generators for the hard-instance families used by the test suites.

The CFI-style pairs use the classic even/odd gadget over a connected
3-regular base: one vertex gadget per base vertex (even-cardinality subsets
of its incident edges) and one two-pair gadget per base edge, with the
parity twist applied on the lexicographically smallest base edge.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

from .errors import BudgetExceededError, VerificationError
from .graphs import Graph, blowup, neighbour_masks, parse_graph, serialize_graph
from .qap import QapInstance
from .setsystems import neighbourhood_system, vc_dimension_exact

STOCK_BASES = {
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5)]),
    "petersen": (10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, 5 + i) for i in range(5)]),
    "mobius_kantor": (16, [(i, (i + 1) % 8) for i in range(8)]
                      + [(8 + i, 8 + (i + 3) % 8) for i in range(8)]
                      + [(i, 8 + i) for i in range(8)]),
}

# The most edge draws one random graph may take: C(n, 2) <= DRAW_CAP for
# n <= 5,793, about 7 s at the 420 ns a draw measured at n = 2,000 on a
# 2-core x86 VM.
DRAW_CAP = 2**24


@dataclass(frozen=True)
class InstanceBundle:
    g: Graph
    h: Graph
    metadata: dict

    def __post_init__(self):
        if self.g.n != self.h.n:
            raise ValueError("bundle graphs must have equal order")


def _is_connected(rows: list) -> bool:
    """Whether the graph with neighbourhood bitmasks `rows` is connected."""
    seen = frontier = 1 if rows else 0
    while frontier:
        reached = 0
        for v in range(len(rows)):
            if frontier >> v & 1:
                reached |= rows[v]
        frontier = reached & ~seen
        seen |= frontier
    return seen == (1 << len(rows)) - 1


def stock_base(name: str) -> Graph:
    if name not in STOCK_BASES:
        raise ValueError(f"unknown base {name!r}; choose from {sorted(STOCK_BASES)}")
    n, edges = STOCK_BASES[name]
    return Graph(n, frozenset(edges))


def cfi_graph(base: Graph, twisted_edges=()) -> Graph:
    """Gadget graph over a connected 3-regular base with the given edges twisted.

    Vertex ids: base vertex u contributes ids 4u..4u+3 (its four even subsets
    of incident edges, by increasing subset mask); base edge number i
    contributes ids 4n+4i..4n+4i+3 as (lower endpoint, side 0/1, then upper
    endpoint).  Colours: one class per base vertex, one per base edge.
    """
    rows = neighbour_masks(base)
    if any(row.bit_count() != 3 for row in rows):
        raise ValueError("base graph must be 3-regular")
    if not _is_connected(rows):
        raise ValueError("base graph must be connected")
    edges = sorted(base.edges)
    edge_index = {e: i for i, e in enumerate(edges)}
    twisted = set()
    for e in twisted_edges:
        e = (min(e), max(e))
        if e not in edge_index:
            raise ValueError(f"twisted edge {e} not in the base graph")
        twisted.add(edge_index[e])

    incident = [[] for _ in range(base.n)]
    for i, (x, y) in enumerate(edges):
        incident[x].append(i)
        incident[y].append(i)

    gadget_id = {}
    for u in range(base.n):
        even_masks = [m for m in range(8) if bin(m).count("1") % 2 == 0]
        for j, mask in enumerate(even_masks):
            subset = frozenset(
                incident[u][b] for b in range(3) if mask >> b & 1
            )
            gadget_id[(u, subset)] = 4 * u + j

    def pair_id(eidx: int, endpoint: int, side: int) -> int:
        x, y = edges[eidx]
        offset = 0 if endpoint == x else 2
        return 4 * base.n + 4 * eidx + offset + side

    out_edges = set()
    for (u, subset), gid in gadget_id.items():
        for eidx in incident[u]:
            side = 1 if eidx in subset else 0
            out_edges.add((gid, pair_id(eidx, u, side)))
    for eidx, (x, y) in enumerate(edges):
        flip = 1 if eidx in twisted else 0
        for side in (0, 1):
            out_edges.add((pair_id(eidx, x, side), pair_id(eidx, y, side ^ flip)))

    colours = {}
    for (u, _), gid in gadget_id.items():
        colours[gid] = u
    for eidx in range(len(edges)):
        for k in range(4):
            colours[4 * base.n + 4 * eidx + k] = base.n + eidx
    return Graph(4 * base.n + 4 * len(edges), frozenset(out_edges), colours=colours)


def gen_cfi_pair(base: str = "k4") -> InstanceBundle:
    """Non-isomorphic coloured 3-regular pair indistinguishable by low WL.

    The untwisted and the one-twist gadget graph over the named stock base
    (twist on the lexicographically smallest base edge).
    """
    graph = stock_base(base)
    g = cfi_graph(graph, ())
    h = cfi_graph(graph, (sorted(graph.edges)[0],))
    metadata = {
        "family": "cfi",
        "params": {"base": base, "base_order": graph.n,
                   "base_edges": len(graph.edges)},
        "claims": {
            "non_isomorphic": True,
            "three_regular": True,
            "max_colour_class_size": 4,
            "wl_1_indistinguishable": True,
            "neighbourhood_vc_at_most": 3,
        },
    }
    return InstanceBundle(g, h, metadata)


def gen_blowup_pair(bundle: InstanceBundle, ell: int) -> InstanceBundle:
    """Blow up both members; edit distance scales at least by ell^2 / 3."""
    if ell < 1:
        raise ValueError("blowup factor must be >= 1")
    claims = dict(bundle.metadata.get("claims", {}))
    claims["wl_distinguishability_transfers"] = True
    if claims.get("non_isomorphic"):
        claims["edit_distance_at_least"] = math.ceil(ell * ell / 3)
    metadata = {
        "family": "blowup",
        "params": {"ell": ell, "inner": bundle.metadata.get("family"),
                   **bundle.metadata.get("params", {})},
        "claims": claims,
    }
    return InstanceBundle(blowup(bundle.g, ell), blowup(bundle.h, ell), metadata)


def gen_vc_gap_qap(n: int) -> QapInstance:
    """0/1 instance whose unrestricted threshold system has VC dimension
    floor(log2 n) while every restriction to a bijection has VC at most 1.

    Vertex ids double as subset encodings: for each A of {1..k} with
    k = floor(log2 n), the vertex sum(2^(i-1) for i in A) receives cost 1
    against (n-1, ., 0, x-1) exactly when x lies in A, so the row
    {(0, x-1)} of size k is shattered by the unrestricted system while any
    fixed bijection sees at most one nonzero cell per hypothesis.
    """
    if n < 4:
        raise ValueError("requires n >= 4")
    QapInstance(n)  # the order check, before the 2^k subsets
    k = n.bit_length() - 1  # floor(log2 n)
    entries = {}
    for bits in range(1 << k):
        v_a = bits  # id of v_A for A = {i : bit i-1 set}
        for i in range(1, k + 1):
            if bits >> (i - 1) & 1:
                entries[(n - 1, v_a, 0, i - 1)] = 1
    return QapInstance(n, entries)


def gen_random_graph(
    n: int,
    edge_prob=None,
    target_vc: int | None = None,
    seed: int = 0,
    retries: int = 200,
    budget: int | None = None,
) -> Graph:
    """Seeded Erdos-Renyi sample, optionally rejected until the neighbourhood
    system has exactly the requested VC dimension.

    The n neighbourhoods shatter at most floor(log2 n) vertices, so a
    target outside [0, floor(log2 n)] is refused before the first sample.
    An order past VERTEX_CAP, or one whose C(n, 2) edge draws pass
    DRAW_CAP, is refused there too.  `budget` bounds the nodes of each
    sample's VC search."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = 0.5 if edge_prob is None else float(edge_prob)
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    if target_vc is not None and not 0 <= target_vc <= n.bit_length() - 1:
        raise ValueError(
            f"no graph on {n} vertices has neighbourhood VC {target_vc}: "
            f"its {n} neighbourhoods shatter at most {n.bit_length() - 1} vertices"
        )
    Graph(n)  # the vertex cap, checked before the C(n, 2) draws
    BudgetExceededError.check(math.comb(n, 2), DRAW_CAP, "edge draws for one graph")
    rng = random.Random(seed)

    def sample() -> Graph:
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v))
        return Graph(n, frozenset(edges))

    if target_vc is None:
        return sample()
    for _ in range(retries):
        g = sample()
        if vc_dimension_exact(neighbourhood_system(g), budget) == target_vc:
            return g
    raise VerificationError(
        f"no graph of neighbourhood VC {target_vc} found in {retries} samples"
    )


def save_bundle(bundle: InstanceBundle, directory: str) -> list:
    """Write G.graph, H.graph and metadata.json; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, graph in (("G.graph", bundle.g), ("H.graph", bundle.h)):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(graph))
        paths.append(path)
    meta_path = os.path.join(directory, "metadata.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(bundle.metadata, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths.append(meta_path)
    return paths


def load_bundle(directory: str) -> InstanceBundle:
    with open(os.path.join(directory, "G.graph"), encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    with open(os.path.join(directory, "H.graph"), encoding="utf-8") as fh:
        h = parse_graph(fh.read())
    with open(os.path.join(directory, "metadata.json"), encoding="utf-8") as fh:
        metadata = json.load(fh)
    return InstanceBundle(g, h, metadata)
