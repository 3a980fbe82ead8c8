"""k-WL refinement over arrays: pinned outputs, independent oracles and the
compact colour histograms."""

import hashlib
import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, er_graph, relabelled_copy
from robustiso import Graph, wl
from robustiso.generators import gen_blowup_pair, gen_cfi_pair
from robustiso.wl import (
    DEFAULT_WL_BUDGET,
    Histogram,
    WlComparison,
    _joint_refine_1wl,
    _joint_refine_kwl,
    _rank_rows,
    _split_ranks,
    colour_refinement,
    k_wl_stable,
    wl_compare,
)


def sha(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


CFI = gen_cfi_pair("prism")
G8 = er_graph(8, 0.5, 511)
# A star K_{1,4} plus three isolated vertices: its degrees 4, 1 and 0 give
# rows of three lengths that only padding tells apart.
STAR = Graph(8, {(0, v) for v in range(1, 5)})
BLOWUP = gen_blowup_pair(CFI, 2)

# Recorded with the tuple-signature implementation this array code replaced:
# (graphs, k, rounds, sha256 of the colour arrays, digest(), witness).
PINNED_PAIRS = {
    "coloured-k1": (
        (
            er_graph(10, 0.5, 521, colours={v: v % 3 for v in range(10)}),
            er_graph(10, 0.5, 522, colours={v: v % 3 for v in range(10)}),
        ),
        1, 2,
        "2ec904782d300855f6b394cd3256cedd25723867d5a8637c2a198c83fb34f6c0",
        "00e84d9111a5e14eadf02ec5fd4c75db2c08a7fca596e3755a1c836feeb340cc",
        0,
    ),
    "star-isolated-k1": (
        (STAR, relabelled_copy(STAR, 523)), 1, 1,
        "9a368b41771b7540dcc3c81d8816fe4b97df7e945164bf7fc61b28362e33ea15",
        "bfed4359a754eb411c7d1634ca6c20a423241f1d0ed2cbf8f19828a89dc4f837",
        None,
    ),
    "star-vs-path-k1": (
        (STAR, Graph(8, {(0, 1), (1, 2), (2, 3), (3, 4)})), 1, 2,
        "0dbb3e3c076b74d63171a2f883546db093ecb25b07327a7f637b351b86295dd4",
        "9587727d9123b971a34e56599d9abac4d96b8ff98fe54d8b0155ba6d2b8ef956",
        1,
    ),
    "empty-k1": (
        (Graph(0, set()), Graph(0, set())), 1, 0,
        "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
        "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
        None,
    ),
    "one-vertex-k1": (
        (Graph(1, set()), Graph(1, set())), 1, 0,
        "e57ca707c0f16e2522ce1dfe8f00970ec20a86f0cd1dbb28aa5e6627b9fa2567",
        "6c2cfa21b4a42a90904921ec773e8ba48f5b96f0ab7a19dac00cb1e4b2742158",
        None,
    ),
    "cfi-prism-blowup2-k1": (
        (BLOWUP.g, BLOWUP.h), 1, 1,
        "29f1b7cf37c1819e6d2f3639c0ceea1330c5eb6093caba8925a8b5ef57733160",
        "3f79ae0153cf86f2bead545ebf9c7eb80e51eaa80e3327801e53946eb266571a",
        None,
    ),
    "cfi-prism-k1": (
        (CFI.g, CFI.h), 1, 1,
        "1fd46d5dbee7935fa5cac59f3fe4a8267514070463691820346fc7b74a8f7ac1",
        "2ecd8eddce0de006be01fcb8a06fe875285aece99a8384eb6d1699e82669e580",
        None,
    ),
    "cfi-prism-k2": (
        (CFI.g, CFI.h), 2, 2,
        "cf408c9100c8939a73269ca599321d158269c8fbc8074af42a48fed6dfc65743",
        "af27135bc114ec0d9696cf671ed9e91eba3be37d8b3b0afcfd48f878d450c1ec",
        None,
    ),
    "gnp14-k3": (
        (er_graph(14, 0.5, 501), er_graph(14, 0.5, 502)), 3, 2,
        "9b707f9119dfbc280a226eaa230ed76bf4925c2e1a6dac2f54f6b3c7cc7963bf",
        "540155abbc18c8ba24929d3142188b417b6beb44eeed1840c352f5f2932e98bd",
        0,
    ),
    "two-coloured-k2": (
        (
            er_graph(9, 0.5, 503, colours={v: v % 2 for v in range(9)}),
            er_graph(9, 0.5, 504, colours={v: v // 5 for v in range(9)}),
        ),
        2, 2,
        "71a0c7f2c293ac2bfed9154c6ab78005c516d8192cb6d2fb33005286a4aafff5",
        "681480c2dced27c672b6fc178d758e5856cd83e3eb2eadb1c6af91ffd30a719f",
        0,
    ),
    # 20272 classes: 20272^5 does not fit int64, so codes are re-ranked.
    "gnp8-k5": (
        (G8, relabelled_copy(G8, 512)), 5, 2,
        "19aee4650af4c6c13ddc1426f030f0705cf8d2ff756bc03cf57b261bb5ffd155",
        "ac36a135d9931dd4b471ce74e740776f4d32548e1ba1fb9cd3b932c85a0a82d1",
        None,
    ),
    "empty-k2": (
        (Graph(0, set()), Graph(0, set())), 2, 0,
        "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
        "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
        None,
    ),
    "one-vertex-k3": (
        (Graph(1, set()), Graph(1, set())), 3, 0,
        "e57ca707c0f16e2522ce1dfe8f00970ec20a86f0cd1dbb28aa5e6627b9fa2567",
        "6c2cfa21b4a42a90904921ec773e8ba48f5b96f0ab7a19dac00cb1e4b2742158",
        None,
    ),
}

# (graph, k, rounds, sha256 of the colours, sha256 of the sorted histogram)
PINNED_SINGLES = {
    "cfi-prism-g-k2": (
        CFI.g, 2, 2,
        "73d2da4c6b7e5252bc082bee603987238aaefa69ef46ea60651e07e0b9ef5997",
        "6141d450816b87a0d925f89b2d4b8e785fdceed1622297b37f459e22bed80739",
    ),
    "gnp10-coloured-k3": (
        er_graph(10, 0.5, 505, colours={v: v % 3 for v in range(10)}), 3, 2,
        "608757aa263522476f65bf1995c346006c4fa96e1cfd2bf68f8bf767c17b1731",
        "605736bf4799ecbdfbe76221b0fbfb863319ceabe45ced007cb045ca8ff016cf",
    ),
    "empty-k2": (
        Graph(0, set()), 2, 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "one-vertex-k2": (
        Graph(1, set()), 2, 0,
        "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
        "f515fa775d99acd6f31a0b7f0a698ebf3bb5052eb031c28e49b7b81b7ad53b6a",
    ),
}


# colour_refinement with individualised vertices, given unsorted, recorded
# with the tuple-signature 1-WL: (graph, individualised, rounds, sha256 of
# the colours, sha256 of the sorted histogram).
PINNED_REFINEMENTS = {
    "gnp12-individualised": (
        er_graph(12, 0.5, 524), (7, 2, 9), 2,
        "02331984c73bb6ab87fc2b88e2dbbd61ca71fceb8b47c1e3e1045ab6123a8d92",
        "8653dcae95d383fd4332c8dc9fce9c9e814d1bdade8cb5f016705b3962472257",
    ),
    "gnp12-coloured-individualised": (
        er_graph(12, 0.5, 525, colours={v: v % 2 for v in range(12)}), (11, 0), 1,
        "a6b4191cfff28614cbb09619f48269add11f72494f2c81cad326df599804cfee",
        "8653dcae95d383fd4332c8dc9fce9c9e814d1bdade8cb5f016705b3962472257",
    ),
    "cycle12-individualised": (
        cycle_graph(12), (9, 3), 2,
        "119142efbf8fb3c9a4a1c0863e32212b59854dec80251377486e929e23dc3957",
        "7c779348287ad0d4c8d5f37a1e2c6dc6aaa35ab6480b05390c5585b4c01c8047",
    ),
    "star-isolated": (
        STAR, (), 1,
        "a641f92a8c6924e2a195f6c2508a455fd6007e59a238302f5f9b8cf563603468",
        "f0f7a41873316af5101a619a379e664dfa45ec7bf1fa3ae467470f75697935bb",
    ),
    "empty": (
        Graph(0, set()), (), 0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "one-vertex": (
        Graph(1, set()), (0,), 0,
        "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
        "f515fa775d99acd6f31a0b7f0a698ebf3bb5052eb031c28e49b7b81b7ad53b6a",
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_PAIRS))
    def test_joint_refinement(self, name):
        graphs, k, rounds, colours_sha, digest, witness = PINNED_PAIRS[name]
        if k == 1:
            cols, got_rounds = _joint_refine_1wl(list(graphs), [(), ()])
        else:
            cols, got_rounds = _joint_refine_kwl(list(graphs), k, DEFAULT_WL_BUDGET)
        assert got_rounds == rounds
        assert sha([[int(c) for c in col] for col in cols]) == colours_sha
        comparison = wl_compare(*graphs, k)
        assert comparison.digest() == digest
        assert comparison.distinguishing_colour == witness

    @pytest.mark.parametrize("name", sorted(PINNED_SINGLES))
    def test_single_graph(self, name):
        g, k, rounds, colours_sha, histogram_sha = PINNED_SINGLES[name]
        stable = k_wl_stable(g, k)
        assert stable.rounds == rounds
        assert sha(list(stable.colours)) == colours_sha
        assert sha(sorted(stable.histogram.items())) == histogram_sha

    @pytest.mark.parametrize("name", sorted(PINNED_REFINEMENTS))
    def test_colour_refinement(self, name):
        g, individualised, rounds, colours_sha, histogram_sha = PINNED_REFINEMENTS[name]
        stable = colour_refinement(g, individualised)
        assert stable.rounds == rounds
        assert all(type(c) is int for c in stable.colours)
        assert sha(list(stable.colours)) == colours_sha
        assert sha(sorted(stable.histogram.items())) == histogram_sha


def relabel(g, perm):
    edges = {(perm[u], perm[v]) for u, v in g.edges}
    colours = None
    if g.is_coloured:
        colours = {perm[v]: g.colour_of(v) for v in range(g.n)}
    return Graph(g.n, edges, colours=colours)


@st.composite
def graph_and_permutation(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    colours = None
    if draw(st.booleans()):
        colours = dict(enumerate(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))))
    g = Graph(n, {e for e, keep in zip(pairs, present) if keep}, colours=colours)
    return g, draw(st.permutations(range(n)))


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from((v, {"c": g.colour_of(v)}) for v in range(g.n))
    out.add_edges_from(g.edges)
    return out


def tuple_1wl(graphs, individualised):
    """Reference joint 1-WL over Python tuples: every round sorts the
    distinct signatures (colour, sorted neighbour colours) of all graphs and
    renames each to its rank."""

    def canonical(signatures):
        distinct = sorted({s for sig in signatures for s in sig})
        rank = {s: r for r, s in enumerate(distinct)}
        return [[rank[s] for s in sig] for sig in signatures]

    cols = canonical([
        [(g.colour_of(v), sorted(ind).index(v) + 1 if v in ind else 0) for v in range(g.n)]
        for g, ind in zip(graphs, individualised)
    ])
    # each graph's neighbour lists, read from its edges
    neighbours = [
        [[u for e in g.edges if v in e for u in e if u != v] for v in range(g.n)]
        for g in graphs
    ]
    rounds = 0
    while True:
        new = canonical([
            [(col[v], tuple(sorted(col[u] for u in nbrs[v]))) for v in range(len(col))]
            for nbrs, col in zip(neighbours, cols)
        ])
        if len({c for col in new for c in col}) == len({c for col in cols for c in col}):
            return cols, rounds
        cols, rounds = new, rounds + 1


def tuple_kwl(graphs, k):
    """Reference joint k-WL over Python tuples, for graphs of one order: a
    k-tuple's atomic type is (equality bits, adjacency bits, vertex colours)
    over the position pairs (i, j) in row-major order; every round its
    signature is its colour, then for each vertex w the tuple of the colours
    of the k tuples that put w at position 0, ..., k-1, sorted over w.
    Every round sorts the distinct signatures of all graphs and renames each
    to its rank."""
    n = graphs[0].n
    tuples = list(itertools.product(range(n), repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    pairs = [(i, j) for i in range(k) for j in range(k)]

    def canonical(signatures):
        distinct = sorted({s for sig in signatures for s in sig})
        rank = {s: r for r, s in enumerate(distinct)}
        return [[rank[s] for s in sig] for sig in signatures]

    def atomic(g, t):
        return (
            tuple(t[i] == t[j] for i, j in pairs),
            tuple((min(t[i], t[j]), max(t[i], t[j])) in g.edges for i, j in pairs),
            tuple(g.colour_of(v) for v in t),
        )

    def neighbours(col, t):
        return sorted(
            tuple(col[index[t[:pos] + (w,) + t[pos + 1 :]]] for pos in range(k))
            for w in range(n)
        )

    cols = canonical([[atomic(g, t) for t in tuples] for g in graphs])
    rounds = 0
    while True:
        new = canonical([[(col[index[t]], tuple(neighbours(col, t))) for t in tuples] for col in cols])
        if len({c for col in new for c in col}) == len({c for col in cols for c in col}):
            return cols, rounds
        cols, rounds = new, rounds + 1


class TestIndependentOracles:
    def test_1wl_ids_equal_the_sorted_signature_tuples(self):
        rng = random.Random(650)
        for trial in range(80):
            n = rng.randint(0, 14)
            colours = {v: rng.randrange(3) for v in range(n)} if trial % 2 else None
            p = rng.choice([0.1, 0.3, 0.5])
            graphs = [er_graph(n, p, 6800 + 2 * trial + i, colours=colours) for i in (0, 1)]
            individualised = [rng.sample(range(n), min(n, rng.randint(0, 3))) for _ in graphs]
            cols, rounds = _joint_refine_1wl(graphs, individualised)
            got = [[int(c) for c in col] for col in cols], rounds
            assert got == tuple_1wl(graphs, individualised), trial

    def test_1wl_rounds_that_sort_only_split_classes(self, monkeypatch):
        # these rounds are small enough to be ranked whole by default
        monkeypatch.setattr(wl, "_SPLIT_MIN_ENTRIES", 0)
        self.test_1wl_ids_equal_the_sorted_signature_tuples()

    def test_kwl_ids_equal_the_sorted_signature_tuples(self, monkeypatch):
        # so that these small rounds sort only the classes that split
        monkeypatch.setattr(wl, "_SPLIT_MIN_ENTRIES", 0)
        rng = random.Random(660)
        for trial in range(48):
            k = 2 + trial % 2
            n = rng.randint(0, 7)
            p = rng.choice([0.2, 0.5])
            graphs = []
            for i in (0, 1):
                colours = {v: rng.randrange(3) for v in range(n)} if trial % 4 >= 2 else None
                graphs.append(er_graph(n, p, 6900 + 2 * trial + i, colours=colours))
            if trial % 3 == 0:
                graphs[1] = relabelled_copy(graphs[0], 6990 + trial)
            cols, rounds = _joint_refine_kwl(graphs, k, DEFAULT_WL_BUDGET)
            got = [[int(c) for c in col] for col in cols], rounds
            assert got == tuple_kwl(graphs, k), trial

    @given(graph_and_permutation(), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_histograms_invariant_under_relabelling(self, case, k):
        g, perm = case
        h = relabel(g, perm)
        # separate runs name colours by sorted signature, so they agree too
        assert k_wl_stable(g, k).histogram == k_wl_stable(h, k).histogram
        comparison = wl_compare(g, h, k)
        assert not comparison.distinguishes
        assert comparison.histogram_g == comparison.histogram_h

    def test_agrees_with_networkx_isomorphism(self):
        rng = random.Random(620)
        distinguished = copies = 0
        for trial in range(40):
            n = rng.randint(2, 8)
            colours = {v: rng.randrange(2) for v in range(n)} if trial % 3 == 0 else None
            g = er_graph(n, 0.5, 6200 + trial, colours=colours)
            h = er_graph(n, 0.5, 6300 + trial, colours=colours)
            copy = relabelled_copy(g, 6400 + trial)
            for k in (2, 3):
                if wl_compare(g, h, k).distinguishes:
                    distinguished += 1
                    assert not nx.is_isomorphic(
                        to_nx(g), to_nx(h), node_match=lambda a, b: a["c"] == b["c"]
                    )
                assert not wl_compare(g, copy, k).distinguishes
                copies += 1
        assert distinguished >= 20 and copies == 80

    def test_1wl_agrees_with_networkx_wl_hash(self):
        def wl_hash(g):
            # n rounds suffice: while the histograms agree, every class holds
            # as many vertices of g as of h, so at most n classes exist, and
            # each round that does not stop adds one.
            return nx.weisfeiler_lehman_graph_hash(to_nx(g), node_attr="c", iterations=g.n)

        two_triangles = Graph(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})
        # non-isomorphic pairs that 1-WL cannot tell apart
        cases = [(CFI.g, CFI.h), (cycle_graph(6), two_triangles)]
        rng = random.Random(640)
        for trial in range(48):
            n = rng.randint(1, 12)
            colours = {v: rng.randrange(3) for v in range(n)} if trial % 3 == 0 else None
            p = rng.choice([0.2, 0.5])
            g = er_graph(n, p, 6500 + trial, colours=colours)
            if trial % 4 == 0:
                h = relabelled_copy(g, 6600 + trial)
            else:
                h = er_graph(n, p, 6700 + trial, colours=colours)
            cases.append((g, h))
        outcomes = []
        for g, h in cases:
            distinguishes = wl_compare(g, h, 1).distinguishes
            assert distinguishes == (wl_hash(g) != wl_hash(h)), (g, h)
            outcomes.append(distinguishes)
        assert 20 <= sum(outcomes) <= len(outcomes) - 14


def coloured_rows(rng, sizes, splits, width):
    """Rows whose column 0 is a dense colouring with classes of the given
    sizes, in a seeded shuffled order.  The rows of a class in `splits`
    take at least two distinct tails; the rows of any other class share
    one.  Entries lie in [-1, 2], so -1 stands for 1-WL's padding."""
    blocks = []
    for c, size in enumerate(sizes):
        if c in splits:
            while True:
                tails = rng.integers(-1, 3, (size, width - 1))
                if len({tuple(t) for t in tails.tolist()}) > 1:
                    break
        else:
            tails = np.repeat(rng.integers(-1, 3, (1, width - 1)), size, axis=0)
        blocks.append(np.column_stack([np.full(size, c), tails]))
    rows = np.concatenate(blocks) if blocks else np.zeros((0, width), dtype=np.int64)
    rows = rows[rng.permutation(len(rows))].astype(np.int64)
    return rows, rows[:, 0].copy(), len(sizes)


def sorted_tuple_ranks(rows):
    distinct = sorted({tuple(r) for r in rows.tolist()})
    rank = {r: i for i, r in enumerate(distinct)}
    return [rank[tuple(r)] for r in rows.tolist()], len(distinct)


class TestSplitRanking:
    """`_split_ranks`, which sorts only the classes that split, against the
    full lexsort of `_rank_rows` and against sorted Python tuples."""

    @pytest.fixture(autouse=True)
    def small_rounds_split(self, monkeypatch):
        monkeypatch.setattr(wl, "_SPLIT_MIN_ENTRIES", 0)

    CASES = {
        "zero-rows": ([], set()),
        "one-row": ([1], set()),
        "no-class-splits": ([3, 1, 4, 2, 2], set()),
        "every-class-splits": ([3, 2, 4, 2], {0, 1, 2, 3}),
        "one-class-of-many-splits": ([3] * 8, {5}),
        "one-large-class-splits": ([1, 9, 1, 1], {1}),
        "singletons-and-one-split": ([1] * 6 + [4], {6}),
        "half-the-rows-split": ([2, 2, 4], {2}),
    }

    def check(self, rows, cols, classes):
        expected = sorted_tuple_ranks(rows)
        ranks, count = _split_ranks(rows, cols, classes)
        full, full_count = _rank_rows(rows)
        assert ranks.dtype == np.int64
        assert (ranks.tolist(), count) == (full.tolist(), full_count) == expected
        return ranks

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_cases(self, name):
        sizes, splits = self.CASES[name]
        rng = np.random.default_rng(sorted(self.CASES).index(name))
        for width in (1, 2, 5):
            rows, cols, classes = coloured_rows(rng, sizes, splits if width > 1 else set(), width)
            ranks = self.check(rows, cols, classes)
            if not splits or width == 1:
                assert ranks is cols  # stable: nothing was sorted

    def test_seeded_matrices_on_both_sides_of_the_half_rule(self):
        rng = np.random.default_rng(670)
        moved_fractions = []
        for _ in range(60):
            sizes = rng.integers(1, 6, rng.integers(1, 12)).tolist()
            splits = {c for c, size in enumerate(sizes) if size > 1 and rng.random() < 0.4}
            rows, cols, classes = coloured_rows(rng, sizes, splits, int(rng.integers(2, 7)))
            self.check(rows, cols, classes)
            moved_fractions.append(sum(sizes[c] for c in splits) / sum(sizes))
        below = sum(0 < f <= 0.5 for f in moved_fractions)
        above = sum(f > 0.5 for f in moved_fractions)
        assert below >= 10 and above >= 10, moved_fractions


class TestHistogram:
    def test_equals_the_dict_in_both_directions(self):
        hist = Histogram(np.bincount([0, 0, 2, 5, 5, 5]))
        assert hist == {0: 2, 2: 1, 5: 3}
        assert {0: 2, 2: 1, 5: 3} == hist
        assert hist != {0: 2, 2: 1, 5: 4}
        assert {0: 2, 2: 1} != hist
        assert Histogram(np.zeros(0, dtype=np.int64)) == {}

    def test_counts_keep_their_width(self):
        # the largest count sets the dtype, wherever it sits
        assert Histogram(np.array([70000, 0, 300, 1])) == {0: 70000, 2: 300, 3: 1}

    def test_mapping_reads_python_ints(self):
        hist = Histogram(np.array([0, 3, 0, 1, 0, 0]))
        assert list(hist) == [1, 3] and len(hist) == 2
        assert list(hist.items()) == [(1, 3), (3, 1)]
        assert all(type(x) is int for item in hist.items() for x in item)
        assert hist[1] == 3 and 2 not in hist and 9 not in hist and -1 not in hist
        assert hist.get(0, 0) == 0
        with pytest.raises(KeyError):
            hist["1"]

    def test_digest_equals_the_dict_digest(self):
        g = er_graph(7, 0.5, 630)
        h = er_graph(7, 0.5, 631)
        comparison = wl_compare(g, h, 2)
        assert comparison.distinguishes
        as_dicts = WlComparison(
            comparison.distinguishes,
            comparison.distinguishing_colour,
            dict(comparison.histogram_g),
            dict(comparison.histogram_h),
            2,
        )
        assert comparison.digest() == as_dicts.digest()
        assert comparison == as_dicts

    def test_equal_histograms_are_stored_once(self):
        g = er_graph(7, 0.5, 632)
        comparison = wl_compare(g, relabelled_copy(g, 633), 2)
        assert comparison.histogram_g is comparison.histogram_h
