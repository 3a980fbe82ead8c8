"""k-WL refinement over arrays: pinned outputs, independent oracles and the
compact colour histograms."""

import hashlib
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import er_graph, relabelled_copy
from robustiso import Graph, k_wl_stable
from robustiso.generators import gen_cfi_pair
from robustiso.wl import (
    DEFAULT_WL_BUDGET,
    Histogram,
    WlComparison,
    _joint_refine_1wl,
    _joint_refine_kwl,
    wl_compare,
)


def sha(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


CFI = gen_cfi_pair("prism")
G8 = er_graph(8, 0.5, 511)

# Recorded with the tuple-signature implementation this array code replaced:
# (graphs, k, rounds, sha256 of the colour arrays, digest(), witness).
PINNED_PAIRS = {
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


class TestIndependentOracles:
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
        def to_nx(g):
            out = nx.Graph()
            out.add_nodes_from((v, {"c": g.colour_of(v)}) for v in range(g.n))
            out.add_edges_from(g.edges)
            return out

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
