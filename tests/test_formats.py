"""The shared line reader of the graph and QAP file formats, and properties
of both formats: round trips, and ParseError as the only failure."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustiso import Graph, QapInstance
from robustiso.errors import ParseError
from robustiso.graphs import parse_graph, parse_int, parse_value, read_records, serialize_graph
from robustiso.qap import parse_qap, serialize_qap
from robustiso.rationals import as_fraction, parse_rational

FORMS = {"e": "e <u> <v> [weight]", "c": "c <v> <colour>"}
# a 22-byte file whose weight literal takes seconds to expand unless refused
HUGE_EXPONENT = "n 2\ne 0 1 1e-10000000\n"


class TestReadRecords:
    def test_records_skip_comments_and_blank_lines(self):
        text = "# top\n\nn 3  # order\ne 0 1 5/2\n\nc 2 1 # c\n"
        n, records = read_records(text, "n", FORMS)
        assert n == 3
        assert list(records) == [(4, "e", ["0", "1", "5/2"]), (6, "c", ["2", "1"])]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "first line must be the header 'n <count>'"),
            ("# only a comment\n", "first line must be the header"),
            ("e 0 1", "line 1: first line must be the header"),
            ("x 0", "line 1: first line must be the header"),
            ("n", "line 1: first line must be the header"),
            ("n 2 3", "line 1: first line must be the header"),
            ("n two", "line 1: invalid integer 'two'"),
            ("n -1", "line 1: header count -1 must be non-negative"),
            ("n 2\nn 2", "line 2: duplicate header 'n'"),
            ("n 2\n\nx 0", "line 3: unknown line kind"),
            ("n 2\ne 0", "line 2: line must be 'e <u> <v> \\[weight\\]'"),
            ("n 2\ne 0 1 1 1", "line 2: line must be"),
            ("n 2\nc 0", "line 2: line must be 'c <v> <colour>'"),
        ],
    )
    def test_malformed_lines(self, text, match):
        with pytest.raises(ParseError, match=match):
            n, records = read_records(text, "n", FORMS)
            list(records)

    def test_errors_come_in_line_order(self):
        # a bad index on line 2 is reported before the unknown kind on line 3
        with pytest.raises(ParseError, match="line 2: index 5 out of range"):
            parse_graph("n 2\ne 0 5\nx")


class TestTokens:
    def test_parse_int(self):
        assert parse_int("-3", 1) == -3
        assert parse_int("1", 1, n=2) == 1
        with pytest.raises(ParseError, match="line 4: index 2 out of range for n=2"):
            parse_int("2", 4, n=2)
        with pytest.raises(ParseError, match="line 4: index -1 out of range"):
            parse_int("-1", 4, n=2)
        with pytest.raises(ParseError, match="line 7: invalid integer '1.0'"):
            parse_int("1.0", 7)

    def test_parse_value(self):
        assert parse_value("-7/3", 1) == Fraction(-7, 3)
        assert parse_value("2.5e-1", 1) == Fraction(1, 4)
        for bad in ("1/0", "x", "1.5.5", "nan"):
            with pytest.raises(ParseError, match="line 3: invalid value"):
                parse_value(bad, 3)


class TestAsFraction:
    def test_float_goes_through_its_shortest_repr(self):
        assert as_fraction(0.3) == Fraction(3, 10)
        assert as_fraction(-2.5e-3) == Fraction(-1, 400)

    @pytest.mark.parametrize("value", [None, [1, 2], 1j])
    def test_unsupported_type_rejected(self, value):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_fraction(value)


class TestExponentLimit:
    def test_exponent_within_the_limit_parses(self):
        assert parse_rational("1e4000") == 10**4000
        assert parse_rational("25E-2") == Fraction(1, 4)

    def test_exponent_past_the_limit_is_refused(self):
        limit = sys.get_int_max_str_digits()
        for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e10000000", "2.5E+99999999"):
            with pytest.raises(ValueError, match="invalid rational"):
                parse_rational(text)

    def test_no_limit_when_python_sets_none(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_huge_exponent_in_a_file_names_its_line(self):
        with pytest.raises(ParseError, match="line 2: invalid value '1e-10000000'"):
            parse_graph(HUGE_EXPONENT)
        with pytest.raises(ParseError, match="line 2: invalid value"):
            parse_qap("qap 1\nq 0 0 0 0 1e10000000\n")


def test_qap_order_is_bounded_by_int64_positions():
    # order 55108 is the largest whose n^4 flat positions fit int64
    q = parse_qap("qap 55108\nq 55107 55107 55107 55107 1\n")
    assert parse_qap(serialize_qap(q)) == q
    for n in (55109, 10**20):
        with pytest.raises(ParseError, match=f"order {n} has n\\^4 >= 2\\^63"):
            parse_qap(f"qap {n}\nq 1 1 1 1 1\n")


def test_qap_constructor_bounds_the_order_as_the_parser_does():
    # an instance the constructor accepts can be serialised and read back
    assert QapInstance(55108).n == 55108
    assert parse_qap(serialize_qap(QapInstance(55108))) == QapInstance(55108)
    for n in (55109, 10**5):
        with pytest.raises(ValueError, match=f"order {n} has n\\^4 >= 2\\^63"):
            QapInstance(n)
        with pytest.raises(ValueError, match=f"order {n} has n\\^4 >= 2\\^63"):
            QapInstance(n, {(n - 1, 0, 0, n - 1): 1})


rationals = st.fractions(max_denominator=12).filter(lambda x: abs(x) <= 50)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    weights = None
    if draw(st.booleans()):
        nonzero = rationals.filter(lambda x: x != 0)
        weights = {e: draw(nonzero) for e in edges}
    colours = None
    if draw(st.booleans()):
        colours = {v: draw(st.integers(0, 3)) for v in range(n)}
    return Graph(n, frozenset(edges), weights=weights, colours=colours)


@st.composite
def qap_instances(draw):
    n = draw(st.integers(0, 3))
    if n == 0:
        return QapInstance(0)
    key = st.tuples(*[st.integers(0, n - 1)] * 4)
    return QapInstance(n, draw(st.dictionaries(key, rationals, max_size=12)))


def fuzzed_texts(header, kinds, huge=()):
    """Line soups over one format's words: kinds, indices in and out of
    range, rationals well- and ill-formed, junk and comments.

    `huge` adds counts past 10^6.  A graph header of such a count is no
    error, and its colour map takes that many entries, so only QAP texts,
    whose order is bounded, draw them.
    """
    word = st.sampled_from(
        [header, *kinds, "x", "#", "0", "1", "2", "3", "-1", "7", "+1", "1_0", "٣",
         "100000", "1/2", "-3/4", "0/5", "2.5", "1e3", "1e-10000000", "1/0", "0.0",
         "abc", "1.5.5", "nan", "inf", *huge]
    )
    line = st.one_of(
        st.lists(word, max_size=7).map(" ".join),
        st.tuples(st.sampled_from(kinds), st.lists(word, max_size=6)).map(
            lambda t: " ".join([t[0], *t[1]])
        ),
    )
    count = st.one_of(st.integers(0, 4).map(str), word)
    body = st.lists(line, max_size=8)
    return st.tuples(st.booleans(), count, body).map(
        lambda t: "\n".join(([f"{header} {t[1]}"] if t[0] else []) + t[2])
    )


class TestFormatProperties:
    @given(graphs())
    @example(Graph(2, weights={}))
    @example(Graph(0, colours={}))
    @settings(max_examples=150, deadline=None)
    def test_graph_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(qap_instances())
    @settings(max_examples=150, deadline=None)
    def test_qap_round_trip(self, q):
        assert parse_qap(serialize_qap(q)) == q

    @given(fuzzed_texts("n", ["e", "c"]))
    @example(HUGE_EXPONENT)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_graph_text_raises_only_parse_error(self, text):
        try:
            g = parse_graph(text)
        except ParseError:
            return
        assert parse_graph(serialize_graph(g)) == g

    @given(fuzzed_texts("qap", ["q"], huge=["99999999999999999999"]))
    @example("qap 1\nq 0 0 0 0 1e-10000000")
    @example("qap 99999999999999999999\nq 1 0 0 0 1")
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_qap_text_raises_only_parse_error(self, text):
        try:
            q = parse_qap(text)
        except ParseError:
            return
        assert parse_qap(serialize_qap(q)) == q
