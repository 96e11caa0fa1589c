"""Property-based tests on core cleaning invariants."""

import datetime

from hypothesis import given, settings, strategies as st

from repro.core.vendors import _char_3grams, _UnionFind
from repro.synth.names import abbreviate, tokenize_name

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-!. ", min_size=0, max_size=20
)
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)


def shares_3gram(a, b):
    """Table 2's "longest common substring >= 3" test."""
    return not _char_3grams(a).isdisjoint(_char_3grams(b))


class TestLcsProperties:
    @given(names, names)
    def test_symmetric(self, a, b):
        assert shares_3gram(a, b) == shares_3gram(b, a)

    @given(names)
    def test_self_is_length(self, a):
        assert shares_3gram(a, a) == (len(a) >= 3)

    @given(names, names)
    def test_bounded_by_shorter(self, a, b):
        if min(len(a), len(b)) < 3:
            assert not shares_3gram(a, b)

    @given(words, words)
    def test_concatenation_contains_parts(self, a, b):
        assert shares_3gram(a, a + b) == (len(a) >= 3)


class TestTokenizeProperties:
    @given(names)
    def test_tokens_contain_no_separators(self, name):
        for token in tokenize_name(name):
            assert token
            assert all(c.isalnum() or c == "." for c in token)

    @given(names)
    def test_idempotent_on_joined_tokens(self, name):
        joined = "_".join(tokenize_name(name))
        assert tokenize_name(joined) == tokenize_name(name)

    @given(st.lists(words, min_size=2, max_size=4))
    def test_abbreviation_uses_first_letters(self, parts):
        name = "-".join(parts)
        assert abbreviate(name) == "".join(p[0] for p in parts)


class TestUnionFindProperties:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(words, words), max_size=30))
    def test_union_creates_equivalence(self, pairs):
        groups = _UnionFind()
        for a, b in pairs:
            groups.union(a, b)
        # transitive closure: anything unioned shares a root
        for a, b in pairs:
            assert groups.find(a) == groups.find(b)

    @given(st.lists(st.tuples(words, words), max_size=20))
    def test_find_idempotent(self, pairs):
        groups = _UnionFind()
        for a, b in pairs:
            groups.union(a, b)
        for a, _ in pairs:
            assert groups.find(groups.find(a)) == groups.find(a)


class TestEstimateProperty:
    @given(
        st.dates(datetime.date(2000, 1, 1), datetime.date(2018, 1, 1)),
        st.lists(
            st.dates(datetime.date(1999, 1, 1), datetime.date(2019, 1, 1)),
            max_size=5,
        ),
    )
    def test_estimate_is_min_and_never_later_than_published(
        self, published, scraped
    ):
        estimated = min([*scraped, published])
        assert estimated <= published
        lag = (published - estimated).days
        assert lag >= 0
