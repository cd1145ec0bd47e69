import random
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botdna import encoding
from botdna.encoding import (
    ALPHABETS,
    B3_TYPE,
    B5_CONTENT,
    B9_TEMPORAL,
    POST_KINDS,
    PostRecord,
    UserTimeline,
    encode_b3,
    encode_b5,
    encode_b9,
    encode_user,
    resolve_alphabets,
    to_int64,
)
from botdna.errors import EmptyTimeline


def post(ts=1, kind="plain", urls=0, hashtags=0, mentions=0):
    return PostRecord(ts, kind, urls, hashtags, mentions)


class TestAlphabets:
    def test_symbol_sets(self):
        assert B3_TYPE.symbols == ("A", "C", "T")
        assert B5_CONTENT.symbols == ("X", "U", "H", "M", "N")
        assert B9_TEMPORAL.symbols == ("B", "D", "E", "F", "G", "J", "K", "I", "L")

    def test_pairwise_disjoint(self):
        sets = [set(a.symbols) for a in ALPHABETS.values()]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])

    def test_resolve_rejects_bad_input(self):
        with pytest.raises(ValueError):
            resolve_alphabets([])
        with pytest.raises(ValueError):
            resolve_alphabets(["B3", "B3"])
        with pytest.raises(ValueError):
            resolve_alphabets(["B4"])


class TestEncodeB3:
    def test_kinds(self):
        assert encode_b3(post(kind="plain")) == "A"
        assert encode_b3(post(kind="retweet")) == "C"
        assert encode_b3(post(kind="reply")) == "T"


class TestEncodeB5:
    def test_single_categories(self):
        assert encode_b5(post(urls=1)) == "U"
        assert encode_b5(post(hashtags=1)) == "H"
        assert encode_b5(post(mentions=1)) == "M"
        assert encode_b5(post()) == "N"

    # Truth table for all 8 presence combinations: X iff >=2 categories
    # are present, regardless of the per-category counts.
    TRUTH = {
        (0, 0, 0): "N",
        (1, 0, 0): "U",
        (0, 1, 0): "H",
        (0, 0, 1): "M",
        (1, 1, 0): "X",
        (1, 0, 1): "X",
        (0, 1, 1): "X",
        (1, 1, 1): "X",
    }

    @pytest.mark.parametrize("presence,expected", sorted(TRUTH.items()))
    def test_presence_combinations(self, presence, expected):
        u, h, m = presence
        assert encode_b5(post(urls=u, hashtags=h, mentions=m)) == expected

    def test_counts_do_not_matter(self):
        # 2 URLs + 1 hashtag: two categories -> X. 3 URLs alone: still U.
        assert encode_b5(post(urls=2, hashtags=1)) == "X"
        assert encode_b5(post(urls=3)) == "U"


class TestEncodeB9:
    @pytest.mark.parametrize(
        "delta,expected",
        [
            (0, "B"),
            (1800, "B"),
            (3600, "B"),  # boundary is inclusive
            (3601, "D"),
            (5 * 3600, "D"),
            (7 * 3600, "E"),
            (12 * 3600, "F"),
            (18 * 3600, "G"),
            (21 * 3600, "J"),
            (86400, "J"),
            (172800, "K"),  # 2 days
            (604800, "K"),
            (604801, "I"),
            (30 * 86400, "I"),
            (30 * 86400 + 1, "L"),
            (10**9, "L"),
        ],
    )
    def test_buckets(self, delta, expected):
        assert encode_b9(delta) == expected

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            encode_b9(-1)


class TestEncodeUser:
    def test_mddna_worked_example(self):
        # Three posts encoding to "ACT" under B3 and "HUM" under B5.
        timeline = UserTimeline(
            "u1",
            None,
            [
                post(ts=100, kind="plain", hashtags=1),
                post(ts=200, kind="retweet", urls=1),
                post(ts=300, kind="reply", mentions=1),
            ],
        )
        assert encode_user(timeline, ["B3"]).symbols == "ACT"
        assert encode_user(timeline, ["B5"]).symbols == "HUM"
        assert encode_user(timeline, ["B3", "B5"]).symbols == "AHCUTM"

    def test_single_post_single_alphabet(self):
        timeline = UserTimeline("u1", None, [post(kind="plain")])
        assert encode_user(timeline, ["B3"]).symbols == "A"

    def test_b3_b9_two_posts_two_hours_apart(self):
        # First post gap is 0 -> 'B'; second gap 7200 s in (1h, 5h] -> 'D'.
        timeline = UserTimeline(
            "u1", None, [post(ts=1000, kind="plain"), post(ts=1000 + 7200, kind="reply")]
        )
        assert encode_user(timeline, ["B3", "B9"]).symbols == "ABTD"

    def test_empty_timeline(self):
        with pytest.raises(EmptyTimeline):
            encode_user(UserTimeline("u1", None, []), ["B3"])

    def test_alphabet_order_controls_interleaving(self):
        timeline = UserTimeline(
            "u1", None, [post(ts=100, kind="plain", hashtags=1), post(ts=200, kind="retweet", urls=1)]
        )
        assert encode_user(timeline, ["B3", "B5"]).symbols == "AHCU"
        assert encode_user(timeline, ["B5", "B3"]).symbols == "HAUC"

    def test_posts_resorted_by_timestamp(self):
        shuffled = UserTimeline(
            "u1", None, [post(ts=300, kind="reply"), post(ts=100, kind="plain"), post(ts=200, kind="retweet")]
        )
        assert encode_user(shuffled, ["B3"]).symbols == "ACT"


@st.composite
def timelines(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    timestamps = draw(
        st.lists(st.integers(min_value=1, max_value=10**9), min_size=n, max_size=n, unique=True)
    )
    kinds = draw(st.lists(st.sampled_from(("plain", "retweet", "reply")), min_size=n, max_size=n))
    counts = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=n, max_size=n))
    posts = [PostRecord(t, k, *c) for t, k, c in zip(timestamps, kinds, counts)]
    return UserTimeline("u", None, posts)


ALPHABET_CHOICES = [
    ("B3",),
    ("B5",),
    ("B9",),
    ("B3", "B5"),
    ("B3", "B9"),
    ("B5", "B9"),
    ("B3", "B5", "B9"),
]


class TestEncodingProperties:
    @given(timelines(), st.sampled_from(ALPHABET_CHOICES))
    @settings(max_examples=150)
    def test_length_law(self, timeline, alphabets):
        seq = encode_user(timeline, alphabets)
        assert len(seq.symbols) == len(timeline.posts) * len(alphabets)

    @given(timelines(), st.sampled_from(ALPHABET_CHOICES))
    @settings(max_examples=150)
    def test_alphabet_closure_and_positions(self, timeline, alphabets):
        seq = encode_user(timeline, alphabets)
        symbol_sets = [set(ALPHABETS[a].symbols) for a in alphabets]
        n = len(alphabets)
        for i, ch in enumerate(seq.symbols):
            owners = [ch in s for s in symbol_sets]
            assert sum(owners) == 1  # disjointness: exactly one owner
            assert owners[i % n]  # position i*N+j holds alphabet j's symbol

    @given(timelines(), st.sampled_from(ALPHABET_CHOICES), st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_shuffle_invariance(self, timeline, alphabets, shuffle_seed):
        shuffled_posts = list(timeline.posts)
        random.Random(shuffle_seed).shuffle(shuffled_posts)
        shuffled = UserTimeline(timeline.user_id, timeline.label, shuffled_posts)
        assert encode_user(shuffled, alphabets) == encode_user(timeline, alphabets)

    @given(timelines())
    @settings(max_examples=50)
    def test_determinism(self, timeline):
        a = encode_user(timeline, ("B3", "B5", "B9"))
        b = encode_user(timeline, ("B3", "B5", "B9"))
        assert a == b


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
B9_BOUNDS = [3600, 5 * 3600, 10 * 3600, 15 * 3600, 20 * 3600, 86400, 7 * 86400, 30 * 86400]
EDGE_GAPS = [0] + [b + d for b in B9_BOUNDS for d in (-1, 0, 1)]


def scalar_encoding(posts, alphabets):
    """The per-post specification: encode_b3/b5/b9 over the stably sorted posts, interleaved."""
    ordered = sorted(posts, key=lambda p: p.timestamp)
    out, prev = [], ordered[0].timestamp
    for p in ordered:
        symbols = {"B3": encode_b3(p), "B5": encode_b5(p), "B9": encode_b9(p.timestamp - prev)}
        out.extend(symbols[a] for a in alphabets)
        prev = p.timestamp
    return "".join(out)


@st.composite
def timestamp_lists(draw, n):
    """Timestamps with gaps at every B9 bound and one either side, repeats, and int64's ends."""
    if draw(st.booleans()):
        ends = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX])
        values = st.one_of(ends, st.integers(INT64_MIN, INT64_MAX))
        return draw(st.lists(values, min_size=n, max_size=n))
    start = draw(st.integers(-(10**12), 10**12))
    gaps = draw(st.lists(st.one_of(st.sampled_from(EDGE_GAPS), st.integers(0, 10**8)),
                         min_size=n, max_size=n))
    stamps = np.cumsum([start] + gaps[1:]).tolist()
    return draw(st.permutations(stamps))  # unsorted input


@st.composite
def oracle_timelines(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    stamps = draw(timestamp_lists(n))
    kinds = draw(st.lists(st.sampled_from(POST_KINDS), min_size=n, max_size=n))
    count = st.one_of(st.integers(-3, 3), st.sampled_from([INT64_MIN, INT64_MAX]))
    counts = draw(st.lists(st.tuples(count, count, count), min_size=n, max_size=n))
    return [PostRecord(t, k, *c) for t, k, c in zip(stamps, kinds, counts)]


alphabet_orders = st.lists(st.sampled_from(["B3", "B5", "B9"]), min_size=1, max_size=3, unique=True)


class TestColumnarEncoding:
    """encode_user looks symbols up over columns; encode_b3/b5/b9 are its oracle."""

    @given(oracle_timelines(), alphabet_orders)
    @settings(max_examples=200)
    def test_equals_scalar_specification(self, posts, alphabets):
        seq = encode_user(UserTimeline("u", None, posts), alphabets)
        assert seq.symbols == scalar_encoding(posts, alphabets)
        assert seq.alphabets == tuple(alphabets)

    def test_calls_no_scalar_encoder(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("encode_user called a per-post encoder")

        timeline = UserTimeline("u", None, [post(ts=5, kind="reply", urls=1), post(ts=9000)])
        for name in ("encode_b3", "encode_b5", "encode_b9"):
            monkeypatch.setattr(encoding, name, refuse)
        assert encode_user(timeline, ["B3", "B5", "B9"]).symbols == "TUBAND"

    def test_gap_across_all_of_int64(self):
        # int64 subtraction would wrap to a negative gap here.
        posts = [post(ts=INT64_MIN), post(ts=-(2**62) - 5), post(ts=2**62 + 5), post(ts=INT64_MAX)]
        assert encode_user(UserTimeline("u", None, posts), ["B9"]).symbols == "BLLL"


class TestUserTimeline:
    @given(oracle_timelines())
    @settings(max_examples=100)
    def test_posts_round_trip_in_stable_timestamp_order(self, posts):
        timeline = UserTimeline("u", "bot", posts)
        assert timeline.posts == sorted(posts, key=lambda p: p.timestamp)
        assert len(timeline) == len(posts)
        assert all(type(v) is int for p in timeline.posts for v in (p[0], *p[2:]))

    def test_columns(self):
        timeline = UserTimeline("u", None, [post(ts=300, kind="reply", mentions=2), post(ts=100, urls=1)])
        assert timeline.timestamps.tolist() == [100, 300]
        assert timeline.kinds.tolist() == [0, 2]
        assert (timeline.urls.tolist(), timeline.hashtags.tolist(), timeline.mentions.tolist()) == (
            [1, 0], [0, 0], [0, 2])
        assert [c.dtype for c in (timeline.timestamps, timeline.kinds, timeline.urls)] == [
            np.int64, np.uint8, np.int64]

    def test_from_columns_equals_records(self):
        posts = [post(ts=300, kind="reply", mentions=2), post(ts=100, urls=1), post(ts=100, kind="retweet")]
        columns = [[300, 100, 100], [2, 0, 1], [0, 1, 0], [0, 0, 0], [2, 0, 0]]
        assert UserTimeline.from_columns("u", "bot", *columns) == UserTimeline("u", "bot", posts)
        kinds = np.array(columns[1], dtype=np.uint8)
        timeline = UserTimeline.from_columns("u", "bot", columns[0], kinds, *columns[2:])
        assert timeline == UserTimeline("u", "bot", posts)
        assert kinds.flags.writeable  # the caller's array is copied, not frozen

    @pytest.mark.parametrize("codes", [[0, 3], [-1, 0], [0], np.array([0, 3], dtype=np.uint8)],
                             ids=["code-3", "code-minus-1", "too-few", "u8-code-3"])
    def test_from_columns_rejects_bad_kind_codes(self, codes):
        with pytest.raises(ValueError):
            UserTimeline.from_columns("u", None, [1, 2], codes, [0, 0], [0, 0], [0, 0])

    def test_replace_and_first(self):
        timeline = UserTimeline("u", None, [post(ts=t) for t in (3, 1, 2)])
        assert replace(timeline, posts=timeline.posts[:2]).timestamps.tolist() == [1, 2]
        assert timeline.first(2) == UserTimeline("u", None, [post(ts=1), post(ts=2)])
        assert timeline.first(5) == timeline

    @pytest.mark.parametrize(
        "bad",
        [post(ts=0.5), post(ts=2**63), post(ts=-(2**63) - 1), post(ts=1e300), post(ts=float("nan")),
         post(ts=float("inf")), post(ts=None), post(ts="1.5"), post(urls=0.5), post(mentions=2**64),
         post(kind="teleport"), post(kind=None), post(kind=["plain"]), post(ts=True), post(urls=True),
         post(hashtags=False), post(mentions=np.True_)],
        ids=["half", "2**63", "below-int64", "1e300", "nan", "inf", "none", "fraction-string",
             "half-url", "huge-mentions", "unknown-kind", "none-kind", "unhashable-kind", "bool-ts",
             "bool-urls", "bool-hashtags", "numpy-bool-mentions"],
    )
    def test_bad_post_raises_at_construction(self, bad):
        with pytest.raises(ValueError):
            UserTimeline("u", None, [post(ts=1), bad])

    @pytest.mark.parametrize("column", range(5))
    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "numpy-True"])
    def test_from_columns_refuses_a_bool(self, column, flag):
        # A bool compares equal to 0 or 1, but it is no time, kind or count.
        columns = [[100, 200], [0, 1], [0, 1], [0, 1], [0, 1]]
        columns[column][0] = flag
        with pytest.raises(ValueError, match="not an integer"):
            UserTimeline.from_columns("u", None, *columns)

    @pytest.mark.parametrize("timestamps", [[200, True], [True, 200]], ids=["bool-last", "bool-first"])
    def test_from_columns_refuses_a_bool_beside_a_later_time(self, timestamps):
        # The bool packs as 1, the column's least value, so it is still screened for.
        with pytest.raises(ValueError, match="not an integer"):
            UserTimeline.from_columns("u", None, timestamps, [0, 1], [0, 0], [0, 0], [0, 0])

    def test_integral_values_are_kept_exactly(self):
        posts = [post(ts=100.0), post(ts="200"), post(ts=np.int32(300), urls=1.0)]
        timeline = UserTimeline("u", None, posts)
        assert timeline.posts == [post(ts=100), post(ts=200), post(ts=300, urls=1)]


def narrowest(values):
    """The type the column builder must store ``values`` in: the first that holds them all."""
    if all(0 <= v < 2**8 for v in values):
        return np.uint8
    if all(0 <= v < 2**32 for v in values):
        return np.uint32
    return np.int64


FLAGS = [True, False, np.True_, np.False_]


def as_numpy_int(value):
    return np.int64(value) if INT64_MIN <= value <= INT64_MAX else value


@st.composite
def column_inputs(draw):
    """A post column's values: bools among zeros and ones, or integers near each type's edges."""
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([0, 1]), max_size=12))
        for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=2)):
            values.insert(draw(st.integers(0, len(values))), flag)
    else:
        # The list's range: its ends sit on, and one past, the limits of uint8, uint32 and int64.
        low = draw(st.sampled_from([0, -1, INT64_MIN, INT64_MIN - 1]))
        high = draw(st.sampled_from([1, 255, 256, 2**32 - 1, 2**32, INT64_MAX, INT64_MAX + 1]))
        ints = st.one_of(st.sampled_from([low, high]), st.integers(low, high), st.integers(0, 300))
        # Integral floats, integer strings and Decimals are taken exactly; a float may round.
        forms = st.sampled_from([int, float, str, Decimal, as_numpy_int])
        value = st.one_of(st.builds(lambda form, v: form(v), forms, ints),
                          st.sampled_from([0.5, "1.5", Decimal("0.5"), None, float("nan"), float("inf"), *FLAGS]))
        values = draw(st.lists(value, max_size=12))
    return draw(st.sampled_from([list, tuple]))(values)


class TestIntColumn:
    """The post column builder against ``to_int64`` applied value by value."""

    def test_equals_to_int64_value_by_value(self):
        seen = set()

        @given(values=column_inputs())
        @example(values=[])
        @example(values=[0, 255])
        @example(values=[256])
        @example(values=(0, 2**32 - 1))
        @example(values=[2**32])
        @example(values=[-1, 5])
        @example(values=[0, 0.5])
        @example(values=[INT64_MIN, INT64_MAX])
        @example(values=["255", 3.0, Decimal(7)])
        @example(values=[np.int64(2**32 - 1)])
        @example(values=[0, 1, np.False_])
        @settings(max_examples=600)
        def check(values):
            try:
                expected = [to_int64(v) for v in values]
            except ValueError:
                with pytest.raises(ValueError):
                    encoding._int_column(values)
                seen.add("refused a bool" if any(isinstance(v, (bool, np.bool_)) for v in values) else "refused")
                return
            column = encoding._int_column(values)
            assert column.tolist() == expected
            assert column.dtype == narrowest(expected)
            assert not column.flags.writeable
            seen.add(column.dtype.name)

        check()
        assert seen == {"uint8", "uint32", "int64", "refused", "refused a bool"}
