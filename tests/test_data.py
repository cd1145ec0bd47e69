import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botdna.data import (
    Dataset,
    SplitSpec,
    _stratified_quotas,
    cap_tweets,
    filter_min_length,
    load,
    read_id_list,
    split,
)
from botdna.encoding import POST_KINDS, PostRecord, UserTimeline, encode_user
from botdna.errors import FormatError, IntegrityError, SequenceTooShort, UnknownUser
from botdna.minhash import shingle

from conftest import corpus_to_jsonl, synthetic_corpus


def write_jsonl(path, docs):
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    return path


def user_doc(user_id, label="bot", tweets=None):
    return {
        "user_id": user_id,
        "label": label,
        "tweets": tweets
        or [{"ts": 100, "kind": "plain", "urls": 0, "hashtags": 1, "mentions": 0}],
    }


class TestLoadJsonl:
    def test_single_user_round_trip(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [user_doc("u1")])
        ds = load(path)
        assert len(ds) == 1
        user = ds.users[0]
        assert user.user_id == "u1"
        assert user.label == "bot"
        assert user.posts == [PostRecord(100, "plain", 0, 1, 0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.touch()
        with pytest.raises(FormatError):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load(tmp_path / "nope.jsonl")

    def test_out_of_order_timestamps_resorted(self, tmp_path):
        tweets = [
            {"ts": 300, "kind": "reply", "urls": 0, "hashtags": 0, "mentions": 0},
            {"ts": 100, "kind": "plain", "urls": 0, "hashtags": 0, "mentions": 0},
            {"ts": 200, "kind": "retweet", "urls": 0, "hashtags": 0, "mentions": 0},
        ]
        path = write_jsonl(tmp_path / "d.jsonl", [user_doc("u1", tweets=tweets)])
        ds = load(path)
        assert [p.timestamp for p in ds.users[0].posts] == [100, 200, 300]

    def test_null_label_means_unknown(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [user_doc("u1", label=None)])
        assert load(path).users[0].label is None

    def test_malformed_below_threshold_counted(self, tmp_path):
        docs = [user_doc(f"u{i}") for i in range(200)]
        path = tmp_path / "d.jsonl"
        lines = [json.dumps(d) for d in docs] + ["{not json"]
        path.write_text("\n".join(lines) + "\n")
        ds = load(path)
        assert len(ds) == 200
        assert ds.malformed_count == 1

    def test_too_many_malformed_raises_integrity(self, tmp_path):
        lines = [json.dumps(user_doc("u1"))] + ["{bad"] * 5
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError):
            load(path)

    def test_bad_tweets_counted_per_record(self, tmp_path):
        tweets = [
            {"ts": 100, "kind": "plain", "urls": 0, "hashtags": 0, "mentions": 0},
            {"ts": -5, "kind": "plain", "urls": 0, "hashtags": 0, "mentions": 0},
            {"ts": 200, "kind": "teleport", "urls": 0, "hashtags": 0, "mentions": 0},
        ]
        docs = [user_doc("u1", tweets=tweets)] + [user_doc(f"u{i}") for i in range(2, 400)]
        ds = load(write_jsonl(tmp_path / "d.jsonl", docs))
        assert ds.malformed_count == 2
        assert len(ds.by_id()["u1"].posts) == 1

    @pytest.mark.parametrize(
        "odd",
        ['"user_id": "odd", "tweets": null', '"user_id": "odd", "tweets": 5',
         '"user_id": "odd", "tweets": [{"ts": 100, "kind": "plain"}, {"ts": 1e400, "kind": "plain"}]',
         '"user_id": "\\ud800", "tweets": [{"ts": 100, "kind": "plain"}]',
         '"user_id": "odd", "tweets": "abcdefgh"',
         '"user_id": "odd", "tweets": {"ts": 100, "kind": "plain"}'],
        ids=["null-tweets", "number-tweets", "overflowing-ts", "lone-surrogate-id", "string-tweets",
             "object-tweets"],
    )
    def test_odd_record_is_malformed(self, tmp_path, odd):
        lines = [json.dumps(user_doc(f"u{i}")) for i in range(200)] + ["{%s}" % odd]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        ds = load(path)
        assert ds.malformed_count == 1
        assert len(ds) == 200 + ("1e400" in odd)  # that user keeps its good tweet

    def test_line_nested_past_the_parser_depth_is_one_malformed_record(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on 100,000 "[".
        lines = [json.dumps(user_doc(f"u{i}")) for i in range(60)]
        lines.insert(30, "[" * 100_000)
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        ds = load(path)  # 1 of 121 records: 60 users, their 60 tweets and the bad line
        assert len(ds) == 60
        assert ds.malformed_count == 1

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "odd",
        [b'{"user_id": "u\xff", "tweets": [{"ts": 100, "kind": "plain"}]}',
         b'{"user_id": "odd", "note": "\xff", "tweets": [{"ts": 100, "kind": "plain"}]}',
         b'{"user_id": "odd", "tweets": [{"ts": 100, "kind": "pl\xc3ain"}]}'],
        ids=["id", "unread-field", "kind"],
    )
    def test_line_that_is_not_utf8_is_one_malformed_record(self, tmp_path, odd, newline):
        # Lines end where text mode ends them, and an invalid byte anywhere
        # in a line makes that line one malformed record.
        lines = [json.dumps(user_doc(f"u{i}", tweets=[{"ts": 100, "kind": "plain"}] * 2)).encode()
                 for i in range(300)]
        lines.insert(150, odd)
        path = tmp_path / "d.jsonl"
        path.write_bytes(newline.join(lines) + newline)
        ds = load(path)
        assert ds.malformed_count == 1
        assert [u.user_id for u in ds.users] == [f"u{i}" for i in range(300)]

    def test_tweets_must_be_an_array_for_the_one_percent_rule(self, tmp_path):
        # 150 good users and one whose tweets are a string: 1 of 301 records, not 9.
        lines = [json.dumps(user_doc(f"u{i}")) for i in range(150)]
        lines.append('{"user_id": "odd", "tweets": "abcdefgh"}')
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert load(path).malformed_count == 1

    @pytest.mark.parametrize(
        "fields",
        [{"ts": 1e300}, {"ts": 100.5}, {"ts": "1.5e3"}, {"ts": 2**63}, {"ts": 0}, {"ts": True, "urls": -1},
         {"urls": 0.5}, {"mentions": 2**63}, {"kind": "teleport"}, {"kind": None}, {"kind": ["plain"]},
         {"hashtags": None}, {"ts": True}, {"urls": True}, {"hashtags": True}, {"mentions": False},
         {"kind": True}],
        ids=["ts-1e300", "ts-fraction", "ts-fraction-string", "ts-past-int64", "ts-zero",
             "negative-url", "url-fraction", "mentions-past-int64", "unknown-kind", "null-kind",
             "list-kind", "null-hashtags", "ts-true", "urls-true", "hashtags-true", "mentions-false",
             "kind-true"],
    )
    def test_odd_tweet_value_is_one_malformed_record(self, tmp_path, fields):
        odd = {"ts": 200, "kind": "plain", **fields}
        tweets = [{"ts": 100, "kind": "reply"}, odd, {"ts": 300, "kind": "retweet", "urls": 2}]
        docs = [user_doc(f"u{i}") for i in range(200)] + [user_doc("odd", tweets=tweets)]
        ds = load(write_jsonl(tmp_path / "d.jsonl", docs))
        assert ds.malformed_count == 1
        assert ds.by_id()["odd"].posts == [PostRecord(100, "reply"), PostRecord(300, "retweet", 2, 0, 0)]

    def test_integral_values_load_exactly(self, tmp_path):
        tweets = [{"ts": 300.0, "kind": "plain", "urls": "2"}, {"ts": "100", "kind": "reply", "urls": 1.0},
                  {"ts": 2**63 - 1, "kind": "retweet"}]
        ds = load(write_jsonl(tmp_path / "d.jsonl", [user_doc("u1", tweets=tweets)]))
        assert ds.malformed_count == 0
        assert ds.users[0].posts == [PostRecord(100, "reply", 1, 0, 0), PostRecord(300, "plain", 2, 0, 0),
                                     PostRecord(2**63 - 1, "retweet")]

    def test_duplicate_user_id_is_malformed(self, tmp_path):
        docs = [user_doc(f"u{i}") for i in range(300)] + [user_doc("u0")]
        ds = load(write_jsonl(tmp_path / "d.jsonl", docs))
        assert len(ds) == 300
        assert ds.malformed_count == 1

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("complete garbage\nmore garbage\n")
        with pytest.raises(FormatError):
            load(path)

    def test_unknown_format(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [user_doc("u1")])
        with pytest.raises(ValueError):
            load(path, format="parquet")


class TestLoadCsv:
    HEADER = "user_id,label,ts,kind,urls,hashtags,mentions"

    def test_rows_grouped_by_user(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            f"{self.HEADER}\n"
            "u1,bot,200,retweet,0,0,0\n"
            "u2,human,50,plain,1,0,0\n"
            "u1,bot,100,plain,0,0,0\n"
        )
        ds = load(path, format="csv")
        assert len(ds) == 2
        u1 = ds.by_id()["u1"]
        assert [p.timestamp for p in u1.posts] == [100, 200]
        assert ds.by_id()["u2"].label == "human"

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,ts\nu1,100\n")
        with pytest.raises(FormatError):
            load(path, format="csv")

    def test_field_past_the_parser_limit_is_one_malformed_row(self, tmp_path):
        # The csv module rejects a field over 131,072 characters; the rows after it still load.
        rows = [f"u{i % 60},bot,{100 + i},plain,0,0,0" for i in range(600)]
        rows.insert(300, "u0,bot,5," + "x" * 200_000 + ",0,0,0")
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + "\n" + "\n".join(rows) + "\n")
        ds = load(path, format="csv")
        assert ds.malformed_count == 1
        assert len(ds) == 60
        assert sum(len(u) for u in ds.users) == 600

    @pytest.mark.parametrize("field", ["ts", "urls", "hashtags", "mentions"])
    @pytest.mark.parametrize("flag", ["True", "true", "False"])
    def test_bool_text_is_one_malformed_row(self, tmp_path, field, flag):
        rows = [f"u{i % 60},bot,{100 + i},plain,0,1,0" for i in range(600)]
        odd = dict(user_id="u0", label="bot", ts="5", kind="plain", urls="0", hashtags="0", mentions="0")
        rows.insert(300, ",".join({**odd, field: flag}.values()))
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + "\n" + "\n".join(rows) + "\n")
        ds = load(path, format="csv")
        assert ds.malformed_count == 1
        assert sum(len(u) for u in ds.users) == 600

    def test_header_past_the_parser_limit_is_format_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + "," + "x" * 200_000 + "\nu1,bot,100,plain,0,0,0,\n")
        with pytest.raises(FormatError, match="unreadable CSV header"):
            load(path, format="csv")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "odd",
        [b"u\xff,bot,5,plain,0,0,0", b"u0,bot,5,pl\xc3ain,0,0,0", b'u0,bot,5,plain,0,0,0,"x\n\xff"'],
        ids=["id", "kind", "quoted-line-of-an-unread-field"],
    )
    def test_row_that_is_not_utf8_is_one_malformed_record(self, tmp_path, odd, newline):
        rows = [f"u{i % 60},bot,{100 + i},plain,0,0,0".encode() for i in range(600)]
        rows.insert(300, odd)
        path = tmp_path / "d.csv"
        path.write_bytes(newline.join([self.HEADER.encode(), *rows]) + newline)
        ds = load(path, format="csv")
        assert ds.malformed_count == 1
        assert len(ds) == 60
        assert sum(len(u) for u in ds.users) == 600

    def test_header_that_is_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(self.HEADER.encode() + b",\xff\nu1,bot,100,plain,0,0,0,x\n")
        with pytest.raises(FormatError, match="header is not UTF-8"):
            load(path, format="csv")

    def test_conflicting_labels_malformed(self, tmp_path):
        rows = [f"u1,bot,{100 + i},plain,0,0,0" for i in range(300)]
        rows.append("u1,human,999,plain,0,0,0")
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + "\n" + "\n".join(rows) + "\n")
        ds = load(path, format="csv")
        assert ds.malformed_count == 1
        assert ds.by_id()["u1"].label == "bot"


def corpus_dataset(n=20, posts=40, seed=3):
    return Dataset("synthetic", synthetic_corpus(n, posts, seed=seed))


class TestFilterMinLength:
    def one_post_user(self):
        return UserTimeline("u1", "bot", [PostRecord(1, "plain")])

    def test_single_post_below_k_removed(self):
        ds = Dataset("d", [self.one_post_user()])
        filtered, removed = filter_min_length(ds, k=2, alphabets=("B3",))
        assert removed == 1 and len(filtered) == 0

    def test_two_alphabets_double_length(self):
        ds = Dataset("d", [self.one_post_user()])
        filtered, removed = filter_min_length(ds, k=2, alphabets=("B3", "B5"))
        assert removed == 0 and len(filtered) == 1

    def test_long_timelines_untouched(self):
        ds = corpus_dataset(posts=200)
        filtered, removed = filter_min_length(ds, k=15, alphabets=("B3",))
        assert removed == 0 and len(filtered) == len(ds)

    def test_filter_soundness_for_shingling(self):
        users = [
            UserTimeline(f"u{n}", "bot", [PostRecord(i + 1, "plain") for i in range(n)])
            for n in range(1, 12)
        ]
        k = 6
        filtered, _ = filter_min_length(Dataset("d", users), k, ("B3",))
        for user in filtered.users:
            shingle(encode_user(user, ("B3",)), k)  # must not raise
        dropped = set(u.user_id for u in users) - set(u.user_id for u in filtered.users)
        for user in users:
            if user.user_id in dropped:
                with pytest.raises(SequenceTooShort):
                    shingle(encode_user(user, ("B3",)), k)


class TestCapTweets:
    def test_truncates_to_first_by_timestamp(self):
        posts = [PostRecord(ts, "plain") for ts in range(1, 51)]
        ds = Dataset("d", [UserTimeline("u", "bot", posts)])
        capped = cap_tweets(ds, 20)
        assert [p.timestamp for p in capped.users[0].posts] == list(range(1, 21))

    def test_short_timeline_unchanged(self):
        posts = [PostRecord(ts, "plain") for ts in range(1, 11)]
        ds = Dataset("d", [UserTimeline("u", "bot", posts)])
        assert cap_tweets(ds, 20).users[0].posts == posts

    def test_idempotent(self):
        ds = corpus_dataset(posts=60)
        once = cap_tweets(ds, 25)
        twice = cap_tweets(once, 25)
        assert [u.posts for u in once.users] == [u.posts for u in twice.users]

    def test_encode_length_composition(self):
        ds = corpus_dataset(posts=60)
        capped = cap_tweets(ds, 25)
        for before, after in zip(ds.users, capped.users):
            seq = encode_user(after, ("B3", "B9"))
            assert len(seq.symbols) == min(len(before.posts), 25) * 2


class TestSplit:
    def test_fraction_cardinality(self):
        ds = corpus_dataset(n=10)
        gt, test = split(ds, SplitSpec(gt_fraction=0.7, seed=5))
        assert (len(gt), len(test)) == (7, 3)
        assert not set(u.user_id for u in gt.users) & set(u.user_id for u in test.users)
        assert len(gt) + len(test) == len(ds)

    def test_same_seed_same_split(self):
        ds = corpus_dataset(n=30)
        first = split(ds, SplitSpec(gt_fraction=0.7, seed=11))
        second = split(ds, SplitSpec(gt_fraction=0.7, seed=11))
        assert [u.user_id for u in first[0].users] == [u.user_id for u in second[0].users]
        assert [u.user_id for u in first[1].users] == [u.user_id for u in second[1].users]

    def test_different_seed_different_split(self):
        ds = corpus_dataset(n=30)
        a = split(ds, SplitSpec(gt_fraction=0.7, seed=1))
        b = split(ds, SplitSpec(gt_fraction=0.7, seed=2))
        assert [u.user_id for u in a[0].users] != [u.user_id for u in b[0].users]

    def test_stratified_small_fraction(self):
        ds = corpus_dataset(n=100)  # 50 bots + 50 humans
        gt, _ = split(ds, SplitSpec(gt_fraction=0.1, seed=3))
        labels = [u.label for u in gt.users]
        assert labels.count("bot") == 5
        assert labels.count("human") == 5

    def test_unlabeled_users_go_to_test(self):
        users = synthetic_corpus(10, 20, seed=1)
        users.append(UserTimeline("mystery", None, [PostRecord(1, "plain")]))
        gt, test = split(Dataset("d", users), SplitSpec(gt_fraction=0.5, seed=2))
        assert all(u.label in ("human", "bot") for u in gt.users)
        assert "mystery" in {u.user_id for u in test.users}

    def test_nested_prefix_across_fractions(self):
        ds = corpus_dataset(n=40)
        gt1, _ = split(ds, SplitSpec(gt_fraction=0.1, seed=9))
        gt3, _ = split(ds, SplitSpec(gt_fraction=0.3, seed=9))
        assert {u.user_id for u in gt1.users} <= {u.user_id for u in gt3.users}

    def test_fixed_lists(self):
        ds = corpus_dataset(n=10)
        ids = [u.user_id for u in ds.users]
        spec = SplitSpec(mode="fixed_lists", gt_ids=tuple(ids[:6]), test_ids=tuple(ids[6:]))
        gt, test = split(ds, spec)
        assert [u.user_id for u in gt.users] == ids[:6]
        assert [u.user_id for u in test.users] == ids[6:]

    def test_fixed_lists_unknown_id(self):
        ds = corpus_dataset(n=4)
        spec = SplitSpec(mode="fixed_lists", gt_ids=("ghost",), test_ids=())
        with pytest.raises(UnknownUser) as err:
            split(ds, spec)
        message = str(err.value)
        assert "'ghost'" in message
        assert "not among the dataset's users after the min-length filter" in message
        assert "absent" in message and "too short" in message

    def test_fixed_lists_overlap_rejected(self):
        # Refused when the spec is made, before any dataset is split.
        uid = corpus_dataset(n=4).users[0].user_id
        with pytest.raises(ValueError, match=re.escape(f"across gt_ids and test_ids: {[uid]}")):
            SplitSpec(mode="fixed_lists", gt_ids=(uid,), test_ids=(uid,))

    # case -> (gt_ids, test_ids, the ids the refusal names)
    REPEATED_IDS = {
        "repeated in gt": (("a", "b", "a"), ("c",), ["a"]),
        "three times in test": (("a",), ("b", "c", "b", "b"), ["b"]),
        "in both": (("a", "b"), ("c", "b"), ["b"]),
        "each way": (("a", "a", "b"), ("b", "c", "c"), ["a", "b", "c"]),
        "the first five": (tuple("gfedcba") * 2, (), list("abcde")),
    }

    @pytest.mark.parametrize("case", list(REPEATED_IDS))
    def test_fixed_lists_refuse_an_id_twice(self, case):
        gt_ids, test_ids, named = self.REPEATED_IDS[case]
        message = f"ids repeated within or across gt_ids and test_ids: {named}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplitSpec(mode="fixed_lists", gt_ids=gt_ids, test_ids=test_ids)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplitSpec(mode="fixed_lists", gt_ids=list(gt_ids), test_ids=list(test_ids))

    def test_fixed_lists_are_stored_as_tuples(self):
        ds = corpus_dataset(n=10)
        ids = [u.user_id for u in ds.users]
        spec = SplitSpec(mode="fixed_lists", gt_ids=ids[:6], test_ids=iter(ids[6:]))
        assert spec.gt_ids == tuple(ids[:6]) and spec.test_ids == tuple(ids[6:])
        assert {spec: 1}[SplitSpec(mode="fixed_lists", gt_ids=tuple(ids[:6]), test_ids=ids[6:])] == 1
        gt, test = split(ds, spec)
        assert [u.user_id for u in gt.users] == ids[:6]
        assert [u.user_id for u in test.users] == ids[6:]

    def test_bad_fraction(self):
        ds = corpus_dataset(n=4)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(gt_fraction=0.0))
        with pytest.raises(ValueError):
            split(ds, SplitSpec(gt_fraction=1.0))


def top_up_quotas(sizes: dict[str, int], fraction: float) -> dict[str, int]:
    """Largest-remainder top-up by a plain loop: the oracle for ``_stratified_quotas``."""
    total_target = round(fraction * sum(sizes.values()))
    quotas = {label: int(fraction * n) for label, n in sizes.items()}
    remainders = sorted(
        sizes, key=lambda label: (-(fraction * sizes[label] - quotas[label]), label)
    )
    i = 0
    while sum(quotas.values()) < total_target and i < len(remainders):
        label = remainders[i % len(remainders)]
        if quotas[label] < sizes[label]:
            quotas[label] += 1
        i += 1
    return quotas


@given(st.dictionaries(st.sampled_from(["bot", "human", "other"]), st.integers(0, 59), min_size=1),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=500)
def test_stratified_quotas_equal_the_top_up_loop(sizes, fraction):
    quotas = _stratified_quotas(sizes, fraction)
    assert quotas == top_up_quotas(sizes, fraction)
    assert sum(quotas.values()) == round(fraction * sum(sizes.values()))
    assert all(0 <= quotas[label] <= size for label, size in sizes.items())


class TestReadIdList:
    def test_reads_lines(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("u1\nu2\n\n u3 \n")
        assert read_id_list(path) == ("u1", "u2", "u3")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_id_list(tmp_path / "nope.txt")

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_bytes(b"u1\r\n\xff\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: line 2 is not UTF-8"):
            read_id_list(path)


@st.composite
def record_corpora(draw):
    """Users of PostRecords with repeated, unsorted and extreme timestamps and entity counts.

    Timestamps and counts reach past the limits of uint8 and uint32, so a
    user's columns are stored in each of the three types.
    """
    stamp = st.one_of(st.integers(1, 40), st.sampled_from([255, 256, 2**32 - 1, 2**32, 2**62, 2**63 - 1]))
    count = st.one_of(st.integers(0, 3), st.sampled_from([255, 256, 2**32 - 1, 2**32]))
    post = st.builds(PostRecord, stamp, st.sampled_from(POST_KINDS), *[count] * 3)
    n_users = draw(st.integers(1, 5))
    labels = st.sampled_from(["bot", "human", None])
    return [UserTimeline(f"u{i}", draw(labels), draw(st.lists(post, min_size=1, max_size=12)))
            for i in range(n_users)]


STORED_COLUMNS = ("_timestamps", "kinds", "_urls", "_hashtags", "_mentions")


def assert_same_columns(loaded, built):
    """Equal stored columns, types included, each read as a read-only int64 array, shared by ``first``."""
    assert (loaded.user_id, loaded.label) == (built.user_id, built.label)
    for name in STORED_COLUMNS:
        ours, theirs = getattr(loaded, name), getattr(built, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    for timeline in (loaded, built):
        for name in ("timestamps", "urls", "hashtags", "mentions"):
            column = getattr(timeline, name)
            assert column.dtype == np.int64 and not column.flags.writeable, name
            assert column.tolist() == getattr(timeline, f"_{name}").tolist(), name
        head = timeline.first(len(timeline) // 2 + 1)
        for name in STORED_COLUMNS:
            assert np.shares_memory(getattr(head, name), getattr(timeline, name)), name


class TestColumnarLoad:
    """Both loaders fill the timeline columns as PostRecords given to UserTimeline would."""

    def test_jsonl_and_csv_equal_records(self, tmp_path_factory):
        stored = set()

        @given(users=record_corpora())
        @example(users=[UserTimeline(f"u{i}", None, [PostRecord(v, "plain", v)]) for i, v in enumerate((1, 256, 2**32))])
        @settings(max_examples=60, deadline=None)
        def check(users):
            self.check_loaders_equal_records(users, tmp_path_factory.mktemp("corpus"))
            stored.update(f"{name} {getattr(u, name).dtype}" for u in users for name in ("_timestamps", "_urls"))

        check()
        assert stored == {f"{name} {dtype}" for name in ("_timestamps", "_urls")
                          for dtype in ("uint8", "uint32", "int64")}

    @staticmethod
    def check_loaders_equal_records(users, folder):
        jsonl = load(corpus_to_jsonl(users, folder / "d.jsonl"))
        rows = [(u, p) for u in users for p in u.posts]
        rows = rows[1::2] + rows[::2]  # users' rows interleaved, timestamps out of order
        lines = [TestLoadCsv.HEADER] + [
            f"{u.user_id},{u.label or ''},{p.timestamp},{p.kind},{p.url_count},{p.hashtag_count},"
            f"{p.mention_count}" for u, p in rows
        ]
        (folder / "d.csv").write_text("\n".join(lines) + "\n")
        csv_ds = load(folder / "d.csv", format="csv")
        # Records built into a timeline are sorted by timestamp, ties in input order.
        order = {u.user_id: [] for u, _ in rows}
        for u, p in rows:
            order[u.user_id].append(p)
        by_id = {u.user_id: u for u in users}
        for loaded, built in zip(jsonl.users, users):
            assert_same_columns(loaded, built)
        assert [u.user_id for u in csv_ds.users] == list(order)
        for loaded in csv_ds.users:
            uid = loaded.user_id
            assert_same_columns(loaded, UserTimeline(uid, by_id[uid].label, order[uid]))
        assert jsonl.malformed_count == csv_ds.malformed_count == 0

    @pytest.mark.parametrize(
        "row",
        ["u1,bot,1.5,plain,0,0,0", "u1,bot,9223372036854775808,plain,0,0,0", "u1,bot,100,plain,0.5,0,0",
         "u1,bot,100,teleport,0,0,0", "u1,bot,-3,plain,0,0,0", "u1,bot,100,plain,0,-1,0",
         "u1,bot,100,plain,0,0,9223372036854775808"],
        ids=["ts-fraction", "ts-past-int64", "url-fraction", "unknown-kind", "negative-ts",
             "negative-hashtags", "mentions-past-int64"],
    )
    def test_odd_csv_row_is_one_malformed_record(self, tmp_path, row):
        rows = [f"u{i},bot,{100 + i},plain,0,0,0" for i in range(200)] + [row]
        path = tmp_path / "d.csv"
        path.write_text(TestLoadCsv.HEADER + "\n" + "\n".join(rows) + "\n")
        ds = load(path, format="csv")
        assert ds.malformed_count == 1
        assert ds.by_id()["u1"].posts == [PostRecord(101, "plain")]

    def test_loaded_dataset_keeps_at_most_16_bytes_per_post(self, tmp_path):
        # Guards against per-record objects coming back onto the load path,
        # and against columns stored wider than their values need: a
        # PostRecord per post kept about 187 bytes, int64 columns about 38,
        # and the narrowest exact types about 13.
        path = corpus_to_jsonl(synthetic_corpus(500, 200, seed=4), tmp_path / "d.jsonl")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = load(path)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        posts = sum(len(u) for u in ds.users)
        assert posts == 500 * 200
        assert kept / posts <= 16, f"{kept / posts:.1f} bytes per post"
