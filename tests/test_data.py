import json

import pytest

from botdna.data import (
    Dataset,
    SplitSpec,
    cap_tweets,
    filter_min_length,
    load,
    read_id_list,
    split,
)
from botdna.encoding import PostRecord, UserTimeline, encode_user
from botdna.errors import FormatError, IntegrityError, SequenceTooShort, UnknownUser
from botdna.minhash import shingle

from conftest import synthetic_corpus


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
         '"user_id": "\\ud800", "tweets": [{"ts": 100, "kind": "plain"}]'],
        ids=["null-tweets", "number-tweets", "overflowing-ts", "lone-surrogate-id"],
    )
    def test_odd_record_is_malformed(self, tmp_path, odd):
        lines = [json.dumps(user_doc(f"u{i}")) for i in range(200)] + ["{%s}" % odd]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        ds = load(path)
        assert ds.malformed_count == 1
        assert len(ds) == 200 + ("1e400" in odd)  # that user keeps its good tweet

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
        ds = corpus_dataset(n=4)
        uid = ds.users[0].user_id
        spec = SplitSpec(mode="fixed_lists", gt_ids=(uid,), test_ids=(uid,))
        with pytest.raises(ValueError):
            split(ds, spec)

    def test_bad_fraction(self):
        ds = corpus_dataset(n=4)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(gt_fraction=0.0))
        with pytest.raises(ValueError):
            split(ds, SplitSpec(gt_fraction=1.0))


class TestReadIdList:
    def test_reads_lines(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("u1\nu2\n\n u3 \n")
        assert read_id_list(path) == ("u1", "u2", "u3")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_id_list(tmp_path / "nope.txt")
