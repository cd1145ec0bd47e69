import json
from dataclasses import replace

import numpy as np
import pytest

from botdna import pipeline
from botdna.data import Dataset, SplitSpec, split
from botdna.encoding import PostRecord, UserTimeline
from botdna.errors import IncompatibleSignatures
from botdna.lsh import BandingPlan, LshIndex
from botdna.minhash import MinHashSignature
from botdna.pipeline import (
    ALPHABET_SUBSETS,
    RunConfig,
    build_index,
    canonical_alphabets,
    classify_against_index,
    config_echo,
    cross_dataset,
    early_detection,
    evaluate,
    grid_search,
    gt_sweep,
    encode_dataset,
    preprocess,
)

from conftest import BOT_KIND_CYCLES, HUMAN_KIND_CYCLES, counting_digests, synthetic_corpus


def separable_dataset(n=40, posts=60, seed=5):
    return Dataset("separable", synthetic_corpus(n, posts, seed=seed))


def noisy_dataset(n=40, posts=30, seed=7):
    """Mixed archetypes with noise, plus two users too short for larger k."""
    users = synthetic_corpus(n, posts, seed=seed, noise=0.3,
                             bot_cycles=BOT_KIND_CYCLES, human_cycles=HUMAN_KIND_CYCLES)
    users += [replace(u, user_id=f"short{i}", posts=u.posts[:2]) for i, u in enumerate(users[:2])]
    return Dataset("noisy", users)


class CountingMinhash:
    """Wraps ``pipeline.minhash`` the way the benchmark's reference pass does."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.keys = set()

    def __call__(self, shingles, num_perm, seed):
        self.calls += 1
        self.keys.add((shingles.user_id, shingles.k, shingles.shingles, num_perm, seed))
        return self.fn(shingles, num_perm, seed)


@pytest.fixture
def minhash_counter(monkeypatch):
    counter = CountingMinhash(pipeline.minhash)
    monkeypatch.setattr(pipeline, "minhash", counter)
    return counter


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created: list = []

    def __init__(self, max_workers):
        FakePool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def base_config(**overrides):
    defaults = dict(
        alphabets=("B3",),
        k_shingle=4,
        threshold=0.4,
        num_perm=128,
        seed=42,
        split=SplitSpec(gt_fraction=0.7, seed=42),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunConfig:
    @pytest.mark.parametrize("alphabets", [(), ("B7",), ("B3", "B3")])
    def test_rejects_bad_alphabets(self, alphabets):
        with pytest.raises(ValueError):
            base_config(alphabets=alphabets)

    @pytest.mark.parametrize("floor", [-0.1, 1.5, float("nan")])
    def test_rejects_floor_outside_unit_interval(self, floor):
        with pytest.raises(ValueError):
            base_config(jaccard_floor=floor)

    @pytest.mark.parametrize("bad", [{"k_shingle": 0}, {"num_perm": 1}, {"num_perm": 8193},
                                     {"threshold": 0.0}, {"threshold": 1.5}, {"threshold": float("nan")}],
                             ids=repr)
    def test_rejects_bad_sketch_or_banding_value(self, bad):
        with pytest.raises(ValueError):
            base_config(**bad)

    @pytest.mark.parametrize("protocol", ["evaluate", "grid_search"])
    def test_bad_cell_fails_before_any_sketch(self, protocol, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "minhash", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            if protocol == "evaluate":
                evaluate(separable_dataset(), replace(base_config(), threshold=1.5))
            else:
                grid_search(separable_dataset(), base_config(), ks=(6, 0), thresholds=(0.4,),
                            alphabet_subsets=(("B3",),))
        assert calls == []

    def test_replace_checks_again(self):
        with pytest.raises(ValueError):
            replace(base_config(), jaccard_floor=2.0)

    @pytest.mark.parametrize("floor", [0.0, 1.0])
    def test_accepts_closed_interval_ends(self, floor):
        assert base_config(jaccard_floor=floor).effective_floor() == floor


class TestCanonicalAlphabets:
    def test_reorders_to_canonical(self):
        assert canonical_alphabets(("B9", "B3")) == ("B3", "B9")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            canonical_alphabets(("B3", "B7"))

    def test_rejects_repeats_as_run_config_does(self):
        with pytest.raises(ValueError, match="duplicate"):
            canonical_alphabets(("B3", "B3"))
        with pytest.raises(ValueError, match="duplicate"):
            RunConfig(alphabets=("B3", "B3"))


class TestEvaluate:
    def test_separable_corpus_is_perfect(self):
        report = evaluate(separable_dataset(), base_config())
        assert report.f1 == 1.0
        assert report.accuracy == 1.0
        assert report.counts["ground_truth_users"] == 28
        assert report.counts["test_users"] == 12

    def test_report_carries_config_echo(self):
        cfg = base_config()
        report = evaluate(separable_dataset(), cfg)
        assert report.config == config_echo(cfg)
        assert report.config["alphabets"] == ["B3"]
        assert report.config["jaccard_floor"] == 0.4

    def test_deterministic_json(self):
        ds = separable_dataset()
        cfg = base_config()
        first = evaluate(ds, cfg).to_json(include_timings=False)
        second = evaluate(ds, cfg).to_json(include_timings=False)
        assert first == second

    def test_timings_present_and_nonnegative(self):
        report = evaluate(separable_dataset(), base_config())
        for key in ("preprocess_s", "build_s", "classify_s"):
            assert report.timings[key] >= 0.0
        assert report.memory["peak_rss_mb"] > 0

    def test_empty_test_split(self):
        ds = separable_dataset(n=10)
        all_ids = tuple(u.user_id for u in ds.users)
        cfg = base_config(split=SplitSpec(mode="fixed_lists", gt_ids=all_ids, test_ids=()))
        report = evaluate(ds, cfg)
        assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 0, 0)
        assert report.f1 is None and report.accuracy is None

    def test_no_floor_keeps_weak_candidates(self):
        ds = separable_dataset()
        strict = evaluate(ds, base_config(threshold=0.9))
        loose = evaluate(ds, base_config(threshold=0.9, jaccard_floor=0.0))
        assert loose.config["jaccard_floor"] == 0.0
        assert strict.config["jaccard_floor"] == 0.9


class TestCrossDataset:
    def test_same_file_as_gt_and_test_is_perfect(self):
        ds = separable_dataset()
        report = cross_dataset(ds, ds, base_config())
        assert report.f1 == 1.0
        assert report.config["ground_truth_dataset"] == "separable"

    def test_disjoint_regimes_fall_back_to_human(self):
        # Ground truth and test share no shingle vocabulary, so every
        # query lands on the empty-neighborhood human default: balanced
        # accuracy 0.5 and zero detected bots.
        gt = Dataset(
            "gt",
            synthetic_corpus(20, 60, seed=1, bot_cycles=[("retweet",)], human_cycles=[("plain", "reply")]),
        )
        test = Dataset(
            "test",
            synthetic_corpus(20, 60, seed=2, bot_cycles=[("reply",)], human_cycles=[("plain",)]),
        )
        report = cross_dataset(gt, test, base_config())
        assert report.no_neighbor_count == report.counts["test_users"]
        assert report.accuracy == 0.5
        assert report.f1 == 0.0


class TestGridSearch:
    def test_single_cell_matches_evaluate(self):
        ds = separable_dataset()
        cfg = base_config()
        [gridded] = grid_search(ds, cfg, ks=[4], thresholds=[0.4], alphabet_subsets=[("B3",)])
        direct = evaluate(ds, cfg)
        assert gridded.to_json(include_timings=False) == direct.to_json(include_timings=False)

    def test_seven_subsets_structural_count(self):
        ds = separable_dataset(n=20)
        reports = grid_search(ds, base_config(), ks=[4], thresholds=[0.4])
        assert len(reports) == len(ALPHABET_SUBSETS)
        seen = {tuple(r.config["alphabets"]) for r in reports}
        assert seen == set(ALPHABET_SUBSETS)

    def test_ranking_is_deterministic(self):
        ds = separable_dataset(n=20)
        kwargs = dict(ks=[2, 4], thresholds=[0.2, 0.6], alphabet_subsets=[("B3",), ("B3", "B9")])
        first = [r.config for r in grid_search(ds, base_config(), **kwargs)]
        second = [r.config for r in grid_search(ds, base_config(), **kwargs)]
        assert first == second

    def test_rank_order_prefers_f1_then_small_k_large_t(self):
        ds = separable_dataset(n=20)
        reports = grid_search(ds, base_config(), ks=[2, 4], thresholds=[0.2, 0.6],
                              alphabet_subsets=[("B3",)])
        keys = [
            (-(r.f1 if r.f1 is not None else -1.0), r.config["k_shingle"], -r.config["threshold"])
            for r in reports
        ]
        assert keys == sorted(keys)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(separable_dataset(n=4), base_config(), ks=[], thresholds=[0.4])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_matches_evaluate(self, jobs):
        ds = noisy_dataset()
        base = base_config()
        reports = grid_search(ds, base, ks=[3, 5], thresholds=[0.3, 0.6],
                              alphabet_subsets=[("B3",), ("B9", "B3")], jobs=jobs)
        assert len(reports) == 8
        for report in reports:
            cfg = replace(base, alphabets=tuple(report.config["alphabets"]),
                          k_shingle=report.config["k_shingle"],
                          threshold=report.config["threshold"])
            assert report.to_json(include_timings=False) == evaluate(ds, cfg).to_json(
                include_timings=False
            )

    def test_sketches_once_per_alphabets_and_k(self, minhash_counter):
        ds = noisy_dataset()
        base = base_config()
        subsets, ks = [("B3",), ("B3", "B9")], [2, 5]
        grid_search(ds, base, ks=ks, thresholds=[0.2, 0.4, 0.6], alphabet_subsets=subsets)
        filtered = [
            len(preprocess(ds, replace(base, alphabets=a, k_shingle=k))[0])
            for a in subsets
            for k in ks
        ]
        assert len(set(filtered)) > 1  # the short users drop out of some groups only
        assert minhash_counter.calls == len(minhash_counter.keys) == sum(filtered)

    def test_encodes_once_per_user_and_alphabet_subset(self, monkeypatch):
        calls = []
        encode_user = pipeline.encode_user

        def counting(timeline, alphabets):
            calls.append((timeline.user_id, tuple(alphabets)))
            return encode_user(timeline, alphabets)

        monkeypatch.setattr(pipeline, "encode_user", counting)
        ds = noisy_dataset()
        base = base_config(max_tweets=20)
        subsets, ks = [("B3",), ("B3", "B9")], [5, 2]  # the short users join at the second k
        grid_search(ds, base, ks=ks, thresholds=[0.3, 0.6], alphabet_subsets=subsets)
        sketched = {
            (u.user_id, a)
            for a in subsets
            for k in ks
            for u in preprocess(ds, replace(base, alphabets=a, k_shingle=k))[0].users
        }
        assert len({uid for uid, _ in sketched}) == len(ds)
        assert len(calls) == len(sketched) and set(calls) == sketched

    def test_encodings_do_not_outlive_a_call(self):
        # Same user ids, other posts: DNA kept from the first call would
        # make the second call's cells disagree with evaluate.
        base = base_config(max_tweets=20)
        kwargs = dict(ks=[3, 5], thresholds=[0.3, 0.6], alphabet_subsets=[("B3",), ("B3", "B9")])
        runs = []
        for ds in (noisy_dataset(seed=7), noisy_dataset(seed=8)):
            reports = grid_search(ds, base, **kwargs)
            for report in reports:
                cfg = replace(base, alphabets=tuple(report.config["alphabets"]),
                              k_shingle=report.config["k_shingle"],
                              threshold=report.config["threshold"])
                assert report.to_json(include_timings=False) == evaluate(ds, cfg).to_json(
                    include_timings=False
                )
            runs.append(([u.user_id for u in ds.users], [r.to_json(include_timings=False) for r in reports]))
        (first_ids, first), (second_ids, second) = runs
        assert first_ids == second_ids and first != second

    def test_shared_preprocess_time_is_on_first_cell_only(self):
        reports = grid_search(separable_dataset(n=20), base_config(), ks=[4],
                              thresholds=[0.2, 0.4, 0.6], alphabet_subsets=[("B3",)])
        by_threshold = {r.config["threshold"]: r.timings for r in reports}
        assert by_threshold[0.4]["preprocess_s"] == by_threshold[0.6]["preprocess_s"] == 0.0
        assert all(t["build_s"] >= 0.0 and t["classify_s"] >= 0.0 for t in by_threshold.values())

    def test_pool_never_larger_than_group_count(self, monkeypatch):
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "created", [])
        ds = separable_dataset(n=16, posts=40)
        kwargs = dict(ks=[2, 4], thresholds=[0.2, 0.4, 0.6], alphabet_subsets=[("B3",)])
        pooled = grid_search(ds, base_config(), jobs=64, **kwargs)
        assert FakePool.created == [2]
        grid_search(ds, base_config(), jobs=8, ks=[4], thresholds=[0.2, 0.4],
                    alphabet_subsets=[("B3",)])
        assert FakePool.created == [2]  # one group runs in-process
        sequential = grid_search(ds, base_config(), jobs=1, **kwargs)
        assert [r.to_json(include_timings=False) for r in pooled] == [
            r.to_json(include_timings=False) for r in sequential
        ]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_nonpositive_jobs(self, jobs):
        with pytest.raises(ValueError):
            grid_search(separable_dataset(n=4), base_config(), ks=[4], thresholds=[0.4], jobs=jobs)

    def test_parallel_jobs_match_sequential(self):
        # Serially the groups of a subset share its encodings; in the pool each encodes for itself.
        ds = noisy_dataset()
        kwargs = dict(ks=[2, 5], thresholds=[0.4], alphabet_subsets=[("B3",), ("B5", "B9")])
        sequential = grid_search(ds, base_config(max_tweets=20), jobs=1, **kwargs)
        parallel = grid_search(ds, base_config(max_tweets=20), jobs=2, **kwargs)
        assert [r.to_json(include_timings=False) for r in sequential] == [
            r.to_json(include_timings=False) for r in parallel
        ]


class TestEarlyDetection:
    def test_series_shape(self):
        ds = separable_dataset(posts=120)
        series = early_detection(ds, base_config(), caps=[20, 40, 60])
        assert [cap for cap, _ in series] == [20, 40, 60]

    def test_separable_perfect_at_every_cap(self):
        ds = separable_dataset(posts=220)
        series = early_detection(ds, base_config(), caps=[20, 60, 120, 200])
        assert all(report.f1 == 1.0 for _, report in series)

    def test_cap_above_all_lengths_matches_uncapped(self):
        ds = separable_dataset(posts=50)
        cfg = base_config()
        [(_, capped)] = early_detection(ds, cfg, caps=[500])
        uncapped = evaluate(ds, cfg)
        assert capped.to_dict()["confusion"] == uncapped.to_dict()["confusion"]
        assert capped.to_dict()["metrics"] == uncapped.to_dict()["metrics"]

    def test_caps_must_ascend(self):
        with pytest.raises(ValueError):
            early_detection(separable_dataset(n=4), base_config(), caps=[40, 20])


class TestGtSweep:
    def test_series_shape_and_determinism(self):
        ds = separable_dataset(n=60)
        series = gt_sweep(ds, base_config(), fractions=[0.1, 0.2, 0.3])
        assert [f for f, _ in series] == [0.1, 0.2, 0.3]
        again = gt_sweep(ds, base_config(), fractions=[0.1, 0.2, 0.3])
        for (_, a), (_, b) in zip(series, again):
            assert a.to_json(include_timings=False) == b.to_json(include_timings=False)

    def test_fraction_070_matches_default_evaluate(self):
        ds = separable_dataset()
        cfg = base_config()
        [(_, swept)] = gt_sweep(ds, cfg, fractions=[0.7])
        direct = evaluate(ds, cfg)
        assert swept.to_json(include_timings=False) == direct.to_json(include_timings=False)

    def test_every_fraction_matches_evaluate(self):
        ds = noisy_dataset(n=60)
        cfg = base_config()
        fractions = [0.1, 0.3, 0.5, 0.7]
        series = gt_sweep(ds, cfg, fractions=fractions)
        assert [f for f, _ in series] == fractions
        for fraction, swept in series:
            direct = evaluate(ds, replace(cfg, split=replace(cfg.split, gt_fraction=fraction)))
            assert swept.to_json(include_timings=False) == direct.to_json(include_timings=False)

    def test_sketches_each_user_once(self, minhash_counter):
        ds = noisy_dataset()
        cfg = base_config(k_shingle=5)
        gt_sweep(ds, cfg, fractions=[0.1, 0.2, 0.3])
        filtered, removed = preprocess(ds, cfg)
        assert removed > 0
        assert minhash_counter.calls == len(minhash_counter.keys) == len(filtered)

    def test_validates_every_fraction_before_work(self, minhash_counter):
        with pytest.raises(ValueError):
            gt_sweep(separable_dataset(n=10), base_config(), fractions=[0.2, 0.4, 1.5])
        assert minhash_counter.calls == 0

    def test_separable_perfect_at_small_fraction(self):
        ds = separable_dataset(n=60)
        [(_, report)] = gt_sweep(ds, base_config(), fractions=[0.1])
        assert report.f1 == 1.0

    def test_requires_random_split(self):
        ds = separable_dataset(n=4)
        cfg = base_config(split=SplitSpec(mode="fixed_lists", gt_ids=(), test_ids=()))
        with pytest.raises(ValueError):
            gt_sweep(ds, cfg, fractions=[0.2])

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            gt_sweep(separable_dataset(n=4), base_config(), fractions=[1.5])


class TestBlocks:
    def test_block_is_one_digest_step_of_signatures(self, monkeypatch):
        # Query signatures are digested 128 KiB of them at a time, the step
        # band_digests takes; the stored ones are digested by the first
        # query, in one call over all of them.  As num_perm is at most 8192
        # (64 KiB), a block holds at least two.
        calls = counting_digests(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=2))
        for num_perm, count, blocks in [(128, 300, [128, 128, 44]), (8192, 5, [2, 2, 1])]:
            index = LshIndex(BandingPlan(0.5, 1, num_perm), num_perm, seed=1)
            values = rng.integers(0, 1 << 61, (count, num_perm), dtype=np.uint64)
            sigs = [MinHashSignature(f"u{i}", num_perm, 1, row) for i, row in enumerate(values)]
            calls.clear()
            index.insert_many(iter(sigs), ("bot" for _ in sigs))
            assert calls == []
            assert index.neighbor_votes(iter(sigs), 1.0) == [(1, 1)] * count
            assert calls == [(rows, num_perm) for rows in [blocks[0], count, *blocks[1:]]]
            calls.clear()
            assert index.neighbor_votes(iter(sigs), 1.0) == [(1, 1)] * count
            assert calls == [(rows, num_perm) for rows in blocks]
        calls.clear()
        with pytest.raises(IncompatibleSignatures):  # checked before any is digested
            index.neighbor_votes(sigs + [MinHashSignature("bad", num_perm, 2, values[0])], 1.0)
        assert calls == []

    def test_build_index_holds_no_signature_outside_the_index(self, monkeypatch):
        cfg = RunConfig(num_perm=128)
        users = synthetic_corpus(35, 20, seed=3)
        # The index publishes its users only at the end of the call, so the
        # probe reads its signature matrix: when the next user is sketched,
        # every signature sketched before is already written there.
        built, sketched = [], []
        insert_many, signature_for = LshIndex.insert_many, pipeline.signature_for

        def recording(index, sigs, labels):
            built.append(index)
            return insert_many(index, sigs, labels)

        def checking(user, cfg):
            rows = built[0]._values
            assert len(rows) >= len(sketched)
            assert all(np.array_equal(row, sig.values) for row, sig in zip(rows, sketched))
            sketched.append(signature_for(user, cfg))
            return sketched[-1]

        monkeypatch.setattr(LshIndex, "insert_many", recording)
        monkeypatch.setattr(pipeline, "signature_for", checking)
        index = build_index(users, cfg)
        assert len(sketched) == len(index) == 35

    def test_block_size_does_not_change_results(self, monkeypatch):
        ds = noisy_dataset(60)
        cfg = RunConfig(alphabets=("B3", "B9"), k_shingle=3, threshold=0.3)
        whole = evaluate(ds, cfg).to_json(include_timings=False)
        calls = counting_digests(monkeypatch)
        monkeypatch.setattr("botdna.lsh._DIGEST_STEP_BYTES", 7 * 8 * 128)
        report = evaluate(ds, cfg)
        assert report.to_json(include_timings=False) == whole
        # Seven test signatures per digest call; the first query digests the
        # whole ground truth in one call.  The patched step also steps the
        # arithmetic inside band_digests and the build of coded columns.
        gt, tests = report.counts["ground_truth_users"], report.counts["test_users"]
        blocks = [min(7, tests - start) for start in range(0, tests, 7)]
        assert calls == [(rows, 128) for rows in [blocks[0], gt, *blocks[1:]]]


class TestClassifyAgainstIndex:
    def test_matches_evaluate_on_the_same_split(self):
        ds = noisy_dataset()
        cfg = base_config()
        gt, test = split(preprocess(ds, cfg)[0], cfg.split)
        predictions, report = classify_against_index(build_index(gt.users, cfg), test, cfg)
        direct = evaluate(ds, cfg)
        assert [p.query_id for p in predictions] == [u.user_id for u in test.users]
        assert report.to_dict()["confusion"] == direct.to_dict()["confusion"]
        assert report.counts["ground_truth_users"] == direct.counts["ground_truth_users"]
        assert report.timings["build_s"] == 0.0
        assert report.timings["preprocess_s"] >= 0.0 and report.timings["classify_s"] >= 0.0
        assert report.memory["peak_rss_mb"] > 0

    def test_unlabeled_queries_get_no_report(self):
        ds = noisy_dataset()
        cfg = base_config()
        index = build_index(preprocess(ds, cfg)[0].labeled(), cfg)
        queries = Dataset("q", [replace(u, label=None) for u in ds.users[:6]])
        predictions, report = classify_against_index(index, queries, cfg)
        assert len(predictions) == 6 and report is None


class TestEncodeDataset:
    def test_dumps_every_user(self):
        users = [
            UserTimeline("u1", "bot", [PostRecord(1, "retweet"), PostRecord(2, "retweet")]),
            UserTimeline("u2", "human", [PostRecord(1, "plain"), PostRecord(2, "reply")]),
        ]
        seqs = encode_dataset(Dataset("d", users), ("B3",))
        assert [(s.user_id, s.symbols) for s in seqs] == [("u1", "CC"), ("u2", "AT")]


class TestConfigEcho:
    def test_echo_is_json_safe_and_sorted(self):
        echo = config_echo(base_config())
        text = json.dumps(echo, sort_keys=True)
        assert json.loads(text) == echo

    def test_list_valued_split_ids_equal_tuples(self):
        ds = noisy_dataset()
        ids = [u.user_id for u in preprocess(ds, base_config())[0].users]
        as_lists = SplitSpec(mode="fixed_lists", gt_ids=ids[:30], test_ids=ids[30:])
        as_tuples = SplitSpec(mode="fixed_lists", gt_ids=tuple(ids[:30]), test_ids=tuple(ids[30:]))
        reports = [evaluate(ds, base_config(split=spec)).to_json(include_timings=False)
                   for spec in (as_lists, as_tuples)]
        assert reports[0] == reports[1]

    def test_fixed_lists_echo_uses_digest(self):
        cfg = base_config(split=SplitSpec(mode="fixed_lists", gt_ids=("a", "b"), test_ids=("c",)))
        echo = config_echo(cfg)
        assert echo["split"]["gt_count"] == 2
        assert echo["split"]["test_count"] == 1
        assert len(echo["split"]["ids_digest"]) == 16

    def test_floor_policy_rendering(self):
        assert config_echo(base_config())["jaccard_floor"] == 0.4
        assert config_echo(base_config(jaccard_floor=0.25))["jaccard_floor"] == 0.25
        assert config_echo(base_config(jaccard_floor=0.0))["jaccard_floor"] == 0.0
