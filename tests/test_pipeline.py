import importlib
import json
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    new_index,
    preprocess,
    signature_for,
)

from conftest import BOT_KIND_CYCLES, HUMAN_KIND_CYCLES, counting_digests, family_corpus, synthetic_corpus


# The module itself: the package re-exports ``minhash`` the function under
# the same name.
minhash_module = importlib.import_module("botdna.minhash")

B3_KINDS = {"A": "plain", "C": "retweet", "T": "reply"}


def b3_user(user_id: str, symbols: str, label: str = "bot") -> UserTimeline:
    """A timeline whose B3 DNA is ``symbols``."""
    return UserTimeline(user_id, label, [PostRecord(60 * i, B3_KINDS[s]) for i, s in enumerate(symbols)])


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


def counting_cuts(monkeypatch) -> list[str]:
    """Patch ``UserTimeline.first`` to log the id of each timeline it cuts."""
    cuts, first = [], UserTimeline.first
    monkeypatch.setattr(UserTimeline, "first", lambda self, n: cuts.append(self.user_id) or first(self, n))
    return cuts


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

    @pytest.mark.parametrize("grid", [dict(ks=[4, 4]), dict(thresholds=[0.4, 0.4]),
                                      dict(alphabet_subsets=[("B3", "B5"), ("B5", "B3")])])
    def test_repeated_cell_rejected(self, grid, minhash_counter):
        # A repeated cell would be evaluated, ranked and reported twice.
        grid = dict(dict(ks=[4], thresholds=[0.4], alphabet_subsets=[("B3",)]), **grid)
        with pytest.raises(ValueError, match="repeats"):
            grid_search(separable_dataset(n=4), base_config(), **grid)
        assert minhash_counter.calls == 0

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cuts_each_long_timeline_once(self, monkeypatch, jobs):
        # Every cell shares base.max_tweets: the grid caps the dataset once,
        # before its four groups, and no group caps it again.
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "created", [])
        cuts = counting_cuts(monkeypatch)
        ds = noisy_dataset()
        grid_search(ds, base_config(max_tweets=20), jobs=jobs, ks=[2, 5], thresholds=[0.4],
                    alphabet_subsets=[("B3",), ("B3", "B9")])
        assert FakePool.created == ([2] if jobs == 2 else [])
        longer = [u.user_id for u in ds.users if len(u) > 20]
        assert longer and sorted(cuts) == sorted(longer)

    def test_import_loads_no_process_pool(self):
        # Only a grid run in a pool imports it, with multiprocessing.
        probe = ("import sys, botdna; print(sorted(m for m in sys.modules if m == 'multiprocessing'"
                 " or m.startswith(('multiprocessing.', 'concurrent.futures.process'))))")
        src = Path(pipeline.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                              cwd=src, timeout=60)
        assert done.stdout.strip() == "[]"

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

    @pytest.mark.parametrize("caps", [[20, 20], [20, 40, 40]])
    def test_repeated_cap_rejected(self, caps):
        # A repeated cap would be evaluated and reported twice.
        with pytest.raises(ValueError, match="caps must be ascending"):
            early_detection(separable_dataset(n=4), base_config(), caps=caps)

    def test_cuts_each_long_timeline_once_per_cap(self, monkeypatch):
        ds = noisy_dataset()
        caps = [10, 20]
        cuts = counting_cuts(monkeypatch)
        series = early_detection(ds, base_config(), caps=caps)
        longer = [u.user_id for cap in caps for u in ds.users if len(u) > cap]
        assert len(series) == 2 and sorted(cuts) == sorted(longer)


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

    def test_rejects_a_repeated_fraction(self, minhash_counter):
        with pytest.raises(ValueError, match="fractions must not repeat"):
            gt_sweep(separable_dataset(n=10), base_config(), fractions=[0.3, 0.1, 0.3])
        assert minhash_counter.calls == 0


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

    def test_build_index_holds_at_most_one_step_outside_the_index(self, monkeypatch):
        # build_index sketches a step of users at a time, and insert_many
        # writes each signature into the index as it comes.  So when a step
        # is shingled, every signature of the steps before is written in the
        # index's signature matrix (its users are published only at the end
        # of the call), and none is still alive but the last one written,
        # which insert_many's loop names until the next one comes.  The probe
        # tracks each signature with a weak reference.
        monkeypatch.setattr(pipeline, "SKETCH_STEP", 4)
        cfg = RunConfig(num_perm=128)
        users = synthetic_corpus(35, 20, seed=3)
        built, made, events = [], {}, []
        insert_many, shingle_many, minhash = LshIndex.insert_many, pipeline.shingle_many, pipeline.minhash

        class Tracked(MinHashSignature):
            pass  # unlike MinHashSignature, takes weak references

        def recording(index, sigs, labels):
            built.append(index)
            return insert_many(index, sigs, labels)

        def shingling(seqs, k):
            events.append(("shingle", len(seqs)))
            rows = built[0]._values
            assert len(rows) >= len(made)
            for i, (user, row) in enumerate(zip(users, rows[: len(made)]), 1):
                values, alive = made[user.user_id]
                assert np.array_equal(row, values) and (alive() is None or i == len(made))
            return shingle_many(seqs, k)

        def sketching(shingles, num_perm, seed):
            events.append("minhash")
            sig = minhash(shingles, num_perm, seed)
            sig = Tracked(sig.user_id, sig.num_perm, sig.seed, sig.values)
            made[sig.user_id] = (sig.values, weakref.ref(sig))
            return sig

        monkeypatch.setattr(LshIndex, "insert_many", recording)
        monkeypatch.setattr(pipeline, "shingle_many", shingling)
        monkeypatch.setattr(pipeline, "minhash", sketching)
        index = build_index(users, cfg)
        assert len(made) == len(index) == 35
        steps = [4] * 8 + [3]
        assert events == [kind for n in steps for kind in [("shingle", n)] + ["minhash"] * n]

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


class TestSketch:
    @staticmethod
    def habit_users(data):
        """Draw ``(users, k)``: B3 timelines of width ``k`` and up, with varied windows.

        A user repeats a habit shared with others (equal anchors), has a
        sequence of its own, has exactly one shingle, or has two windows,
        neither recurring.
        """
        k = data.draw(st.integers(1, 4), label="k")
        habits = data.draw(st.lists(st.text("ACT", min_size=k, max_size=6), min_size=1, max_size=3),
                           label="habits")
        users = []
        for i in range(data.draw(st.integers(1, 9), label="users")):
            kind = data.draw(st.sampled_from(["habit", "own", "one shingle", "no recurring window"]))
            if kind == "habit":
                symbols = data.draw(st.sampled_from(habits)) * data.draw(st.integers(1, 3))
                symbols += data.draw(st.text("ACT", max_size=4))
            elif kind == "own":
                symbols = data.draw(st.text("ACT", min_size=k, max_size=12))
            elif kind == "one shingle":
                symbols = data.draw(st.sampled_from(["A" * (k + 2), ("ACT" * 2)[:k]]))
            else:
                symbols = ("ACT" * 2)[: k + 1]
            users.append(b3_user(f"u{i}", symbols, data.draw(st.sampled_from(["bot", "human"]))))
        return users, k

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_signatures_are_signature_for_in_input_order(self, data):
        # Across step boundaries, on a fresh memo and on a warm one.
        users, k = self.habit_users(data)
        cfg = RunConfig(k_shingle=k, num_perm=16, seed=data.draw(st.integers(0, 3), label="seed"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "SKETCH_STEP", data.draw(st.sampled_from([2, 3]), label="step"))
            mp.setattr(minhash_module, "_memo", None)
            fresh = pipeline._sketch(users, cfg)
            warm = pipeline._sketch(users, cfg)
            built = build_index(users, cfg)
        expected = [signature_for(u, cfg) for u in users]
        assert fresh == warm == expected
        looped = new_index(cfg)
        for user, sig in zip(users, expected):
            looped.insert(sig, user.label)
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp, "built.bdix"), Path(tmp, "looped.bdix")
            built.save(paths[0])
            looped.save(paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_minhashes_in_habit_order_ties_in_input_order(self, monkeypatch):
        users = [b3_user("tt0", "CTTTA"), b3_user("aa0", "CAAAT"), b3_user("tt1", "ACTTT"),
                 b3_user("none", "ACT"), b3_user("aa1", "TAAAC")]
        order, minhash = [], pipeline.minhash
        monkeypatch.setattr(pipeline, "minhash", lambda s, n, seed: order.append(s.user_id) or minhash(s, n, seed))
        cfg = RunConfig(k_shingle=2)
        sigs = pipeline._sketch(users, cfg)
        # Anchors: AA (the least code) for aa0 and aa1, AC (no window recurs) for none, TT for tt0 and tt1.
        assert order == ["aa0", "aa1", "none", "tt0", "tt1"]
        assert [sig.user_id for sig in sigs] == [u.user_id for u in users]

    def test_habit_order_computes_fewer_rows(self, monkeypatch):
        # Families of ~170-shingle users in shuffled order: the 1024-row
        # block holds about six users' rows, so in input order it is emptied
        # before the next member of a family comes.
        ds = Dataset("families", family_corpus(12, 8, posts=200, cycle=32, noise=0.05, seed=20))
        cfg = RunConfig(alphabets=("B3", "B5", "B9"), k_shingle=6, threshold=0.2,
                        split=SplitSpec(gt_fraction=0.5, seed=1))
        rows, permuted = [], minhash_module._ShingleMemo.permuted
        monkeypatch.setattr(minhash_module._ShingleMemo, "permuted",
                            lambda memo, xs, out=None: rows.append(len(xs)) or permuted(memo, xs, out))

        def run():
            monkeypatch.setattr(minhash_module, "_memo", None)
            rows.clear()
            return evaluate(ds, cfg).to_json(include_timings=False), sum(rows)

        report, habit_rows = run()
        monkeypatch.setattr(pipeline, "habit_anchor", lambda shingles: 0)  # all tie: input order
        input_report, input_rows = run()
        assert input_report == report
        assert habit_rows < 0.8 * input_rows  # 8078 against 12751 rows when written


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

    def test_refuses_queries_of_another_recipe(self):
        # Queries sketched under other alphabets, another order of them, or
        # another k are compared with nothing they could match: refused
        # before any is sketched, never answered with quiet wrong votes.
        # An index of no recipe (built by hand) is taken as it is.
        ds = noisy_dataset()
        built = base_config(alphabets=("B3", "B9"), k_shingle=3)
        gt, test = split(preprocess(ds, built)[0], built.split)
        index = build_index(gt.users, built)
        assert index.recipe == (("B3", "B9"), 3)
        others = [replace(built, alphabets=alphabets, k_shingle=k)
                  for alphabets, k in [(("B3",), 4), (("B3",), 3), (("B3", "B9"), 4), (("B9", "B3"), 3)]]
        for cfg in others:
            with pytest.raises(IncompatibleSignatures, match=r"alphabets=\['B3', 'B9'\], k_shingle=3"):
                classify_against_index(index, test, cfg)
        _, report = classify_against_index(index, test, built)
        assert report.to_dict()["confusion"] == evaluate(ds, built).to_dict()["confusion"]
        index.recipe = None
        for cfg in others:
            predictions, _ = classify_against_index(index, test, cfg)
            assert [p.query_id for p in predictions] == [u.user_id for u in preprocess(test, cfg)[0].users]


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
