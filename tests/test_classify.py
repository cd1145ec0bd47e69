import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdna.classify import (EvaluationReport, NeighborSet, Prediction, classify, classify_many, score,
                             vote)
from botdna.errors import IncompatibleSignatures, MissingLabel
from botdna.lsh import _DENSE_SCAN_SHARE, LshIndex, Neighbor, lsh_plan
from botdna.minhash import MinHashSignature, minhash

from conftest import draw_index_parts, exact_jaccard, make_set_pair


def neighbors_from_labels(labels, query_id="q"):
    return NeighborSet(
        query_id,
        [Neighbor(f"n{i}", label, 1.0) for i, label in enumerate(labels)],
    )


class TestVote:
    def test_majority_bot(self):
        pred = vote(neighbors_from_labels(["bot", "bot", "human"]))
        assert pred.predicted == "bot"
        assert (pred.neighbor_count, pred.bot_votes) == (3, 2)
        assert not pred.no_neighbor_flag

    def test_tie_goes_to_human(self):
        assert vote(neighbors_from_labels(["bot", "human"])).predicted == "human"

    def test_empty_set_is_flagged_human(self):
        pred = vote(neighbors_from_labels([]))
        assert pred.predicted == "human"
        assert pred.no_neighbor_flag

    def test_exhaustive_multisets_up_to_seven(self):
        # All 255 label sequences of length 0..7 against the direct rule.
        cases = 0
        for size in range(8):
            for labels in itertools.product(["human", "bot"], repeat=size):
                expected = "bot" if sum(l == "bot" for l in labels) > size / 2 else "human"
                assert vote(neighbors_from_labels(list(labels))).predicted == expected
                cases += 1
        assert cases == 2**8 - 1

    def test_pure_function_of_label_multiset(self):
        labels = ["bot", "human", "bot", "bot", "human"]
        base = vote(neighbors_from_labels(labels))
        for seed in range(10):
            shuffled = labels[:]
            random.Random(seed).shuffle(shuffled)
            got = vote(neighbors_from_labels(shuffled))
            assert (got.predicted, got.bot_votes, got.neighbor_count) == (
                base.predicted,
                base.bot_votes,
                base.neighbor_count,
            )

    def test_bot_prediction_implies_strict_majority(self):
        for size in range(8):
            for labels in itertools.product(["human", "bot"], repeat=size):
                pred = vote(neighbors_from_labels(list(labels)))
                if pred.predicted == "bot":
                    assert pred.bot_votes > pred.neighbor_count / 2


class TestClassify:
    def build_index(self, entries, threshold=0.4, num_perm=128, seed=1):
        index = LshIndex(lsh_plan(threshold, num_perm), num_perm, seed)
        for user_id, label, shingles in entries:
            sig = MinHashSignature(user_id, num_perm, seed, minhash(shingles, num_perm, seed).values)
            index.insert(sig, label)
        return index

    def test_exact_duplicate_of_inserted_bot(self):
        rng = np.random.Generator(np.random.Philox(key=20))
        a, b = make_set_pair(1.0, 80, rng)
        index = self.build_index([("gt-bot", "bot", a)])
        pred = classify(index, minhash(b, 128, 1))
        assert pred.predicted == "bot"
        assert pred.neighbor_count == 1

    def test_floor_filters_all_candidates(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        a, b = make_set_pair(0.35, 100, rng)
        index = self.build_index([("gt", "bot", a)], threshold=0.2)
        # Floor of 1.0 discards every imperfect candidate.
        pred = classify(index, minhash(b, 128, 1), jaccard_floor=1.0)
        assert pred.predicted == "human"
        assert pred.no_neighbor_flag

    def test_floor_defaults_to_index_threshold(self):
        rng = np.random.Generator(np.random.Philox(key=22))
        a, b = make_set_pair(1.0, 80, rng)
        index = self.build_index([("gt", "bot", a)], threshold=0.9)
        pred = classify(index, minhash(b, 128, 1))
        assert pred.predicted == "bot"  # jaccard 1.0 >= 0.9

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_vote_over_filtered_query(self, data):
        # classify runs on the index's arrays; it must agree with voting
        # over the query API's neighbors at and around the floor.  Each
        # stage classifies before querying, so classify meets the re-sort.
        index, entries, probes = draw_index_parts(data)
        split = data.draw(st.integers(0, len(entries)), label="split")
        for stage in (entries[:split], entries[split:]):
            for sig, label in stage:
                index.insert(sig, label)
            for probe in probes:
                for floor in (0.0, index.plan.threshold, 1.0):
                    got = classify(index, probe, floor)
                    kept = [nb for nb in index.query(probe) if nb.jaccard >= floor]
                    assert got == vote(NeighborSet(probe.user_id, kept))
                assert classify(index, probe) == classify(index, probe, index.plan.threshold)

    def test_classify_many_equals_classify_each(self):
        # One block of every probe, the index's own signatures among them;
        # a probe hitting over a quarter of the digest table takes the
        # dense scan, any other hit the expansion, and both must be met.
        scans = set()

        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            index, entries, probes = draw_index_parts(data)
            index.insert_many([sig for sig, _ in entries], [label for _, label in entries])
            table = index._digests[: len(index)].ravel()
            for probe in probes:
                hits = sum(int(np.count_nonzero(table == d)) for d in index.band_digests(probe.values))
                if hits:
                    scans.add("dense" if hits > _DENSE_SCAN_SHARE * table.size else "expand")
            for floor in (None, 0.0, 1.0):
                assert classify_many(index, probes, floor) == [
                    classify(index, probe, floor) for probe in probes
                ]

        check()
        assert scans == {"dense", "expand"}

    def test_classify_many_checks_every_signature_first(self):
        index = self.build_index([])
        good = MinHashSignature("good", 128, 1, np.zeros(128, dtype=np.uint64))
        bad = MinHashSignature("bad", 128, 2, np.zeros(128, dtype=np.uint64))
        assert classify_many(index, []) == []
        with pytest.raises(IncompatibleSignatures):
            classify_many(index, [good, bad])

    def test_agreement_with_brute_force_oracle(self):
        # 200 mixed-archetype users: classify via the index must agree with
        # exhaustive exact-Jaccard neighborhoods + the same voting rule on
        # at least 95% of queries.
        rng = np.random.Generator(np.random.Philox(key=23))
        threshold, num_perm, seed = 0.3, 128, 1

        def user_set(kind, i):
            # Two bot species and two human species with overlapping cores.
            core_size = {"bot-a": 40, "bot-b": 36, "hum-a": 40, "hum-b": 36}[kind]
            core = [f"{kind}:{j:04d}" for j in range(core_size)]
            extra = [f"{kind}:{i}:{int(v)}" for v in rng.integers(0, 1 << 40, size=12)]
            return frozenset(core + extra)

        kinds = ["bot-a", "bot-b", "hum-a", "hum-b"]
        users = []
        for i in range(200):
            kind = kinds[i % 4]
            label = "bot" if kind.startswith("bot") else "human"
            from botdna.minhash import ShingleSet

            users.append((f"u{i:03d}", label, ShingleSet(f"u{i:03d}", 8, user_set(kind, i))))
        gt, test = users[:100], users[100:]

        index = self.build_index(
            [(u, l, s) for u, l, s in gt], threshold=threshold, num_perm=num_perm, seed=seed
        )
        agree = 0
        for user_id, _, shingles in test:
            sig = MinHashSignature(user_id, num_perm, seed, minhash(shingles, num_perm, seed).values)
            lsh_pred = classify(index, sig)
            oracle_neighbors = [
                Neighbor(gu, gl, 1.0)
                for gu, gl, gs in gt
                if exact_jaccard(shingles, gs) >= threshold
            ]
            oracle_pred = vote(NeighborSet(user_id, oracle_neighbors))
            if lsh_pred.predicted == oracle_pred.predicted:
                agree += 1
        assert agree >= 0.95 * len(test)


class TestScore:
    def make_predictions(self, spec):
        """spec: list of (predicted, actual); returns predictions + truth."""
        preds, truth = [], {}
        for i, (predicted, actual) in enumerate(spec):
            qid = f"u{i}"
            preds.append(Prediction(qid, predicted, 1, int(predicted == "bot"), False))
            truth[qid] = actual
        return preds, truth

    def test_single_true_positive(self):
        preds, truth = self.make_predictions([("bot", "bot")])
        report = score(preds, truth)
        assert (report.tp, report.fp, report.tn, report.fn) == (1, 0, 0, 0)
        assert report.f1 == 1.0 and report.accuracy == 1.0

    def test_hand_computed_confusion(self):
        spec = (
            [("bot", "bot")] * 8 + [("bot", "human")] * 2 + [("human", "bot")] * 4 + [("human", "human")] * 6
        )
        preds, truth = self.make_predictions(spec)
        report = score(preds, truth)
        assert (report.tp, report.fp, report.fn, report.tn) == (8, 2, 4, 6)
        assert report.precision == 0.8
        assert report.recall == 8 / 12
        assert report.f1 == 16 / 22
        assert report.accuracy == 0.7

    def test_degenerate_denominators_are_null(self):
        preds, truth = self.make_predictions([("human", "human")] * 5)
        report = score(preds, truth)
        assert report.accuracy == 1.0
        assert report.precision is None
        assert report.recall is None
        assert report.f1 is None

    def test_empty_predictions(self):
        report = score([], {})
        assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 0, 0)
        assert report.accuracy is None and report.f1 is None

    def test_missing_label_raises(self):
        preds, truth = self.make_predictions([("bot", "bot")])
        with pytest.raises(MissingLabel):
            score(preds, {})
        with pytest.raises(MissingLabel):
            score(preds, {"u0": None})

    def test_f1_identity_two_ways(self):
        # 2PR/(P+R) and 2tp/(2tp+fp+fn) agree whenever both are defined.
        for tp, fp, fn, tn in itertools.product(range(0, 6), repeat=4):
            spec = (
                [("bot", "bot")] * tp
                + [("bot", "human")] * fp
                + [("human", "bot")] * fn
                + [("human", "human")] * tn
            )
            preds, truth = self.make_predictions(spec)
            report = score(preds, truth)
            if report.precision and report.recall:
                harmonic = (
                    2 * report.precision * report.recall / (report.precision + report.recall)
                )
                assert abs(report.f1 - harmonic) < 1e-12

    def test_no_neighbor_count(self):
        preds = [
            Prediction("a", "human", 0, 0, True),
            Prediction("b", "bot", 3, 2, False),
        ]
        report = score(preds, {"a": "human", "b": "bot"})
        assert report.no_neighbor_count == 1

    def test_report_json_is_stable_and_sorted(self):
        preds, truth = self.make_predictions([("bot", "bot"), ("human", "human")])
        report = score(preds, truth, config={"seed": 1})
        text = report.to_json()
        assert text == report.to_json()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert doc["metrics"]["precision"] == 1.0

    def test_json_timings_can_be_excluded(self):
        report = EvaluationReport(1, 0, 1, 0, 1.0, 1.0, 1.0, 1.0)
        report.timings = {"preprocess_s": 0.123}
        full = json.loads(report.to_json())
        core = json.loads(report.to_json(include_timings=False))
        assert "timings" in full and "timings" not in core
