"""Majority-vote classification over LSH candidates, plus metric scoring.

A query user is labeled a bot when strictly more than half of its retrieved
neighbors are bots; ties and empty neighborhoods fall to human.  Metrics
treat bot as the positive class; ratios with a zero denominator are
reported as None rather than 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .encoding import BOT, HUMAN
from .errors import MissingLabel
from .lsh import LshIndex, Neighbor
from .minhash import MinHashSignature


@dataclass(frozen=True)
class NeighborSet:
    query_id: str
    neighbors: list[Neighbor]


@dataclass(frozen=True)
class Prediction:
    query_id: str
    predicted: str
    neighbor_count: int
    bot_votes: int
    no_neighbor_flag: bool


def _majority(query_id: str, n: int, bot_votes: int) -> Prediction:
    predicted = BOT if 2 * bot_votes > n else HUMAN
    return Prediction(query_id, predicted, n, bot_votes, no_neighbor_flag=n == 0)


def vote(neighbors: NeighborSet) -> Prediction:
    """Majority vote: bot iff bot votes exceed half the neighborhood."""
    bot_votes = sum(1 for nb in neighbors.neighbors if nb.label == BOT)
    return _majority(neighbors.query_id, len(neighbors.neighbors), bot_votes)


def classify(index: LshIndex, sig: MinHashSignature, jaccard_floor: float | None = None) -> Prediction:
    """Retrieve candidates, drop those below the Jaccard floor, vote.

    ``jaccard_floor`` defaults to the index's plan threshold; pass 0.0 to
    keep every banding candidate.  Gives the same prediction as ``vote``
    over the ``index.query`` neighbors whose ``jaccard`` reaches the floor,
    but builds no ``Neighbor``.  This is ``classify_many`` of one signature.
    """
    [prediction] = classify_many(index, [sig], jaccard_floor)
    return prediction


def classify_many(
    index: LshIndex, sigs: list[MinHashSignature], jaccard_floor: float | None = None
) -> list[Prediction]:
    """``classify`` each signature, in order, from ``index.neighbor_votes``.

    A signature not matching the index raises before any is classified.
    """
    floor = index.plan.threshold if jaccard_floor is None else jaccard_floor
    votes = index.neighbor_votes(sigs, floor)
    return [_majority(sig.user_id, n, bot_votes) for sig, (n, bot_votes) in zip(sigs, votes)]


@dataclass
class EvaluationReport:
    """Confusion counts and derived metrics, with bot as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float | None
    no_neighbor_count: int = 0
    config: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        doc = {
            "config": self.config,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "counts": dict(self.counts, no_neighbor=self.no_neighbor_count),
            "metrics": {
                "accuracy": self.accuracy,
                "f1": self.f1,
                "precision": self.precision,
                "recall": self.recall,
            },
        }
        if include_timings:
            doc["timings"] = self.timings
            doc["memory"] = self.memory
        return doc

    def to_json(self, include_timings: bool = True) -> str:
        """Stable JSON form: sorted keys, 2-space indent, trailing newline.

        ``include_timings=False`` yields the deterministic core -- the
        parts guaranteed byte-identical across repeated runs.
        """
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2) + "\n"


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def score(predictions: list[Prediction], truth: dict[str, str], config: dict | None = None) -> EvaluationReport:
    """Confusion-matrix metrics for predictions against a truth label map."""
    tp = fp = tn = fn = 0
    no_neighbor = 0
    for pred in predictions:
        try:
            actual = truth[pred.query_id]
        except KeyError:
            raise MissingLabel(pred.query_id) from None
        if actual not in (HUMAN, BOT):
            raise MissingLabel(f"{pred.query_id}: label {actual!r}")
        if pred.no_neighbor_flag:
            no_neighbor += 1
        if pred.predicted == BOT:
            if actual == BOT:
                tp += 1
            else:
                fp += 1
        else:
            if actual == BOT:
                fn += 1
            else:
                tn += 1
    return EvaluationReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=_ratio(tp, tp + fp),
        recall=_ratio(tp, tp + fn),
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
        accuracy=_ratio(tp + tn, tp + fp + tn + fn),
        no_neighbor_count=no_neighbor,
        config=config or {},
    )
