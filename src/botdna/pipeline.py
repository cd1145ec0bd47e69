"""End-to-end evaluation protocols: encode, sketch, index, classify, score.

Every protocol, ``build_index`` too, sketches its users through one loop
(``_signatures``) that makes what ``signature_for`` makes (encode, shingle,
minhash), and hands the signatures to one core (``_run``) that indexes
the ground truth (or takes a given index), classifies the test side and
scores it.  The loop takes users a step of ``SKETCH_STEP`` at a time,
encodes the step with one ``encode_many`` call (one table lookup per
alphabet over each group of about 8192 posts), shingles it with one
``shingle_many`` call (one sort per group of about 8192 windows), and
minhashes it in habit order (``minhash.habit_anchor``), one ``minhash``
call per user, so that users who share shingles follow one another while
the memo's row block still holds their rows; signatures come out in input
order, and ``build_index`` holds at most one step of them outside the
index.

A signature depends only on (alphabets, k_shingle, num_perm, seed) and
the post cap, so configs that differ only in threshold, floor or split
share one sketch pass: ``grid_search`` sketches once per (alphabets,
k_shingle) group and ``gt_sweep`` once for all its fractions.

Every protocol is deterministic for a fixed (dataset, RunConfig): splits,
hash families, and band digests all derive from the config seed, so reruns
produce identical classifications.  Wall-clock timings and the peak-memory
estimate are measurement metadata and are the only report fields that vary
between runs.
"""

from __future__ import annotations

import hashlib
import resource
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import product, repeat

from .classify import EvaluationReport, Prediction, classify_many, score
from .data import Dataset, SplitSpec, cap_tweets, check_gt_fraction, check_max_tweets, filter_min_length, split
from .encoding import (BOT, CANONICAL_ALPHABET_ORDER, HUMAN, DnaSequence, UserTimeline, encode_many,
                       encode_user, resolve_alphabets)
from .errors import DuplicateUser, IncompatibleSignatures
from .lsh import LshIndex, check_floor, check_threshold, lsh_plan
from .minhash import (MinHashSignature, _check_integer, check_k_shingle, check_num_perm, check_seed, habit_anchor,
                      minhash, shingle, shingle_many)

ALPHABET_SUBSETS = (
    ("B3",),
    ("B5",),
    ("B9",),
    ("B3", "B5"),
    ("B3", "B9"),
    ("B5", "B9"),
    ("B3", "B5", "B9"),
)

DEFAULT_GRID_K = tuple(range(2, 16))
DEFAULT_GRID_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULT_EARLY_DETECTION_CAPS = tuple(range(20, 201, 20))
DEFAULT_GT_FRACTIONS = (0.1, 0.2, 0.3)


def canonical_alphabets(ids) -> tuple[str, ...]:
    """``ids`` in canonical order; an unknown or repeated id raises ``ValueError``."""
    if ids:  # none at all is left for RunConfig to reject
        resolve_alphabets(ids)
    return tuple(a for a in CANONICAL_ALPHABET_ORDER if a in ids)


@dataclass(frozen=True)
class RunConfig:
    alphabets: tuple[str, ...] = ("B3",)
    k_shingle: int = 4
    threshold: float = 0.4
    num_perm: int = 128
    seed: int = 42
    jaccard_floor: float | None = None  # None: follow the index threshold
    max_tweets: int | None = None
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self):
        # Each field by its module's rule, so a bad value fails before any file is read.
        resolve_alphabets(self.alphabets)
        checked = {"k_shingle": check_k_shingle(self.k_shingle), "threshold": check_threshold(self.threshold),
                   "num_perm": check_num_perm(self.num_perm), "seed": check_seed(self.seed)}
        if self.jaccard_floor is not None:
            checked["jaccard_floor"] = check_floor(self.jaccard_floor)
        if self.max_tweets is not None:
            checked["max_tweets"] = check_max_tweets(self.max_tweets)
        for name, value in checked.items():
            object.__setattr__(self, name, value)  # frozen; an integer is kept as int, so that reports print it as JSON

    def effective_floor(self) -> float:
        return self.threshold if self.jaccard_floor is None else self.jaccard_floor


def _ids_digest(ids: tuple[str, ...]) -> str:
    h = hashlib.blake2b(digest_size=8)
    for uid in ids:
        h.update(uid.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _split_echo(spec: SplitSpec) -> dict:
    if spec.mode == "fixed_lists":
        return {
            "mode": spec.mode,
            "gt_count": len(spec.gt_ids),
            "test_count": len(spec.test_ids),
            "ids_digest": _ids_digest(spec.gt_ids + ("|",) + spec.test_ids),
        }
    return {"mode": spec.mode, "gt_fraction": spec.gt_fraction, "seed": spec.seed}


def config_echo(cfg: RunConfig) -> dict:
    return {
        "alphabets": list(cfg.alphabets),
        "k_shingle": cfg.k_shingle,
        "threshold": cfg.threshold,
        "num_perm": cfg.num_perm,
        "seed": cfg.seed,
        "jaccard_floor": cfg.effective_floor(),
        "max_tweets": cfg.max_tweets,
        "split": _split_echo(cfg.split),
    }


def _now() -> float:
    return time.perf_counter()


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def signature_for(timeline: UserTimeline, cfg: RunConfig) -> MinHashSignature:
    """Encode -> shingle -> minhash for one user under a config."""
    return minhash(shingle(encode_user(timeline, cfg.alphabets), cfg.k_shingle), cfg.num_perm, cfg.seed)


# Users per ``_signatures`` step.  A step holds all its users' shingle sets
# (~3.7 KiB each for a 200-post user under B3+B5+B9 at k=6, ~1.8 KiB under
# B3 at k=4) and trades each for its signature (~1.2 KiB at 128
# permutations), so it peaks at ~7.5 MiB for 200-post sparse users.  The
# step is shingled a group of about ``minhash.GROUP_WINDOWS`` (8192)
# windows at a time, peaking at 0.3-0.6 MiB of working arrays per group
# (traced on random sequences: 200 symbols of B3 at k=4, 600 of all 17 at
# k=6); the sets
# of one group are views of its code and start arrays, which are freed
# with the group's last set.
SKETCH_STEP = 2048


def _sketch_step(users: list[UserTimeline], cfg: RunConfig) -> list[MinHashSignature]:
    """The users' signatures in input order.

    Encoded with one ``encode_many`` call, shingled with one ``shingle_many``
    call, minhashed in order of their sets' habit anchors.
    """
    dna = encode_many(users, cfg.alphabets)
    sets = shingle_many(dna, cfg.k_shingle)
    del dna  # freed before sketching, so the step's DNA and signatures do not peak together
    anchors = [habit_anchor(s) for s in sets]
    sigs = [None] * len(sets)
    for i in sorted(range(len(sets)), key=anchors.__getitem__):  # stable: ties keep input order
        sigs[i] = minhash(sets[i], cfg.num_perm, cfg.seed)
        sets[i] = None  # freed once sketched, so the step's sets and signatures do not peak together
    return sigs


def _signatures(users: list[UserTimeline], cfg: RunConfig) -> Iterator[MinHashSignature]:
    """Every user's signature under ``cfg``, as ``signature_for`` makes it, in input order.

    Users go ``SKETCH_STEP`` at a time: a step encodes all its users
    with one ``encode_many`` call and shingles them with one
    ``shingle_many`` call, then minhashes them in habit order, by
    each set's ``habit_anchor``, so that users who share shingles follow
    one another and reuse the rows the memo's block still holds.  A signature does not depend on what the
    memo holds, so the order changes no value.  Lazy: a step is made when
    its first signature is asked for, and only that step's sets and
    signatures are held here.
    """
    for lo in range(0, len(users), SKETCH_STEP):
        yield from _sketch_step(users[lo : lo + SKETCH_STEP], cfg)


def _sketch(users: list[UserTimeline], cfg: RunConfig) -> list[MinHashSignature]:
    """``_signatures`` as a list."""
    return list(_signatures(users, cfg))


def new_index(cfg: RunConfig) -> LshIndex:
    """An empty index for ``cfg``'s signatures, recording its encoding recipe."""
    plan = lsh_plan(cfg.threshold, cfg.num_perm)
    return LshIndex(plan, cfg.num_perm, cfg.seed, (cfg.alphabets, cfg.k_shingle))


def _index(users: list[UserTimeline], sigs: Iterable[MinHashSignature], cfg: RunConfig) -> LshIndex:
    index = new_index(cfg)
    index.insert_many(sigs, (user.label for user in users))
    return index


def build_index(users: list[UserTimeline], cfg: RunConfig) -> LshIndex:
    """Index every labeled user's signature.

    Sketched by ``_signatures``, a step at a time: ``insert_many`` writes
    each signature into the index as it comes, so at most one step of sets
    and signatures is held outside it.
    """
    return _index(users, _signatures(users, cfg), cfg)


def preprocess(ds: Dataset, cfg: RunConfig) -> tuple[Dataset, int]:
    """Cap and length-filter ``ds`` under ``cfg``; a repeated user id raises ``DuplicateUser``."""
    seen: set[str] = set()
    for user in ds.users:
        if user.user_id in seen:  # reports and sketches are keyed by id
            raise DuplicateUser(f"user id {user.user_id!r} repeats in dataset {ds.name!r}")
        seen.add(user.user_id)
    if cfg.max_tweets is not None:
        ds = cap_tweets(ds, cfg.max_tweets)
    return filter_min_length(ds, cfg.k_shingle, cfg.alphabets)


def _source_counts(datasets, removed: int) -> dict:
    return {
        "dataset_users": sum(len(ds) for ds in datasets),
        "removed_short": removed,
        "malformed_records": sum(ds.malformed_count for ds in datasets),
    }


def _run(
    cfg: RunConfig,
    ground_truth,
    test_users: list[UserTimeline],
    test_sigs: list[MinHashSignature],
    *,
    counts: dict,
    echo: dict,
    preprocess_s: float,
    scored: bool = True,
) -> tuple[list[Prediction], EvaluationReport | None]:
    """Index, classify and score already sketched users: the one protocol core.

    ``ground_truth`` is either a built ``LshIndex`` or a ``(users,
    signatures)`` pair to index under ``cfg``.  With ``scored`` false no
    report is made.  ``counts`` gives the dataset-side counts; the index
    and test sizes are added here.
    """
    t0 = _now()
    index = ground_truth if isinstance(ground_truth, LshIndex) else _index(*ground_truth, cfg)
    t1 = _now()
    predictions = classify_many(index, test_sigs, cfg.effective_floor())
    if not scored:
        return predictions, None
    report = score(predictions, {u.user_id: u.label for u in test_users}, config=echo)
    t2 = _now()
    report.counts = dict(counts, ground_truth_users=len(index), test_users=len(test_users))
    report.timings = {
        "preprocess_s": round(preprocess_s, 3),
        "build_s": round(t1 - t0, 3),
        "classify_s": round(t2 - t1, 3),
    }
    report.memory = {"peak_rss_mb": _peak_rss_mb(), "note": "approximate"}
    return predictions, report


def _evaluate_shared(ds: Dataset, cfgs: list[RunConfig]) -> list[EvaluationReport]:
    """Evaluate configs that differ only in threshold, floor and split.

    The dataset is preprocessed once, each distinct split is made once,
    and each user is sketched once, the first time a split needs them;
    all later configs reuse those signatures.  A report's ``preprocess_s``
    is the time that config added (preprocess, split, sketch), so a config
    that reuses everything reads 0.0.
    """
    t0 = _now()
    filtered, removed = preprocess(ds, cfgs[0])
    counts = _source_counts([ds], removed)
    sigs: dict[str, MinHashSignature] = {}
    sides: dict[SplitSpec, tuple] = {}  # split -> (gt users, gt sigs, test users, test sigs)
    reports = []
    for cfg in cfgs:
        if cfg.split in sides:
            preprocess_s = 0.0
        else:
            gt_ds, test_ds = split(filtered, cfg.split)
            fresh = [u for u in (*gt_ds.users, *test_ds.users) if u.user_id not in sigs]
            sigs.update(zip((u.user_id for u in fresh), _signatures(fresh, cfg)))
            sides[cfg.split] = (
                gt_ds.users,
                [sigs[u.user_id] for u in gt_ds.users],
                test_ds.users,
                [sigs[u.user_id] for u in test_ds.users],
            )
            preprocess_s = _now() - t0
        gt_users, gt_sigs, test_users, test_sigs = sides[cfg.split]
        _, report = _run(cfg, (gt_users, gt_sigs), test_users, test_sigs, counts=counts,
                         echo=config_echo(cfg), preprocess_s=preprocess_s)
        reports.append(report)
        t0 = _now()
    return reports


def evaluate(ds: Dataset, cfg: RunConfig) -> EvaluationReport:
    """Full protocol: preprocess, split, build ground-truth index, classify.

    Timings: ``preprocess_s`` covers capping/filtering, the split and
    signature generation for both sides, ``build_s`` the index
    construction, ``classify_s`` querying, voting, and scoring.
    """
    [report] = _evaluate_shared(ds, [cfg])
    return report


def cross_dataset(gt_ds: Dataset, test_ds: Dataset, cfg: RunConfig) -> EvaluationReport:
    """Build the index from one dataset, classify another in full."""
    t0 = _now()
    gt_filtered, gt_removed = preprocess(gt_ds, cfg)
    test_filtered, test_removed = preprocess(test_ds, cfg)
    gt_users = gt_filtered.labeled()
    gt_sigs, test_sigs = _sketch(gt_users, cfg), _sketch(test_filtered.users, cfg)
    _, report = _run(
        cfg,
        (gt_users, gt_sigs),
        test_filtered.users,
        test_sigs,
        counts=_source_counts([gt_ds, test_ds], gt_removed + test_removed),
        echo=dict(config_echo(cfg), ground_truth_dataset=gt_ds.name, test_dataset=test_ds.name),
        preprocess_s=_now() - t0,
    )
    return report


def _rank_key(report: EvaluationReport):
    f1 = report.f1 if report.f1 is not None else -1.0
    cfg = report.config
    return (-f1, cfg["k_shingle"], -cfg["threshold"], tuple(cfg["alphabets"]))


def grid_configs(
    base: RunConfig, ks=DEFAULT_GRID_K, thresholds=DEFAULT_GRID_THRESHOLDS, alphabet_subsets=ALPHABET_SUBSETS
) -> list[list[RunConfig]]:
    """Every grid cell's ``RunConfig``, grouped by ``(alphabets, k_shingle)``.

    An empty grid raises ``ValueError``, and so does a cell given twice,
    alphabets compared in canonical order.
    """
    groups: dict[tuple, list[RunConfig]] = {}
    for alphas, k, t in product(alphabet_subsets, ks, thresholds):
        cfg = replace(base, alphabets=canonical_alphabets(alphas), k_shingle=k, threshold=t)
        cells = groups.setdefault((cfg.alphabets, k), [])
        if cfg in cells:  # the same report twice
            raise ValueError(f"grid cell {cfg.alphabets} k={k} threshold={t} repeats")
        cells.append(cfg)
    if not groups:
        raise ValueError("empty grid")
    return list(groups.values())


def check_jobs(jobs: int) -> int:
    """``jobs`` as ``int``; ``ValueError`` unless an integer of at least 1. The one rule for it."""
    jobs = _check_integer("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    """A ``concurrent.futures.ProcessPoolExecutor``, imported on first use.

    Only a grid run in a pool needs one, and importing it loads
    ``multiprocessing``, which ``import botdna`` otherwise never does.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def grid_search(
    ds: Dataset,
    base: RunConfig,
    ks=DEFAULT_GRID_K,
    thresholds=DEFAULT_GRID_THRESHOLDS,
    alphabet_subsets=ALPHABET_SUBSETS,
    jobs: int = 1,
) -> list[EvaluationReport]:
    """Evaluate every grid cell under the shared split seed; rank by F1.

    The dataset is capped to ``base.max_tweets`` once, before any group,
    and no group cuts it again; ``preprocess_s`` does not count that cap.
    Cells that share ``(alphabets, k_shingle)`` form one group: the group
    is preprocessed, split, encoded and sketched once, and only the index,
    classify and score steps run per threshold.  The first cell of a group
    carries the group's ``preprocess_s``; its other cells read 0.0.  With
    ``jobs > 1`` the groups run in a process pool of ``min(jobs, groups)``
    workers, one task per group, so the dataset is pickled once per group;
    otherwise they run one after another in this process, each the same
    task.  ``jobs < 1`` raises ``ValueError``.

    Ties break toward smaller k, then larger threshold.  Cell execution
    order never affects the ranking.
    """
    jobs = check_jobs(jobs)
    groups = grid_configs(base, ks, thresholds, alphabet_subsets)
    if base.max_tweets is not None:  # every cell shares the cap: capped here, no group caps again
        ds = cap_tweets(ds, base.max_tweets)
    workers = min(jobs, len(groups))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_shared, repeat(ds, len(groups)), groups))
    else:
        results = list(map(_evaluate_shared, repeat(ds, len(groups)), groups))
    return sorted((r for reports in results for r in reports), key=_rank_key)


def check_caps(caps) -> list[int]:
    """``caps`` as a list if each is a valid ``max_tweets`` and they strictly ascend, else ``ValueError``."""
    caps = [check_max_tweets(cap) for cap in caps]
    if any(a >= b for a, b in zip(caps, caps[1:])):
        raise ValueError(f"caps must be ascending without repeats, got {caps}")
    return caps


def early_detection(ds: Dataset, cfg: RunConfig, caps=DEFAULT_EARLY_DETECTION_CAPS) -> list[tuple[int, EvaluationReport]]:
    """Cap each user to their first K posts and re-evaluate on one split.

    The ground-truth/test membership is decided once on the uncapped
    dataset and frozen; users whose capped sequence falls below the
    shingle width are dropped from their side for that K.  Each cap is
    applied once, and ``evaluate`` runs on the capped dataset.  A
    ``cfg.max_tweets`` raises ``ValueError``: the caps replace it.
    """
    if cfg.max_tweets is not None:
        raise ValueError("early_detection sweeps its own caps; cfg.max_tweets must be None")
    caps = check_caps(caps)
    filtered, _ = preprocess(ds, cfg)
    gt_ds, test_ds = split(filtered, cfg.split)
    gt_ids = tuple(u.user_id for u in gt_ds.users)
    test_ids = tuple(u.user_id for u in test_ds.users)

    results = []
    for cap in caps:
        capped_ds = cap_tweets(ds, cap)  # evaluate's own cap then finds nothing to cut
        capped, _ = filter_min_length(capped_ds, cfg.k_shingle, cfg.alphabets)
        surviving = {u.user_id for u in capped.users}
        spec = SplitSpec(
            mode="fixed_lists",
            gt_ids=tuple(u for u in gt_ids if u in surviving),
            test_ids=tuple(u for u in test_ids if u in surviving),
        )
        run_cfg = replace(cfg, max_tweets=cap, split=spec)
        results.append((cap, evaluate(capped_ds, run_cfg)))
    return results


def check_fractions(fractions) -> list[float]:
    """``fractions`` as a list if each is a valid ``gt_fraction`` and none repeats, else ``ValueError``."""
    fractions = list(fractions)
    for fraction in fractions:
        check_gt_fraction(fraction)
    if len(set(fractions)) < len(fractions):
        raise ValueError(f"fractions must not repeat, got {fractions}")
    return fractions


def gt_sweep(ds: Dataset, cfg: RunConfig, fractions=DEFAULT_GT_FRACTIONS) -> list[tuple[float, EvaluationReport]]:
    """Re-evaluate with increasing ground-truth fractions under one seed.

    The per-label shuffle is fixed by the seed, so smaller fractions use
    prefixes of the larger ones and the test side shrinks accordingly.
    Users are sketched once; only the split changes between fractions.
    """
    if cfg.split.mode != "random_fraction":
        raise ValueError("gt_sweep requires a random_fraction split spec")
    fractions = check_fractions(fractions)
    cfgs = [replace(cfg, split=replace(cfg.split, gt_fraction=f)) for f in fractions]
    return list(zip(fractions, _evaluate_shared(ds, cfgs))) if cfgs else []


def encode_dataset(ds: Dataset, alphabets) -> list[DnaSequence]:
    """Debug helper: the DNA string of every user in the dataset."""
    return encode_many(ds.users, alphabets)


def classify_against_index(
    index: LshIndex, ds: Dataset, cfg: RunConfig
) -> tuple[list, EvaluationReport | None]:
    """Classify a query dataset against a persisted index.

    Returns per-user predictions, plus a scored report when every query
    carries a truth label.  The report's ``build_s`` is 0.0: the index is
    given.  The index must hold ``cfg``'s hash family (num_perm and
    seed), and one whose recipe is known must have been sketched under
    ``cfg``'s alphabets, in the same order, and k_shingle, or
    ``IncompatibleSignatures`` is raised before any query is sketched; one
    with no recipe (built by hand) is taken as it is.
    """
    wanted = (tuple(cfg.alphabets), cfg.k_shingle)
    if index.recipe is not None and index.recipe != wanted:
        raise IncompatibleSignatures(f"index built with alphabets={list(index.recipe[0])}, "
                                     f"k_shingle={index.recipe[1]}; queries sketched with "
                                     f"alphabets={list(wanted[0])}, k_shingle={wanted[1]}")
    if (index.num_perm, index.seed) != (cfg.num_perm, cfg.seed):
        raise IncompatibleSignatures(f"index built with num_perm={index.num_perm}, seed={index.seed}; "
                                     f"queries sketched with num_perm={cfg.num_perm}, seed={cfg.seed}")
    t0 = _now()
    filtered, removed = preprocess(ds, cfg)
    sigs = _sketch(filtered.users, cfg)
    return _run(
        cfg,
        index,
        filtered.users,
        sigs,
        counts=_source_counts([ds], removed),
        echo=config_echo(cfg),
        preprocess_s=_now() - t0,
        scored=bool(filtered.users) and all(u.label in (HUMAN, BOT) for u in filtered.users),
    )
