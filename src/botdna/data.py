"""Dataset ingestion, preprocessing filters, and ground-truth/test splits.

Input formats
-------------
JSONL, one user per line::

    {"user_id": "u1", "label": "bot", "tweets": [
        {"ts": 100, "kind": "plain", "urls": 0, "hashtags": 1, "mentions": 0}]}

``label`` is ``"human"``, ``"bot"``, or ``null``.  CSV carries one row per
tweet with a header of ``user_id,label,ts,kind,urls,hashtags,mentions``;
rows are grouped by user at load.  Fixed split files are plain text with
one user id per line.

Malformed records are counted and reported on the returned dataset; a file
where more than 1% of records are bad raises IntegrityError, and a file
yielding no users at all raises FormatError.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .encoding import BOT, HUMAN, POST_KINDS, PostRecord, UserTimeline
from .errors import FormatError, IntegrityError, UnknownUser
from .minhash import rng_for

MALFORMED_LIMIT = 0.01

_TAG_SPLIT = 3


@dataclass
class Dataset:
    name: str
    users: list[UserTimeline]
    provenance: str = ""
    malformed_count: int = 0

    def __len__(self) -> int:
        return len(self.users)

    def labeled(self) -> list[UserTimeline]:
        return [u for u in self.users if u.label in (HUMAN, BOT)]

    def by_id(self) -> dict[str, UserTimeline]:
        return {u.user_id: u for u in self.users}


@dataclass(frozen=True)
class SplitSpec:
    """Either a seeded stratified random split or explicit id lists."""

    mode: str = "random_fraction"  # or "fixed_lists"
    gt_fraction: float = 0.70
    seed: int = 42
    gt_ids: tuple[str, ...] = ()
    test_ids: tuple[str, ...] = ()


def _coerce_label(value) -> str | None:
    if value is None or value == "":
        return None
    if value in (HUMAN, BOT):
        return value
    raise ValueError(f"bad label {value!r}")


def _coerce_post(ts, kind, urls, hashtags, mentions) -> PostRecord:
    ts = int(ts)
    urls, hashtags, mentions = int(urls), int(hashtags), int(mentions)
    if ts <= 0:
        raise ValueError(f"timestamp must be positive, got {ts}")
    if kind not in POST_KINDS:
        raise ValueError(f"bad kind {kind!r}")
    if min(urls, hashtags, mentions) < 0:
        raise ValueError("negative entity count")
    return PostRecord(ts, kind, urls, hashtags, mentions)


def _finish(name: str, provenance: str, users: list[UserTimeline], malformed: int, total: int) -> Dataset:
    if not users:
        raise FormatError(f"{provenance}: no users could be parsed")
    if malformed > MALFORMED_LIMIT * total:
        raise IntegrityError(
            f"{provenance}: {malformed} of {total} records malformed (limit {MALFORMED_LIMIT:.0%})"
        )
    for user in users:
        user.posts.sort(key=lambda p: p.timestamp)
    return Dataset(name, users, provenance, malformed)


def _load_jsonl(path: Path) -> Dataset:
    users: list[UserTimeline] = []
    seen: set[str] = set()
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            total += 1
            try:
                doc = json.loads(line)
                user_id = doc["user_id"]
                if not isinstance(user_id, str) or not user_id or user_id in seen:
                    raise ValueError(f"bad or duplicate user_id {user_id!r}")
                user_id.encode("utf-8")  # a lone surrogate ("\ud800") cannot be saved
                label = _coerce_label(doc.get("label"))
                raw_tweets = iter(doc["tweets"])  # a TypeError for null or a number
            except (ValueError, KeyError, TypeError):
                malformed += 1
                continue
            posts = []
            for tweet in raw_tweets:
                total += 1
                try:
                    posts.append(
                        _coerce_post(
                            tweet["ts"],
                            tweet["kind"],
                            tweet.get("urls", 0),
                            tweet.get("hashtags", 0),
                            tweet.get("mentions", 0),
                        )
                    )
                except (ValueError, KeyError, TypeError, OverflowError):  # int(1e400) overflows
                    malformed += 1
            if not posts:
                malformed += 1
                continue
            seen.add(user_id)
            users.append(UserTimeline(user_id, label, posts))
    return _finish(path.stem, str(path), users, malformed, total)


_CSV_COLUMNS = ("user_id", "label", "ts", "kind", "urls", "hashtags", "mentions")


def _load_csv(path: Path) -> Dataset:
    order: list[str] = []
    posts_by_user: dict[str, list[PostRecord]] = {}
    label_by_user: dict[str, str | None] = {}
    malformed = 0
    total = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(_CSV_COLUMNS) <= set(reader.fieldnames):
            raise FormatError(f"{path}: expected CSV header with columns {','.join(_CSV_COLUMNS)}")
        for row in reader:
            total += 1
            try:
                user_id = row["user_id"]
                if not user_id:
                    raise ValueError("empty user_id")
                label = _coerce_label(row["label"])
                post = _coerce_post(row["ts"], row["kind"], row["urls"], row["hashtags"], row["mentions"])
                if user_id in label_by_user:
                    known = label_by_user[user_id]
                    if label is not None and known is not None and label != known:
                        raise ValueError(f"conflicting labels for {user_id!r}")
                    if known is None:
                        label_by_user[user_id] = label
                else:
                    order.append(user_id)
                    label_by_user[user_id] = label
                    posts_by_user[user_id] = []
                posts_by_user[user_id].append(post)
            except (ValueError, KeyError, TypeError):
                malformed += 1
    users = [
        UserTimeline(uid, label_by_user[uid], posts_by_user[uid]) for uid in order if posts_by_user[uid]
    ]
    return _finish(path.stem, str(path), users, malformed, total)


def load(path, format: str = "jsonl") -> Dataset:
    """Read a dataset file; posts come back sorted by timestamp."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    if path.stat().st_size == 0:
        raise FormatError(f"empty file: {path}")
    if format == "jsonl":
        return _load_jsonl(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")


def filter_min_length(ds: Dataset, k: int, alphabets) -> tuple[Dataset, int]:
    """Drop users whose encoded length ``posts * alphabets`` is below k."""
    width = len(alphabets)
    kept = [u for u in ds.users if len(u.posts) * width >= k]
    removed = len(ds.users) - len(kept)
    return Dataset(ds.name, kept, ds.provenance, ds.malformed_count), removed


def cap_tweets(ds: Dataset, max_k: int) -> Dataset:
    """Keep only each user's chronologically first max_k posts."""
    if max_k < 1:
        raise ValueError(f"max_k must be positive, got {max_k}")
    users = [
        replace(u, posts=u.posts[:max_k]) if len(u.posts) > max_k else u for u in ds.users
    ]
    return Dataset(ds.name, users, ds.provenance, ds.malformed_count)


def _stratified_quotas(sizes: dict[str, int], fraction: float) -> dict[str, int]:
    """Per-label take counts: floors plus largest-remainder top-up."""
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


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition into (ground_truth, test).

    Random mode shuffles each label group under the seed and takes the
    first ``gt_fraction`` for ground truth; unlabeled users always land in
    the test side.  Fixed mode takes the exact id lists.
    """
    if spec.mode == "fixed_lists":
        by_id = ds.by_id()
        for uid in (*spec.gt_ids, *spec.test_ids):
            if uid not in by_id:
                raise UnknownUser(
                    f"split user id {uid!r} is not among the dataset's users after the "
                    "min-length filter: it is absent from the data or too short to shingle"
                )
        overlap = set(spec.gt_ids) & set(spec.test_ids)
        if overlap:
            raise ValueError(f"ids in both splits: {sorted(overlap)[:5]}")
        for uid in spec.gt_ids:
            if by_id[uid].label not in (HUMAN, BOT):
                raise ValueError(f"ground-truth user {uid!r} has no label")
        gt_users = [by_id[u] for u in spec.gt_ids]
        test_users = [by_id[u] for u in spec.test_ids]
    elif spec.mode == "random_fraction":
        if not 0.0 < spec.gt_fraction < 1.0:
            raise ValueError(f"gt_fraction must be in (0, 1), got {spec.gt_fraction}")
        rng = rng_for(spec.seed, _TAG_SPLIT)
        groups: dict[str, list[UserTimeline]] = {HUMAN: [], BOT: []}
        unlabeled: list[UserTimeline] = []
        for user in ds.users:
            if user.label in groups:
                groups[user.label].append(user)
            else:
                unlabeled.append(user)
        quotas = _stratified_quotas(
            {label: len(g) for label, g in groups.items() if g}, spec.gt_fraction
        )
        gt_users, test_users = [], []
        for label in sorted(groups):
            members = groups[label]
            if not members:
                continue
            order = rng.permutation(len(members))
            take = quotas[label]
            gt_users.extend(members[i] for i in order[:take])
            test_users.extend(members[i] for i in order[take:])
        test_users.extend(unlabeled)
    else:
        raise ValueError(f"unknown split mode {spec.mode!r}")
    gt = Dataset(ds.name, gt_users, ds.provenance, 0)
    test = Dataset(ds.name, test_users, ds.provenance, 0)
    return gt, test


def read_id_list(path) -> tuple[str, ...]:
    """Plain-text split file: one user id per line, blanks ignored."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        return tuple(line.strip() for line in fh if line.strip())
