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

Each user's posts load straight into the columns of a ``UserTimeline``;
no ``PostRecord`` is built per record.  A column's stored type (uint8,
uint32 or int64) depends on its values alone, so JSONL, CSV and
``PostRecord`` builds of one corpus store identical columns.  A record is
malformed when a field is missing, its timestamp is not a positive int64,
a count is not a non-negative int64 (no value is truncated or wrapped), or
its kind is not one of ``POST_KINDS``.  In JSONL, ``tweets`` must be an array, and a user
without a well-formed tweet is one more malformed record.

Files are read as bytes and decoded as UTF-8 one line at a time, so a line
holding an invalid byte is one malformed record (in CSV, the row it
belongs to).  Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as in text mode.

Malformed records are counted and reported on the returned dataset; a file
where more than 1% of records are bad raises IntegrityError, and a file
yielding no users at all raises FormatError.
"""

from __future__ import annotations

import csv
import json
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .encoding import BOT, HUMAN, POST_KIND_CODES, UserTimeline, kind_codes, to_int64
from .errors import FormatError, IntegrityError, UnknownUser
from .minhash import _check_integer, check_seed, rng_for

MALFORMED_LIMIT = 0.01

# The loaders' read buffer.  A JSONL line holds a whole user, tens of KiB,
# and reading such lines through the default 8 KiB buffer took 13.5 ms for a
# 15.8 MB corpus against 7.8 ms in text mode; through 256 KiB, 3.4 ms.
_READ_BUFFER = 1 << 18

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


def check_gt_fraction(fraction: float) -> None:
    """Raise ``ValueError`` unless ``fraction`` is in (0, 1); the one rule for ``gt_fraction``."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"gt_fraction must be in (0, 1), got {fraction}")


def check_max_tweets(cap: int) -> int:
    """``cap`` as ``int``; ``ValueError`` unless a positive integer. The one rule for ``max_tweets``."""
    cap = _check_integer("max_tweets", cap)
    if cap < 1:
        raise ValueError(f"max_tweets must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class SplitSpec:
    """A seeded stratified random split, or explicit id lists: tuples, with no id in them twice."""

    mode: str = "random_fraction"  # or "fixed_lists"
    gt_fraction: float = 0.70
    seed: int = 42
    gt_ids: tuple[str, ...] = ()
    test_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in ("random_fraction", "fixed_lists"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        check_gt_fraction(self.gt_fraction)
        object.__setattr__(self, "seed", check_seed(self.seed))  # frozen; kept as int
        for name in ("gt_ids", "test_ids"):
            object.__setattr__(self, name, tuple(getattr(self, name)))  # frozen
        counts = Counter(self.gt_ids + self.test_ids)
        if len(counts) < len(self.gt_ids) + len(self.test_ids):
            twice = sorted(uid for uid, n in counts.items() if n > 1)
            raise ValueError(f"ids repeated within or across gt_ids and test_ids: {twice[:5]}")


def _coerce_label(value) -> str | None:
    if value is None or value == "":
        return None
    if value in (HUMAN, BOT):
        return value
    raise ValueError(f"bad label {value!r}")


# What a malformed record raises while its fields are read and checked.
_RECORD_ERRORS = (ValueError, KeyError, TypeError)


def _check_signs(ts: int, urls: int, hashtags: int, mentions: int) -> None:
    """Raise ``ValueError`` unless the timestamp is positive and no count is negative."""
    if ts <= 0:
        raise ValueError(f"timestamp must be positive, got {ts}")
    if min(urls, hashtags, mentions) < 0:
        raise ValueError("entity counts must be non-negative")


def _post_fields(ts, kind, urls, hashtags, mentions) -> tuple[int, int, int, int, int]:
    """One record's post as (timestamp, kind code, urls, hashtags, mentions), each integer an int64."""
    post = (to_int64(ts), POST_KIND_CODES[kind], to_int64(urls), to_int64(hashtags), to_int64(mentions))
    _check_signs(post[0], *post[2:])
    return post


def _finish(name: str, provenance: str, users: list[UserTimeline], malformed: int, total: int) -> Dataset:
    if not users:
        raise FormatError(f"{provenance}: no users could be parsed")
    if malformed > MALFORMED_LIMIT * total:
        raise IntegrityError(
            f"{provenance}: {malformed} of {total} records malformed (limit {MALFORMED_LIMIT:.0%})"
        )
    return Dataset(name, users, provenance, malformed)


class _Utf8Lines:
    """A binary file's lines, each decoded as UTF-8 with its ending.

    Lines are split where text mode splits them.  A line that is not UTF-8
    is decoded with ``surrogateescape`` instead, so that a parser still sees
    its separators and quotes, and sets ``invalid``, which the reader clears
    once it has counted the record the line belongs to as malformed.
    """

    def __init__(self, fh):
        self._fh = fh
        self.invalid = False

    def __iter__(self):
        for raw in self._fh:
            for line in raw.splitlines(keepends=True) if b"\r" in raw else (raw,):
                try:
                    yield line.decode("utf-8")
                except UnicodeDecodeError:
                    self.invalid = True
                    yield line.decode("utf-8", "surrogateescape")

    def take_invalid(self) -> bool:
        """Whether a line read since the last call was not UTF-8."""
        invalid, self.invalid = self.invalid, False
        return invalid


# A tweet's post fields, in ``PostRecord`` order, read in one call when it has all five.
_TWEET_FIELDS = operator.itemgetter("ts", "kind", "urls", "hashtags", "mentions")


def _tweet_fields(tweet: dict) -> tuple:
    """``_TWEET_FIELDS`` of a tweet that may leave out an entity count, which is then 0."""
    return tweet["ts"], tweet["kind"], tweet.get("urls", 0), tweet.get("hashtags", 0), tweet.get("mentions", 0)


def _jsonl_timeline(user_id: str, label: str | None, tweets: list) -> tuple[UserTimeline | None, int]:
    """The timeline of the user's well-formed tweets (None if none is) and the malformed count."""
    if not tweets:
        return None, 0
    try:  # every tweet at once, checked by column
        try:
            ts, kinds, *counts = zip(*map(_TWEET_FIELDS, tweets))
        except KeyError:  # some tweet leaves out a field
            ts, kinds, *counts = zip(*map(_tweet_fields, tweets))
        timeline = UserTimeline.from_columns(user_id, label, ts, kind_codes(kinds), *counts)
        # Every value passes if the least ones do; sorted, timestamps[0] is the least.
        _check_signs(timeline._timestamps[0], timeline._urls.min(), timeline._hashtags.min(),
                     timeline._mentions.min())
        return timeline, 0
    except _RECORD_ERRORS:
        pass
    posts = []  # some tweet is malformed: find which, one by one
    for tweet in tweets:
        try:
            posts.append(_post_fields(*_tweet_fields(tweet)))
        except _RECORD_ERRORS:
            pass
    timeline = UserTimeline.from_columns(user_id, label, *zip(*posts)) if posts else None
    return timeline, len(tweets) - len(posts)


def _load_jsonl(path: Path) -> Dataset:
    users: list[UserTimeline] = []
    seen: set[str] = set()
    malformed = 0
    total = 0
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        lines = _Utf8Lines(fh)
        for line in lines:
            if not line.strip():
                continue
            total += 1
            try:
                if lines.take_invalid():
                    raise ValueError("line is not UTF-8")
                doc = json.loads(line)  # RecursionError: nested past the parser's depth
                user_id = doc["user_id"]
                if not isinstance(user_id, str) or not user_id or user_id in seen:
                    raise ValueError(f"bad or duplicate user_id {user_id!r}")
                user_id.encode("utf-8")  # a lone surrogate ("\ud800") cannot be saved
                label = _coerce_label(doc.get("label"))
                tweets = doc["tweets"]
                if not isinstance(tweets, list):  # null, a number, a string, an object
                    raise TypeError(f"tweets must be an array, got {type(tweets).__name__}")
            except (*_RECORD_ERRORS, RecursionError):
                malformed += 1
                continue
            total += len(tweets)
            timeline, bad = _jsonl_timeline(user_id, label, tweets)
            malformed += bad
            if timeline is None:
                malformed += 1
                continue
            seen.add(user_id)
            users.append(timeline)
    return _finish(path.stem, str(path), users, malformed, total)


_CSV_COLUMNS = ("user_id", "label", "ts", "kind", "urls", "hashtags", "mentions")


def _csv_rows(reader: csv.DictReader):
    """The reader's rows, with None for a row the parser rejects (a field past its size limit)."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error:  # the reader resumes at the next row
            yield None


def _load_csv(path: Path) -> Dataset:
    # Per user, in order of its first good row: its posts' fields, row after row,
    # in one int64 array, so no object is kept per row.
    rows_by_user: dict[str, array] = {}
    label_by_user: dict[str, str | None] = {}
    malformed = 0
    total = 0
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        lines = _Utf8Lines(fh)
        reader = csv.DictReader(lines)
        try:
            header = reader.fieldnames
        except csv.Error as exc:
            raise FormatError(f"{path}: unreadable CSV header: {exc}") from exc
        if lines.take_invalid():
            raise FormatError(f"{path}: the CSV header is not UTF-8")
        if header is None or not set(_CSV_COLUMNS) <= set(header):
            raise FormatError(f"{path}: expected CSV header with columns {','.join(_CSV_COLUMNS)}")
        for row in _csv_rows(reader):
            total += 1
            invalid = lines.take_invalid()
            try:
                if row is None:
                    raise ValueError("row rejected by the CSV parser")
                if invalid:
                    raise ValueError("row is not UTF-8")
                user_id = row["user_id"]
                if not user_id:
                    raise ValueError("empty user_id")
                label = _coerce_label(row["label"])
                post = _post_fields(row["ts"], row["kind"], row["urls"], row["hashtags"], row["mentions"])
                if user_id in label_by_user:
                    known = label_by_user[user_id]
                    if label is not None and known is not None and label != known:
                        raise ValueError(f"conflicting labels for {user_id!r}")
                    if known is None:
                        label_by_user[user_id] = label
                else:
                    label_by_user[user_id] = label
                    rows_by_user[user_id] = array("q")
                rows_by_user[user_id].extend(post)
            except _RECORD_ERRORS:
                malformed += 1
    width = len(_CSV_COLUMNS) - 2  # the post fields after user_id and label
    users = [
        UserTimeline.from_columns(uid, label_by_user[uid], *(rows[i::width] for i in range(width)))
        for uid, rows in rows_by_user.items()
    ]
    return _finish(path.stem, str(path), users, malformed, total)


def load(path, format: str = "jsonl") -> Dataset:
    """Read a dataset file into timelines, each sorted by timestamp."""
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
    kept = [u for u in ds.users if len(u) * width >= k]
    removed = len(ds.users) - len(kept)
    return Dataset(ds.name, kept, ds.provenance, ds.malformed_count), removed


def cap_tweets(ds: Dataset, max_tweets: int) -> Dataset:
    """Keep only each user's chronologically first max_tweets posts."""
    max_tweets = check_max_tweets(max_tweets)
    users = [u.first(max_tweets) if len(u) > max_tweets else u for u in ds.users]
    return Dataset(ds.name, users, ds.provenance, ds.malformed_count)


def _stratified_quotas(sizes: dict[str, int], fraction: float) -> dict[str, int]:
    """Per-label take counts: floors plus largest-remainder top-up."""
    total_target = round(fraction * sum(sizes.values()))
    quotas = {label: int(fraction * n) for label, n in sizes.items()}
    remainders = sorted(
        sizes, key=lambda label: (-(fraction * sizes[label] - quotas[label]), label)
    )
    # Below a fraction of 1, a floor is under its size and the shortfall is at most one per label.
    for label in remainders[: total_target - sum(quotas.values())]:
        quotas[label] += 1
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
        for uid in spec.gt_ids:
            if by_id[uid].label not in (HUMAN, BOT):
                raise ValueError(f"ground-truth user {uid!r} has no label")
        gt_users = [by_id[u] for u in spec.gt_ids]
        test_users = [by_id[u] for u in spec.test_ids]
    else:  # random_fraction
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
    gt = Dataset(ds.name, gt_users, ds.provenance, 0)
    test = Dataset(ds.name, test_users, ds.provenance, 0)
    return gt, test


def read_id_list(path) -> tuple[str, ...]:
    """Plain-text split file: one user id per line, blanks ignored, decoded as the loaders decode."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    ids = []
    with open(path, "rb") as fh:
        lines = _Utf8Lines(fh)
        for number, line in enumerate(lines, start=1):
            if lines.take_invalid():
                raise FormatError(f"{path}: line {number} is not UTF-8")
            if line.strip():
                ids.append(line.strip())
    return tuple(ids)
