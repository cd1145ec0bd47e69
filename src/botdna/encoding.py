"""Behavioral DNA encoding of user timelines.

A user's post history becomes a string of symbols, one symbol per post per
alphabet.  Three built-in alphabets are supported:

* ``B3`` (post type): A = plain post, C = repost/retweet, T = reply.
* ``B5`` (post content): which entity categories (URLs, hashtags, mentions)
  a post carries -- X for two or more categories, U/H/M for exactly one,
  N for none.
* ``B9`` (posting tempo): the time elapsed since the user's previous post,
  bucketed into nine ranges from "within an hour" up to "over a month".

With several alphabets the per-post symbols are interleaved in the declared
alphabet order, so the sequence length is ``len(posts) * len(alphabets)``.

A ``UserTimeline`` keeps its posts as numpy columns sorted by timestamp,
and ``encode_user`` encodes them by table lookup.  ``encode_b3``,
``encode_b5`` and ``encode_b9`` are the per-post specification: the lookup
tables are built from them, and the tests check the two against each other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import EmptyTimeline

HUMAN = "human"
BOT = "bot"

POST_KINDS = ("plain", "retweet", "reply")
POST_KIND_CODES = {kind: code for code, kind in enumerate(POST_KINDS)}

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
# Calendar-free month so encoding never depends on the wall-clock date.
SECONDS_PER_MONTH = 30 * SECONDS_PER_DAY

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class PostRecord(NamedTuple):
    """One post: when it happened, what kind it was, which entities it carried."""

    timestamp: int
    kind: str
    url_count: int = 0
    hashtag_count: int = 0
    mention_count: int = 0


def to_int64(value) -> int:
    """``value`` as an int64, or ``ValueError``.

    Integers, integral floats and integer strings pass; a bool fails,
    though it compares equal to 0 or 1; a non-integral value is never
    truncated, and a value outside int64 never wraps.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"not an integer: {value!r}")
    try:
        number = int(value)
    except (TypeError, OverflowError):  # int(None), int(float("inf"))
        raise ValueError(f"not an integer: {value!r}") from None
    if not isinstance(value, str) and number != value:  # int(0.5) == 0
        raise ValueError(f"not an integer: {value!r}")
    if not _INT64_MIN <= number <= _INT64_MAX:
        raise ValueError(f"outside int64: {value!r}")
    return number


def _int64_column(values) -> np.ndarray:
    """``values`` as an int64 column, each value held to ``to_int64``."""
    if bool not in set(map(type, values)):  # struct would pack a bool as 0 or 1
        try:  # only exact integers inside int64 pack: no float, string or wider value
            return np.frombuffer(struct.pack(f"{len(values)}q", *values), dtype=np.int64)
        except (struct.error, TypeError):
            pass
    return np.array([to_int64(v) for v in values], dtype=np.int64)


class _Posts:
    """The ``posts`` field of ``UserTimeline``: stored as columns, read as records."""

    def __get__(self, timeline, owner=None):
        if timeline is None:
            raise AttributeError("posts")  # no class-level default: the field is required
        kinds = [POST_KINDS[code] for code in timeline.kinds.tolist()]
        return list(map(PostRecord, timeline.timestamps.tolist(), kinds, timeline.urls.tolist(),
                        timeline.hashtags.tolist(), timeline.mentions.tolist()))

    def __set__(self, timeline, posts):
        timestamps, kinds, *counts = tuple(zip(*posts)) or ((),) * len(PostRecord._fields)
        try:
            codes = np.frombuffer(bytes(map(POST_KIND_CODES.__getitem__, kinds)), dtype=np.uint8)
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable kind
            raise ValueError(f"unknown post kind: {exc}") from None
        timeline._store(_int64_column(timestamps), codes, *map(_int64_column, counts))


@dataclass
class UserTimeline:
    """A user's posts, sorted by timestamp, plus an optional truth label.

    ``label`` is ``"human"``, ``"bot"``, or ``None`` for unknown.  The posts
    are kept as columns, sorted stably by timestamp: ``timestamps`` (int64),
    ``kinds`` (uint8 codes into ``POST_KINDS``) and the entity counts
    ``urls``, ``hashtags`` and ``mentions`` (int64).  Reading ``posts``
    builds a ``PostRecord`` list from the columns, in that order.

    A timestamp or count that is not an integer or lies outside int64, or
    a kind outside ``POST_KINDS``, raises ``ValueError`` here.
    """

    user_id: str
    label: str | None
    posts: list[PostRecord] = _Posts()

    @classmethod
    def from_columns(cls, user_id: str, label: str | None, timestamps, kinds, urls, hashtags,
                     mentions) -> UserTimeline:
        """A timeline from equal-length post columns, ``kinds`` as codes into ``POST_KINDS``.

        No ``PostRecord`` is built; the values are checked as the constructor checks them.
        """
        columns = timestamps, kinds, urls, hashtags, mentions
        if len({len(c) for c in columns}) != 1:
            raise ValueError(f"post columns of different lengths: {[len(c) for c in columns]}")
        codes = _int64_column(kinds)
        if len(codes) and not (0 <= codes.min() and codes.max() < len(POST_KINDS)):
            raise ValueError(f"post kind code outside 0..{len(POST_KINDS) - 1}")
        timeline = cls.__new__(cls)
        timeline.user_id, timeline.label = user_id, label
        timeline._store(_int64_column(timestamps), codes.astype(np.uint8),
                        *map(_int64_column, (urls, hashtags, mentions)))
        return timeline

    def _store(self, timestamps, kinds, urls, hashtags, mentions) -> None:
        columns = timestamps, kinds, urls, hashtags, mentions
        if (timestamps[1:] < timestamps[:-1]).any():
            order = np.argsort(timestamps, kind="stable")
            columns = [c[order] for c in columns]
        self._set(*columns)

    def _set(self, timestamps, kinds, urls, hashtags, mentions) -> None:
        for column in (timestamps, kinds, urls, hashtags, mentions):
            column.setflags(write=False)  # the columns stay sorted as built
        self.timestamps, self.kinds = timestamps, kinds
        self.urls, self.hashtags, self.mentions = urls, hashtags, mentions

    def __len__(self) -> int:
        return len(self.timestamps)

    def first(self, n: int) -> UserTimeline:
        """The timeline of the chronologically first ``n`` posts, sharing this one's columns."""
        head = type(self).__new__(type(self))
        head.user_id, head.label = self.user_id, self.label
        head._set(self.timestamps[:n], self.kinds[:n], self.urls[:n], self.hashtags[:n], self.mentions[:n])
        return head


@dataclass(frozen=True)
class Alphabet:
    id: str
    symbols: tuple[str, ...]


B3_TYPE = Alphabet("B3", ("A", "C", "T"))
B5_CONTENT = Alphabet("B5", ("X", "U", "H", "M", "N"))
B9_TEMPORAL = Alphabet("B9", ("B", "D", "E", "F", "G", "J", "K", "I", "L"))

ALPHABETS: dict[str, Alphabet] = {a.id: a for a in (B3_TYPE, B5_CONTENT, B9_TEMPORAL)}

# Canonical order used by the CLI and the grid search.
CANONICAL_ALPHABET_ORDER = ("B3", "B5", "B9")

_B3_BY_KIND = {"plain": "A", "retweet": "C", "reply": "T"}

_B9_BUCKETS = (
    (1 * SECONDS_PER_HOUR, "B"),
    (5 * SECONDS_PER_HOUR, "D"),
    (10 * SECONDS_PER_HOUR, "E"),
    (15 * SECONDS_PER_HOUR, "F"),
    (20 * SECONDS_PER_HOUR, "G"),
    (1 * SECONDS_PER_DAY, "J"),
    (1 * SECONDS_PER_WEEK, "K"),
    (1 * SECONDS_PER_MONTH, "I"),
)


@dataclass(frozen=True)
class DnaSequence:
    """Encoded symbol string for one user, tagged with the alphabets used."""

    user_id: str
    alphabets: tuple[str, ...]
    symbols: str


def encode_b3(post: PostRecord) -> str:
    """Symbol for the post's kind: plain -> A, retweet -> C, reply -> T."""
    return _B3_BY_KIND[post.kind]


def encode_b5(post: PostRecord) -> str:
    """Symbol for the post's entity mix.

    Two or more distinct entity categories present -> X; exactly one ->
    U (URLs), H (hashtags) or M (mentions); none -> N.  Only presence
    matters: a post with three URLs and nothing else is still 'U'.
    """
    categories = (post.url_count > 0) + (post.hashtag_count > 0) + (post.mention_count > 0)
    if categories >= 2:
        return "X"
    if post.url_count > 0:
        return "U"
    if post.hashtag_count > 0:
        return "H"
    if post.mention_count > 0:
        return "M"
    return "N"


def encode_b9(delta_seconds: int | float) -> str:
    """Symbol for the gap since the previous post.

    Buckets have inclusive upper bounds: <=1h B, <=5h D, <=10h E, <=15h F,
    <=20h G, <=1 day J, <=1 week K, <=30 days I, longer L.
    """
    if delta_seconds < 0:
        raise ValueError(f"negative time delta: {delta_seconds!r}")
    for bound, symbol in _B9_BUCKETS:
        if delta_seconds <= bound:
            return symbol
    return "L"


def _table(symbols) -> np.ndarray:
    return np.frombuffer("".join(symbols).encode("ascii"), dtype=np.uint8)


# Lookup tables for encode_user, built from the per-post specification above.
_B3_TABLE = _table(encode_b3(PostRecord(0, kind)) for kind in POST_KINDS)  # by kind code
# By presence bits: 4 * (urls > 0) + 2 * (hashtags > 0) + (mentions > 0).
_B5_TABLE = _table(encode_b5(PostRecord(0, "plain", *bits)) for bits in product((0, 1), repeat=3))
_B9_BOUNDS = np.array([bound for bound, _ in _B9_BUCKETS], dtype=np.uint64)
# By the number of inclusive upper bounds a gap exceeds.
_B9_TABLE = _table(map(encode_b9, [0, *(_B9_BOUNDS + 1).tolist()]))


def resolve_alphabets(ids: "list[str] | tuple[str, ...]") -> tuple[Alphabet, ...]:
    """Map alphabet ids to Alphabet objects, rejecting unknowns and duplicates."""
    if not ids:
        raise ValueError("at least one alphabet is required")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate alphabet ids: {ids!r}")
    try:
        return tuple(ALPHABETS[i] for i in ids)
    except KeyError as exc:
        raise ValueError(f"unknown alphabet id {exc.args[0]!r}") from None


def encode_user(timeline: UserTimeline, alphabets: "list[str] | tuple[str, ...]") -> DnaSequence:
    """Encode a timeline under one or more alphabets.

    The posts are taken in the timeline's timestamp order.  For each post
    the symbols of the declared alphabets are emitted in order, producing
    an interleaved string of length ``len(posts) * len(alphabets)``.  The
    first post's temporal gap is defined as zero (symbol 'B').
    """
    resolved = resolve_alphabets(alphabets)
    if not len(timeline):
        raise EmptyTimeline(f"user {timeline.user_id!r} has no posts")

    columns = []
    for alphabet in resolved:
        if alphabet.id == "B3":
            columns.append(_B3_TABLE[timeline.kinds])
        elif alphabet.id == "B5":
            bits = (timeline.urls > 0) * 4 + (timeline.hashtags > 0) * 2 + (timeline.mentions > 0)
            columns.append(_B5_TABLE[bits])
        else:
            # Sorted int64 values differ by less than 2**64, so their uint64
            # differences are exact where int64 ones could overflow.
            stamps = timeline.timestamps.view(np.uint64)
            gaps = np.diff(stamps, prepend=stamps[:1])
            columns.append(_B9_TABLE[np.searchsorted(_B9_BOUNDS, gaps)])
    interleaved = columns[0] if len(columns) == 1 else np.stack(columns, axis=1)  # post-major
    symbols = interleaved.tobytes().decode("ascii")
    return DnaSequence(timeline.user_id, tuple(a.id for a in resolved), symbols)
