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
each integer column in the narrowest of uint8, uint32 and int64 that holds
its values.  ``encode_many`` encodes many timelines a group of about
``GROUP_POSTS`` (8192) posts at a time: per group, one concatenation per
stored column, one table lookup per alphabet and one string decode, each
sequence a slice of that string.  ``encode_user`` is its one-timeline
case, which reads the timeline's own columns.  ``encode_b3``,
``encode_b5`` and ``encode_b9`` are the per-post specification: the lookup
tables are built from them, and the tests check the two against each
other.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, permutations, product
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


# The types a post column may be stored in, narrowest first, with their struct codes.
# A uint16 step is left out: one more failed pack per column cost 2-3% of load time.
_COLUMN_TYPES = (("B", np.uint8), ("I", np.uint32), ("q", np.int64))
_COLUMN_RANGES = [(dtype, int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)) for _, dtype in _COLUMN_TYPES]


def _packed(values) -> np.ndarray | None:
    """``values`` in the first of ``_COLUMN_TYPES`` that holds them all, or None if none does."""
    # An integer first value above 255 rules out uint8, so a timestamp column skips that failing pack.
    first = next(iter(values), 0)
    for code, dtype in _COLUMN_TYPES[1 if isinstance(first, (int, np.integer)) and first > 255 else 0:]:
        try:  # only exact integers inside the type pack: no float, string or wider value
            return np.frombuffer(struct.pack(f"={len(values)}{code}", *values), dtype=dtype)
        except (struct.error, TypeError):
            pass
    return None


def _int_column(values) -> np.ndarray:
    """``values``, each held to ``to_int64``, as a read-only column of the narrowest exact type.

    The type is uint8, uint32 or int64, whichever comes first and holds
    every value, so it depends on the values alone and not on how they
    were given.  An int64 array holds only such values, and no bool, so it
    is narrowed by its least and greatest value into a copy.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        low, high = (int(values.min()), int(values.max())) if len(values) else (0, 0)
        dtype = next(dtype for dtype, least, most in _COLUMN_RANGES if least <= low and high <= most)
        column = values.astype(dtype)
        column.flags.writeable = False
        return column
    column = _packed(values)
    # struct packs a bool as 0 or 1, so a column whose least value exceeds 1 holds none.
    if column is not None and (not len(column) or column.min() > 1 or bool not in set(map(type, values))):
        return column
    return _packed([to_int64(v) for v in values])


def kind_codes(kinds) -> np.ndarray:
    """The uint8 codes into ``POST_KINDS`` of ``kinds``; an unknown kind raises ``ValueError``."""
    try:
        return np.frombuffer(bytes(map(POST_KIND_CODES.__getitem__, kinds)), dtype=np.uint8)
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable kind
        raise ValueError(f"unknown post kind: {exc}") from None


class _Posts:
    """The ``posts`` field of ``UserTimeline``: stored as columns, read as records."""

    def __get__(self, timeline, owner=None):
        if timeline is None:
            raise AttributeError("posts")  # no class-level default: the field is required
        kinds = [POST_KINDS[code] for code in timeline.kinds.tolist()]
        return list(map(PostRecord, timeline._timestamps.tolist(), kinds, timeline._urls.tolist(),
                        timeline._hashtags.tolist(), timeline._mentions.tolist()))

    def __set__(self, timeline, posts):
        timestamps, kinds, *counts = tuple(zip(*posts)) or ((),) * len(PostRecord._fields)
        timeline._store(_int_column(timestamps), kind_codes(kinds), *map(_int_column, counts))


def _widened(name: str) -> property:
    """A property reading the stored column ``name`` as a read-only int64 array."""

    def read(timeline) -> np.ndarray:
        column = getattr(timeline, name).astype(np.int64, copy=False)
        column.flags.writeable = False
        return column

    return property(read)


@dataclass
class UserTimeline:
    """A user's posts, sorted by timestamp, plus an optional truth label.

    ``label`` is ``"human"``, ``"bot"``, or ``None`` for unknown.  The posts
    are kept as columns, sorted stably by timestamp: ``timestamps``,
    ``kinds`` (uint8 codes into ``POST_KINDS``) and the entity counts
    ``urls``, ``hashtags`` and ``mentions``.  Each integer column is stored
    in the narrowest of uint8, uint32 and int64 that holds all its values,
    so a typical post takes 8 bytes, and reads as a read-only int64 array,
    widened on each access.  Reading ``posts`` builds a ``PostRecord`` list
    from the columns, in that order.

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
        ``kinds`` may be a uint8 array, and any column an int64 array; neither holds a bool, so
        neither is screened for one.
        """
        columns = timestamps, kinds, urls, hashtags, mentions
        if len({len(c) for c in columns}) != 1:
            raise ValueError(f"post columns of different lengths: {[len(c) for c in columns]}")
        is_u8 = isinstance(kinds, np.ndarray) and kinds.dtype == np.uint8
        codes = kinds if is_u8 else _int_column(kinds)
        if len(codes) and not (0 <= codes.min() and codes.max() < len(POST_KINDS)):
            raise ValueError(f"post kind code outside 0..{len(POST_KINDS) - 1}")
        timeline = cls.__new__(cls)
        timeline.user_id, timeline.label = user_id, label
        timeline._store(_int_column(timestamps), codes.astype(np.uint8),
                        *map(_int_column, (urls, hashtags, mentions)))
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
        self._timestamps, self.kinds = timestamps, kinds
        self._urls, self._hashtags, self._mentions = urls, hashtags, mentions

    timestamps = _widened("_timestamps")
    urls = _widened("_urls")
    hashtags = _widened("_hashtags")
    mentions = _widened("_mentions")

    def __len__(self) -> int:
        return len(self._timestamps)

    def first(self, n: int) -> UserTimeline:
        """The timeline of the chronologically first ``n`` posts, sharing this one's columns."""
        head = type(self).__new__(type(self))
        head.user_id, head.label = self.user_id, self.label
        head._set(self._timestamps[:n], self.kinds[:n], self._urls[:n], self._hashtags[:n], self._mentions[:n])
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


# Lookup tables for encode_many, built from the per-post specification above.
_B3_TABLE = _table(encode_b3(PostRecord(0, kind)) for kind in POST_KINDS)  # by kind code
# By presence bits: 4 * (urls > 0) + 2 * (hashtags > 0) + (mentions > 0).
_B5_TABLE = _table(encode_b5(PostRecord(0, "plain", *bits)) for bits in product((0, 1), repeat=3))
_B9_BOUNDS = np.array([bound for bound, _ in _B9_BUCKETS], dtype=np.uint64)
# By the number of inclusive upper bounds a gap exceeds.
_B9_TABLE = _table(map(encode_b9, [0, *(_B9_BOUNDS + 1).tolist()]))


# Every valid alphabet order with its Alphabets.  A valid order resolves in one
# lookup: checking and building the tuple took ~0.9 µs of a ~4 µs B3 encode_user.
_RESOLVED = {ids: tuple(ALPHABETS[i] for i in ids)
             for n in range(1, len(ALPHABETS) + 1) for ids in permutations(ALPHABETS, n)}


def resolve_alphabets(ids: "list[str] | tuple[str, ...]") -> tuple[Alphabet, ...]:
    """Map alphabet ids to Alphabet objects, rejecting unknowns and duplicates."""
    try:
        return _RESOLVED[tuple(ids)]
    except (KeyError, TypeError):  # TypeError: not iterable, or an unhashable id
        pass
    if not ids:
        raise ValueError("at least one alphabet is required")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate alphabet ids: {ids!r}")
    raise ValueError(f"unknown alphabet id {next(i for i in ids if i not in ALPHABETS)!r}")


# Posts per group of ``encode_many``.  Its 64-bit working arrays (B5's bits,
# B9's stamps, gaps and bucket indices) take 64 KiB each.  On 200-post users,
# per user, 8192 and 16384 encoded alike; 2048 cost 1.3-1.5x as much under
# B3+B5 and B3+B5+B9, and 65536 1.3x under B3+B5+B9.
GROUP_POSTS = 8192


def encode_user(timeline: UserTimeline, alphabets: "list[str] | tuple[str, ...]") -> DnaSequence:
    """Encode a timeline under one or more alphabets: ``encode_many`` of one.

    The posts are taken in the timeline's timestamp order.  For each post
    the symbols of the declared alphabets are emitted in order, producing
    an interleaved string of length ``len(posts) * len(alphabets)``.  The
    first post's temporal gap is defined as zero (symbol 'B').
    """
    return encode_many([timeline], alphabets)[0]


def encode_many(timelines: Sequence[UserTimeline], alphabets: "list[str] | tuple[str, ...]") -> list[DnaSequence]:
    """Each timeline's DNA under ``alphabets``, as ``encode_user`` makes it, in input order.

    The timelines are encoded in groups of whole timelines holding about
    ``GROUP_POSTS`` posts (a longer timeline is a group of its own).  Per
    group, each stored column is concatenated once, each alphabet is one
    table lookup over the whole group, B9's gaps are one wrapping uint64
    difference with each timeline's first gap set to zero, and the symbols
    are interleaved and decoded once; each sequence is a slice of that
    string.  A bad alphabet id raises ``ValueError`` before any timeline
    is read, and an empty timeline ``EmptyTimeline``, for the first one in
    input order.
    """
    ids = tuple([a.id for a in resolve_alphabets(alphabets)])
    lengths = list(map(len, timelines))
    if 0 in lengths:
        raise EmptyTimeline(f"user {timelines[lengths.index(0)].user_id!r} has no posts")
    seqs, lo = [], 0
    while lo < len(timelines):
        hi, posts = lo + 1, lengths[lo]
        while hi < len(timelines) and posts < GROUP_POSTS:
            posts += lengths[hi]
            hi += 1
        seqs += _encode_group(timelines[lo:hi], lengths[lo:hi], ids)
        lo = hi
    return seqs


def _encode_group(timelines: Sequence[UserTimeline], lengths: list[int], ids: tuple[str, ...]) -> list[DnaSequence]:
    """``encode_many`` of one group of non-empty timelines."""
    columns = []
    for alphabet in ids:
        if alphabet == "B3":
            columns.append(_B3_TABLE.take(_column(timelines, "kinds")))
        elif alphabet == "B5":
            bits = ((_column(timelines, "_urls") > 0) * 4 + (_column(timelines, "_hashtags") > 0) * 2
                    + (_column(timelines, "_mentions") > 0))
            columns.append(_B5_TABLE.take(bits))
        else:
            # Sorted int64 values differ by less than 2**64, so the wrapping
            # differences of their uint64 images are exact, whichever type
            # the column is stored in, where int64 ones could overflow.
            stamps = _column(timelines, "_timestamps").astype(np.uint64)
            gaps = np.empty_like(stamps)
            gaps[0] = 0
            np.subtract(stamps[1:], stamps[:-1], out=gaps[1:])
            if len(timelines) > 1:  # a later timeline's first gap would span two timelines
                gaps[list(accumulate(lengths[:-1]))] = 0
            columns.append(_B9_TABLE.take(_B9_BOUNDS.searchsorted(gaps)))
    if len(columns) == 1:
        interleaved = columns[0]
    else:
        interleaved = np.empty((len(columns[0]), len(columns)), dtype=np.uint8)  # post-major
        for j, symbols in enumerate(columns):
            interleaved[:, j] = symbols
    text = interleaved.tobytes().decode("ascii")
    if len(timelines) == 1:
        return [DnaSequence(timelines[0].user_id, ids, text)]
    cuts = [0, *accumulate(n * len(ids) for n in lengths)]
    return [DnaSequence(t.user_id, ids, text[a:b]) for t, a, b in zip(timelines, cuts, cuts[1:])]


def _column(timelines: Sequence[UserTimeline], name: str) -> np.ndarray:
    """The stored column ``name`` of a group: its one timeline's own, or all its timelines' end to end."""
    if len(timelines) == 1:
        return getattr(timelines[0], name)
    return np.concatenate([getattr(t, name) for t in timelines])
