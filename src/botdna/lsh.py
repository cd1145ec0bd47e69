"""Banded LSH index over labeled MinHash signatures.

Signatures are split into ``bands`` groups of ``rows`` consecutive values;
each group is digested to a 64-bit key.  Two users become candidate
neighbors when their digests match in the same band, which happens with
probability ``1 - (1 - s**rows)**bands`` for true similarity ``s``.
``lsh_plan`` picks the factorization whose curve best matches a target
similarity threshold.

A digest is only a bucket key: band ``b`` of values ``v`` digests to
``offset[b] + sum_r coeff[b, r] * v[b, r]`` in wrapping u64 arithmetic
(modulo 2**64), with coefficients and offsets drawn from the seed.  The
coefficients are odd, so invertible modulo 2**64, and two groups that
differ in exactly one value never share a digest.  Groups that differ in
more may, rarely; such a user is a candidate whose equal positions are
then counted on the values themselves, as for any other.

In memory the index stores one signature matrix and one label array, a
row per user in insertion order, beside the user ids.  Whatever a lookup
reads besides them, the band-digest matrix, the lookup table and the u8
codes, is a function of the stored rows alone, rebuilt whole after any
change: the first query digests every stored row in one call and sorts the
table, the first dense query codes both matrices, and each insert drops
all of it.  ``band_digests`` digests one signature or a whole matrix of
them on one path: one multiply, one row-sum and one add per 128 KiB step of
values (128 signatures at 128 permutations); ``neighbor_votes`` makes one
call per such step of query signatures.

Queries are looked up a block at a time (``LshIndex._match_block``), and
``query`` is a block of one.  ``neighbor_votes`` splits each step of
query signatures into blocks whose (queries x users) matrices take at
most another 128 KiB, so a block holds fewer queries as the index grows.
A block looks every band digest of every query up in a single sorted
table of all stored digests, with one pair of ``searchsorted`` calls.
The table keeps, beside each sorted digest, only its flat position
``ordinal * bands + band`` (int32 while the table has fewer than 2**31
entries), and splits the positions of the hits alone back into ordinal
and band.

Each query of a block takes one of two paths, by its own share of the
table.  When its hits cover over a quarter of the table (a dense query),
its candidates come from one compare of every user's digests, and its
counts from one compare of every user's values, several dense queries per
compare.  Those compares read only u8 dictionary codes where they can:
the digest columns' codes to mark candidates and the signature columns'
codes to count, each falling back to the u64 values when some column
holds more than 255 distinct values (see ``LshIndex._coded_columns``);
a sparse query never codes.  The hits of every other query in the block
are expanded together: each hit is checked for its band, the (query,
user) pairs are marked once each, and their equal positions are counted
on the u64 values.  Counts are summed into u8 (u16 above 255
permutations).  ``neighbor_votes`` then reduces each block to
(neighbours, bot votes) per query with two row sums.

Index file layout, version 2 (integers little-endian)::

    bytes 0-3   magic b"BDIX"
    byte  4     format version (2)
    bytes 5-8   header length H, u32
    H bytes     header, a JSON object with sorted keys: threshold, bands,
                rows, num_perm, seed, users (N), the encoding recipe
                (alphabets and k_shingle, both null when unknown) and
                checksum (16-byte blake2b, in hex, of the other fields
                as sorted-key JSON followed by the body)
    body, whole arrays in insertion order:
        N + 1 id offsets, u64: id i is blob[offsets[i]:offsets[i + 1]]
        the id blob, UTF-8, offsets[N] bytes
        N label codes, u8 (0 human / 1 bot)
        N x num_perm signature values, u64, row by row

``load`` stores the file's columns without digesting them; its first query
builds the lookup state from them, as after any insert, so a round-tripped
index answers queries exactly as the original.  Any other version (a
version 1 file must be rebuilt), a bad header field or a body failing its
checksum is a ``FormatError``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .encoding import BOT, HUMAN, resolve_alphabets
from .errors import DuplicateUser, FormatError
from .minhash import (
    _TAG_BAND_DIGEST,
    MinHashSignature,
    check_compatible,
    check_k_shingle,
    check_num_perm,
    check_seed,
    rng_for,
)

INDEX_MAGIC = b"BDIX"
INDEX_VERSION = 2

_MISSING = object()  # zip_longest's fill past the shorter of insert_many's inputs
_PREFIX = struct.Struct("<4sBI")  # magic, version, header length
_HEADER_TYPES = {  # the header's fields beside its checksum; a bool is not an int here
    "alphabets": (list, type(None)), "bands": (int,), "k_shingle": (int, type(None)),
    "num_perm": (int,), "rows": (int,), "seed": (int,), "threshold": (float,), "users": (int,),
}

# Share of the digest table a query must hit before its candidates are
# marked by one compare of the whole users x bands digest matrix instead of
# by expanding each hit; the rule holds per query, in a block too.  The
# compare costs about the same at any share, while the expansion grows with
# the hits.  Measured one query per lookup, before queries went in blocks,
# on a 2-vCPU VM, they cost the same at a share of ~0.2 with 1k users and
# ~0.25-0.27 with 10k and 100k.  Far below it the expansion won (100k
# users, one hit: ~65 us against 7-10 ms per query), far above it the
# compare (every entry hit: 5-6 ms against ~54 ms).
_DENSE_SCAN_SHARE = 0.25

# A dense query compares u8 codes of the signature and the digest columns
# when no column holds more than 255 distinct values: codes 0-254 number a
# column's values, and 255 is the code of a query value absent from them,
# which no stored code equals.
_ABSENT = 255


def _check_number(name: str, value) -> None:
    """Raise ``ValueError`` for a bool, which compares as 0 or 1 but is no share."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_threshold(threshold: float) -> float:
    """``threshold``; ``ValueError`` unless a number in (0, 1] (not a bool or NaN). The one rule for it."""
    _check_number("threshold", threshold)
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return threshold


def check_floor(floor: float) -> float:
    """``floor``; ``ValueError`` unless a number in [0, 1] (not a bool or NaN). The one rule for a Jaccard floor."""
    _check_number("jaccard_floor", floor)
    if not 0.0 <= floor <= 1.0:
        raise ValueError(f"jaccard_floor must be in [0, 1], got {floor}")
    return floor


@dataclass(frozen=True)
class BandingPlan:
    """How a signature of ``bands * rows`` values is split for bucketing."""

    threshold: float
    bands: int
    rows: int


@lru_cache(maxsize=16)
def _gauss_legendre(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    n nodes integrate polynomials up to degree 2n - 1 exactly; the
    collision curve for a plan over num_perm values has degree num_perm.
    The nodes are the roots of the Legendre polynomial P_n, found by
    Newton's method on its three-term recurrence from the usual
    ``cos(pi * (i - 1/4) / (n + 1/2))`` estimates.  From these, Newton's
    quadratic convergence reaches a step below 1e-15 within 5 iterations
    (checked at every num_perm up to 1024 and at 2048, 4096 and 8192; the
    step then stays at rounding, ~6e-17), so 8 leave room, and a rule that
    has not converged by then raises rather than returning rough nodes.
    """
    n = num_perm // 2 + 1
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):  # k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2)
            p_next = x * p
            p_next *= (2 * k - 1) / k
            p_next -= p_prev * ((k - 1) / k)
            p_prev, p = p, p_next
        slope = n * (x * p - p_prev) / (x * x - 1)  # P_n'(x)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 1e-15:
            return x, 2 / ((1 - x * x) * slope * slope)
    raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")


def lsh_plan(threshold: float, num_perm: int) -> BandingPlan:
    """Pick the (bands, rows) factorization of num_perm for a threshold.

    Minimizes the equal-weight false-positive area below the threshold plus
    false-negative area above it under the collision curve
    ``1 - (1 - s**rows)**bands``; ties resolve to fewer rows.  Both areas
    are integrated exactly by Gauss-Legendre quadrature, so errors within
    a relative 1e-12 of each other count as ties: exact ties exist (a
    prime num_perm at threshold 0.5 has two mirror-image plans), and the
    rounding of the quadrature must not pick between them.
    """
    check_threshold(threshold)
    num_perm = check_num_perm(num_perm)
    nodes, weights = _gauss_legendre(num_perm)
    below = threshold / 2 * (nodes + 1)  # nodes mapped onto [0, threshold]
    above = threshold + (1 - threshold) / 2 * (nodes + 1)  # ... onto [threshold, 1]
    best: tuple[float, int] | None = None
    for bands in range(1, num_perm + 1):  # rows fall as bands rise
        if num_perm % bands:
            continue
        rows = num_perm // bands
        fp = threshold / 2 * np.dot(weights, 1.0 - (1.0 - below**rows) ** bands)
        fn = (1 - threshold) / 2 * np.dot(weights, (1.0 - above**rows) ** bands)
        if best is None or fp + fn <= best[0] * (1 + 1e-12):
            best = (fp + fn, bands)
    assert best is not None
    return BandingPlan(threshold, best[1], num_perm // best[1])


Recipe = tuple[tuple[str, ...], int]  # (alphabets, k_shingle)


class Neighbor(NamedTuple):
    user_id: str
    label: str
    jaccard: float


# The values ``band_digests`` digests at a time: 128 signatures at 128
# permutations.  Each temporary of a lookup (see ``_match_block``) stays
# within one such step too.
_DIGEST_STEP_BYTES = 1 << 17


@lru_cache(maxsize=64)
def _digest_params(seed: int, bands: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The digest coefficients, odd 64-bit values, and the offsets.

    The coefficients are ``(1, bands, rows)`` and the offsets ``(1, bands)``:
    with a leading axis of one, a one-row call skips broadcasting, which
    costs numpy about a microsecond per operation.
    """
    rng = rng_for(seed, _TAG_BAND_DIGEST)
    coeffs = rng.integers(0, 1 << 64, size=(1, bands, rows), dtype=np.uint64) | np.uint64(1)
    offsets = rng.integers(0, 1 << 64, size=(1, bands), dtype=np.uint64)
    return coeffs, offsets


# (dictionary, codes) of a matrix's columns, both None when it cannot be coded.
_Coded = tuple[np.ndarray | None, np.ndarray | None]


def _code(matrix: np.ndarray) -> _Coded:
    """An ``(n, width)`` u64 matrix's columns as u8 codes: ``(dictionary, codes)``.

    Row ``p`` of the ``(width, K)`` dictionary holds the distinct values of
    column ``p`` in ascending order, padded to the longest row by repeating
    its last entry, and ``codes[p, i]`` is the index of ``matrix[i, p]`` in
    that row: equal codes mean equal values.  Both are None when some
    column holds more than 255 distinct values.  The columns are sorted in
    steps of 128 KiB, as ``band_digests`` steps.
    """
    n, width = matrix.shape
    codes = np.empty((width, n), dtype=np.uint8)
    words = []  # per column, its distinct values in ascending order
    step = max(1, _DIGEST_STEP_BYTES // (8 * n))
    for start in range(0, width, step):
        columns = matrix[:, start : start + step].T
        ordered = np.sort(columns, axis=1)
        is_first = np.ones(ordered.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=is_first[:, 1:])
        if np.count_nonzero(is_first, axis=1).max() > _ABSENT:
            return None, None
        for column, row, first, out in zip(columns, ordered, is_first, codes[start : start + step]):
            words.append(row[first])
            out[:] = np.searchsorted(words[-1], column)
    dictionary = np.empty((width, max(map(len, words))), dtype=np.uint64)
    for row, word in zip(dictionary, words):
        row[: len(word)] = word
        row[len(word) :] = word[-1]  # a query value takes the first equal entry
    return dictionary, codes


def _query_codes(dictionary: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The u8 codes of an ``(r, width)`` matrix of rows, ``r >= 1``, against a dictionary.

    Each value takes the index of its first equal entry in its column's
    dictionary row, or ``_ABSENT`` when the row lacks it.  The rows are
    compared a step of 128 KiB of compares at a time.
    """
    step = max(1, _DIGEST_STEP_BYTES // dictionary.size)
    if len(rows) > step:
        return np.concatenate([_query_codes(dictionary, rows[i : i + step]) for i in range(0, len(rows), step)])
    equal = dictionary == rows[:, :, None]
    return np.where(np.logical_or.reduce(equal, axis=-1), equal.argmax(axis=-1), _ABSENT).astype(np.uint8)


def _count_type(num_perm: int) -> type:
    """The smallest type that holds a count of equal positions up to ``num_perm``.

    Counts are taken by summing a compare's bool view as u8 into it.
    """
    return np.uint8 if num_perm <= 255 else np.uint16


@lru_cache(maxsize=64)
def _least_count(num_perm: int, floor: float) -> int:
    """The least count ``m`` of equal positions whose quotient ``m / num_perm`` reaches ``floor``."""
    return bisect_left(range(num_perm + 1), floor, key=lambda m: m / num_perm)


def _expand(positions: np.ndarray, bands: int, lo: np.ndarray, counts: np.ndarray,
            is_candidate: np.ndarray) -> None:
    """Mark in ``is_candidate`` the users whose table entries some queries hit in the same band.

    ``positions`` is the lookup table's column of flat positions ``ordinal
    * bands + band``.  ``lo`` and ``counts`` hold, per query row and band,
    the first entry the query's digest hit and how many it hit.  When the
    rows' hits together would take over 128 KiB of temporaries (about 64
    bytes a hit), the rows are expanded in halves, down to one row.
    ``is_candidate`` must be C-contiguous: it is marked through ``ravel``.
    """
    flat = counts.ravel()
    ends = flat.cumsum()
    if ends[-1] > _DIGEST_STEP_BYTES // 64 and len(counts) > 1:
        half = len(counts) // 2
        _expand(positions, bands, lo[:half], counts[:half], is_candidate[:half])
        _expand(positions, bands, lo[half:], counts[half:], is_candidate[half:])
        return
    # Table positions of every hit, grouped by the (query row, band) slot it matched.
    hits = np.arange(ends[-1]) + (lo.ravel() - (ends - flat)).repeat(flat)
    slots = np.arange(flat.size).repeat(flat)
    owners, entry_bands = np.divmod(positions[hits], bands)
    if len(counts) == 1:  # one row: its slots are its bands and its owners its keys
        is_candidate[0, owners[entry_bands == slots]] = True
        return
    rows, query_bands = np.divmod(slots, bands)
    keys = rows * is_candidate.shape[1] + owners
    is_candidate.ravel()[keys[entry_bands == query_bands]] = True


class LshIndex:
    """Banded LSH index over labeled signatures, stored in columns.

    Users are numbered by insertion order (their ordinal).  Row ``i`` of
    each column belongs to ordinal ``i``: an ``N x num_perm`` u64 signature
    matrix and a bot-label array, beside the list of user ids.  The two
    columns grow by doubling their capacity, and an insert writes only
    their rows.  The lookup state is rebuilt from the stored rows alone:
    the first query after an insert or a load digests all ``N`` of them
    into an ``N x bands`` matrix and sorts its ``N * bands`` digests into
    one flat table, each entry with its flat position in the matrix, and
    the first dense query codes both matrices (see ``_coded_columns``).
    ``_commit``, which publishes inserted rows, drops that state.  So
    inserts and queries may be mixed freely, each answer being that of an
    index built fresh from the same rows, but a query after an insert pays
    for the whole rebuild: every caller fills its index before querying it.

    ``recipe`` is the ``(alphabets, k_shingle)`` the signatures were
    sketched with, or None if unknown (an index built by hand); the index
    file keeps it, so queries can be sketched the same way.
    """

    def __init__(self, plan: BandingPlan, num_perm: int, seed: int, recipe: Recipe | None = None):
        check_threshold(plan.threshold)
        if min(plan.bands, plan.rows) < 1 or plan.bands * plan.rows != num_perm:
            raise ValueError(f"plan {plan.bands}x{plan.rows} does not factor num_perm={num_perm}")
        num_perm = check_num_perm(num_perm)
        seed = check_seed(seed)
        if recipe is not None:
            resolve_alphabets(recipe[0])
            recipe = tuple(recipe[0]), check_k_shingle(recipe[1])
        self.plan = plan
        self.num_perm = num_perm
        self.seed = seed
        self.recipe = recipe
        self._user_ids: list[str] = []
        self._ordinals: dict[str, int] = {}
        self._values = np.empty((0, num_perm), dtype=np.uint64)
        self._is_bot = np.empty(0, dtype=bool)
        # The lookup state, a function of the stored rows that _commit drops:
        # (digest matrix, its digests sorted, their flat positions), built by
        # the first query, and the codes of (signature matrix, digest matrix),
        # built by the first dense one.
        self._lookup: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._codes: tuple[_Coded, _Coded] | None = None

    def __len__(self) -> int:
        return len(self._user_ids)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._ordinals

    @property
    def labels(self) -> dict[str, str]:
        names = (BOT if bot else HUMAN for bot in self._is_bot[: len(self)])
        return dict(zip(self._user_ids, names))

    def band_digests(self, values: np.ndarray) -> np.ndarray:
        """One 64-bit digest per band of a signature's value vector.

        ``values`` is one signature's ``num_perm`` values, giving ``bands``
        digests, or an ``(n, num_perm)`` matrix of them, giving an
        ``(n, bands)`` matrix whose row ``i`` digests row ``i``.  Band
        ``b`` digests to ``offset[b] + sum_r coeff[b, r] * value[b, r]``
        modulo 2**64 (see the module docstring).
        """
        bands, rows = self.plan.bands, self.plan.rows
        coeffs, offsets = _digest_params(self.seed, bands, rows)
        flat = values.reshape(-1, bands, rows)
        step = max(1, _DIGEST_STEP_BYTES // (8 * values.shape[-1]))
        if len(flat) <= step:  # one step: no loop
            sums = np.add.reduce(flat * coeffs, axis=-1, dtype=np.uint64)  # wrapping, mod 2**64
            return (sums + offsets).reshape(values.shape[:-1] + (bands,))
        digests = np.empty(flat.shape[:2], dtype=np.uint64)
        for i in range(0, len(flat), step):  # in steps, so that the products stay small and in cache
            sums = (flat[i : i + step] * coeffs).sum(axis=-1, dtype=np.uint64)  # wrapping, mod 2**64
            np.add(sums, offsets, out=digests[i : i + step])
        return digests.reshape(values.shape[:-1] + (bands,))

    def _reserve(self, end: int) -> None:
        """Grow the columns, by doubling, to hold at least ``end`` rows."""
        if end > len(self._is_bot):
            capacity = max(16, 2 * len(self._is_bot), end)
            for name in ("_values", "_is_bot"):
                old = getattr(self, name)
                new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
                new[: len(old)] = old  # unpublished rows too
                setattr(self, name, new)

    def _commit(self, ids: list[str]) -> None:
        """Publish the rows written past the stored ones for ``ids``, dropping the lookup state."""
        if not ids:
            return
        n = len(self)
        self._ordinals.update(zip(ids, range(n, n + len(ids))))
        self._user_ids += ids
        self._lookup = self._codes = None

    def insert(self, sig: MinHashSignature, label: str) -> None:
        """Store one labeled signature: ``insert_many`` of one row."""
        self.insert_many([sig], [label])

    def insert_many(self, sigs: Iterable[MinHashSignature], labels: Iterable[str]) -> None:
        """Store labeled signatures from any iterables, in order.

        Each is checked (label, compatibility, duplicates against the index
        and within the call), then written past the stored rows, where no
        query sees it.  The ids are published last, so a bad signature
        raises and leaves the index unchanged.
        """
        ids: dict[str, None] = {}  # the call's ids, in order
        pairs = zip_longest(sigs, labels, fillvalue=_MISSING)
        for sig, label in pairs:
            if sig is _MISSING or label is _MISSING:
                longer = len(ids) + 1 + sum(1 for _ in pairs)
                n_sigs, n_labels = (len(ids), longer) if sig is _MISSING else (longer, len(ids))
                raise ValueError(f"{n_sigs} signatures but {n_labels} labels")
            if label not in (HUMAN, BOT):
                raise ValueError(f"label must be {HUMAN!r} or {BOT!r}, got {label!r}")
            check_compatible(sig, self.num_perm, self.seed)
            uid = sig.user_id
            if uid in self._ordinals or uid in ids:
                raise DuplicateUser(uid)
            at = len(self) + len(ids)  # this signature's row
            ids[uid] = None
            self._reserve(at + 1)
            self._values[at] = sig.values
            self._is_bot[at] = label == BOT
        self._commit(list(ids))

    def _lookup_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored rows' digest matrix, its digests sorted, and their flat positions in it.

        Built from every stored row, digested in one call, when first needed
        after a change.  A position is ``ordinal * bands + band``; int32
        holds it unless the table has 2**31 entries or more.
        """
        if self._lookup is None:
            digests = self.band_digests(self._values[: len(self)])
            flat = digests.ravel()
            order = np.argsort(flat)
            if flat.size < 1 << 31:
                order = order.astype(np.int32)
            self._lookup = digests, flat[order], order
        return self._lookup

    def _coded_columns(self) -> tuple[_Coded, _Coded]:
        """The signature columns and the band-digest columns as u8 codes (see ``_code``).

        Built from every stored row when a dense query first needs them after
        a change, so an index that only meets sparse queries never codes.
        """
        if self._codes is None:
            self._codes = _code(self._values[: len(self)]), _code(self._lookup_table()[0])
        return self._codes

    def _match_block(self, values: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which users are candidates for each query of a block, and their equal-position counts.

        ``values`` is a ``(q, num_perm)`` matrix of compatible query values,
        ``q >= 1``, and ``query`` their ``(q, bands)`` band digests.  Returns
        two ``(q, n)`` matrices: ``is_candidate[j, i]`` is true when user
        ``i``'s digest equals query ``j``'s in at least one band (the same
        digest value in two different bands does not count), and
        ``matches[j, i]`` counts their equal signature positions wherever
        ``is_candidate`` is true (elsewhere it is undefined).

        Every digest of the block is looked up in the table with one pair of
        ``searchsorted`` calls.  A query whose hits cover more than
        ``_DENSE_SCAN_SHARE`` of the table is dense, and ``_scan`` compares
        every stored row with it.  The hits of all other queries are
        expanded together and checked for their band, the (query, user)
        pairs they mark are counted on the u64 values, 128 KiB of them at a
        time.  A block of one row skips the row bookkeeping.
        """
        n, bands = len(self), self.plan.bands
        _, digests, positions = self._lookup_table()
        lo = digests.searchsorted(query, side="left")
        counts = digests.searchsorted(query, side="right") - lo
        dense = np.add.reduce(counts, axis=1) > _DENSE_SCAN_SHARE * n * bands
        dense_rows = np.count_nonzero(dense)
        if dense_rows == len(values):
            return self._scan(values, query)
        is_candidate = np.zeros((len(values), n), dtype=bool)
        matches = np.empty((len(values), n), dtype=_count_type(self.num_perm))
        if dense_rows:
            counts[dense] = 0
        _expand(positions, bands, lo, counts, is_candidate)
        # Only the sparse rows are marked yet: count their candidate pairs.
        pairs = is_candidate.ravel().nonzero()[0]
        step = max(1, _DIGEST_STEP_BYTES // (8 * self.num_perm))
        for i in range(0, len(pairs), step):
            at = pairs[i : i + step]
            if len(values) == 1:  # one row: its pairs are its ordinals
                same = self._values[at] == values
            else:
                rows, ordinals = np.divmod(at, n)
                same = self._values[ordinals] == values[rows]
            matches.ravel()[at] = np.add.reduce(same.view(np.uint8), axis=1, dtype=matches.dtype)
        if dense_rows:
            at = np.flatnonzero(dense)
            is_candidate[at], matches[at] = self._scan(values[at], query[at])
        return is_candidate, matches

    def _scan(self, values: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_match_block`` for dense queries: compare every stored row's digests and values.

        Each compare reads the u8 codes of its columns, or the u64 values
        where they cannot be coded (see ``_coded_columns``).  The queries
        are coded in one call per matrix and compared as many at a time as
        fit in 128 KiB of compare results.
        """
        n = len(self)
        (dictionary, codes), (digest_dictionary, digest_codes) = self._coded_columns()
        # Stored columns, queries shaped to broadcast against them, and the axis of the columns.
        if digest_codes is not None:
            digest_columns, query, band_axis = digest_codes, _query_codes(digest_dictionary, query)[:, :, None], 1
        else:
            digest_columns, query, band_axis = self._lookup_table()[0], query[:, None], 2
        if codes is not None:
            value_columns, values, value_axis = codes, _query_codes(dictionary, values)[:, :, None], 1
        else:
            value_columns, values, value_axis = self._values[:n], values[:, None], 2
        is_candidate = np.empty((len(values), n), dtype=bool)
        matches = np.empty((len(values), n), dtype=_count_type(self.num_perm))
        step = max(1, _DIGEST_STEP_BYTES // (self.num_perm * n))
        for i in range(0, len(values), step):
            at = slice(i, i + step)
            np.logical_or.reduce(digest_columns == query[at], axis=band_axis, out=is_candidate[at])
            same = (value_columns == values[at]).view(np.uint8)
            np.add.reduce(same, axis=value_axis, dtype=matches.dtype, out=matches[at])
        return is_candidate, matches

    def query(self, sig: MinHashSignature) -> list[Neighbor]:
        """Users sharing at least one band digest, with estimated Jaccard.

        Neighbors come in insertion order.
        """
        check_compatible(sig, self.num_perm, self.seed)
        is_candidate, matches = self._match_block(sig.values[None], self.band_digests(sig.values)[None])
        ordinals = is_candidate[0].nonzero()[0]
        ids, is_bot = self._user_ids, self._is_bot
        return [
            Neighbor(ids[i], BOT if is_bot[i] else HUMAN, float(m) / self.num_perm)
            for i, m in zip(ordinals.tolist(), matches[0, ordinals].tolist())
        ]

    def neighbor_votes(self, sigs: Iterable[MinHashSignature], floor: float) -> list[tuple[int, int]]:
        """(neighbors, bot votes) per signature, checking all of them first.

        The neighbors are the ``query`` candidates whose ``jaccard``,
        ``matches / num_perm``, reaches ``floor``.  The call turns ``floor``
        once into the least count ``need`` whose quotient, the same float64
        division, reaches it, and keeps the candidates with ``matches >=
        need``: the quotients rise with the count, so the two agree.  The
        signatures are digested one ``band_digests`` step at a time, and
        each step is looked up in blocks (``_match_block``) whose ``(q, n)``
        matrices take at most another step: the larger the index, the
        fewer queries a block holds.
        """
        check_floor(floor)
        need = _least_count(self.num_perm, floor)
        sigs = list(sigs)
        for sig in sigs:
            check_compatible(sig, self.num_perm, self.seed)
        is_bot = self._is_bot[: len(self)]
        # Queries per block: its (queries x users) matrices, about 4 bytes a cell, take at most one step.
        block = max(1, _DIGEST_STEP_BYTES // (4 * max(len(is_bot), 1)))
        votes, step = [], _DIGEST_STEP_BYTES // (8 * self.num_perm)  # one band_digests step
        for start in range(0, len(sigs), step):
            values = np.array([sig.values for sig in sigs[start : start + step]], np.uint64)
            digests = self.band_digests(values)
            for i in range(0, len(values), block):
                is_candidate, matches = self._match_block(values[i : i + block], digests[i : i + block])
                kept = np.greater_equal(matches, need)
                kept &= is_candidate
                neighbors = np.add.reduce(kept, axis=1, dtype=np.intp)
                kept &= is_bot
                votes += zip(neighbors.tolist(), np.add.reduce(kept, axis=1, dtype=np.intp).tolist())
        return votes

    # --- persistence ---------------------------------------------------

    def save(self, path) -> None:
        """Write the index file.

        Everything is packed before the file is opened, so an index that
        cannot be written leaves no file behind.
        """
        n = len(self)
        raw_ids = [uid.encode("utf-8") for uid in self._user_ids]
        offsets = np.cumsum([0] + [len(raw) for raw in raw_ids], dtype="<u8")
        body = (offsets, b"".join(raw_ids), self._is_bot[:n].astype("u1"),
                self._values[:n].astype("<u8", copy=False))
        alphabets, k_shingle = self.recipe or (None, None)
        fields = {"alphabets": alphabets and list(alphabets), "bands": self.plan.bands,
                  "k_shingle": k_shingle, "num_perm": self.num_perm, "rows": self.plan.rows,
                  "seed": self.seed, "threshold": float(self.plan.threshold), "users": n}
        fields["checksum"] = _checksum(fields, body)
        header = json.dumps(fields, sort_keys=True).encode("ascii")
        with open(path, "wb") as fh:
            fh.write(_PREFIX.pack(INDEX_MAGIC, INDEX_VERSION, len(header)) + header)
            for part in body:
                fh.write(part)

    @classmethod
    def load(cls, path) -> "LshIndex":
        """Read an index file written by ``save``; any fault raises ``FormatError``."""
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _PREFIX.size or data[:4] != INDEX_MAGIC:
            raise FormatError(f"not an index file: {path}")
        _, version, size = _PREFIX.unpack_from(data)
        if version != INDEX_VERSION:
            raise FormatError(f"index file version {version} is not {INDEX_VERSION}; "
                              "rebuild the index with index-build")
        try:
            header = json.loads(data[_PREFIX.size : _PREFIX.size + size])
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise FormatError(f"corrupt index header: {exc}") from exc
        fields = sorted(_HEADER_TYPES.keys() | {"checksum"})
        if not isinstance(header, dict) or sorted(header) != fields:
            raise FormatError(f"corrupt index header: the fields must be {fields}")
        body = memoryview(data)[_PREFIX.size + size :]
        if header.pop("checksum") != _checksum(header, [body]):
            raise FormatError("index file does not match its checksum")
        wrong = [name for name, kinds in _HEADER_TYPES.items() if type(header[name]) not in kinds]
        if wrong:
            raise FormatError(f"corrupt index header: wrong type for {', '.join(wrong)}")
        n, num_perm = header["users"], header["num_perm"]
        alphabets, k_shingle = header["alphabets"], header["k_shingle"]
        try:  # a TypeError is a recipe with one half null
            no_recipe = alphabets is None and k_shingle is None
            recipe = None if no_recipe else (tuple(alphabets), k_shingle)
            plan = BandingPlan(header["threshold"], header["bands"], header["rows"])
            index = cls(plan, num_perm, header["seed"], recipe)
        except (ValueError, TypeError) as exc:
            raise FormatError(f"corrupt index header: {exc}") from exc
        if not 0 <= n < len(body) // 8:
            raise FormatError(f"index body of {len(body)} bytes cannot hold {n} users")
        offsets = np.frombuffer(body, "<u8", n + 1).tolist()
        ids_at = 8 * (n + 1)
        labels_at = ids_at + offsets[-1]
        values_at = labels_at + n
        size_ok = len(body) == values_at + 8 * n * num_perm
        if offsets[0] != 0 or offsets != sorted(offsets) or not size_ok:
            raise FormatError(f"index body of {len(body)} bytes does not fit its header")
        blob = body[ids_at:labels_at].tobytes()
        try:
            ids = [blob[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])]
        except UnicodeDecodeError as exc:
            raise FormatError(f"corrupt user id in index file: {exc}") from exc
        codes = np.frombuffer(body, "u1", n, labels_at)
        if np.any(codes > 1):
            raise FormatError(f"bad label code {codes.max()} in index file")
        index._reserve(n)
        index._values[:n] = np.frombuffer(body, "<u8", n * num_perm, values_at).reshape(n, num_perm)
        index._is_bot[:n] = codes == 1
        index._commit(ids)
        if len(index._ordinals) != n:
            raise FormatError("a user id appears twice in index file")
        return index


def _checksum(fields: dict, body) -> str:
    """blake2b of the header's other fields (sorted-key JSON) and then the body's parts."""
    digest = hashlib.blake2b(json.dumps(fields, sort_keys=True).encode("ascii"), digest_size=16)
    for part in body:
        digest.update(part)
    return digest.hexdigest()
