"""Banded LSH index over labeled MinHash signatures.

Signatures are split into ``bands`` groups of ``rows`` consecutive values;
each group is digested to a 64-bit key.  Two users become candidate
neighbors when their digests match in the same band, which happens with
probability ``1 - (1 - s**rows)**bands`` for true similarity ``s``.
``lsh_plan`` picks the factorization whose curve best matches a target
similarity threshold.

In memory the index is columnar: one signature matrix, one band-digest
matrix and one label array, a row per user in insertion order.  A query
looks all its band digests up at once in a single sorted table of every
stored digest (rebuilt by the first query after an insert), keeps the hits
whose band matches, and counts equal signature positions for the
candidates with one vectorised compare.  When the hits cover over a
quarter of the table, the candidates come from one compare of the digest
matrix instead.

Index file layout (all integers little-endian)::

    bytes 0-3   magic b"BDIX"
    byte  4     format version (1)
    bytes 5-12  plan threshold, f64
    bytes 13-16 bands, u32
    bytes 17-20 rows, u32
    bytes 21-24 num_perm, u32
    bytes 25-32 seed, u64
    bytes 33-40 user count, u64
    per user, in insertion order:
        u16 id length, u8 label (0 human / 1 bot), UTF-8 id,
        num_perm signature values (u64 each),
        bands band digests (u64 each)

This is the only file layout (version 1); the columnar memory layout does
not change it.  Loading restores the stored users in order, so a
round-tripped index reproduces the original's query results exactly, and
a user id stored twice is rejected as a format error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .encoding import BOT, HUMAN
from .errors import DuplicateUser, FormatError, IncompatibleSignatures
from .minhash import (
    _TAG_BAND_DIGEST,
    MinHashSignature,
    fold_m61,
    mulmod_m61,
    rng_for,
)

INDEX_MAGIC = b"BDIX"
INDEX_VERSION = 1

_HEADER = struct.Struct("<4sBdIIIQQ")

# Share of the digest table a query must hit before its candidates are
# marked by one compare of the whole users x bands digest matrix instead of
# by expanding each hit.  The compare costs about the same at any share,
# while the expansion grows with the hits.  On a 2-vCPU VM they cost the
# same at a share of ~0.2 with 1k users and ~0.25-0.27 with 10k and 100k.  Far below
# it the expansion wins (100k users, one hit: ~65 us against 7-10 ms per
# query), far above it the compare (every entry hit: 5-6 ms against ~54 ms).
_DENSE_SCAN_SHARE = 0.25


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
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if num_perm < 2:
        raise ValueError(f"num_perm must be at least 2, got {num_perm}")
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


class Neighbor(NamedTuple):
    user_id: str
    label: str
    jaccard: float


@lru_cache(maxsize=64)
def _digest_params(seed: int, bands: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_for(seed, _TAG_BAND_DIGEST)
    prime = (1 << 61) - 1
    coeffs = rng.integers(1, prime, size=(bands, rows), dtype=np.uint64)
    offsets = rng.integers(0, 1 << 64, size=bands, dtype=np.uint64)
    return coeffs, offsets


class LshIndex:
    """Banded LSH index over labeled signatures, stored in columns.

    Users are numbered by insertion order (their ordinal).  Row ``i`` of
    each column belongs to ordinal ``i``: an ``N x num_perm`` u64 signature
    matrix, an ``N x bands`` u64 band-digest matrix and a bot-label array,
    beside the list of user ids.  The columns grow by doubling their
    capacity.  Lookups use one flat table of all ``N * bands`` digests,
    sorted, with each entry's owner ordinal and band.  The table is built
    by the first query after an insert, so a query following inserts pays
    one re-sort; inserts and queries may otherwise be mixed freely.
    """

    def __init__(self, plan: BandingPlan, num_perm: int, seed: int):
        if plan.bands * plan.rows != num_perm:
            raise ValueError(
                f"plan {plan.bands}x{plan.rows} does not factor num_perm={num_perm}"
            )
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.plan = plan
        self.num_perm = num_perm
        self.seed = seed
        self._user_ids: list[str] = []
        self._ordinals: dict[str, int] = {}
        self._values = np.empty((0, num_perm), dtype=np.uint64)
        self._digests = np.empty((0, plan.bands), dtype=np.uint64)
        self._is_bot = np.empty(0, dtype=bool)
        # (sorted digests, owner ordinal, band) for the first len(self)
        # rows; None when an insert has happened since it was built.
        self._table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._user_ids)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._ordinals

    @property
    def labels(self) -> dict[str, str]:
        names = (BOT if bot else HUMAN for bot in self._is_bot[: len(self)])
        return dict(zip(self._user_ids, names))

    def band_digests(self, values: np.ndarray) -> np.ndarray:
        """One 64-bit digest per band of a signature's value vector."""
        coeffs, offsets = _digest_params(self.seed, self.plan.bands, self.plan.rows)
        grid = fold_m61(values.reshape(self.plan.bands, self.plan.rows))
        terms = mulmod_m61(coeffs, grid)
        return terms.sum(axis=1, dtype=np.uint64) + offsets  # u64 wraparound intended

    def _check_compatible(self, sig: MinHashSignature) -> None:
        if sig.num_perm != self.num_perm or sig.seed != self.seed:
            raise IncompatibleSignatures(
                f"signature (num_perm={sig.num_perm}, seed={sig.seed}) vs "
                f"index (num_perm={self.num_perm}, seed={self.seed})"
            )

    def _resize(self, capacity: int) -> None:
        n = len(self)
        for name in ("_values", "_digests", "_is_bot"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def insert(self, sig: MinHashSignature, label: str) -> None:
        if label not in (HUMAN, BOT):
            raise ValueError(f"label must be {HUMAN!r} or {BOT!r}, got {label!r}")
        self._check_compatible(sig)
        if sig.user_id in self._ordinals:
            raise DuplicateUser(sig.user_id)
        digests = self.band_digests(sig.values)
        ordinal = len(self)
        if ordinal == len(self._is_bot):
            self._resize(max(16, 2 * ordinal))
        self._values[ordinal] = sig.values
        self._digests[ordinal] = digests
        self._is_bot[ordinal] = label == BOT
        self._user_ids.append(sig.user_id)
        self._ordinals[sig.user_id] = ordinal
        self._table = None

    def _lookup_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._table is None:
            flat = self._digests[: len(self)].ravel()
            order = np.argsort(flat)
            owners, bands = np.divmod(order, self.plan.bands)
            self._table = flat[order], owners, bands
        return self._table

    def _candidates(self, sig: MinHashSignature) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ordinals (ascending) and their equal-position counts.

        A user is a candidate when its digest equals the query's in at
        least one band; the same digest value in two different bands does
        not count.
        """
        self._check_compatible(sig)
        n = len(self)
        digests, owners, entry_bands = self._lookup_table()
        query = self.band_digests(sig.values)
        lo = np.searchsorted(digests, query, side="left")
        counts = np.searchsorted(digests, query, side="right") - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        if total > _DENSE_SCAN_SHARE * n * self.plan.bands:
            # A dense corpus: one band-aligned compare of the digest matrix
            # is cheaper than expanding every hit.
            is_candidate = (self._digests[:n] == query).any(axis=1)
        else:
            # Table positions of every hit, grouped by the query band it matched.
            starts = lo - (np.cumsum(counts) - counts)
            hits = np.arange(total) + np.repeat(starts, counts)
            same_band = entry_bands[hits] == np.repeat(np.arange(self.plan.bands), counts)
            is_candidate = np.zeros(n, dtype=bool)
            is_candidate[owners[hits[same_band]]] = True
        values = self._values[:n]
        if is_candidate.all():
            ordinals = np.arange(n)
        else:
            ordinals = np.flatnonzero(is_candidate)
            values = values[ordinals]
        return ordinals, np.count_nonzero(values == sig.values, axis=1)

    def query(self, sig: MinHashSignature) -> list[Neighbor]:
        """Users sharing at least one band digest, with estimated Jaccard.

        Neighbors come in insertion order.
        """
        ordinals, matches = self._candidates(sig)
        ids, is_bot = self._user_ids, self._is_bot
        return [
            Neighbor(ids[i], BOT if is_bot[i] else HUMAN, float(m) / self.num_perm)
            for i, m in zip(ordinals.tolist(), matches.tolist())
        ]

    def bucket_entry_count(self) -> int:
        """Entries over all band buckets: one per user and band."""
        return len(self) * self.plan.bands

    # --- persistence ---------------------------------------------------

    def save(self, path) -> None:
        n = len(self)
        # Everything but the signature values is packed before the file is
        # opened, so a header or an id that cannot be written leaves no
        # file behind.
        header = _HEADER.pack(
            INDEX_MAGIC,
            INDEX_VERSION,
            self.plan.threshold,
            self.plan.bands,
            self.plan.rows,
            self.num_perm,
            self.seed,
            n,
        )
        raw_ids = [uid.encode("utf-8") for uid in self._user_ids]
        prefixes = [
            struct.pack("<HB", len(raw), bot) + raw
            for raw, bot in zip(raw_ids, self._is_bot.tolist())
        ]
        records = np.hstack([self._values[:n], self._digests[:n]]).astype("<u8")
        with open(path, "wb") as fh:
            fh.write(header)
            for prefix, record in zip(prefixes, records):
                fh.write(prefix)
                fh.write(record.tobytes())

    @classmethod
    def load(cls, path) -> "LshIndex":
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _HEADER.size or data[:4] != INDEX_MAGIC:
            raise FormatError(f"not an index file: {path}")
        _, version, threshold, bands, rows, num_perm, seed, count = _HEADER.unpack_from(data)
        if version != INDEX_VERSION:
            raise FormatError(f"unsupported index version {version}")
        try:
            index = cls(BandingPlan(threshold, bands, rows), num_perm, seed)
        except ValueError as exc:
            raise FormatError(f"corrupt index header: {exc}") from exc
        record_size = 8 * (num_perm + bands)
        ids, labels, records = [], [], []
        offset = _HEADER.size
        try:
            for _ in range(count):
                id_len, label_code = struct.unpack_from("<HB", data, offset)
                offset += 3
                uid = data[offset : offset + id_len].decode("utf-8")
                offset += id_len
                if label_code > 1:
                    raise FormatError(f"bad label code {label_code} for user {uid!r}")
                if uid in index._ordinals:
                    raise FormatError(f"user {uid!r} appears twice in index file")
                index._ordinals[uid] = len(ids)
                ids.append(uid)
                labels.append(label_code)
                records.append(data[offset : offset + record_size])
                offset += record_size
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"corrupt index file: {exc}") from exc
        if offset > len(data):
            raise FormatError("truncated index file")
        if offset != len(data):
            raise FormatError("trailing bytes in index file")
        table = np.frombuffer(b"".join(records), dtype="<u8").reshape(len(ids), num_perm + bands)
        index._user_ids = ids
        index._values = table[:, :num_perm].astype(np.uint64)
        index._digests = table[:, num_perm:].astype(np.uint64)
        index._is_bot = np.array(labels, dtype=bool)
        return index
