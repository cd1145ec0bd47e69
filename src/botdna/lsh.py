"""Banded LSH index over labeled MinHash signatures.

Signatures are split into ``bands`` groups of ``rows`` consecutive values;
each group is digested to a 64-bit key.  Two users become candidate
neighbors when their digests match in the same band, which happens with
probability ``1 - (1 - s**rows)**bands`` for true similarity ``s``.
``lsh_plan`` picks the factorization whose curve best matches a target
similarity threshold.

In memory the index is columnar: one signature matrix, one band-digest
matrix and one label array, a row per user in insertion order.
``band_digests`` digests one signature or a whole block of them in one
vectorised call; ``insert_many`` and ``neighbor_votes`` make one call per
block of 1 MiB of signatures (1024 at 128 permutations).  A query looks all
its band digests up at once in a single sorted table of every stored digest
(rebuilt by the first query after an insert), keeps the hits whose band
matches, and counts equal signature positions for the candidates with one
vectorised compare.  The table keeps, beside each sorted digest, only its
flat position ``ordinal * bands + band`` (int32 while the table has
fewer than 2**31 entries), and splits the positions of the hits alone
back into ordinal and band.  When the hits cover over a quarter of the
table, the candidates come from one compare of the digest matrix instead.

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

``load`` recomputes the band digests and fills the columns through the
same step as ``insert_many``, so a round-tripped index answers queries
exactly as the original.  Any other version (a version 1 file must be
rebuilt), a bad header field or a body failing its checksum is a
``FormatError``.
"""

from __future__ import annotations

import hashlib
import json
import struct
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
    ROW_CACHE_BYTES,
    MinHashSignature,
    _mulmod_limbs,
    check_compatible,
    fold_m61,
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


Recipe = tuple[tuple[str, ...], int]  # (alphabets, k_shingle)


class Neighbor(NamedTuple):
    user_id: str
    label: str
    jaccard: float


@lru_cache(maxsize=64)
def _digest_params(seed: int, bands: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """High and low 32-bit limbs of the digest coefficients, and the offsets.

    The limbs are ``(1, bands, rows)`` and the offsets ``(1, bands)``: with
    a leading axis of one, a one-row block skips broadcasting, which costs
    numpy about a microsecond per operation.
    """
    rng = rng_for(seed, _TAG_BAND_DIGEST)
    prime = (1 << 61) - 1
    coeffs = rng.integers(1, prime, size=(1, bands, rows), dtype=np.uint64)
    offsets = rng.integers(0, 1 << 64, size=(1, bands), dtype=np.uint64)
    return coeffs >> np.uint64(32), coeffs & np.uint64(0xFFFFFFFF), offsets


class LshIndex:
    """Banded LSH index over labeled signatures, stored in columns.

    Users are numbered by insertion order (their ordinal).  Row ``i`` of
    each column belongs to ordinal ``i``: an ``N x num_perm`` u64 signature
    matrix, an ``N x bands`` u64 band-digest matrix and a bot-label array,
    beside the list of user ids.  The columns grow by doubling their
    capacity.  Lookups use one flat table of all ``N * bands`` digests,
    sorted, with each entry's flat position in the digest matrix.  The
    table is built by the first query after an insert, so a query
    following inserts pays one re-sort; inserts and queries may otherwise
    be mixed freely.

    ``recipe`` is the ``(alphabets, k_shingle)`` the signatures were
    sketched with, or None if unknown (an index built by hand); the index
    file keeps it, so queries can be sketched the same way.
    """

    def __init__(self, plan: BandingPlan, num_perm: int, seed: int, recipe: Recipe | None = None):
        if not 0.0 < plan.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {plan.threshold}")
        if min(plan.bands, plan.rows) < 1 or plan.bands * plan.rows != num_perm:
            raise ValueError(f"plan {plan.bands}x{plan.rows} does not factor num_perm={num_perm}")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        if recipe is not None:
            resolve_alphabets(recipe[0])
            if recipe[1] < 1:
                raise ValueError(f"k_shingle must be positive, got {recipe[1]}")
        self.plan = plan
        self.num_perm = num_perm
        self.seed = seed
        self.recipe = recipe
        self._user_ids: list[str] = []
        self._ordinals: dict[str, int] = {}
        self._values = np.empty((0, num_perm), dtype=np.uint64)
        self._digests = np.empty((0, plan.bands), dtype=np.uint64)
        self._is_bot = np.empty(0, dtype=bool)
        # Signatures per band-digest call: 1 MiB of them.
        self._block = max(1, ROW_CACHE_BYTES // (8 * num_perm))
        # (sorted digests, flat position) for the first len(self) rows;
        # None when an insert has happened since it was built.
        self._table: tuple[np.ndarray, np.ndarray] | None = None

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
        ``(n, bands)`` matrix whose row ``i`` digests row ``i``.
        """
        bands, rows = self.plan.bands, self.plan.rows
        a_hi, a_lo, offsets = _digest_params(self.seed, bands, rows)
        grid = fold_m61(values.reshape(-1, bands, rows))
        terms = fold_m61(_mulmod_limbs(a_hi, a_lo, grid, out=grid))
        digests = terms.sum(axis=-1, dtype=np.uint64)
        digests += offsets  # u64 wraparound intended
        return digests.reshape(values.shape[:-1] + (bands,))

    def _resize(self, capacity: int) -> None:
        for name in ("_values", "_digests", "_is_bot"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: len(old)] = old  # staged rows too
            setattr(self, name, new)

    def _stage(self, at: int, values, is_bot) -> None:
        """Write rows from ``at`` on, past ``len(self)``, where no query sees them."""
        end = at + len(is_bot)
        if end > len(self._is_bot):
            self._resize(max(16, 2 * len(self._is_bot), end))
        self._values[at:end] = values
        self._is_bot[at:end] = is_bot

    def _commit(self, ids: list[str]) -> None:
        """Digest the rows staged for ``ids``, a block per call, then publish them."""
        if not ids:
            return
        n, end = len(self), len(self) + len(ids)
        for start in range(n, end, self._block):
            stop = min(start + self._block, end)
            self._digests[start:stop] = self.band_digests(self._values[start:stop])
        self._ordinals.update(zip(ids, range(n, end)))
        self._user_ids += ids
        self._table = None

    def insert(self, sig: MinHashSignature, label: str) -> None:
        """Store one labeled signature: ``insert_many`` of one row."""
        self.insert_many([sig], [label])

    def insert_many(self, sigs: Iterable[MinHashSignature], labels: Iterable[str]) -> None:
        """Store labeled signatures from any iterables, in order.

        Each is checked (label, compatibility, duplicates against the index
        and within the call), then staged past the stored rows a block at a
        time.  The ids are published last, so a bad signature raises and
        leaves the index unchanged.
        """
        ids: dict[str, None] = {}  # the call's ids, in order
        values, is_bot, at = [], [], len(self)  # the block being filled, and its first row
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
            ids[uid] = None
            values.append(sig.values)
            is_bot.append(label == BOT)
            if len(is_bot) == self._block:
                self._stage(at, values, is_bot)
                at += len(is_bot)
                values, is_bot = [], []
        if is_bot:
            self._stage(at, values, is_bot)
        self._commit(list(ids))

    def _lookup_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stored digest, sorted, and its flat position in the digest matrix.

        A position is ``ordinal * bands + band``; int32 holds it unless the
        table has 2**31 entries or more.
        """
        if self._table is None:
            flat = self._digests[: len(self)].ravel()
            order = np.argsort(flat)
            if flat.size < 1 << 31:
                order = order.astype(np.int32)
            self._table = flat[order], order
        return self._table

    def _candidates(self, values: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ordinals (ascending) and their equal-position counts.

        ``values`` is a compatible query signature's values and ``query``
        its band digests.  A user is a candidate when its digest equals the
        query's in at least one band; the same digest value in two
        different bands does not count.
        """
        n, bands = len(self), self.plan.bands
        digests, positions = self._lookup_table()
        lo = np.searchsorted(digests, query, side="left")
        counts = np.searchsorted(digests, query, side="right") - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        if total > _DENSE_SCAN_SHARE * n * bands:
            # A dense corpus: one band-aligned compare of the digest matrix
            # is cheaper than expanding every hit.
            is_candidate = (self._digests[:n] == query).any(axis=1)
        else:
            # Table positions of every hit, grouped by the query band it matched.
            starts = lo - (np.cumsum(counts) - counts)
            hits = np.arange(total) + np.repeat(starts, counts)
            owners, entry_bands = np.divmod(positions[hits], bands)
            same_band = entry_bands == np.repeat(np.arange(bands), counts)
            is_candidate = np.zeros(n, dtype=bool)
            is_candidate[owners[same_band]] = True
        stored = self._values[:n]
        if is_candidate.all():
            ordinals = np.arange(n)
        else:
            ordinals = np.flatnonzero(is_candidate)
            stored = stored[ordinals]
        return ordinals, np.count_nonzero(stored == values, axis=1)

    def query(self, sig: MinHashSignature) -> list[Neighbor]:
        """Users sharing at least one band digest, with estimated Jaccard.

        Neighbors come in insertion order.
        """
        check_compatible(sig, self.num_perm, self.seed)
        values = np.asarray(sig.values, dtype=np.uint64)
        ordinals, matches = self._candidates(values, self.band_digests(values))
        ids, is_bot = self._user_ids, self._is_bot
        return [
            Neighbor(ids[i], BOT if is_bot[i] else HUMAN, float(m) / self.num_perm)
            for i, m in zip(ordinals.tolist(), matches.tolist())
        ]

    def neighbor_votes(self, sigs: Iterable[MinHashSignature], floor: float) -> list[tuple[int, int]]:
        """(neighbors, bot votes) per signature, checking all of them first.

        The neighbors are the ``query`` candidates whose ``jaccard`` (the
        same division, ``matches / num_perm``) reaches ``floor``.
        """
        sigs = list(sigs)
        for sig in sigs:
            check_compatible(sig, self.num_perm, self.seed)
        votes = []
        for start in range(0, len(sigs), self._block):
            values = np.array([sig.values for sig in sigs[start : start + self._block]], np.uint64)
            for row, digests in zip(values, self.band_digests(values)):
                ordinals, matches = self._candidates(row, digests)
                kept = ordinals[matches / self.num_perm >= floor]
                votes.append((len(kept), int(np.count_nonzero(self._is_bot[kept]))))
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
        index._stage(0, np.frombuffer(body, "<u8", n * num_perm, values_at).reshape(n, num_perm),
                     codes == 1)
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
