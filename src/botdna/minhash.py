"""Shingling and MinHash signatures over DNA sequences.

A sequence is cut into overlapping windows of ``k`` symbols (shingles); the
resulting set is compressed into ``num_perm`` minimum hash values.  Each
"permutation" is an affine map ``(a*x + b) mod (2**61 - 1)`` applied to a
64-bit base hash of the shingle, with the per-permutation parameters drawn
deterministically from a counter-based PRNG keyed by ``seed``.  Two
signatures built with the same ``(num_perm, seed)`` estimate the Jaccard
similarity of the underlying shingle sets as the fraction of equal
positions.  A shingle's permuted values (its row) are kept in a bounded
process-wide cache, so shingles shared across users are hashed once.

Binary signature layout (all integers little-endian)::

    bytes 0-3    magic b"BDSG"
    byte  4      format version (1)
    bytes 5-12   seed, u64
    bytes 13-16  num_perm, u32
    bytes 17-18  user id length in bytes, u16
    ...          user id, UTF-8
    ...          num_perm values, u64 each

The JSON debug form mirrors the same fields as a plain object.
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoding import DnaSequence
from .errors import EmptySet, FormatError, IncompatibleSignatures, SequenceTooShort

MERSENNE_61 = np.uint64((1 << 61) - 1)
# 0-d arrays rather than numpy scalars: a ufunc takes them ~0.4 us faster.
_P61 = np.array(MERSENNE_61)
_MASK32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_MASK29 = np.array((1 << 29) - 1, dtype=np.uint64)
_S3, _S29, _S32, _S61 = (np.array(s, dtype=np.uint64) for s in (3, 29, 32, 61))

# The row cache's block size: 1024 rows at 128 permutations.  Shingles
# shared across users (a small alphabet and k) are computed once per
# process; a vocabulary far larger than the block (a sparse corpus) keeps
# emptying it and gains nothing, so the bound keeps its memory small.
ROW_CACHE_BYTES = 1 << 20

SIGNATURE_MAGIC = b"BDSG"
SIGNATURE_VERSION = 1

# Domain tags keeping the hash-family draw and the band-digest draw (lsh
# module) independent even under the same user seed.
_TAG_HASH_FAMILY = 1
_TAG_BAND_DIGEST = 2


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator for (seed, purpose) pairs, stable across runs."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = seed | (tag << 64)
    return np.random.Generator(np.random.Philox(key=key))


def fold_m61(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reduce u64 values modulo 2**61 - 1, into ``out`` when given."""
    high = x >> _S61
    out = np.bitwise_and(x, _P61, out=out)
    out += high  # below 2 * (2**61 - 1) for any u64 input
    # One conditional subtraction is exact below twice the prime: x - p
    # wraps above x exactly when x < p.
    return np.minimum(out, np.subtract(out, _P61, out=high), out=out)


def _mulmod_limbs(
    a_hi: np.ndarray, a_lo: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """A value below 2**63 congruent to ``a * x`` modulo 2**61 - 1.

    ``a`` comes split into its 32-bit limbs; both operands are below 2**61.
    The result is left unreduced so that a caller can add one more term
    below 2**61 before its single ``fold_m61``.
    """
    x_hi = x >> _S32
    x_lo = x & _MASK32
    out = np.multiply(a_hi, x_hi, out=out)  # < 2**58
    out <<= _S3  # 2**64 = 8 (mod p)
    mid = a_hi * x_lo
    tmp = np.multiply(a_lo, x_hi, out=np.empty_like(mid))
    mid += tmp  # < 2**62
    out += np.right_shift(mid, _S29, out=tmp)  # 2**61 = 1 (mod p)
    mid &= _MASK29
    mid <<= _S32
    out += mid
    lo = np.multiply(a_lo, x_lo, out=mid)  # < 2**64
    out += np.right_shift(lo, _S61, out=tmp)
    lo &= _P61
    out += lo
    return out


def mulmod_m61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact (a * x) mod (2**61 - 1) for operands already below 2**61.

    Splits both operands into 32-bit limbs so every intermediate stays
    inside u64; 2**64 = 8 and 2**61 = 1 modulo the prime.
    """
    out = _mulmod_limbs(a >> _S32, a & _MASK32, x)
    return fold_m61(out, out=out)


@lru_cache(maxsize=1 << 20)
def shingle_hash(shingle: str) -> int:
    """Stable 64-bit base hash of a shingle, identical across runs/platforms."""
    return int.from_bytes(hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "little")


def _hash_family(seed: int, num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_for(seed, _TAG_HASH_FAMILY)
    a = rng.integers(1, int(MERSENNE_61), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(MERSENNE_61), size=num_perm, dtype=np.uint64)
    return a, b


class _RowCache:
    """The permuted rows of recently sketched shingles under one hash family.

    Row ``i`` of ``block`` holds ``(a*x + b) mod p`` over all ``num_perm``
    permutations for the shingle whose slot is ``i``.  The block holds at
    most ``ROW_CACHE_BYTES``; when a user's missing shingles do not fit,
    every slot is dropped and filling starts again from row 0.
    """

    def __init__(self, seed: int, num_perm: int):
        a, self.b = _hash_family(seed, num_perm)
        self.family = (seed, num_perm)
        self.a_hi, self.a_lo = a >> np.uint64(32), a & _MASK32
        self.block = np.empty((ROW_CACHE_BYTES // (8 * num_perm), num_perm), dtype=np.uint64)
        self.slots: dict[str, int] = {}

    def permuted(self, members, out: np.ndarray | None = None) -> np.ndarray:
        """One permuted row per shingle, computed (not looked up)."""
        xs = np.fromiter(map(shingle_hash, members), dtype=np.uint64, count=len(members))
        out = _mulmod_limbs(self.a_hi, self.a_lo, fold_m61(xs)[:, None], out=out)
        out += self.b  # < 2**64
        return fold_m61(out, out=out)

    def rows(self, members: frozenset[str]) -> np.ndarray:
        """The rows of a shingle set, as a new array."""
        if len(members) > len(self.block):
            return self.permuted(members)
        slots = self.slots
        ids = [slots.get(s, -1) for s in members]
        if -1 in ids:
            missing = [s for s in members if s not in slots]
            if len(slots) + len(missing) > len(self.block):
                slots.clear()
                missing = list(members)
            start = len(slots)
            self.permuted(missing, out=self.block[start : start + len(missing)])
            slots.update(zip(missing, range(start, start + len(missing))))
            ids = [slots[s] for s in members]
        return self.block[ids]


_row_cache: _RowCache | None = None
_row_cache_lock = threading.Lock()


@dataclass(frozen=True)
class ShingleSet:
    """The distinct k-symbol windows of one user's sequence."""

    user_id: str
    k: int
    shingles: frozenset[str]


class MinHashSignature:
    """Fixed-length sketch of a shingle set.

    Comparable only against signatures produced with the same ``num_perm``
    and ``seed``.
    """

    __slots__ = ("user_id", "num_perm", "seed", "values")

    def __init__(self, user_id: str, num_perm: int, seed: int, values: np.ndarray):
        self.user_id = user_id
        self.num_perm = num_perm
        self.seed = seed
        self.values = values

    def __eq__(self, other) -> bool:
        if not isinstance(other, MinHashSignature):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.num_perm == other.num_perm
            and self.seed == other.seed
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"MinHashSignature(user_id={self.user_id!r}, num_perm={self.num_perm}, seed={self.seed})"

    def to_bytes(self) -> bytes:
        uid = self.user_id.encode("utf-8")
        if len(uid) > 0xFFFF:  # the blob stores its length as a u16
            raise ValueError(f"user id of {len(uid)} UTF-8 bytes is over the limit of 65535")
        header = struct.pack("<4sBQIH", SIGNATURE_MAGIC, SIGNATURE_VERSION, self.seed, self.num_perm, len(uid))
        return header + uid + self.values.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "MinHashSignature":
        header_size = struct.calcsize("<4sBQIH")
        if len(data) < header_size:
            raise FormatError("signature blob truncated")
        magic, version, seed, num_perm, uid_len = struct.unpack_from("<4sBQIH", data)
        if magic != SIGNATURE_MAGIC:
            raise FormatError(f"bad signature magic {magic!r}")
        if version != SIGNATURE_VERSION:
            raise FormatError(f"unsupported signature version {version}")
        if num_perm < 1:
            raise FormatError("signature blob has no permutations")
        expected = header_size + uid_len + 8 * num_perm
        if len(data) != expected:
            raise FormatError(f"signature blob has {len(data)} bytes, expected {expected}")
        try:
            uid = data[header_size : header_size + uid_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"signature user id is not UTF-8: {exc}") from exc
        values = np.frombuffer(data, dtype="<u8", count=num_perm, offset=header_size + uid_len)
        return cls(uid, num_perm, seed, values.astype(np.uint64))

    def to_debug_json(self) -> str:
        doc = {
            "format": "minhash-signature",
            "version": SIGNATURE_VERSION,
            "seed": self.seed,
            "num_perm": self.num_perm,
            "user_id": self.user_id,
            "values": [int(v) for v in self.values],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_debug_json(cls, text: str) -> "MinHashSignature":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"signature document is not JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != "minhash-signature":
            raise FormatError("not a minhash-signature document")
        if doc.get("version") != SIGNATURE_VERSION:
            raise FormatError(f"unsupported signature version {doc.get('version')}")
        user_id, num_perm, seed, values = map(doc.get, ("user_id", "num_perm", "seed", "values"))
        if not (isinstance(user_id, str) and type(num_perm) is int and num_perm > 0
                and type(seed) is int and 0 <= seed < 1 << 64
                and isinstance(values, list) and len(values) == num_perm
                and all(type(v) is int and 0 <= v < 1 << 64 for v in values)):
            raise FormatError("a signature document needs a string user_id, a positive int "
                              "num_perm, a seed and num_perm values, each in [0, 2**64)")
        return cls(user_id, num_perm, seed, np.array(values, dtype=np.uint64))


def shingle(seq: DnaSequence, k: int) -> ShingleSet:
    """All length-k windows of the sequence, as a set.

    Windows are taken over the flat symbol string, so with several
    alphabets a window can straddle post boundaries.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    symbols = seq.symbols
    if len(symbols) < k:
        raise SequenceTooShort(
            f"user {seq.user_id!r}: sequence length {len(symbols)} < k={k}"
        )
    windows = frozenset(symbols[i : i + k] for i in range(len(symbols) - k + 1))
    return ShingleSet(seq.user_id, k, windows)


def minhash(shingles: ShingleSet, num_perm: int, seed: int) -> MinHashSignature:
    """MinHash signature of a shingle set under the seeded hash family.

    Each shingle's permuted row comes from a process-wide cache that keeps
    the most recent ``(seed, num_perm)`` family; the values do not depend
    on what the cache holds.
    """
    global _row_cache
    if num_perm < 1:
        raise ValueError(f"num_perm must be positive, got {num_perm}")
    if not shingles.shingles:
        raise EmptySet(f"user {shingles.user_id!r} has an empty shingle set")
    with _row_cache_lock:
        if _row_cache is None or _row_cache.family != (seed, num_perm):
            _row_cache = _RowCache(seed, num_perm)
        rows = _row_cache.rows(shingles.shingles)
    return MinHashSignature(shingles.user_id, num_perm, seed, rows.min(axis=0))


def check_compatible(sig: MinHashSignature, num_perm: int, seed: int) -> None:
    """Raise unless ``sig`` was sketched with ``num_perm`` permutations under ``seed``."""
    if sig.num_perm != num_perm or sig.seed != seed:
        raise IncompatibleSignatures(
            f"signature {sig.user_id!r} (num_perm={sig.num_perm}, seed={sig.seed}) "
            f"vs (num_perm={num_perm}, seed={seed})"
        )


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of equal signature positions; estimates set Jaccard."""
    check_compatible(b, a.num_perm, a.seed)
    return float(np.count_nonzero(a.values == b.values)) / a.num_perm
