"""Shingling and MinHash signatures over DNA sequences.

A sequence is cut into overlapping windows of ``k`` symbols (shingles); the
resulting set is compressed into ``num_perm`` minimum hash values.  Each
"permutation" is an affine map ``(a*x + b) mod (2**61 - 1)`` applied to a
64-bit base hash of the shingle, with the per-permutation parameters drawn
deterministically from a counter-based PRNG keyed by ``seed``.  Two
signatures built with the same ``(num_perm, seed)`` estimate the Jaccard
similarity of the underlying shingle sets as the fraction of equal
positions.

``shingle`` gives each window an integer code: the 17 symbols of the
alphabets are the digits 1..17 of a bijective base-17 number, so a window
of width ``k`` <= 15 is an exact int64, and windows of different widths
never share a code.  ``shingle_many`` shingles a list of sequences in
groups of about ``GROUP_WINDOWS`` (8192) windows, with one unstable sort
per group; ``shingle`` is its one-sequence case.  A bounded process-wide memo
numbers every shingle it has seen, keeps its base hash, and keeps the
permuted values (the row) of the most recent ones, so shingles shared
across users are hashed once.  A code of width up to 4 (1..88,740) finds
its number in a direct int32 table (347 KiB, allocated on first use); a
wider code, or a string of a set made from strings, in a dict.  A code's
base hash is the ``shingle_hash`` of its window, sliced from the sequence
at the window's first start; the memo never decodes a code to its string.

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
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import attrgetter

import numpy as np

from .encoding import ALPHABETS, DnaSequence
from .errors import EmptySet, FormatError, IncompatibleSignatures, SequenceTooShort

MERSENNE_61 = np.uint64((1 << 61) - 1)
# 0-d arrays rather than numpy scalars: a ufunc takes them ~0.4 us faster.
_P61 = np.array(MERSENNE_61)
_MASK30 = np.array((1 << 30) - 1, dtype=np.uint64)
_MASK31 = np.array((1 << 31) - 1, dtype=np.uint64)
_S30, _S31, _S61 = (np.array(s, dtype=np.uint64) for s in (30, 31, 61))

# The memo's block of rows: 1024 rows at 128 permutations.  Shingles
# shared across users (a small alphabet and k) are computed once per
# process; a vocabulary far larger than the block (a sparse corpus) keeps
# emptying it and gains nothing, so the bound keeps its memory small.
ROW_CACHE_BYTES = 1 << 20
# The memo's bound on distinct shingles per hash family, over its code table
# and its dict together.
MEMO_ENTRIES = 1 << 20

# The digits 1..17 of the shingle codes, in alphabet order; a byte that is
# no symbol maps to 0.
SYMBOLS = "".join(symbol for alphabet in ALPHABETS.values() for symbol in alphabet.symbols)
_DIGITS = np.zeros(256, dtype=np.int64)
_DIGITS[np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)] = np.arange(1, len(SYMBOLS) + 1)
# The widest window whose code fits in int64: 15 symbols of digit 17 make
# (17**16 - 17) / 16 < 2**63, and 16 do not.
MAX_K_SHINGLE = 15

# The largest num_perm ``check_num_perm`` allows a stored signature, a plan
# or an index: the largest size the Gauss-Legendre convergence check in
# ``lsh`` covers.  An index also counts equal positions in u16, which it
# keeps in range.
MAX_NUM_PERM = 8192

SIGNATURE_MAGIC = b"BDSG"
SIGNATURE_VERSION = 1

# Domain tags keeping the hash-family draw and the band-digest draw (lsh
# module) independent even under the same user seed.
_TAG_HASH_FAMILY = 1
_TAG_BAND_DIGEST = 2


def _check_integer(name: str, value) -> int:
    """``value`` as ``int``; ``ValueError`` unless it is an ``int`` or numpy integer (a bool is not)."""
    # An exact int first: every signature made passes here twice.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_num_perm(num_perm: int) -> int:
    """``num_perm`` as ``int``; ``ValueError`` unless an integer in [2, MAX_NUM_PERM]. The one rule for it."""
    num_perm = _check_integer("num_perm", num_perm)
    if not 2 <= num_perm <= MAX_NUM_PERM:
        raise ValueError(f"num_perm must be in [2, {MAX_NUM_PERM}], got {num_perm}")
    return num_perm


def check_seed(seed: int) -> int:
    """``seed`` as ``int``; ``ValueError`` unless an integer in [0, 2**64). The one rule for a seed."""
    seed = _check_integer("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def check_k_shingle(k: int) -> int:
    """``k`` as ``int``; ``ValueError`` unless an integer in [1, MAX_K_SHINGLE]. The one rule for a shingle width."""
    k = _check_integer("k_shingle", k)
    if not 1 <= k <= MAX_K_SHINGLE:
        raise ValueError(f"k_shingle must be in [1, {MAX_K_SHINGLE}], got {k}")
    return k


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator for (seed, purpose) pairs, stable across runs."""
    key = check_seed(seed) | (tag << 64)
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
    """A value below 2**63 + 2**32 congruent to ``a * x`` modulo 2**61 - 1.

    ``a`` comes split at bit 31 into ``a_hi`` < 2**30 and ``a_lo`` < 2**31,
    and ``x`` < 2**61 is split the same way here, so every product stays
    below 2**62.  With 2**62 = 2 and 2**61 = 1 (mod p)::

        a*x = 2*a_hi*x_hi + (a_hi*x_lo + a_lo*x_hi) * 2**31 + a_lo*x_lo

    and the middle sum's bits from 30 up wrap around to bit 0.  The result
    is left unreduced so that a caller can add one more term below 2**61
    before its single ``fold_m61``.
    """
    x_hi = x >> _S31
    x_lo = x & _MASK31
    out = np.multiply(a_hi, x_hi + x_hi, out=out)  # < 2**61
    mid = a_hi * x_lo
    tmp = np.multiply(a_lo, x_hi, out=np.empty_like(mid))
    mid += tmp  # < 2**62
    out += np.right_shift(mid, _S30, out=tmp)
    mid &= _MASK30
    mid <<= _S31
    out += mid
    out += np.multiply(a_lo, x_lo, out=mid)  # < 2**62
    return out


def shingle_hash(shingle: str) -> int:
    """Stable 64-bit base hash of a shingle, identical across runs/platforms."""
    return int.from_bytes(hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "little")


_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


def _window_hashes(windows: Iterable[bytes]) -> np.ndarray:
    """``shingle_hash`` of each window's UTF-8 bytes, as u64.

    Copying a made hasher takes about half the time of making one.
    """
    digests, copy = [], _BLAKE2B_8.copy
    for window in windows:
        hasher = copy()
        hasher.update(window)
        digests.append(hasher.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8")


def _hash_family(seed: int, num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_for(seed, _TAG_HASH_FAMILY)
    a = rng.integers(1, int(MERSENNE_61), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(MERSENNE_61), size=num_perm, dtype=np.uint64)
    return a, b


def _keys(shingles: ShingleSet) -> list:
    """A set's memo keys: its codes, or the strings of a set made from strings."""
    return list(shingles.shingles) if shingles.codes is None else shingles.codes.tolist()


def _base_hashes(shingles: ShingleSet, keys: list | None, at: np.ndarray) -> np.ndarray:
    """The base hashes of the set's members at ``at``: of ``keys[at]`` for a
    set made from strings, else of its codes' windows, each sliced from the
    sequence at the code's first start."""
    if shingles.codes is None:
        return _window_hashes(map(str.encode, map(keys.__getitem__, at.tolist())))
    data, first = shingles.symbols.encode("ascii"), shingles.starts[at]
    return _window_hashes(map(data.__getitem__, map(slice, first.tolist(), (first + shingles.k).tolist())))


def _code_span(k: int) -> int:
    """One more than the largest code of width ``k``, ``(17**(k+1) - 17) / 16``.

    Every code of width up to ``k`` is below it.
    """
    return (len(SYMBOLS) ** (k + 1) - len(SYMBOLS)) // (len(SYMBOLS) - 1) + 1


# Coded sets of width up to ``_TABLE_K`` take their ids from a direct table
# indexed by code: codes 1..88,740, so 88,741 int32 entries (347 KiB).
_TABLE_K = 4
_TABLE_SIZE = _code_span(_TABLE_K)


class _ShingleMemo:
    """Every shingle sketched under one hash family, by integer id.

    Shingles are numbered in order of first use.  A coded set of width
    ``k`` <= 4 finds its ids in ``table``, an int32 array indexed by code
    (-1 where none), allocated on first use; wider codes, and the strings
    of a set made from strings, find theirs in the dict ``ids``.  By id,
    ``base`` keeps the shingle's base hash reduced mod p, and ``slot`` the
    row of ``block`` that holds its permuted values ``(a*x + b) mod p``
    over all ``num_perm`` permutations, or -1.  The block holds at most
    ``ROW_CACHE_BYTES``; when a set's missing rows do not fit, every slot
    is dropped and filling starts again from row 0.  A set larger than the
    block is computed without being stored.  The memo holds at most
    ``MEMO_ENTRIES`` shingles over both maps; a set that would take it
    past that empties both, slots and all, first.
    """

    def __init__(self, seed: int, num_perm: int):
        a, self.b = _hash_family(seed, num_perm)
        self.family = (seed, num_perm)
        self.a_hi, self.a_lo = a >> _S31, a & _MASK31
        self.block = np.empty((ROW_CACHE_BYTES // (8 * num_perm), num_perm), dtype=np.uint64)
        self.owner = np.empty(len(self.block), dtype=np.intp)  # the id in each filled row
        self.filled = 0
        self.count = 0  # shingles numbered, in both maps
        self.ids: dict[int | str, int] = {}
        self.table: np.ndarray | None = None
        self.base = np.empty(0, dtype=np.uint64)
        self.slot = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return self.count

    def permuted(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One permuted row per base hash (reduced mod p), computed."""
        out = _mulmod_limbs(self.a_hi, self.a_lo, xs[:, None], out=out)
        out += self.b  # < 2**64
        return fold_m61(out, out=out)

    def _empty(self) -> None:
        self.ids.clear()
        if self.table is not None:
            self.table.fill(-1)
        self.count = self.filled = 0

    def _number(self, shingles: ShingleSet, keys: list | None, fresh: np.ndarray) -> np.ndarray:
        """Ids for the set's new members at ``fresh``, with their base hashes kept."""
        known = self.count
        self.count = total = known + len(fresh)
        if total > len(self.base):
            size = min(MEMO_ENTRIES, max(total, 2 * len(self.base)))
            self.base, self.slot = np.resize(self.base, size), np.resize(self.slot, size)
        fold_m61(_base_hashes(shingles, keys, fresh), out=self.base[known:total])
        self.slot[known:total] = -1
        return np.arange(known, total)

    def _lookup(self, shingles: ShingleSet) -> np.ndarray:
        """The ids of a set's distinct members; new ones are numbered and hashed."""
        codes = shingles.codes
        if codes is not None and shingles.k <= _TABLE_K:
            if self.table is None:
                self.table = np.full(_TABLE_SIZE, -1, dtype=np.int32)
            found = self.table[codes]
            if found.min() < 0:
                fresh = np.flatnonzero(found < 0)
                found[fresh] = self.table[codes[fresh]] = self._number(shingles, None, fresh)
            return found
        ids, keys = self.ids, _keys(shingles)
        found = np.fromiter(map(ids.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
        if found.min() < 0:
            fresh = np.flatnonzero(found < 0)
            found[fresh] = numbers = self._number(shingles, keys, fresh)
            ids.update(zip(map(keys.__getitem__, fresh.tolist()), numbers.tolist()))
        return found

    def sketch(self, shingles: ShingleSet) -> np.ndarray:
        """The column-wise minimum of a set's permuted rows, as a new array."""
        n = len(shingles)
        if n > MEMO_ENTRIES:  # more shingles than the memo may hold
            keys = _keys(shingles) if shingles.codes is None else None
            return self.permuted(fold_m61(_base_hashes(shingles, keys, np.arange(n)))).min(axis=0)
        if self.count + n > MEMO_ENTRIES:
            self._empty()
        found = self._lookup(shingles)
        if n > len(self.block):
            return self.permuted(self.base[found]).min(axis=0)
        slots = self.slot[found]
        held = slots >= 0
        missing = found[~held]
        if not len(missing):
            return self.block.take(slots, axis=0).min(axis=0)
        if self.filled + len(missing) > len(self.block):
            self.slot[self.owner[: self.filled]] = -1
            self.filled = 0
            missing, held = found, None
        start = self.filled
        self.filled = stop = start + len(missing)
        rows = self.permuted(self.base[missing], out=self.block[start:stop])
        self.owner[start:stop] = missing
        self.slot[missing] = np.arange(start, stop)
        values = rows.min(axis=0)
        if held is not None and len(missing) < n:
            np.minimum(values, self.block.take(slots[held], axis=0).min(axis=0), out=values)
        return values


_memo: _ShingleMemo | None = None
_memo_lock = threading.Lock()

# How many of a set's least codes ``habit_anchor`` reads per step: a dense
# set stops at its first, so none reads a whole set into a list.
_ANCHOR_STEP = 16


def habit_anchor(shingles: ShingleSet) -> int:
    """The least code whose window recurs in the set's own sequence, else the least code.

    A recurring window is a habit, and users of one behaviour family share
    theirs.  Sketched in order of their anchors, such users follow one
    another, so the rows they share are still in the memo's block when the
    next one comes.  The set must be coded, as ``shingle`` makes it.
    """
    symbols, k, codes, starts = shingles.symbols, shingles.k, shingles.codes, shingles.starts
    for lo in range(0, len(codes), _ANCHOR_STEP):
        hi = lo + _ANCHOR_STEP
        for code, start in zip(codes[lo:hi].tolist(), starts[lo:hi].tolist()):
            if symbols.find(symbols[start : start + k], start + 1) >= 0:
                return code
    return int(codes[0])


class ShingleSet:
    """The distinct k-symbol windows of one user's sequence.

    ``shingle`` makes one from a sequence.  It keeps the source
    ``symbols``, the windows' int64 ``codes`` in ascending order, and in
    ``starts`` where each code's window first occurs in ``symbols``.
    ``ShingleSet(user_id, k, shingles)`` makes one from any strings, of any
    width; it has no codes, and ``codes``, ``starts`` and ``symbols`` are
    None.  ``shingles`` is the ``frozenset[str]`` of the windows, decoded
    from the codes the first time it is read.  A set is read-only: its
    fields cannot be set, and ``codes`` and ``starts`` are read-only
    arrays, since the memo keeps each code's hash for every later set.
    """

    __slots__ = ("_user_id", "_k", "_codes", "_starts", "_symbols", "_shingles")

    def __init__(self, user_id: str, k: int, shingles: frozenset[str]):
        self._user_id, self._k, self._shingles = user_id, k, shingles
        self._codes = self._starts = self._symbols = None

    @classmethod
    def _coded(cls, user_id: str, k: int, symbols: str, codes: np.ndarray, starts: np.ndarray) -> ShingleSet:
        coded = cls(user_id, k, None)
        codes.setflags(write=False)
        starts.setflags(write=False)
        coded._codes, coded._starts, coded._symbols = codes, starts, symbols
        return coded

    # Read-only fields: a property without a setter refuses assignment.
    user_id = property(attrgetter("_user_id"))
    k = property(attrgetter("_k"))
    codes = property(attrgetter("_codes"))
    starts = property(attrgetter("_starts"))
    symbols = property(attrgetter("_symbols"))

    def __reduce__(self):
        """Copies and unpickled sets are made, and so made read-only, by the constructors."""
        if self._codes is None:
            return ShingleSet, (self._user_id, self._k, self._shingles)
        return ShingleSet._coded, (self._user_id, self._k, self._symbols, self._codes, self._starts)

    @property
    def shingles(self) -> frozenset[str]:
        if self._shingles is None:
            k, symbols = self._k, self._symbols
            self._shingles = frozenset([symbols[i : i + k] for i in self._starts.tolist()])
        return self._shingles

    def __len__(self) -> int:
        return len(self.shingles) if self.codes is None else len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShingleSet):
            return NotImplemented
        return (self.user_id, self.k, self.shingles) == (other.user_id, other.k, other.shingles)

    def __hash__(self) -> int:
        return hash((self.user_id, self.k, self.shingles))

    def __repr__(self) -> str:
        return f"ShingleSet(user_id={self.user_id!r}, k={self.k}, size={len(self)})"


class MinHashSignature:
    """Fixed-length sketch of a shingle set.

    Comparable only against signatures produced with the same ``num_perm``
    and ``seed``.  The constructor checks every rule for one (a ``str`` id
    and ``num_perm`` integer values in [0, 2**64), kept as u64) and raises
    ``ValueError`` naming the field it refuses.  A checked signature is
    read-only: its fields cannot be set, and ``values`` is a read-only
    u64 array of its own, so no later write can undo a check.
    """

    __slots__ = ("_user_id", "_num_perm", "_seed", "_values")

    def __init__(self, user_id: str, num_perm: int, seed: int, values: np.ndarray):
        if not isinstance(user_id, str):
            raise ValueError(f"user_id must be a str, got {user_id!r}")
        num_perm = check_num_perm(num_perm)
        seed = check_seed(seed)
        values = np.asarray(values)
        kind = values.dtype.kind
        if values.shape != (num_perm,) or kind not in "ui" or kind == "i" and values.min() < 0:
            raise ValueError(f"values must be {num_perm} integers in [0, 2**64), "
                             f"got {values.dtype} of shape {values.shape}")
        self._user_id = user_id
        self._num_perm = num_perm
        self._seed = seed
        self._values = values.astype(np.uint64)  # a copy, so the caller's array stays theirs
        self._values.setflags(write=False)

    # Read-only fields: a property without a setter refuses assignment.
    user_id = property(attrgetter("_user_id"))
    num_perm = property(attrgetter("_num_perm"))
    seed = property(attrgetter("_seed"))
    values = property(attrgetter("_values"))

    def __reduce__(self):
        """Copies and unpickled signatures are made, and so checked, by the constructor."""
        return MinHashSignature, (self.user_id, self.num_perm, self.seed, self.values)

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
        try:
            check_num_perm(num_perm)
        except ValueError as exc:
            raise FormatError(f"signature blob: {exc}") from None
        at = header_size + uid_len  # the values' offset
        if len(data) != at + 8 * num_perm:
            raise FormatError(f"signature blob has {len(data)} bytes, expected {at + 8 * num_perm}")
        try:
            uid = data[header_size:at].decode("utf-8")
            return cls(uid, num_perm, seed, np.frombuffer(data, "<u8", num_perm, at))
        except UnicodeDecodeError as exc:
            raise FormatError(f"signature user id is not UTF-8: {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"signature blob: {exc}") from None

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
        # Exact ints, so that JSON true is not read as 1.
        if not (type(num_perm) is int and type(seed) is int and isinstance(values, list)
                and all(type(v) is int and 0 <= v < 1 << 64 for v in values)):
            raise FormatError("a signature document needs an int num_perm and seed, and int values in [0, 2**64)")
        try:
            return cls(user_id, num_perm, seed, np.array(values, dtype=np.uint64))
        except ValueError as exc:
            raise FormatError(f"signature document: {exc}") from None


# Windows per group of ``shingle_many``: a group's int64 keys, sort order
# and starts take ~64 KiB each, so they stay in cache while it is sorted.
GROUP_WINDOWS = 8192


def shingle(seq: DnaSequence, k: int) -> ShingleSet:
    """All length-k windows of the sequence, as a coded set: ``shingle_many`` of one."""
    return shingle_many([seq], k)[0]


def shingle_many(seqs: Sequence[DnaSequence], k: int) -> list[ShingleSet]:
    """Each sequence's length-k windows, as one coded set per sequence, in input order.

    Windows are taken over the flat symbol string, so with several
    alphabets a window can straddle post boundaries.  The sequences are
    shingled in groups of whole sequences holding about ``GROUP_WINDOWS``
    windows (a longer sequence is a group of its own), and no more than an
    int64 key ``index in group * span + code`` can tell apart, where every
    code of width ``k`` is below ``span`` (three sequences at k=15).  Per
    group, k-1 multiply-adds over the joined digits give every window's
    code, windows that straddle two sequences are dropped, one sort puts
    the keys in order, and each key's first start is the least start of its
    run, since the sort is not stable.  A sequence shorter than ``k``
    raises ``SequenceTooShort``, and a symbol of no alphabet ``ValueError``,
    for the first offending sequence in input order, as shingling them one
    at a time would.
    """
    k = check_k_shingle(k)
    span = _code_span(k)
    most = ((1 << 63) - 1) // span
    sets, lo = [], 0
    while lo < len(seqs):
        hi, windows = lo + 1, len(seqs[lo].symbols) - k + 1
        while hi < len(seqs) and hi - lo < most and windows < GROUP_WINDOWS:
            windows += len(seqs[hi].symbols) - k + 1
            hi += 1
        sets += _shingle_group(seqs[lo:hi], k, span)
        lo = hi
    return sets


def _shingle_group(seqs: Sequence[DnaSequence], k: int, span: int) -> list[ShingleSet]:
    """``shingle_many`` of one group, whose keys fit in int64."""
    texts = [seq.symbols for seq in seqs]
    joined = "".join(texts)
    lengths = list(map(len, texts))
    # "replace" keeps one byte per symbol, and its "?" is no digit.
    digits = _DIGITS.take(np.frombuffer(joined.encode("ascii", "replace"), dtype=np.uint8))
    if min(lengths) < k or np.count_nonzero(digits) < len(digits):
        _refuse(seqs, k, joined, lengths, digits)
    n = len(joined) - k + 1
    keys = digits[:n].copy()
    for i in range(1, k):
        keys *= len(SYMBOLS)
        keys += digits[i : i + n]
    if len(seqs) > 1:
        lengths = np.array(lengths)
        ends = lengths.cumsum()
        kept = np.ones(n, dtype=bool)
        kept[(ends[:-1, None] - np.arange(1, k)).ravel()] = False  # the k-1 windows ending past each sequence
        at = kept.nonzero()[0]
        keys = keys.take(at)
        keys += np.arange(0, span * len(seqs), span, dtype=np.int64).repeat(lengths - (k - 1))
    order = keys.argsort()
    keys = keys.take(order)
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    heads = head.nonzero()[0]
    keys = keys.take(heads)
    # An unstable sort leaves a run in any order: a key's first start is its run's least.
    starts = np.minimum.reduceat(order, heads)
    if len(seqs) == 1:
        return [ShingleSet._coded(seqs[0].user_id, k, joined, keys, starts)]
    owner = keys // span
    keys -= owner * span  # the codes
    starts = at.take(starts)
    starts -= (ends - lengths).take(owner)
    keys.setflags(write=False)
    starts.setflags(write=False)
    cuts = owner.searchsorted(np.arange(len(seqs) + 1)).tolist()
    return [ShingleSet._coded(seq.user_id, k, text, keys[a:b], starts[a:b])
            for seq, text, a, b in zip(seqs, texts, cuts, cuts[1:])]


def _refuse(seqs: Sequence[DnaSequence], k: int, joined: str, lengths: list[int], digits: np.ndarray) -> None:
    """Raise for the group's first sequence that is shorter than ``k`` or holds a symbol of no alphabet."""
    short = np.flatnonzero(np.array(lengths) < k)
    bad = np.flatnonzero(digits == 0)
    first_short = short[0] if len(short) else len(seqs)
    first_bad = np.searchsorted(np.cumsum(lengths), bad[0], side="right") if len(bad) else len(seqs)
    if first_short <= first_bad:  # a short sequence is refused before its symbols are read
        seq = seqs[first_short]
        raise SequenceTooShort(f"user {seq.user_id!r}: sequence length {len(seq.symbols)} < k={k}")
    raise ValueError(f"user {seqs[first_bad].user_id!r}: symbol {joined[bad[0]]!r} is in no alphabet")


def minhash(shingles: ShingleSet, num_perm: int, seed: int) -> MinHashSignature:
    """MinHash signature of a shingle set under the seeded hash family.

    Each shingle's base hash and permuted row come from a process-wide
    memo that keeps the most recent ``(seed, num_perm)`` family; the values
    do not depend on what the memo holds.
    """
    global _memo
    num_perm = check_num_perm(num_perm)
    if not len(shingles):
        raise EmptySet(f"user {shingles.user_id!r} has an empty shingle set")
    with _memo_lock:
        if _memo is None or _memo.family != (seed, num_perm):
            _memo = _ShingleMemo(seed, num_perm)
        values = _memo.sketch(shingles)
    return MinHashSignature(shingles.user_id, num_perm, seed, values)


def check_compatible(sig: MinHashSignature, num_perm: int, seed: int) -> None:
    """Raise unless ``sig`` is of the hash family ``(num_perm, seed)``; its constructor checked the rest."""
    if sig.num_perm != num_perm or sig.seed != seed:
        raise IncompatibleSignatures(
            f"signature {sig.user_id!r} (num_perm={sig.num_perm}, seed={sig.seed}) "
            f"vs (num_perm={num_perm}, seed={seed})"
        )


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of equal signature positions; estimates set Jaccard."""
    check_compatible(b, a.num_perm, a.seed)
    return float(np.count_nonzero(a.values == b.values)) / a.num_perm
