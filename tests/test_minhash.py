import hashlib
import importlib
import json
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botdna.encoding import DnaSequence, encode_user
from botdna.errors import EmptySet, FormatError, IncompatibleSignatures, SequenceTooShort
from botdna.minhash import (
    MERSENNE_61,
    ROW_CACHE_BYTES,
    MinHashSignature,
    ShingleSet,
    estimate_jaccard,
    fold_m61,
    minhash,
    mulmod_m61,
    _hash_family,
    shingle,
    shingle_hash,
)

from conftest import (
    BOT_KIND_CYCLES,
    HUMAN_KIND_CYCLES,
    exact_jaccard,
    make_set_pair,
    synthetic_corpus,
)

# The module itself: the package re-exports ``minhash`` the function under
# the same name.
minhash_module = importlib.import_module("botdna.minhash")

M61 = int(MERSENNE_61)


def seq(symbols, user_id="u", alphabets=("B3",)):
    return DnaSequence(user_id, alphabets, symbols)


class TestModularArithmetic:
    @given(st.integers(0, 2**64 - 1))
    def test_fold_matches_python_mod(self, x):
        assert int(fold_m61(np.array([x], dtype=np.uint64))[0]) == x % M61

    @given(st.integers(0, M61 - 1), st.integers(0, M61 - 1))
    @settings(max_examples=300)
    def test_mulmod_matches_python_mod(self, a, x):
        got = mulmod_m61(np.array([a], dtype=np.uint64), np.array([x], dtype=np.uint64))
        assert int(got[0]) == (a * x) % M61

    def test_mulmod_extremes(self):
        worst = np.array([M61 - 1], dtype=np.uint64)
        assert int(mulmod_m61(worst, worst)[0]) == ((M61 - 1) * (M61 - 1)) % M61


class TestShingle:
    def test_window_enumeration_with_duplicates(self):
        assert shingle(seq("ACTAC"), 2).shingles == frozenset({"AC", "CT", "TA"})

    def test_single_window(self):
        assert shingle(seq("A"), 1).shingles == frozenset({"A"})

    def test_mddna_example_windows(self):
        got = shingle(seq("AHCUTM", alphabets=("B3", "B5")), 3)
        assert got.shingles == frozenset({"AHC", "HCU", "CUT", "UTM"})

    def test_too_short_raises(self):
        with pytest.raises(SequenceTooShort):
            shingle(seq("AC"), 3)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            shingle(seq("AC"), 0)

    @given(st.text(alphabet="ACT", min_size=1, max_size=60), st.integers(1, 10))
    def test_window_laws(self, symbols, k):
        if len(symbols) < k:
            with pytest.raises(SequenceTooShort):
                shingle(seq(symbols), k)
            return
        got = shingle(seq(symbols), k)
        assert all(len(s) == k for s in got.shingles)
        assert 1 <= len(got.shingles) <= len(symbols) - k + 1


class TestMinHash:
    def test_deterministic(self):
        s = shingle(seq("ACTACTTCA"), 2)
        assert minhash(s, 64, seed=9) == minhash(s, 64, seed=9)

    def test_values_ignore_user_id(self):
        a = ShingleSet("alice", 2, frozenset({"AC", "CT"}))
        b = ShingleSet("bob", 2, frozenset({"AC", "CT"}))
        assert np.array_equal(minhash(a, 64, 1).values, minhash(b, 64, 1).values)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            minhash(ShingleSet("u", 2, frozenset()), 64, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            minhash(shingle(seq("ACTACTTCA"), 2), 64, seed)

    def test_largest_u64_seed_accepted(self):
        s = shingle(seq("ACTACTTCA"), 2)
        assert minhash(s, 64, (1 << 64) - 1).seed == (1 << 64) - 1

    def test_values_below_prime(self):
        s = shingle(seq("ACTACTTCA" * 3), 3)
        sig = minhash(s, 128, seed=3)
        assert sig.values.dtype == np.uint64
        assert int(sig.values.max()) < M61

    def test_estimator_within_tolerance_on_seeded_trials(self):
        # 100 trials at exact Jaccard 0.5 (union 200), num_perm=256: the
        # estimate must land within +-0.10 of the exact value computed
        # directly from the two sets in at least 95 trials.
        hits = 0
        for trial in range(100):
            rng = np.random.Generator(np.random.Philox(key=10_000 + trial))
            a, b = make_set_pair(0.5, 200, rng)
            truth = exact_jaccard(a, b)
            assert truth == 0.5
            est = estimate_jaccard(minhash(a, 256, seed=trial), minhash(b, 256, seed=trial))
            if abs(est - truth) <= 0.10:
                hits += 1
        assert hits >= 95

    def test_unbiased_over_seeds(self):
        # Statistical invariant: averaging estimates over many hash seeds
        # converges on the exact Jaccard of a fixed pair of sets.
        rng = np.random.Generator(np.random.Philox(key=77))
        a, b = make_set_pair(0.5, 200, rng)
        truth = exact_jaccard(a, b)
        num_perm, trials = 128, 200
        estimates = [
            estimate_jaccard(minhash(a, num_perm, seed=s), minhash(b, num_perm, seed=s))
            for s in range(trials)
        ]
        assert abs(np.mean(estimates) - truth) < 3.0 / np.sqrt(num_perm * trials)

    def test_permutation_independence(self):
        # Distinct positions use distinct parameters: on at least one of
        # 100 random sets, positions 0 and 1 must disagree.
        differing = 0
        for i in range(100):
            rng = np.random.Generator(np.random.Philox(key=500 + i))
            s = ShingleSet("u", 16, frozenset(make_set_pair(1.0, 30, rng)[0].shingles))
            sig = minhash(s, 8, seed=1)
            if sig.values[0] != sig.values[1]:
                differing += 1
        assert differing >= 1

    def test_seed_changes_values_not_expectation(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        a, b = make_set_pair(0.3, 100, rng)
        sig0, sig1 = minhash(a, 128, seed=0), minhash(a, 128, seed=1)
        assert not np.array_equal(sig0.values, sig1.values)
        truth = exact_jaccard(a, b)
        estimates = [
            estimate_jaccard(minhash(a, 128, seed=s), minhash(b, 128, seed=s)) for s in range(100)
        ]
        assert abs(np.mean(estimates) - truth) < 3.0 / np.sqrt(128 * 100)


class TestEstimateJaccard:
    def test_identity(self):
        sig = minhash(shingle(seq("ACTTCA"), 2), 64, 5)
        assert estimate_jaccard(sig, sig) == 1.0

    def test_equal_sets_give_one(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        a, b = make_set_pair(1.0, 150, rng)
        assert estimate_jaccard(minhash(a, 256, 7), minhash(b, 256, 7)) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        a, b = make_set_pair(0.0, 400, rng)
        assert exact_jaccard(a, b) == 0.0
        assert estimate_jaccard(minhash(a, 256, 11), minhash(b, 256, 11)) <= 0.05

    def test_incompatible_num_perm(self):
        s = shingle(seq("ACTTCA"), 2)
        with pytest.raises(IncompatibleSignatures):
            estimate_jaccard(minhash(s, 64, 1), minhash(s, 128, 1))

    def test_incompatible_seed(self):
        s = shingle(seq("ACTTCA"), 2)
        with pytest.raises(IncompatibleSignatures):
            estimate_jaccard(minhash(s, 64, 1), minhash(s, 64, 2))


signature_params = st.tuples(
    st.text(min_size=0, max_size=40),
    st.integers(1, 64),
    st.integers(0, 2**64 - 1),
)


class TestSerialization:
    @given(signature_params, st.data())
    @settings(max_examples=60)
    def test_binary_round_trip_bit_exact(self, params, data):
        user_id, num_perm, seed = params
        values = np.array(
            data.draw(st.lists(st.integers(0, M61 - 1), min_size=num_perm, max_size=num_perm)),
            dtype=np.uint64,
        )
        sig = MinHashSignature(user_id, num_perm, seed, values)
        blob = sig.to_bytes()
        back = MinHashSignature.from_bytes(blob)
        assert back == sig
        assert back.to_bytes() == blob

    def test_json_round_trip(self):
        sig = minhash(shingle(seq("ACTACTTCA"), 2), 32, seed=12)
        back = MinHashSignature.from_debug_json(sig.to_debug_json())
        assert back == sig

    def test_bad_magic(self):
        blob = minhash(shingle(seq("ACTA"), 2), 8, 1).to_bytes()
        with pytest.raises(FormatError):
            MinHashSignature.from_bytes(b"XXXX" + blob[4:])

    def test_truncated(self):
        blob = minhash(shingle(seq("ACTA"), 2), 8, 1).to_bytes()
        with pytest.raises(FormatError):
            MinHashSignature.from_bytes(blob[:-3])

    def test_no_permutations_is_format_error(self):
        blob = MinHashSignature("u", 0, 5, np.empty(0, dtype=np.uint64)).to_bytes()
        with pytest.raises(FormatError, match="no permutations"):
            MinHashSignature.from_bytes(blob)

    def test_id_not_utf8_is_format_error(self):
        blob = bytearray(MinHashSignature("ab", 4, 1, np.arange(4, dtype=np.uint64)).to_bytes())
        blob[19] = 0xFF  # the first id byte
        with pytest.raises(FormatError, match="not UTF-8"):
            MinHashSignature.from_bytes(bytes(blob))

    def test_id_over_u16_length_is_value_error(self):
        values = np.arange(4, dtype=np.uint64)
        fits = MinHashSignature("a" * 0xFFFF, 4, 1, values).to_bytes()
        assert MinHashSignature.from_bytes(fits).user_id == "a" * 0xFFFF
        too_long = MinHashSignature("\u00e9" * 32_768, 4, 1, values)  # 65,536 UTF-8 bytes
        with pytest.raises(ValueError, match="65536 UTF-8 bytes is over the limit of 65535"):
            too_long.to_bytes()

    @given(signature_params, st.data())
    @settings(max_examples=200)
    def test_corrupt_blob_raises_format_error_only(self, params, data):
        # Truncated at any byte, or with any id byte replaced, a blob either
        # fails with FormatError or is still a valid blob.
        user_id, num_perm, seed = params
        values = np.array(data.draw(st.lists(st.integers(0, M61 - 1), min_size=num_perm,
                                             max_size=num_perm)), dtype=np.uint64)
        blob = MinHashSignature(user_id, num_perm, seed, values).to_bytes()
        with pytest.raises(FormatError):
            MinHashSignature.from_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")])
        id_size = len(user_id.encode("utf-8"))
        if id_size:
            at = 19 + data.draw(st.integers(0, id_size - 1), label="id byte")
            bad = blob[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[at + 1 :]
            try:
                back = MinHashSignature.from_bytes(bad)
            except FormatError:
                return
            assert back.to_bytes() == bad

    @pytest.mark.parametrize("field", ["format", "version", "seed", "num_perm", "user_id", "values"])
    def test_debug_json_missing_field(self, field):
        doc = json.loads(MinHashSignature("u", 3, 1, np.arange(3, dtype=np.uint64)).to_debug_json())
        del doc[field]
        with pytest.raises(FormatError):
            MinHashSignature.from_debug_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "changes",
        [
            {"num_perm": 8},  # three values for eight permutations
            {"num_perm": 3.0},
            {"num_perm": True},
            {"seed": 1.0},
            {"seed": True},
            {"seed": "1"},
            {"seed": -1},
            {"num_perm": 0, "values": []},
            {"user_id": 7},
            {"values": [0, 1, 2.5]},
            {"values": [0, 1, -1]},
            {"values": [0, 1, 1 << 64]},
            {"values": "012"},
        ],
        ids=repr,
    )
    def test_debug_json_bad_field(self, changes):
        doc = json.loads(MinHashSignature("u", 3, 1, np.arange(3, dtype=np.uint64)).to_debug_json())
        with pytest.raises(FormatError):
            MinHashSignature.from_debug_json(json.dumps(doc | changes))

    @pytest.mark.parametrize("text", ["{", "[1]", "null", "[" * 100_000],
                             ids=["cut short", "array", "null", "deeply nested"])
    def test_debug_json_that_is_not_an_object(self, text):
        with pytest.raises(FormatError):
            MinHashSignature.from_debug_json(text)

    def test_base_hash_is_stable(self):
        # Frozen value: guards the on-disk format against accidental
        # changes to the base hash function.
        assert shingle_hash("AC") == 15533233518106170712


# SHA-256 over the binary signatures of a fixed corpus, one per
# (alphabets, k, num_perm, seed), recorded before the row cache existed.
# At 2048 permutations the block holds 64 rows, fewer than the 81 B3
# 4-shingles, so it fills and empties; at 16384 it holds 8, fewer than any
# user's shingles, so every set bypasses it.
GOLDEN_SIGNATURES = {
    (("B3",), 4, 128, 1): "64e364e4aae07715584f9ef2c3175484cfc28ce9d3f73a64cea30e4df2e4102e",
    (("B3", "B5", "B9"), 6, 64, 7): "a7067073e9cae3a8dbdae0119b0c6e4c74cbb075bfcd5ba26dafc87e50e65316",
    (("B3",), 4, 2048, 2): "6a401fb21623baaecc216cfe2aac201f1308d688a4213ecfa4d4353c3a7780c3",
    (("B3", "B9"), 3, 16384, 3): "54c71390c431d127cbf5dc66695eabd7316f7f28ef1ca26e73e43e236bf1ac63",
}


@pytest.mark.parametrize("setting", sorted(GOLDEN_SIGNATURES))
def test_golden_signatures(setting):
    alphabets, k, num_perm, seed = setting
    users = synthetic_corpus(
        40, 120, seed=5, noise=0.3, bot_cycles=BOT_KIND_CYCLES, human_cycles=HUMAN_KIND_CYCLES
    )
    digest = hashlib.sha256()
    for user in users:
        sig = minhash(shingle(encode_user(user, alphabets), k), num_perm, seed)
        digest.update(sig.to_bytes())
    assert digest.hexdigest() == GOLDEN_SIGNATURES[setting]


@lru_cache(maxsize=None)
def oracle_row(seed, num_perm, member):
    """Plain-Python permuted values of one shingle."""
    a, b = _hash_family(seed, num_perm)
    x = shingle_hash(member)
    return [(ai * (x % M61) + bi) % M61 for ai, bi in zip(a.tolist(), b.tolist())]


def oracle_minhash(members, num_perm, seed):
    rows = [oracle_row(seed, num_perm, m) for m in members]
    return [min(column) for column in zip(*rows)]


def capacity(num_perm):
    return ROW_CACHE_BYTES // (8 * num_perm)


# Blocks of 64, 64 and 32 rows: small enough that sets drawn from a
# 100-shingle universe fill them and overflow them.
CACHE_FAMILIES = [(2048, 5), (2048, 6), (4096, 5)]
UNIVERSE = [f"s{i:03d}" for i in range(100)]


class TestRowCache:
    def test_block_is_at_most_one_mebibyte(self):
        assert ROW_CACHE_BYTES == 1 << 20
        for num_perm in (1, 64, 128, 1000, 200_000):
            minhash(ShingleSet("u", 2, frozenset({"AC"})), num_perm, 1)
            block = minhash_module._row_cache.block
            assert block.shape == (capacity(num_perm), num_perm)
            assert block.nbytes <= ROW_CACHE_BYTES
        assert capacity(128) == 1024

    def test_call_sequence_matches_plain_python_oracle(self):
        # A model of the cache's rules says what each call should do to
        # it; the cache's slots must follow the model, every signature must
        # equal the oracle's, and the run must see every kind of call.
        seen = set()

        @given(
            pool=st.lists(
                st.frozensets(st.sampled_from(UNIVERSE), min_size=1, max_size=80),
                min_size=1,
                max_size=4,
            ),
            calls=st.lists(
                st.tuples(st.sampled_from(CACHE_FAMILIES), st.integers(0, 3)),
                min_size=1,
                max_size=8,
            ),
        )
        @example(
            pool=[frozenset(UNIVERSE[:30]), frozenset(UNIVERSE[30:70]), frozenset(UNIVERSE[:70])],
            calls=[
                (CACHE_FAMILIES[0], 0),  # miss
                (CACHE_FAMILIES[0], 0),  # hit
                (CACHE_FAMILIES[0], 1),  # 30 + 40 rows > 64: reset
                (CACHE_FAMILIES[0], 2),  # 70 rows > 64: bypass
                (CACHE_FAMILIES[1], 0),  # new seed
                (CACHE_FAMILIES[2], 0),  # new num_perm
                (CACHE_FAMILIES[0], 1),
            ],
        )
        @settings(max_examples=40, deadline=None)
        def check(pool, calls):
            # A family used nowhere else replaces whatever the cache held.
            minhash(ShingleSet("reset", 1, frozenset({"x"})), 8, 99)
            family, slots = None, set()
            for (num_perm, seed), i in calls:
                members = pool[i % len(pool)]
                if (num_perm, seed) != family:
                    if family is not None:
                        seen.add("new family")
                    family, slots = (num_perm, seed), set()
                if len(members) > capacity(num_perm):
                    seen.add("bypass")
                elif members <= slots:
                    seen.add("hit")
                elif len(slots | members) > capacity(num_perm):
                    seen.add("reset")
                    slots = set(members)
                else:
                    seen.add("miss")
                    slots |= members
                sig = minhash(ShingleSet("u", 4, members), num_perm, seed)
                assert sig.values.tolist() == oracle_minhash(members, num_perm, seed)
                cache = minhash_module._row_cache
                assert cache.family == (seed, num_perm)
                assert set(cache.slots) == slots

        check()
        assert seen == {"miss", "hit", "reset", "bypass", "new family"}

    @pytest.mark.parametrize("size", [3, 2000])  # cached, and larger than the block
    def test_signature_never_shares_memory_with_cache(self, size):
        members = frozenset(f"m{i}" for i in range(size))
        sig = minhash(ShingleSet("u", 3, members), 128, 1)
        assert not np.shares_memory(sig.values, minhash_module._row_cache.block)
        expected = sig.values.copy()
        sig.values[:] = 0
        assert np.array_equal(minhash(ShingleSet("u", 3, members), 128, 1).values, expected)

    def test_threads_share_the_cache_safely(self):
        # Four threads over two families whose 16-row blocks fill and empty
        # every few calls: a call that gathered rows another thread had
        # just replaced would return a different signature.
        families = [(8192, 1), (8192, 2)]
        sets = [frozenset(UNIVERSE[i : i + 7]) for i in range(0, 90, 6)]
        expected = {
            (family, members): minhash(ShingleSet("u", 4, members), *family).values
            for family in families
            for members in sets
        }
        keys = list(expected)
        wrong, done = [], []

        def work(offset):
            for i in range(150):
                family, members = keys[(offset + 7 * i) % len(keys)]
                sig = minhash(ShingleSet("u", 4, members), *family)
                if not np.array_equal(sig.values, expected[family, members]):
                    wrong.append((family, members))
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3]
        assert wrong == []
