import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdna.encoding import DnaSequence
from botdna.errors import EmptySet, FormatError, IncompatibleSignatures, SequenceTooShort
from botdna.minhash import (
    MERSENNE_61,
    MinHashSignature,
    ShingleSet,
    estimate_jaccard,
    fold_m61,
    minhash,
    mulmod_m61,
    shingle,
    shingle_hash,
)

from conftest import exact_jaccard, make_set_pair

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

    def test_base_hash_is_stable(self):
        # Frozen value: guards the on-disk format against accidental
        # changes to the base hash function.
        assert shingle_hash("AC") == 15533233518106170712
