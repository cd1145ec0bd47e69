import copy
import hashlib
import importlib
import json
import pickle
import re
import sys
import threading
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botdna.encoding import ALPHABETS, DnaSequence, encode_user
from botdna.errors import EmptySet, FormatError, IncompatibleSignatures, SequenceTooShort
from botdna.lsh import BandingPlan, LshIndex
from botdna.minhash import (
    MEMO_ENTRIES,
    MERSENNE_61,
    ROW_CACHE_BYTES,
    MinHashSignature,
    ShingleSet,
    estimate_jaccard,
    fold_m61,
    habit_anchor,
    minhash,
    _hash_family,
    shingle,
    shingle_hash,
    shingle_many,
)

from conftest import (
    BOT_KIND_CYCLES,
    HUMAN_KIND_CYCLES,
    exact_jaccard,
    make_set_pair,
    signature_blob,
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

    @staticmethod
    def permuted(a, b, x):
        """The memo's rows ``(a*x + b) mod p`` for the given multipliers, offsets and base hashes."""
        memo = minhash_module._ShingleMemo(0, 2)
        memo.a_hi = np.array([ai >> 31 for ai in a], dtype=np.uint64)
        memo.a_lo = np.array([ai & (1 << 31) - 1 for ai in a], dtype=np.uint64)
        memo.b = np.array(b, dtype=np.uint64)
        return memo.permuted(np.array(x, dtype=np.uint64))

    @given(st.integers(0, M61 - 1), st.integers(0, M61 - 1), st.integers(0, M61 - 1))
    @settings(max_examples=300)
    def test_mulmod_matches_python_mod(self, a, b, x):
        assert self.permuted([a], [b], [x]).tolist() == [[(a * x + b) % M61]]

    def test_mulmod_extremes(self):
        worst = M61 - 1
        assert self.permuted([worst], [worst], [worst]).tolist() == [[(worst * worst + worst) % M61]]
        assert self.permuted([worst], [0], [worst]).tolist() == [[(worst * worst) % M61]]

    # Operands at the 31-bit limb split, at the middle sum's 30-bit split,
    # and at the top of the field, each a few units either side.
    LIMB_EDGES = st.builds(lambda base, delta: min(max(base + delta, 0), M61 - 1),
                           st.sampled_from([0, 1 << 30, 1 << 31, 1 << 60, M61 - 1]), st.integers(-3, 3))

    @given(st.lists(LIMB_EDGES, min_size=1, max_size=8), st.lists(LIMB_EDGES, min_size=1, max_size=8),
           st.integers(0, 3))
    @settings(max_examples=200)
    def test_limbs_match_python_mod_at_the_boundaries(self, a, x, seed):
        # The drawn operands as the multipliers, with offsets 0 and p - 1.
        for b in (0, M61 - 1):
            got = self.permuted(a, [b] * len(a), x)
            assert got.tolist() == [[(ai * xi + b) % M61 for ai in a] for xi in x]
        # The memo's row: every permutation of the family against each base.
        family_a, family_b = _hash_family(seed, 8)
        rows = minhash_module._ShingleMemo(seed, 8).permuted(np.array(x, dtype=np.uint64))
        assert rows.tolist() == [[(ai * xi + bi) % M61 for ai, bi in zip(family_a.tolist(), family_b.tolist())]
                                 for xi in x]


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

    @pytest.mark.parametrize("symbols,bad", [("ACZ", "Z"), ("act", "a"), ("AC\u00e9", "\u00e9"), ("A?C", "?")])
    def test_a_symbol_of_no_alphabet_raises(self, symbols, bad):
        with pytest.raises(ValueError, match=re.escape(f"symbol {bad!r} is in no alphabet")):
            shingle(seq(symbols), 1)

    @given(st.text(alphabet="ACT", min_size=1, max_size=60), st.integers(1, 10))
    def test_window_laws(self, symbols, k):
        if len(symbols) < k:
            with pytest.raises(SequenceTooShort):
                shingle(seq(symbols), k)
            return
        got = shingle(seq(symbols), k)
        assert all(len(s) == k for s in got.shingles)
        assert 1 <= len(got.shingles) <= len(symbols) - k + 1


# The oracle's digits: each alphabet's symbols in B3, B5, B9 order, from 1.
DIGITS = {s: d for d, s in enumerate((s for a in ("B3", "B5", "B9") for s in ALPHABETS[a].symbols), 1)}
ALPHABET_SUBSETS = [ids for n in (1, 2, 3) for ids in combinations(("B3", "B5", "B9"), n)]


# 90 symbols drawn at random from all 17.
MIXED = ("NUFITAIBNMIIGUNULGATHCDABIGJGKUFXCUIMBJDJLGFJNEABHEXMBDXTIITFTJUADJJXCCGEBLNCDATXCMJDBUCEE")


def oracle_code(window):
    """The bijective base-17 number whose digits are the window's symbols."""
    code = 0
    for symbol in window:
        code = code * 17 + DIGITS[symbol]
    return code


def oracle_windows(symbols, k):
    return {symbols[i : i + k] for i in range(len(symbols) - k + 1)}


class TestShingleCodes:
    def test_the_symbols_are_17_distinct_digits(self):
        # A code is a bijection of its window only while no two alphabets share a symbol.
        assert len(DIGITS) == len(minhash_module.SYMBOLS) == 17

    @given(data=st.data())
    @settings(max_examples=300)
    def test_codes_equal_the_string_windows(self, data):
        # Over each alphabet subset, and so over all 17 symbols.
        ids = data.draw(st.sampled_from(ALPHABET_SUBSETS), label="alphabets")
        symbols = "".join(s for i in ids for s in ALPHABETS[i].symbols)
        self.check(data.draw(st.text(alphabet=symbols, max_size=60), label="symbols"),
                   data.draw(st.integers(1, 15), label="k"))

    @pytest.mark.parametrize("symbols,k", [
        ("L" * 15, 15), ("L" * 40, 15),  # the largest code, (17**16 - 17) / 16
        ("LLLLLLLLLLLLLLK", 15), ("ACT", 4), ("A", 15), ("", 1),
        ("ACTXUHMNBDEFGJKIL", 15), ("ACTXUHMNBDEFGJKIL" * 3, 1),
        # Long runs of one key, whose first start the unstable sort need not leave first.
        pytest.param("A" * 300, 3, id="A*300-3"), pytest.param("ACT" * 60, 4, id="ACT*60-4"), ("ACTA", 4),
        pytest.param("ACT" * 400, 4, id="ACT*400-4"), pytest.param("ACTXUHMNBDEFGJKIL" * 100, 6, id="all17*100-6"),
    ])
    def test_codes_equal_the_string_windows_at_the_edges(self, symbols, k):
        self.check(symbols, k)

    @staticmethod
    def check(symbols, k):
        if len(symbols) < k:
            with pytest.raises(SequenceTooShort):
                shingle(seq(symbols), k)
            return
        TestShingleCodes.check_set(shingle(seq(symbols), k), symbols, k)

    @staticmethod
    def check_set(got, symbols, k):
        windows = oracle_windows(symbols, k)
        assert got.codes.dtype == np.int64 and got.starts.dtype == np.intp
        assert len(got) == len(got.codes) == len(got.starts) == len(windows)
        assert np.all(got.codes[1:] > got.codes[:-1])  # strictly ascending
        for code, start in zip(got.codes.tolist(), got.starts.tolist()):
            window = symbols[start : start + k]
            assert len(window) == k
            assert symbols.find(window) == start  # the first occurrence
            assert code == oracle_code(window)
        assert got.shingles == frozenset(windows)

    @given(st.text(alphabet="ACTXUHMNBDEFGJKIL", min_size=15, max_size=40), st.integers(1, 15), st.integers(1, 15))
    def test_widths_never_share_a_code(self, symbols, k, j):
        a, b = shingle(seq(symbols), k), shingle(seq(symbols), j)
        assert (k == j) == bool(np.intersect1d(a.codes, b.codes).size)

    def test_shingles_are_decoded_only_when_read(self):
        got = shingle(seq("ACTACTTCA"), 3)
        minhash(got, 16, 1)
        assert got._shingles is None  # sketching read the codes only
        assert got.shingles == frozenset(oracle_windows("ACTACTTCA", 3))
        assert got.shingles is got.shingles
        assert not got.codes.flags.writeable and not got.starts.flags.writeable

    @pytest.mark.parametrize("field, value", [("user_id", "v"), ("k", 5), ("codes", np.arange(3)),
                                              ("starts", np.arange(3)), ("symbols", "LLLLLL"),
                                              ("shingles", frozenset({"LLLL"}))])
    def test_fields_cannot_be_set_or_deleted(self, field, value, monkeypatch):
        # With k set to 5 on a 4-wide coded set, the memo would have kept
        # the hashes of 5-symbol windows under the 4-window codes, and so
        # given every later set sharing those codes a wrong signature.
        monkeypatch.setattr(minhash_module, "_memo", None)
        s = shingle(seq("ACTACTTCA"), 4)
        for change in (lambda: setattr(s, field, value), lambda: delattr(s, field)):
            with pytest.raises(AttributeError, match=field):
                change()
        windows = oracle_windows("ACTACTTCA", 4)
        assert minhash(s, 16, 1).values.tolist() == oracle_minhash(windows, 16, 1)
        assert minhash(shingle(seq("ACTACTTCA", "v"), 4), 16, 1).values.tolist() == oracle_minhash(windows, 16, 1)

    @pytest.mark.parametrize("make", [lambda: shingle(seq("ACTACTTCA"), 4),
                                      lambda: ShingleSet("u", 20, frozenset({"not a window"}))])
    def test_copies_and_pickles_equal_the_original(self, make):
        s = make()
        for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert other == s and other.k == s.k
            assert other.codes is None if s.codes is None else np.array_equal(other.codes, s.codes)
            for array in (other.codes, other.starts):
                assert array is None or not array.flags.writeable

    def test_a_set_from_strings_has_no_codes(self):
        s = ShingleSet("u", 20, frozenset({"not a window"}))
        assert s.codes is None and s.starts is None and s.symbols is None
        assert len(s) == 1 and s.shingles == frozenset({"not a window"})

    def test_sets_of_the_same_windows_are_equal(self):
        coded = shingle(seq("ACTAC"), 2)
        assert coded == ShingleSet("u", 2, frozenset({"AC", "CT", "TA"}))
        assert len({coded, ShingleSet("u", 2, frozenset({"AC", "CT", "TA"}))}) == 1
        assert coded != ShingleSet("v", 2, coded.shingles) and coded != shingle(seq("ACTAC"), 3)


class TestShingleMany:
    """The step routine against shingling one sequence at a time."""

    @staticmethod
    def same(got, expected):
        assert (got.user_id, got.k, got.symbols) == (expected.user_id, expected.k, expected.symbols)
        assert got.codes.dtype == expected.codes.dtype and got.starts.dtype == expected.starts.dtype
        assert got.codes.tolist() == expected.codes.tolist()
        assert got.starts.tolist() == expected.starts.tolist()
        assert not got.codes.flags.writeable and not got.starts.flags.writeable

    @staticmethod
    def outcome(make):
        """``make()``'s sets, or the type and message of what it raised."""
        try:
            return make()
        except (SequenceTooShort, ValueError) as exc:
            return type(exc), str(exc)

    def test_equals_shingling_each_sequence(self, monkeypatch):
        # With the group budget patched down to a few windows, groups split
        # inside the list; at k=15 an int64 key tells only three sequences
        # apart.  A drawn list may hold sequences shorter than k and
        # symbols of no alphabet; the routine must then raise what the
        # first of them raises alone.
        groups, group = [], minhash_module._shingle_group
        monkeypatch.setattr(minhash_module, "_shingle_group",
                            lambda seqs, k, span: groups.append(len(seqs)) or group(seqs, k, span))
        seen = set()

        @given(data=st.data())
        @settings(max_examples=300, deadline=None)
        def check(data):
            k = data.draw(st.one_of(st.just(15), st.integers(1, 14)), label="k")  # 15 half the time: the key bound
            faulty = data.draw(st.booleans(), label="faulty")
            symbols = "".join(DIGITS) + "Z?\u00e9" * faulty
            texts = st.one_of(st.text(symbols, min_size=k, max_size=3 * k + 4),
                              st.text("".join(DIGITS), min_size=k, max_size=k),  # one window
                              # A motif repeated: windows recur, so runs of equal keys are long.
                              st.builds(str.__mul__, st.text("".join(DIGITS), min_size=1, max_size=4),
                                        st.integers(k, 60)),
                              st.text(symbols, max_size=k - 1) if faulty and k > 1 else st.nothing())
            seqs = [seq(text, f"u{i}") for i, text in enumerate(data.draw(st.lists(texts, min_size=1, max_size=12),
                                                                        label="texts"))]
            expected = self.outcome(lambda: [shingle(s, k) for s in seqs])
            with pytest.MonkeyPatch.context() as mp:
                budget = data.draw(st.sampled_from([1, 5, 40, 8192]), label="budget")
                mp.setattr(minhash_module, "GROUP_WINDOWS", budget)
                groups.clear()
                got = self.outcome(lambda: shingle_many(seqs, k))
                split = len(groups) > 1
            if isinstance(expected, tuple):
                assert got == expected
                seen.add(expected[0].__name__)
                return
            seen.add("split" if split else "one group")
            if k == 15 and len(seqs) > 3:
                seen.add("k=15 over three")
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                self.same(a, b)
                TestShingleCodes.check_set(a, a.symbols, k)

        check()
        assert seen == {"SequenceTooShort", "ValueError", "split", "one group", "k=15 over three"}

    @pytest.mark.parametrize("texts, budget, refused", [
        (["ACT", "AZ", "ACTZ"], 8192, (SequenceTooShort, "u1")),  # short, and a symbol of no alphabet
        (["ACTT", "ACZT", "A"], 8192, (ValueError, "u1")),
        (["A", "ACZT"], 8192, (SequenceTooShort, "u0")),
        (["ACTT"] * 5 + ["ACT\u00e9", "AC"], 4, (ValueError, "u5")),  # in a later group
        (["ACTT"] * 5 + ["AC", "AC?"], 4, (SequenceTooShort, "u5")),
    ])
    def test_refuses_the_first_offending_sequence(self, texts, budget, refused, monkeypatch):
        seqs = [seq(text, f"u{i}") for i, text in enumerate(texts)]
        expected = self.outcome(lambda: [shingle(s, 3) for s in seqs])
        monkeypatch.setattr(minhash_module, "GROUP_WINDOWS", budget)
        assert self.outcome(lambda: shingle_many(seqs, 3)) == expected
        kind, user = refused
        assert expected[0] is kind and expected[1].startswith(f"user {user!r}: ")

    def test_groups_hold_as_many_sequences_as_their_keys_tell_apart(self, monkeypatch):
        groups, group = [], minhash_module._shingle_group
        monkeypatch.setattr(minhash_module, "_shingle_group",
                            lambda seqs, k, span: groups.append(len(seqs)) or group(seqs, k, span))
        seqs = [seq("LLLLLLLLLLLLLLLK", f"u{i}") for i in range(7)]
        assert [s.codes.tolist() for s in shingle_many(seqs, 15)] == [[oracle_code("LLLLLLLLLLLLLLK"),
                                                                       oracle_code("LLLLLLLLLLLLLLL")]] * 7
        assert groups == [3, 3, 1]
        groups.clear()
        shingle_many([seq("ACT" * 70, f"u{i}") for i in range(100)], 4)  # 207 windows each
        assert groups == [40, 40, 20]

    def test_an_empty_list_makes_no_sets(self):
        assert shingle_many([], 4) == []


class TestHabitAnchor:
    @pytest.mark.parametrize("symbols, k, anchor", [
        ("ACTACTT", 2, "AC"),  # AC and CT recur; AC is the least
        ("AACTCT", 2, "CT"),  # AA and AC come once: the least recurring window wins
        ("CTTT", 2, "TT"),  # overlapping occurrences recur
        ("ACT", 2, "AC"),  # no window recurs: the least code
        ("TCA", 3, "TCA"),  # one window
        # The 16 windows "A?" and the windows "?A" come once: the least
        # recurring window lies past the first steps of least codes.
        ("".join("A" + symbol for symbol in list(DIGITS)[1:]) + "LLL", 2, "LL"),
    ])
    def test_least_recurring_window_else_least_code(self, symbols, k, anchor):
        assert habit_anchor(shingle(seq(symbols), k)) == oracle_code(anchor)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_counting_the_windows(self, data):
        # Over all 17 symbols many windows come once, so the first recurring
        # one can lie past several steps of least codes.
        symbols = data.draw(st.text(st.sampled_from(sorted(DIGITS)), min_size=1, max_size=80), label="symbols")
        k = data.draw(st.integers(1, min(4, len(symbols))), label="k")
        windows = [symbols[i : i + k] for i in range(len(symbols) - k + 1)]
        recurring = [oracle_code(w) for w in windows if windows.count(w) > 1]
        expected = min(recurring) if recurring else min(map(oracle_code, windows))
        assert habit_anchor(shingle(seq(symbols), k)) == expected


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

    def test_values_of_the_wrong_shape(self):
        # One value would broadcast against all 8, so no signature holds
        # it; a signature of another width is of another hash family, as
        # either operand.
        sig = minhash(shingle(seq("ACTTCA"), 2), 8, 1)
        with pytest.raises(ValueError, match=r"values must be 8 integers in \[0, 2\*\*64\), got uint64 of shape \(1,\)"):
            MinHashSignature("short", 8, 1, sig.values[:1])
        short = MinHashSignature("short", 2, 1, sig.values[:2])
        for a, b in ((sig, short), (short, sig)):
            with pytest.raises(IncompatibleSignatures, match="num_perm=2"):
                estimate_jaccard(a, b)


class TestConstructor:
    """Every rule for a signature is checked once, when it is made."""

    # case -> (user_id, num_perm, seed, values, the field named)
    REFUSED = {
        "float64": ("u", 8, 1, np.arange(8, dtype=np.float64), "values"),
        "negative int64": ("u", 8, 1, np.full(8, -1, dtype=np.int64), "values"),
        "bool": ("u", 8, 1, np.ones(8, dtype=bool), "values"),
        "object": ("u", 8, 1, np.arange(8).astype(object), "values"),
        "2-D": ("u", 8, 1, np.zeros((2, 4), dtype=np.uint64), "values"),
        "wrong length": ("u", 8, 1, np.zeros(7, dtype=np.uint64), "values"),
        "int id": (7, 8, 1, np.zeros(8, dtype=np.uint64), "user_id"),
        "num_perm 1": ("u", 1, 1, np.zeros(1, dtype=np.uint64), "num_perm"),
        "num_perm 8193": ("u", 8193, 1, np.zeros(8193, dtype=np.uint64), "num_perm"),
        "seed -1": ("u", 8, -1, np.zeros(8, dtype=np.uint64), "seed"),
        "seed 2**64": ("u", 8, 2**64, np.zeros(8, dtype=np.uint64), "seed"),
    }

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refuses_a_broken_rule_naming_the_field(self, case):
        user_id, num_perm, seed, values, field = self.REFUSED[case]
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MinHashSignature(user_id, num_perm, seed, values)

    @pytest.mark.parametrize("dtype", ["u1", "u2", "u4", "u8", ">u8", "i1", "i8"])
    def test_keeps_non_negative_integers_as_u64(self, dtype):
        sig = MinHashSignature("u", 8, 1, np.arange(8).astype(dtype))
        assert sig.values.dtype == np.uint64
        assert sig.values.tolist() == list(range(8))

    def test_keeps_a_read_only_copy_of_the_values(self):
        # The caller's array stays theirs and writable; a later write to it
        # or to the signature cannot change what was checked.
        values = np.arange(8, dtype=np.uint64)
        sig = MinHashSignature("u", 8, 1, values)
        assert not np.shares_memory(sig.values, values)
        assert values.flags.writeable and not sig.values.flags.writeable
        values[:] = 9
        assert sig.values.tolist() == list(range(8))
        with pytest.raises(ValueError, match="read-only"):
            sig.values[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            sig.values.sort()

    @pytest.mark.parametrize("field, value", [("user_id", "v"), ("num_perm", 1), ("seed", 2),
                                              ("values", np.array([7], dtype=np.uint64))])
    def test_fields_cannot_be_set_or_deleted(self, field, value):
        # Assigning np.array([7]) to a checked 8-value signature's values
        # once made insert store [7 7 7 7 7 7 7 7].
        sig = MinHashSignature("u", 8, 1, np.arange(8, dtype=np.uint64))
        for change in (lambda: setattr(sig, field, value), lambda: delattr(sig, field)):
            with pytest.raises(AttributeError, match=field):
                change()
        index = LshIndex(BandingPlan(0.5, 4, 2), 8, 1)
        index.insert(sig, "bot")
        assert index._values[0].tolist() == list(range(8))

    def test_copies_and_pickles_equal_the_original(self):
        sig = MinHashSignature("u", 8, np.uint64(3), np.arange(8, dtype=np.uint64))
        for twin in (copy.copy(sig), copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
            assert twin == sig and not twin.values.flags.writeable
        assert type(sig.seed) is int
        assert json.loads(sig.to_debug_json())["seed"] == 3

    @given(st.data())
    @settings(max_examples=100)
    def test_every_accepted_signature_round_trips_through_both_readers(self, data):
        num_perm = data.draw(st.integers(2, 64), label="num_perm")
        dtype = np.dtype(data.draw(st.sampled_from(["u1", "u2", "u4", "u8", ">u8", "i1", "i2", "i4", "i8"])))
        ints = data.draw(st.lists(st.integers(0, int(np.iinfo(dtype).max)), min_size=num_perm,
                                  max_size=num_perm), label="values")
        sig = MinHashSignature(data.draw(st.text(max_size=20), label="user_id"), num_perm,
                               data.draw(st.integers(0, 2**64 - 1), label="seed"), np.array(ints, dtype=dtype))
        assert sig.values.tolist() == ints
        blob = sig.to_bytes()
        for back in (MinHashSignature.from_bytes(blob), MinHashSignature.from_debug_json(sig.to_debug_json())):
            assert back == sig
            assert back.values.dtype == np.uint64
            assert back.to_bytes() == blob


signature_params = st.tuples(
    st.text(min_size=0, max_size=40),
    st.integers(2, 64),
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
        blob = signature_blob("u", 0, 5, [])
        with pytest.raises(FormatError, match=r"num_perm must be in \[2, 8192\], got 0"):
            MinHashSignature.from_bytes(blob)

    def test_num_perm_over_the_limit_is_format_error(self):
        fits = MinHashSignature("u", 8192, 5, np.zeros(8192, dtype=np.uint64))
        assert fits.to_bytes() == signature_blob("u", 8192, 5, fits.values)
        assert MinHashSignature.from_bytes(fits.to_bytes()) == fits
        blob = signature_blob("u", 8193, 5, np.zeros(8193))
        with pytest.raises(FormatError, match=r"num_perm must be in \[2, 8192\], got 8193"):
            MinHashSignature.from_bytes(blob)
        doc = json.loads(fits.to_debug_json()) | {"num_perm": 8193, "values": [0] * 8193}
        with pytest.raises(FormatError, match=r"num_perm must be in \[2, 8192\], got 8193"):
            MinHashSignature.from_debug_json(json.dumps(doc))

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
        assert not hasattr(shingle_hash, "cache_info")  # the memo keeps hashes, not a cache


# SHA-256 over the binary signatures of a fixed corpus, one per
# (alphabets, k, num_perm, seed).  The first three were recorded before the
# row cache existed, the 8192-permutation rows by the last ``minhash`` that
# took any width, which still matched a 16384-permutation row recorded
# before the cache.
# At 2048 permutations the block holds 64 rows, fewer than the 81 B3
# 4-shingles, so it fills and empties; at 8192 it holds 16, more than any
# user's 9 to 12 B3+B9 3-shingles, so it fills and empties too, and fewer
# than any user's 18 to 52 6-shingles, so every such set bypasses it.
GOLDEN_SIGNATURES = {
    (("B3",), 4, 128, 1): "64e364e4aae07715584f9ef2c3175484cfc28ce9d3f73a64cea30e4df2e4102e",
    (("B3", "B5", "B9"), 6, 64, 7): "a7067073e9cae3a8dbdae0119b0c6e4c74cbb075bfcd5ba26dafc87e50e65316",
    (("B3",), 4, 2048, 2): "6a401fb21623baaecc216cfe2aac201f1308d688a4213ecfa4d4353c3a7780c3",
    (("B3", "B9"), 3, 8192, 3): "d1a84a3ca05c8f2f78bfef5302a749345c8f1a6eb9ac7129a9217c1bd84f6e96",
    (("B3", "B9"), 6, 8192, 3): "3fc7e3cd3bb202e2323f63fa72f2fe2633800b442f3c52aea374c3d35eed5fab",
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


SYMBOL_OF = {d: s for s, d in DIGITS.items()}


def oracle_window(code):
    """The window whose bijective base-17 code is ``code``."""
    symbols = []
    while code:
        code, digit = divmod(code - 1, 17)
        symbols.append(SYMBOL_OF[digit + 1])
    return "".join(reversed(symbols))


def memo_entries(memo):
    """Every (window, id) the memo holds, from its dict and its code table."""
    entries = [(oracle_window(key) if isinstance(key, int) else key, i) for key, i in memo.ids.items()]
    if memo.table is not None:
        codes = np.flatnonzero(memo.table >= 0)
        assert codes.max(initial=0) <= (17**5 - 17) // 16  # widths up to 4 only
        entries += [(oracle_window(code), int(memo.table[code])) for code in codes.tolist()]
    return entries


def resident(memo):
    """The shingles whose rows the memo's block holds, after checking every base hash in both maps."""
    entries = memo_entries(memo)
    assert len(entries) == len(memo) <= len(memo.base) <= minhash_module.MEMO_ENTRIES
    assert sorted(i for _, i in entries) == list(range(len(memo)))  # one id each, from 0
    for member, i in entries:
        assert int(memo.base[i]) == shingle_hash(member) % M61
    return {member for member, i in entries if memo.slot[i] >= 0}


# Blocks of 64, 64 and 32 rows: small enough that sets drawn from a
# 100-shingle universe fill them and overflow them.
CACHE_FAMILIES = [(2048, 5), (2048, 6), (4096, 5)]
UNIVERSE = [f"s{i:03d}" for i in range(100)]


class TestRowCache:
    def test_block_is_at_most_one_mebibyte(self):
        assert ROW_CACHE_BYTES == 1 << 20
        for num_perm in (2, 64, 128, 1000, 8192):
            minhash(ShingleSet("u", 2, frozenset({"AC"})), num_perm, 1)
            block = minhash_module._memo.block
            assert block.shape == (capacity(num_perm), num_perm)
            assert block.nbytes <= ROW_CACHE_BYTES
        assert capacity(128) == 1024
        assert MEMO_ENTRIES == 1 << 20

    def test_call_sequence_matches_plain_python_oracle(self):
        # A model of the block's rules says what each call should do to
        # it; the rows the memo holds must follow the model, every
        # signature must equal the oracle's, and the run must see every
        # kind of call.
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
            # A family used nowhere else replaces whatever the memo held.
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
                memo = minhash_module._memo
                assert memo.family == (seed, num_perm)
                assert resident(memo) == slots

        check()
        assert seen == {"miss", "hit", "reset", "bypass", "new family"}

    def test_call_sequence_across_the_memo_bound_matches_oracle(self, monkeypatch):
        # With room for 40 shingles, sets from the 100-shingle universe
        # keep emptying the memo, and sets over 40 skip it: every signature
        # must still equal the oracle's, and the memo never grows past 40.
        monkeypatch.setattr(minhash_module, "MEMO_ENTRIES", 40)
        seen = set()

        @given(
            pool=st.lists(
                st.frozensets(st.sampled_from(UNIVERSE), min_size=1, max_size=60),
                min_size=1,
                max_size=4,
            ),
            calls=st.lists(
                st.tuples(st.sampled_from(CACHE_FAMILIES[:2]), st.integers(0, 3)),
                min_size=1,
                max_size=8,
            ),
        )
        @example(
            pool=[frozenset(UNIVERSE[:30]), frozenset(UNIVERSE[30:55]), frozenset(UNIVERSE[:50])],
            calls=[(CACHE_FAMILIES[0], 0), (CACHE_FAMILIES[0], 1), (CACHE_FAMILIES[0], 2),
                   (CACHE_FAMILIES[0], 0)],
        )
        @settings(max_examples=40, deadline=None)
        def check(pool, calls):
            minhash(ShingleSet("reset", 1, frozenset({"x"})), 8, 99)
            for (num_perm, seed), i in calls:
                members = pool[i % len(pool)]
                before = minhash_module._memo
                known = len(before) if before.family == (seed, num_perm) else 0
                sig = minhash(ShingleSet("u", 4, members), num_perm, seed)
                assert sig.values.tolist() == oracle_minhash(members, num_perm, seed)
                memo = minhash_module._memo
                resident(memo)
                if len(members) > 40:
                    seen.add("too large")
                elif known + len(members) > 40:
                    seen.add("emptied")
                    assert set(memo.ids) == members and len(memo) == len(members)

        check()
        assert seen == {"too large", "emptied"}

    def test_coded_and_string_streams_match_oracle(self, monkeypatch):
        # Coded sets and sets made from the same windows as strings, in one
        # stream over changing families, must each equal the uncached
        # oracle.  With a 32-row block at 16 permutations (16 at 32) and
        # room for 60 shingles, the stream fills and empties the block,
        # computes sets larger than it, and crosses the memo's bound; with
        # k from 1 to 6, coded sets take their ids from the code table
        # (widths up to 4) and from the dict (5 and 6).  The run must see
        # each of these, and every entry of both maps must hold its
        # window's hash.
        monkeypatch.setattr(minhash_module, "ROW_CACHE_BYTES", 4096)
        monkeypatch.setattr(minhash_module, "MEMO_ENTRIES", 60)
        monkeypatch.setattr(minhash_module, "_memo", None)
        families = [(16, 5), (16, 6), (32, 5)]
        seen = set()
        calls = st.tuples(
            st.sampled_from(families),
            st.booleans(),  # as strings
            st.sampled_from(["ACT", "ACTXUHMN", "BDEFGJKIL", "".join(DIGITS)]).flatmap(
                lambda alphabet: st.text(alphabet=alphabet, min_size=6, max_size=90)),
            st.integers(1, 6),
        )

        @given(st.lists(calls, min_size=1, max_size=8))
        @example([((16, 5), False, "ACTACTTCA", 2), ((16, 5), True, "ACTACTTCA", 2),
                  ((16, 5), False, MIXED[:50], 2),  # 47 windows: over the block
                  ((16, 5), True, MIXED[50:], 2),  # emptied
                  ((32, 5), False, MIXED, 3),  # 87 windows: too large
                  ((16, 6), False, "ACTACTTCA", 2),
                  ((16, 6), False, "ACTACTTCA", 5),  # wide codes beside the table's
                  ((16, 6), False, MIXED[:57], 4)])  # emptied, table and dict both
        @settings(max_examples=60, deadline=None)
        def check(stream):
            minhash(ShingleSet("reset", 1, frozenset({"x"})), 8, 99)  # a family used nowhere else
            family = None
            for (num_perm, seed), as_strings, symbols, k in stream:
                coded = shingle(seq(symbols), k)
                windows = frozenset(oracle_windows(symbols, k))
                s = ShingleSet("u", k, windows) if as_strings else coded
                before = minhash_module._memo
                known = len(before) if before.family == (seed, num_perm) else 0
                tabled = np.count_nonzero(before.table >= 0) if known and before.table is not None else 0
                sig = minhash(s, num_perm, seed)
                assert sig.values.tolist() == oracle_minhash(windows, num_perm, seed)
                assert coded._shingles is None or as_strings  # a coded set is never decoded
                memo = minhash_module._memo
                resident(memo)
                assert len(memo) <= 60
                seen.add("strings" if as_strings else "table" if k <= 4 else "wide codes")
                if family not in (None, (num_perm, seed)):
                    seen.add("new family")
                family = (num_perm, seed)
                if len(windows) > 60:
                    seen.add("too large")
                elif known + len(windows) > 60:
                    seen.add("emptied")
                    # Emptying cleared both maps: only this set's shingles are left.
                    in_table = not as_strings and k <= 4
                    assert len(memo) == len(memo.ids) + len(windows) * in_table == len(windows)
                    assert memo.table is None or np.count_nonzero(memo.table >= 0) == len(windows) * in_table
                    if tabled:
                        seen.add("emptied the table")
                if 4096 // (8 * num_perm) < len(windows) <= 60:
                    seen.add("over the block")

        check()
        assert seen == {"strings", "table", "wide codes", "new family", "too large", "emptied", "emptied the table",
                        "over the block"}

    @pytest.mark.parametrize("size", [3, 2000])  # cached, and larger than the block
    def test_signature_never_shares_memory_with_cache(self, size):
        members = frozenset(f"m{i}" for i in range(size))
        sig = minhash(ShingleSet("u", 3, members), 128, 1)
        assert not np.shares_memory(sig.values, minhash_module._memo.block)
        expected = sig.values.copy()
        with pytest.raises(ValueError, match="read-only"):
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
