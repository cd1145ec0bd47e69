import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdna.classify import classify_many
from botdna.errors import DuplicateUser, FormatError, IncompatibleSignatures
from botdna.lsh import (
    _DENSE_SCAN_SHARE,
    _DIGEST_STEP_BYTES,
    BandingPlan,
    LshIndex,
    Neighbor,
    _digest_params,
    _gauss_legendre,
    lsh_plan,
)
from botdna.minhash import MinHashSignature, minhash
from botdna.pipeline import RunConfig, build_index, signature_for

from conftest import (counting_digests, draw_index_parts, exact_jaccard, family_corpus, floors_around,
                      make_set_pair)


def sig_of(shingle_set, num_perm=128, seed=1):
    return minhash(shingle_set, num_perm, seed)


def riemann_scurve_error(threshold, bands, rows, steps=20000):
    """Independent plan-cost oracle: midpoint-rule integration."""
    xs = (np.arange(steps) + 0.5) / steps
    f = 1.0 - (1.0 - xs**rows) ** bands
    fp = np.sum(f[xs < threshold]) / steps
    fn = np.sum(1.0 - f[xs >= threshold]) / steps
    return fp + fn


# Plans chosen by adaptive quadrature (scipy.integrate.quad, limit=200) of
# the same cost: for each num_perm, the rows picked at thresholds 0.01,
# 0.02, ..., 1.00, run-length coded as "rows x count".
QUAD_PLAN_ROWS = {
    2: "1x50 2x50",
    16: "1x19 2x27 4x25 8x15 16x14",
    64: "1x9 2x21 4x28 8x21 16x11 32x6 64x4",
    128: "1x6 2x19 4x27 8x23 16x13 32x7 64x3 128x2",
    256: "1x4 2x16 4x26 8x24 16x16 32x8 64x3 128x2 256x1",
    512: "1x3 2x13 4x25 8x25 16x17 32x9 64x4 128x2 256x1 512x1",
}


class TestLshPlan:
    @pytest.mark.parametrize("num_perm", sorted(QUAD_PLAN_ROWS))
    def test_reproduces_quad_plans(self, num_perm):
        rows = []
        for run in QUAD_PLAN_ROWS[num_perm].split():
            value, count = map(int, run.split("x"))
            rows += [value] * count
        assert len(rows) == 100
        got = [lsh_plan(i / 100, num_perm) for i in range(1, 101)]
        assert [(p.bands, p.rows) for p in got] == [(num_perm // r, r) for r in rows]

    def test_high_threshold_maximizes_rows(self):
        plan = lsh_plan(1.0, 128)
        assert plan.rows == 128 and plan.bands == 1

    def test_low_threshold_maximizes_bands(self):
        plan = lsh_plan(0.001, 128)
        assert plan.bands == 128 and plan.rows == 1

    @pytest.mark.parametrize("threshold", [0.1, 0.2, 0.4, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("num_perm", [128, 256, 60])
    def test_matches_brute_force_oracle(self, threshold, num_perm):
        factorizations = [
            (b, num_perm // b) for b in range(1, num_perm + 1) if num_perm % b == 0
        ]
        errors = {
            (b, r): riemann_scurve_error(threshold, b, r) for b, r in factorizations
        }
        expected = min(factorizations, key=lambda br: (errors[br], br[1]))
        plan = lsh_plan(threshold, num_perm)
        assert (plan.bands, plan.rows) == expected

    def test_threshold_04_128_regression(self):
        # Frozen from the brute-force oracle above.
        plan = lsh_plan(0.4, 128)
        assert (plan.bands, plan.rows) == (32, 4)

    @pytest.mark.parametrize("num_perm", [2, 19, 41, 47, 151])
    def test_mirror_image_plans_tie_to_fewer_rows(self, num_perm):
        # A prime num_perm has only the plans 1 x num_perm and num_perm x 1;
        # at threshold 0.5 their curves mirror each other (s -> 1 - s), so
        # their errors agree to rounding, which falls either way, and the
        # tie rule picks one row per band.
        nodes, weights = _gauss_legendre(num_perm)
        below, above = (nodes + 1) / 4, (nodes + 3) / 4

        def error(bands, rows):
            fp = np.dot(weights, 1.0 - (1.0 - below**rows) ** bands)
            fn = np.dot(weights, (1.0 - above**rows) ** bands)
            return (fp + fn) / 4

        assert error(1, num_perm) == pytest.approx(error(num_perm, 1), rel=1e-14)
        assert lsh_plan(0.5, num_perm) == BandingPlan(0.5, num_perm, 1)

    @pytest.mark.parametrize("num_perm", [2, 3, 16, 128, 512, 4096])
    def test_gauss_legendre_rule(self, num_perm):
        # 4096 checks that the Newton iteration converges well inside its cap.
        nodes, weights = _gauss_legendre(num_perm)
        n = num_perm // 2 + 1
        assert np.all(np.diff(nodes) > 0)
        # Exact for every monomial up to degree 2n - 1 ...
        for degree in range(2 * n):
            exact = 2 / (degree + 1) if degree % 2 == 0 else 0.0
            assert np.dot(weights, nodes**degree) == pytest.approx(exact, abs=1e-13)
        if num_perm > 512:
            return  # numpy's eigenvalue solve grows as n**3
        # ... and the same rule as numpy's eigenvalue-based one.
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-13)

    def test_prime_num_perm_never_fails(self):
        plan = lsh_plan(0.5, 127)
        assert (plan.bands, plan.rows) in {(1, 127), (127, 1)}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lsh_plan(0.0, 128)
        with pytest.raises(ValueError):
            lsh_plan(1.5, 128)
        with pytest.raises(ValueError):
            lsh_plan(0.5, 1)
        with pytest.raises(ValueError, match="8192"):
            lsh_plan(0.5, 8193)


def fresh_index(threshold=0.4, num_perm=128, seed=1):
    return LshIndex(lsh_plan(threshold, num_perm), num_perm, seed)


class TestInsert:
    def test_self_query_after_insert(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=5))
        a, _ = make_set_pair(0.5, 100, rng)
        sig = sig_of(a)
        index.insert(sig, "bot")
        got = index.query(sig)
        assert got == [Neighbor("set-a", "bot", 1.0)]

    def test_identical_signatures_both_returned(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=6))
        a, b = make_set_pair(1.0, 100, rng)
        index.insert(sig_of(a), "bot")
        index.insert(sig_of(b), "human")
        got = index.query(sig_of(a))
        assert {(n.user_id, n.label, n.jaccard) for n in got} == {
            ("set-a", "bot", 1.0),
            ("set-b", "human", 1.0),
        }

    def test_bucket_entry_conservation(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=7))
        n = 25
        for i in range(n):
            a, _ = make_set_pair(0.5, 60, rng)
            index.insert(
                MinHashSignature(f"u{i}", 128, 1, sig_of(a).values), "human" if i % 2 else "bot"
            )
        assert len(index) == n
        # The lookup table holds each of the n * bands digests exactly once.
        matrix, digests, positions = index._lookup_table()
        assert np.array_equal(matrix, index.band_digests(index._values[:n]))
        assert digests.shape == (n * index.plan.bands,)
        assert np.array_equal(np.sort(positions), np.arange(n * index.plan.bands))
        assert np.array_equal(digests, np.sort(matrix.ravel()))
        assert np.array_equal(digests, matrix.ravel()[positions])

    def test_duplicate_user_rejected(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=8))
        a, _ = make_set_pair(0.5, 60, rng)
        index.insert(sig_of(a), "bot")
        with pytest.raises(DuplicateUser):
            index.insert(sig_of(a), "bot")

    def test_incompatible_signature_rejected(self):
        index = fresh_index(seed=1)
        rng = np.random.Generator(np.random.Philox(key=9))
        a, _ = make_set_pair(0.5, 60, rng)
        with pytest.raises(IncompatibleSignatures):
            index.insert(minhash(a, 128, seed=2), "bot")
        with pytest.raises(IncompatibleSignatures):
            index.insert(minhash(a, 64, seed=1), "bot")

    def test_bad_label_rejected(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=10))
        a, _ = make_set_pair(0.5, 60, rng)
        with pytest.raises(ValueError):
            index.insert(sig_of(a), "cyborg")

    def test_plan_must_factor_num_perm(self):
        for plan, num_perm in ((BandingPlan(0.4, 3, 5), 128), (BandingPlan(0.4, 0, 0), 0),
                               (BandingPlan(0.4, -2, -4), 8)):
            with pytest.raises(ValueError, match="does not factor"):
                LshIndex(plan, num_perm, 1)

    def test_num_perm_over_the_limit_rejected(self):
        assert LshIndex(BandingPlan(0.5, 1, 8192), 8192, 1).num_perm == 8192
        with pytest.raises(ValueError, match=r"num_perm must be in \[2, 8192\], got 8193"):
            LshIndex(BandingPlan(0.5, 1, 8193), 8193, 1)


def snapshot(index):
    """Everything an index shows: ids, labels, columns, the ordinal map and the digest matrix.

    The digest matrix is built, as a query builds it, when no query has
    built it since the last insert.
    """
    n = len(index)
    return (
        list(index._user_ids),
        index.labels,
        dict(index._ordinals),
        index._values[:n].tobytes(),
        index._lookup_table()[0].tobytes(),
    )


def arrays_of(arrays):
    """Arrays, or None in their place, as comparable (dtype, shape, bytes) triples."""
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


def assert_state_is_fresh(index, entries):
    """``index``'s lookup state, and any codes it built, equal those of a fresh index of ``entries``.

    ``entries`` are the (signature, label) pairs ``index`` stores, in order;
    a query must have built its lookup state.  Returns whether codes were
    compared.
    """
    fresh = LshIndex(index.plan, index.num_perm, index.seed)
    fresh.insert_many([sig for sig, _ in entries], [label for _, label in entries])
    assert index._lookup is not None
    assert arrays_of(index._lookup) == arrays_of(fresh._lookup_table())
    if index._codes is None:
        return False
    (value_coded, digest_coded), (fresh_values, fresh_digests) = index._codes, fresh._coded_columns()
    assert arrays_of(value_coded + digest_coded) == arrays_of(fresh_values + fresh_digests)
    return True


def sequential(parts, entries):
    """A fresh index like ``parts`` holding ``entries``, inserted one at a time."""
    index = LshIndex(parts.plan, parts.num_perm, parts.seed)
    for sig, label in entries:
        index.insert(sig, label)
    return index


def renamed(entries, copies):
    """``copies`` copies of the drawn entries under distinct ids."""
    return [
        (MinHashSignature(f"{sig.user_id}.{c}", sig.num_perm, sig.seed, sig.values), label)
        for c in range(copies)
        for sig, label in entries
    ]


def draw_blocks(data, entries):
    """Split entries into consecutive blocks at drawn cuts; blocks may be empty."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(entries)), max_size=4), label="cuts"))
    bounds = [0, *cuts, len(entries)]
    return [entries[a:b] for a, b in zip(bounds, bounds[1:])]


class TestInsertMany:
    def test_equals_sequential_insert(self, tmp_path):
        # Up to 48 entries, so blocks cross the 16 -> 32 -> 64 capacity
        # doublings, whole or in their middle.
        seen = set()

        @given(st.data())
        @settings(max_examples=150, deadline=None)
        def check(data):
            one_by_one, entries, probes = draw_index_parts(data)
            entries = renamed(entries, data.draw(st.integers(1, 4), label="copies"))
            blocked = LshIndex(one_by_one.plan, one_by_one.num_perm, one_by_one.seed)
            for block in draw_blocks(data, entries):
                n, capacity = len(blocked), len(blocked._is_bot)
                blocked.insert_many([sig for sig, _ in block], [label for _, label in block])
                if not block:
                    seen.add("empty")
                elif n < capacity < len(blocked):
                    seen.add("crossed a doubling")
            for sig, label in entries:
                one_by_one.insert(sig, label)
            assert snapshot(blocked) == snapshot(one_by_one)
            for probe in probes:
                assert blocked.query(probe) == one_by_one.query(probe)
            a, b = tmp_path / "blocked.idx", tmp_path / "one_by_one.idx"
            blocked.save(a)
            one_by_one.save(b)
            assert a.read_bytes() == b.read_bytes()

        check()
        assert seen == {"empty", "crossed a doubling"}

    def test_bad_block_leaves_index_unchanged(self):
        # The inputs come as generators, so a bad signature may follow rows
        # already written past the stored ones.
        seen = set()

        @given(st.data())
        @settings(max_examples=100, deadline=None)
        def check(data):
            parts, entries, probes = draw_index_parts(data)
            index = LshIndex(parts.plan, parts.num_perm, parts.seed)
            split = data.draw(st.integers(0, len(entries)), label="split")
            index.insert_many([sig for sig, _ in entries[:split]], [label for _, label in entries[:split]])
            rest = entries[split:]
            before = snapshot(index)
            answers = [index.query(probe) for probe in probes]
            values = np.zeros(index.num_perm, dtype=np.uint64)
            bad = {
                "label": (MinHashSignature("new", index.num_perm, 5, values), "cyborg", ValueError),
                "incompatible": (MinHashSignature("new", index.num_perm, 6, values), "bot",
                                 IncompatibleSignatures),
                "other width": (MinHashSignature("new", 2 * index.num_perm, 5, np.tile(values, 2)), "bot",
                                IncompatibleSignatures),
            }
            if rest:
                sig, label = rest[0]
                bad["duplicate in block"] = (sig, label, DuplicateUser)
            if split:
                sig, label = entries[0]
                bad["duplicate of indexed"] = (sig, label, DuplicateUser)
            for sig, label, error in bad.values():
                at = data.draw(st.integers(0, len(rest)), label="position")
                block = rest[:at] + [(sig, label)] + rest[at:]
                if at:
                    seen.add("after written rows")
                with pytest.raises(error):
                    index.insert_many((s for s, _ in block), (l for _, l in block))
                assert snapshot(index) == before
                assert [index.query(probe) for probe in probes] == answers
            extra = rest + [(None, "bot")]
            with pytest.raises(ValueError, match=f"^{len(rest)} signatures but {len(extra)} labels$"):
                index.insert_many((s for s, _ in rest), (l for _, l in extra))
            assert snapshot(index) == before
            # The failed blocks leave nothing behind for a good one to meet.
            index.insert_many((sig for sig, _ in rest), (label for _, label in rest))
            assert list(index._user_ids) == [sig.user_id for sig, _ in entries]
            assert snapshot(index) == snapshot(sequential(parts, entries))

        check()
        assert seen == {"after written rows"}

    @pytest.mark.parametrize("shape", [(1,), (7,), (9,), (2, 4), ()])
    def test_values_of_the_wrong_shape_are_refused(self, shape):
        # Written row by row, such values would broadcast into a whole row,
        # so no signature holds them.  A signature of the width of a 1-D
        # shape is of another hash family, which the index refuses.
        with pytest.raises(ValueError, match=rf"^values must be 8 integers .* of shape {re.escape(str(shape))}$"):
            MinHashSignature("bad", 8, 1, np.full(shape, 7, dtype=np.uint64))
        if len(shape) != 1 or shape[0] < 2:
            return
        index = fresh_index(num_perm=8)
        good = MinHashSignature("good", 8, 1, np.arange(8, dtype=np.uint64))
        index.insert(good, "bot")
        before = snapshot(index)
        bad = MinHashSignature("bad", shape[0], 1, np.full(shape, 7, dtype=np.uint64))
        refused = f"num_perm={shape[0]}, seed=1\\) vs \\(num_perm=8"
        with pytest.raises(IncompatibleSignatures, match=refused):
            index.insert(bad, "bot")
        other = MinHashSignature("other", 8, 1, np.ones(8, dtype=np.uint64))
        with pytest.raises(IncompatibleSignatures, match=refused):
            index.insert_many([other, bad], ["human", "bot"])
        assert snapshot(index) == before
        with pytest.raises(IncompatibleSignatures, match=refused):
            index.query(bad)
        with pytest.raises(IncompatibleSignatures, match=refused):
            index.neighbor_votes([good, bad], 0.5)

    @pytest.mark.parametrize("values", [np.arange(8, dtype=np.float64), np.full(8, -1)],
                             ids=["float64", "negative int64"])
    def test_values_that_are_not_minhash_values_are_refused(self, values):
        # Stored as u64, a float copy of a stored signature would find no
        # neighbour, and -1 would stand for 2**64 - 1.
        index = fresh_index(num_perm=8)
        index.insert(MinHashSignature("a", 8, 1, np.arange(8, dtype=np.uint64)), "bot")
        before = snapshot(index)
        for use in (lambda sig: index.insert(sig, "bot"), index.query, MinHashSignature.to_bytes):
            with pytest.raises(ValueError, match="^values must be 8 integers in"):
                use(MinHashSignature("b", 8, 1, values))
        assert snapshot(index) == before

    def test_label_count_must_match(self):
        index = fresh_index(num_perm=8)
        sig = MinHashSignature("a", 8, 1, np.zeros(8, dtype=np.uint64))
        with pytest.raises(ValueError, match="1 signatures but 2 labels"):
            index.insert_many([sig], ["bot", "human"])
        other = MinHashSignature("b", 8, 1, np.ones(8, dtype=np.uint64))
        with pytest.raises(ValueError, match="3 signatures but 1 labels"):
            index.insert_many(iter([sig, other, other]), iter(["bot"]))
        assert len(index) == 0

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_band_digests_of_a_matrix_are_its_rows_digests(self, data):
        num_perm = data.draw(st.sampled_from([2, 6, 8, 12, 128]), label="num_perm")
        bands = data.draw(
            st.sampled_from([b for b in range(1, num_perm + 1) if num_perm % b == 0]), label="bands"
        )
        index = LshIndex(BandingPlan(0.5, bands, num_perm // bands), num_perm, seed=5)
        n = data.draw(st.integers(0, 5), label="n")
        # Full u64 range, so the products and sums wrap.
        rows = st.lists(st.integers(0, (1 << 64) - 1), min_size=num_perm, max_size=num_perm)
        matrix = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.uint64)
        matrix = matrix.reshape(n, num_perm)
        got = index.band_digests(matrix)
        assert got.shape == (n, bands) and got.dtype == np.uint64
        # The reference: offset + sum of coefficient * value per band, in Python integers modulo 2**64.
        coeffs, offsets = (a.tolist()[0] for a in _digest_params(5, bands, num_perm // bands))
        assert all(c % 2 for band in coeffs for c in band)  # odd, so invertible modulo 2**64
        for row, digests in zip(matrix, got):
            np.testing.assert_array_equal(digests, index.band_digests(row))
            groups = np.array(row).reshape(bands, -1).tolist()
            want = [(o + sum(map(int.__mul__, c, g))) % (1 << 64) for o, c, g in zip(offsets, coeffs, groups)]
            assert digests.tolist() == want

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_changed_value_changes_its_bands_digest_only(self, data):
        # The coefficients are odd, so invertible modulo 2**64: a band
        # tuple that differs in exactly one position never shares its
        # digest, while every other band keeps its own.
        num_perm = data.draw(st.sampled_from([2, 6, 8, 12, 128]), label="num_perm")
        bands = data.draw(
            st.sampled_from([b for b in range(1, num_perm + 1) if num_perm % b == 0]), label="bands"
        )
        seed = data.draw(st.integers(0, (1 << 64) - 1), label="seed")
        index = LshIndex(BandingPlan(0.5, bands, num_perm // bands), num_perm, seed)
        value = st.integers(0, (1 << 64) - 1)
        row = np.array(data.draw(st.lists(value, min_size=num_perm, max_size=num_perm)), dtype=np.uint64)
        at = data.draw(st.integers(0, num_perm - 1), label="position")
        changed = row.copy()
        changed[at] = data.draw(value.filter(lambda v: v != int(row[at])), label="new value")
        same = index.band_digests(row) == index.band_digests(changed)
        assert same.tolist() == [b != at // index.plan.rows for b in range(bands)]

    def test_band_digests_of_a_block_keep_their_temporaries_small(self):
        # 1000 signatures of 128 values (1 MB): digested in steps of 128
        # rows, the call's traced peak beyond the 256 KB result stays near
        # 1 MB; digested whole it was about 5 MB.
        index = LshIndex(BandingPlan(0.5, 32, 4), 128, seed=5)
        block = np.random.default_rng(3).integers(0, 1 << 64, size=(1000, 128), dtype=np.uint64)
        expected = np.stack([index.band_digests(row) for row in block])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = index.band_digests(block)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, expected)
        assert peak < 1.5e6


class TestNeighborVotes:
    def test_equals_counting_query_neighbors(self, monkeypatch):
        @given(st.data())
        @settings(max_examples=100, deadline=None)
        def check(data):
            parts, entries, probes = draw_index_parts(data)
            rows = data.draw(st.integers(1, 4), label="rows per block")
            monkeypatch.setattr("botdna.lsh._DIGEST_STEP_BYTES", rows * 8 * parts.num_perm)
            index = sequential(parts, entries)
            neighbors = [index.query(probe) for probe in probes]
            # Every quotient m / num_perm, and the floats on either side of it.
            floors = floors_around(index.num_perm, range(index.num_perm + 1))
            for floor in [0.5, index.plan.threshold] + floors:
                want = []
                for found in neighbors:
                    kept = [nb for nb in found if nb.jaccard >= floor]
                    want.append((len(kept), sum(nb.label == "bot" for nb in kept)))
                assert index.neighbor_votes(iter(probes), floor) == want

        check()


class TestMixedInsertsAndQueries:
    def test_answers_equal_a_fresh_index(self, tmp_path):
        # Inserts one at a time or in blocks (empty ones, and ones failing
        # partway, among them), queries, votes and a save and load come in
        # a drawn order.  Each answer must equal that of an index built
        # fresh from the rows stored so far, and so must the lookup state
        # and any codes the queries built.
        steps = ["insert", "insert_many", "failing insert_many", "query", "votes", "save and load"]
        seen = set()

        @given(st.data())
        @settings(max_examples=300, deadline=None)
        def check(data):
            parts, entries, probes = draw_index_parts(data)
            waiting = renamed(entries, data.draw(st.integers(1, 3), label="copies"))
            index = LshIndex(parts.plan, parts.num_perm, parts.seed)
            stored, queried, inserted_since = [], False, False
            for step in data.draw(st.lists(st.sampled_from(steps), max_size=12), label="steps") + ["query"]:
                if step == "save and load":
                    index.save(tmp_path / "mixed.idx")
                    index, queried = LshIndex.load(tmp_path / "mixed.idx"), False
                elif step in ("query", "votes"):
                    fresh = LshIndex(parts.plan, parts.num_perm, parts.seed)
                    fresh.insert_many([sig for sig, _ in stored], [label for _, label in stored])
                    if step == "query":
                        for probe in probes:
                            assert index.query(probe) == fresh.query(probe)
                    else:
                        floor = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="floor")
                        assert index.neighbor_votes(probes, floor) == fresh.neighbor_votes(probes, floor)
                    if assert_state_is_fresh(index, stored):
                        seen.add("codes built")
                    if queried and inserted_since:
                        seen.add("rebuilt after inserts")
                    queried, inserted_since = True, False
                else:
                    most = 1 if step == "insert" else len(waiting)
                    block = waiting[: data.draw(st.integers(0, most), label="rows")]
                    if step == "failing insert_many":
                        bad = MinHashSignature("bad", parts.num_perm, parts.seed + 1,
                                               np.zeros(parts.num_perm, dtype=np.uint64))
                        with pytest.raises(IncompatibleSignatures):
                            index.insert_many((sig for sig, _ in block + [(bad, "bot")]),
                                              (label for _, label in block + [(bad, "bot")]))
                        seen.add("failed after written rows" if block else "failed")
                        continue
                    if step == "insert" and block:
                        index.insert(*block[0])
                    elif step == "insert_many":
                        index.insert_many((sig for sig, _ in block), (label for _, label in block))
                        seen.add("insert_many" if block else "empty insert_many")
                    stored += block
                    waiting = waiting[len(block) :]
                    inserted_since = inserted_since or bool(block)

        check()
        assert seen == {"rebuilt after inserts", "codes built", "failed after written rows", "failed",
                        "insert_many", "empty insert_many"}


def brute_force_neighbors(entries, index, probe):
    """The candidates of ``probe`` among ``entries``, found by comparing every digest and value."""
    want = index.band_digests(probe.values)
    return [
        Neighbor(sig.user_id, label, np.count_nonzero(sig.values == probe.values) / index.num_perm)
        for sig, label in entries
        if np.any(index.band_digests(sig.values) == want)
    ]


def brute_force_votes(entries, index, probe, floor):
    kept = [nb for nb in brute_force_neighbors(entries, index, probe) if nb.jaccard >= floor]
    return len(kept), sum(nb.label == "bot" for nb in kept)


class TestQuery:
    def test_values_of_another_integer_type(self):
        index = LshIndex(BandingPlan(0.5, 4, 2), 8, 1)
        index.insert(MinHashSignature("a", 8, 1, np.arange(8)), "bot")
        for values in (np.arange(8), np.arange(8, dtype=np.uint64)):
            probe = MinHashSignature("b", 8, 1, values)
            assert index.query(probe) == [Neighbor("a", "bot", 1.0)]
            assert index.neighbor_votes([probe], 1.0) == [(1, 1)]

    def test_empty_index(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=11))
        a, _ = make_set_pair(0.5, 60, rng)
        assert index.query(sig_of(a)) == []

    def test_pair_above_threshold_usually_retrieved(self):
        # Exact Jaccard 0.6 >= threshold 0.4 + 0.15; the (32, 4) plan gives
        # collision probability 1-(1-0.6**4)**32 ~= 0.988, so at least 90
        # of 100 seeded trials must retrieve the partner.
        hits = 0
        for trial in range(100):
            rng = np.random.Generator(np.random.Philox(key=3000 + trial))
            a, b = make_set_pair(0.6, 100, rng)
            assert exact_jaccard(a, b) == 0.6
            index = fresh_index()
            index.insert(sig_of(a), "bot")
            if any(n.user_id == "set-a" for n in index.query(sig_of(b))):
                hits += 1
        assert hits >= 90

    def test_identical_pair_always_retrieved(self):
        for trial in range(20):
            rng = np.random.Generator(np.random.Philox(key=4000 + trial))
            a, b = make_set_pair(1.0, 80, rng)
            index = fresh_index()
            index.insert(sig_of(a), "human")
            got = index.query(sig_of(b))
            assert [n.user_id for n in got] == ["set-a"]
            assert got[0].jaccard == 1.0

    def test_single_row_plan_matches_brute_force(self):
        # With rows=1 every shared minimum forces a collision: candidates
        # must equal the brute-force set of users sharing any position.
        num_perm = 16
        index = LshIndex(BandingPlan(0.01, num_perm, 1), num_perm, seed=3)
        rng = np.random.Generator(np.random.Philox(key=12))
        sigs = []
        for i in range(60):
            a, _ = make_set_pair(0.5, 30, rng)
            s = MinHashSignature(f"u{i}", num_perm, 3, minhash(a, num_perm, 3).values)
            sigs.append(s)
            index.insert(s, "bot" if i % 3 else "human")
        for probe in sigs[:10]:
            got = {n.user_id for n in index.query(probe)}
            expected = {
                s.user_id for s in sigs if np.any(s.values == probe.values)
            }
            assert got == expected

    @staticmethod
    def cross_band_collision(num_perm):
        """An index holding the all-zero signature, and a probe whose digest
        in one band equals the stored digest of another band.

        With rows=1, band b of values v digests to o[b] + c[b]*v[b] modulo
        2**64, c[b] odd; read c and o back through band_digests and solve,
        modulo 2**64, for the value whose band-b2 digest equals the
        all-zero signature's band-b1 one.
        """
        wrap = 1 << 64
        index = LshIndex(BandingPlan(0.01, num_perm, 1), num_perm, seed=3)
        offsets = index.band_digests(np.zeros(num_perm, dtype=np.uint64))
        coeffs = index.band_digests(np.ones(num_perm, dtype=np.uint64)) - offsets
        b1, b2 = 0, num_perm - 1
        gap = (int(offsets[b1]) - int(offsets[b2])) % wrap
        assert gap  # else the probe would equal the stored signature in band b2
        values = np.ones(num_perm, dtype=np.uint64)
        values[b2] = gap * pow(int(coeffs[b2]), -1, wrap) % wrap
        probe = MinHashSignature("probe", num_perm, 3, values)
        assert index.band_digests(values)[b2] == offsets[b1]
        index.insert(MinHashSignature("zeros", num_perm, 3, np.zeros(num_perm, dtype=np.uint64)), "bot")
        return index, probe

    def test_equal_digests_in_different_bands_are_not_candidates(self):
        # One hit among 16 table entries: the hit expansion.
        index, probe = self.cross_band_collision(16)
        assert index.query(probe) == []

    def test_dense_scan_ignores_equal_digests_in_different_bands(self):
        # One hit among 3 table entries, over a quarter: the dense scan.
        index, probe = self.cross_band_collision(3)
        assert index.query(probe) == []

    def test_candidates_and_jaccard_match_brute_force(self):
        # Candidates are exactly the users sharing a digest in some band,
        # in insertion order, each with the share of equal positions.
        # Querying between the two insert stages checks the rebuild after an insert.
        # A query whose digests hit more than a quarter of the lookup
        # table takes the dense scan, any other the hit expansion; the
        # drawn indexes must reach both.
        scans = set()

        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            index, entries, probes = draw_index_parts(data)
            split = data.draw(st.integers(0, len(entries)), label="split")
            for stage in (entries[:split], entries[split:]):
                for sig, label in stage:
                    index.insert(sig, label)
                inserted = entries[: len(index)]
                table = np.array(
                    [index.band_digests(sig.values) for sig, _ in inserted], dtype=np.uint64
                ).ravel()
                for probe in probes:
                    want = index.band_digests(probe.values)
                    hits = sum(int(np.count_nonzero(table == d)) for d in want)
                    if hits:
                        scans.add("dense" if hits > _DENSE_SCAN_SHARE * table.size else "expand")
                    assert index.query(probe) == brute_force_neighbors(inserted, index, probe)

        check()
        assert scans == {"dense", "expand"}

    def test_neighbor_jaccard_matches_estimate(self):
        index = fresh_index()
        rng = np.random.Generator(np.random.Philox(key=13))
        a, b = make_set_pair(0.8, 100, rng)
        index.insert(sig_of(a), "bot")
        got = index.query(sig_of(b))
        if got:  # retrieval at J=0.8 is near-certain but not guaranteed
            from botdna.minhash import estimate_jaccard

            assert got[0].jaccard == pytest.approx(estimate_jaccard(sig_of(a), sig_of(b)))


class TestCodedColumns:
    """A dense query marks candidates on u8 codes of the digest columns and
    counts equal positions on u8 codes of the signature columns."""

    def test_coded_counts_match_brute_force(self, monkeypatch, tmp_path):
        # Every query with a hit takes the dense branch, so each one counts
        # on the codes, and the same queries with the codes withheld count
        # on the u64 values.  Both must equal the brute force: after the
        # first inserts, after more inserts, and after a save and load.
        monkeypatch.setattr("botdna.lsh._DENSE_SCAN_SHARE", 0.0)
        coded_queries = []

        @given(st.data())
        @settings(max_examples=150, deadline=None)
        def check(data):
            parts, drawn, drawn_probes = draw_index_parts(data)
            # The drawn symbols stand for 0, 2**64 - 1 and two other values.
            others = data.draw(st.lists(st.integers(1, 2**64 - 2), min_size=2, max_size=2, unique=True))
            palette = np.array(data.draw(st.permutations([0, 2**64 - 1, *others])), dtype=np.uint64)

            def remap(sig):
                return MinHashSignature(sig.user_id, sig.num_perm, sig.seed, palette[sig.values])

            entries = [(remap(sig), label) for sig, label in drawn]
            probes = [remap(sig) for sig in drawn_probes]
            # A value stored nowhere, at a drawn position of each probe.
            at = data.draw(st.integers(0, parts.num_perm - 1), label="absent at")
            for sig in list(probes):
                values = sig.values.copy()
                values[at] = 12345
                probes.append(MinHashSignature(f"{sig.user_id}.absent", sig.num_perm, sig.seed, values))
            split = data.draw(st.integers(0, len(entries)), label="split")
            index = LshIndex(parts.plan, parts.num_perm, parts.seed)
            for stage in (entries[:split], entries[split:]):
                index.insert_many([sig for sig, _ in stage], [label for _, label in stage])
                coded_queries.append(self.assert_answers(index, entries[: len(index)], probes))
            path = tmp_path / "coded.idx"
            index.save(path)
            coded_queries.append(self.assert_answers(LshIndex.load(path), entries, probes))

        check()
        assert any(coded_queries)

    @staticmethod
    def assert_answers(index, entries, probes):
        """Check every answer with and without the codes; whether the codes were used."""
        coded = False
        for withheld in (False, True):
            if withheld:
                built = index._codes
                coded = built is not None and all(c[1] is not None for c in built)
                # As when some position and some band hold over 255 values.
                index._codes = (None, None), (None, None)
            for probe in probes:
                assert index.query(probe) == brute_force_neighbors(entries, index, probe)
            for floor in (0.0, 0.5, 1.0):
                want = [brute_force_votes(entries, index, probe, floor) for probe in probes]
                assert index.neighbor_votes(probes, floor) == want
        index._codes = built
        return coded

    @pytest.mark.parametrize("distinct", [255, 256])
    def test_a_position_codes_up_to_255_values(self, distinct):
        # Position 0 holds ``distinct`` values, 2**64 - 1 the largest of
        # them; position 1 holds one value, so every query sharing it hits
        # every user in band 1 and takes the dense branch.  Band 0 is
        # position 0, so its digests code exactly when its values do.
        values = [2**64 - 256 + i for i in range(256 - distinct, 256)]
        values += [values[0]] * (256 - len(values))
        index = LshIndex(BandingPlan(0.5, 2, 1), 2, 3)
        entries = [(MinHashSignature(f"u{i}", 2, 3, np.array([v, 7], dtype=np.uint64)), "bot")
                   for i, v in enumerate(values)]
        index.insert_many(*zip(*entries))
        probes = [MinHashSignature(f"p{v}", 2, 3, np.array([v, 7], dtype=np.uint64))
                  for v in (values[0], 2**64 - 2, 2**64 - 1, 12345)]  # 12345 is stored nowhere
        for probe in probes:
            assert index.query(probe) == brute_force_neighbors(entries, index, probe)
            assert index.neighbor_votes([probe], 1.0) == [brute_force_votes(entries, index, probe, 1.0)]
        (dictionary, codes), (digest_dictionary, digest_codes) = index._codes
        if distinct == 255:
            assert dictionary[0].tolist() == sorted(set(values))
            assert codes[0].tolist() == [sorted(set(values)).index(v) for v in values]
            band = index._lookup[0][:, 0].tolist()
            assert digest_dictionary[0].tolist() == sorted(set(band))
            assert digest_codes[0].tolist() == [sorted(set(band)).index(d) for d in band]
        else:
            assert dictionary is None and codes is None
            assert digest_dictionary is None and digest_codes is None

    def test_sparse_queries_build_no_codes(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        index = LshIndex(BandingPlan(0.5, 4, 4), 16, 3)
        sigs = [MinHashSignature(f"u{i}", 16, 3, rng.integers(0, 2**64, 16, dtype=np.uint64))
                for i in range(8)]
        index.insert_many(sigs, ["bot", "human"] * 4)
        for sig in sigs:
            assert [nb.user_id for nb in index.query(sig)] == [sig.user_id]
        assert index.neighbor_votes(sigs, 0.5) == [(1, 1 - i % 2) for i in range(8)]
        assert index._lookup is not None and index._codes is None
        # A large sparse index: 3000 users of 300 behaviour families under
        # B3+B5+B9 at k=6.  One family's ten members fill one block of
        # neighbor_votes, and each hits about its own family only.
        cfg = RunConfig(alphabets=("B3", "B5", "B9"), k_shingle=6, threshold=0.2)
        users = family_corpus(300, 10, posts=60, cycle=16, noise=0.05, seed=21)
        index = build_index(users, cfg)
        members = [signature_for(u, cfg) for u in users if u.user_id.startswith("f00u")]
        assert len(members) == _DIGEST_STEP_BYTES // (4 * len(index)) == 10
        votes = index.neighbor_votes(members, cfg.threshold)
        assert all(neighbors >= 1 for neighbors, _ in votes)
        assert index._lookup is not None and index._codes is None

    # case -> what its runs must show, besides the answers
    MIXED_CASES = {
        "narrow": {"counts in uint8", "codes equal a fresh index's", "a value new to the codes built before"},
        "wide band": {"band over 255 values, positions coded"},
        "wide position": {"position over 255 values"},
        "num_perm 256": {"counts in uint16"},
    }

    @pytest.mark.parametrize("case", list(MIXED_CASES))
    def test_mixed_inserts_and_dense_queries_match_brute_force(self, monkeypatch, case):
        # Rows arrive in drawn blocks, one-row inserts among them, and
        # dense queries follow each block.  Candidates must be the users
        # sharing a digest with the query in the same band, and counts the
        # equal u64 values.  After each block the lookup state and the
        # codes must equal a fresh index's, also when the block holds a
        # value the codes built before it lack.
        monkeypatch.setattr("botdna.lsh._DENSE_SCAN_SHARE", 0.0)
        seen = set()

        @given(st.data())
        @settings(max_examples=40, deadline=None)
        def check(data):
            num_perm = 256 if case == "num_perm 256" else data.draw(st.sampled_from([4, 6, 8]))
            bands = data.draw(st.sampled_from([b for b in (1, 2, num_perm // 2, num_perm // 4)
                                               if num_perm % b == 0 and num_perm // b >= 2]))
            count = 300 if case.startswith("wide") else data.draw(st.integers(1, 40))
            rng = np.random.Generator(np.random.Philox(key=data.draw(st.integers(0, 2**32), label="key")))
            # Palette indices: a few per position, and one more that only
            # rows after the first block may take, so that they can hold a
            # value missing from the codes built before them.
            narrow = data.draw(st.integers(1, 4), label="narrow")
            cells = rng.integers(0, narrow, (count, num_perm))
            first = data.draw(st.integers(1, count), label="first block")
            late = rng.random((count, num_perm)) < data.draw(st.sampled_from([0.0, 0.002, 0.05]))
            cells[first:][late[first:]] = narrow
            if case == "wide band":  # distinct (col 0, col 1) pairs: band 0 over 255 digests
                cells[:, 0], cells[:, 1] = np.arange(count) % 16, np.arange(count) // 16
            elif case == "wide position":
                cells[:, 0] = np.arange(count)
            palette = rng.integers(0, 2**64, (num_perm, max(count, narrow + 1)), dtype=np.uint64)
            values = palette[np.arange(num_perm), cells]
            probes = np.concatenate([values[rng.integers(0, first, 3)],  # stored from the first block on
                                     palette[np.arange(num_perm), rng.integers(0, narrow + 1, (2, num_perm))]])
            probes[-1, 0] = 12345  # stored nowhere
            index = LshIndex(BandingPlan(0.5, bands, num_perm // bands), num_perm, 7)
            entries = [(MinHashSignature(f"u{i}", num_perm, 7, values[i]), "bot" if i % 3 else "human")
                       for i in range(count)]
            cuts = sorted({first, *data.draw(st.lists(st.integers(first, count), max_size=4), label="cuts")})
            for a, b in zip([0, *cuts], [*cuts, count]):
                if index._codes is not None and index._codes[0][0] is not None:
                    dictionary = index._codes[0][0]
                    if any(not np.isin(values[a:b, p], dictionary[p]).all() for p in range(num_perm)):
                        seen.add("a value new to the codes built before")
                if b - a == 1:
                    index.insert(*entries[a])
                else:
                    index.insert_many([sig for sig, _ in entries[a:b]], [label for _, label in entries[a:b]])
                digests = index.band_digests(values[:b])
                # One block of every probe; each row must be that probe's answer.
                is_candidate, matches = index._match_block(probes, index.band_digests(probes))
                for probe, marked, counted in zip(probes, is_candidate, matches):
                    ordinals = np.flatnonzero(marked)
                    query = index.band_digests(probe)
                    assert ordinals.tolist() == np.flatnonzero((digests == query).any(axis=1)).tolist()
                    assert counted[ordinals].tolist() == (values[ordinals] == probe).sum(axis=1).tolist()
                    if len(ordinals):
                        assert matches.dtype == (np.uint8 if num_perm <= 255 else np.uint16)
                        seen.add(f"counts in {matches.dtype}")
                kept = [np.flatnonzero((digests == index.band_digests(p)).any(axis=1)) for p in probes]
                kept = [k[(values[k] == p).sum(axis=1) / num_perm >= 0.5] for k, p in zip(kept, probes)]
                bots = np.array(["bot" if i % 3 else "human" for i in range(b)]) == "bot"
                probe_sigs = [MinHashSignature(f"p{j}", num_perm, 7, p) for j, p in enumerate(probes)]
                assert index.neighbor_votes(probe_sigs, 0.5) == [(len(k), int(bots[k].sum())) for k in kept]
                if assert_state_is_fresh(index, entries[:b]):
                    seen.add("codes equal a fresh index's")
                    self.check_codes(index, values[:b], digests, seen)

        check()
        assert seen >= self.MIXED_CASES[case]

    @staticmethod
    def check_codes(index, values, digests, seen):
        """The codes of a coded matrix give each value's index in its column's dictionary row."""
        (dictionary, codes), (digest_dictionary, digest_codes) = index._codes
        if digest_dictionary is None and dictionary is not None:
            seen.add("band over 255 values, positions coded")
        if dictionary is None:
            seen.add("position over 255 values")
        for words, coded, matrix in ((dictionary, codes, values), (digest_dictionary, digest_codes, digests)):
            if words is not None:
                want = [np.searchsorted(row, column) for row, column in zip(words, matrix.T)]
                np.testing.assert_array_equal(coded, want)


def cross_band_values(index, stored, b1, b2, rng):
    """Random values whose band-``b2`` digest equals ``stored``'s band-``b1`` digest.

    Band ``b`` of values ``v`` digests to ``offset[b] + sum_r coeff[b, r] *
    v[b, r]`` modulo 2**64 with odd coefficients, so the first value of
    band ``b2`` is solved for, the others being random.
    """
    rows, wrap = index.plan.rows, 1 << 64
    coeffs, offsets = _digest_params(index.seed, index.plan.bands, rows)
    values = rng.integers(0, 2**64, index.num_perm, dtype=np.uint64)
    target = int(index.band_digests(stored)[b1])
    rest = int(offsets[0, b2]) + sum(int(coeffs[0, b2, r]) * int(values[b2 * rows + r]) for r in range(1, rows))
    values[b2 * rows] = (target - rest) * pow(int(coeffs[0, b2, 0]), -1, wrap) % wrap
    assert index.band_digests(values)[b2] == index.band_digests(stored)[b1]
    return values


class TestBlockLookups:
    """``neighbor_votes`` and ``query`` take candidates and counts from one block routine."""

    @pytest.mark.parametrize("num_perm", [128, 256])
    @pytest.mark.parametrize("wide", [False, True], ids=["coded", "position over 255 values"])
    def test_blocks_match_brute_force(self, monkeypatch, num_perm, wide):
        # The step is patched down to a few queries, so the probes span
        # several blocks, and the blocks' own steps (hit expansion, pair
        # counts, dense compares, query codes) are small too.  A block mixes
        # dense probes, near copies of a family that fills most of the
        # index, with expanded ones: stored users, near copies of them, and
        # probes whose digest equals a stored one only in another band.
        seen = set()

        @given(st.data())
        @settings(max_examples=20, deadline=None)
        def check(data):
            rows = data.draw(st.sampled_from([1, 2, 4]), label="rows")
            block = data.draw(st.integers(2, 4), label="queries per step")
            monkeypatch.setattr("botdna.lsh._DIGEST_STEP_BYTES", block * 8 * num_perm)
            rng = np.random.Generator(np.random.Philox(key=data.draw(st.integers(0, 2**32), label="key")))
            count = 260 if wide else data.draw(st.integers(8, 40), label="users")
            family = data.draw(st.integers(count * 3 // 5, count - 2), label="family")
            base = rng.integers(0, 2**64, num_perm, dtype=np.uint64)
            values = rng.integers(0, 2**64, (count, num_perm), dtype=np.uint64)
            values[:family] = np.where(rng.random((family, num_perm)) < 0.03, values[:family], base)
            if wide:
                values[:, 0] = np.arange(count)
            index = LshIndex(BandingPlan(0.5, num_perm // rows, rows), num_perm, 9)
            labels = ["bot" if i % 3 else "human" for i in range(count)]
            entries = [(MinHashSignature(f"u{i}", num_perm, 9, v), label)
                       for i, (v, label) in enumerate(zip(values, labels))]
            index.insert_many(*zip(*entries))
            bands = index.plan.bands
            probes = [np.where(rng.random(num_perm) < 0.03, rng.integers(0, 2**64, num_perm, dtype=np.uint64), base)
                      for _ in range(data.draw(st.integers(1, 4), label="dense probes"))]
            loners = list(range(family, count))
            probes += [values[i] for i in loners[:2]]
            probes += [np.where(rng.random(num_perm) < 0.5, values[i], rng.integers(0, 2**64, num_perm, dtype=np.uint64))
                       for i in loners[2:4]]
            b1, b2 = rng.choice(bands, 2, replace=False) if bands > 1 else (0, 0)
            if bands > 1:
                probes.append(cross_band_values(index, values[loners[0]], b1, b2, rng))
            order = data.draw(st.permutations(range(len(probes))), label="order")
            sigs = [MinHashSignature(f"p{j}", num_perm, 9, probes[j]) for j in order]

            table = index.band_digests(values).ravel()
            dense = [np.isin(table, index.band_digests(sig.values)).sum() > 0.25 * table.size for sig in sigs]
            if any(dense[i : i + block] != [dense[i]] * len(dense[i : i + block]) for i in range(0, len(sigs), block)):
                seen.add("a block mixing dense and expanded queries")
            want = [brute_force_neighbors(entries, index, sig) for sig in sigs]
            # Floors at the neighbours' own estimates, where one count more or less flips a vote.
            estimates = sorted({nb.jaccard for found in want for nb in found})
            for floor in [0.0] + (data.draw(st.lists(st.sampled_from(estimates), max_size=3)) if estimates else []):
                votes = [(len(k), sum(nb.label == "bot" for nb in k))
                         for k in ([nb for nb in found if nb.jaccard >= floor] for found in want)]
                assert index.neighbor_votes(sigs, floor) == votes
            assert [index.query(sig) for sig in sigs] == want
            # All the probes as one block: each row holds its probe's candidates and counts.
            rows = np.array([sig.values for sig in sigs])
            is_candidate, matches = index._match_block(rows, index.band_digests(rows))
            for marked, counted, found in zip(is_candidate, matches, want):
                got = [(entries[i][0].user_id, int(counted[i]) / num_perm) for i in np.flatnonzero(marked)]
                assert got == [(nb.user_id, nb.jaccard) for nb in found]
            if bands > 1:
                seen.add("a digest equal in another band")
            coded = index._codes is not None and index._codes[0][0] is not None
            seen.add("values coded" if coded else "values not coded")

        check()
        assert seen == {"a block mixing dense and expanded queries", "a digest equal in another band",
                        "values not coded" if wide else "values coded"}


def read_index_file(path):
    """The header fields and the body of an index file."""
    blob = path.read_bytes()
    magic, version, size = struct.unpack_from("<4sBI", blob)
    assert (magic, version) == (b"BDIX", 2)
    return json.loads(blob[9 : 9 + size]), blob[9 + size :]


def write_index_file(path, fields, body):
    """Write an index file from header fields and a body, with a fresh checksum.

    Follows the documented layout on its own, so it also pins the format.
    """
    fields = {name: value for name, value in fields.items() if name != "checksum"}
    digest = hashlib.blake2b(json.dumps(fields, sort_keys=True).encode(), digest_size=16)
    digest.update(body)
    header = json.dumps(dict(fields, checksum=digest.hexdigest()), sort_keys=True).encode()
    path.write_bytes(struct.pack("<4sBI", b"BDIX", 2, len(header)) + header + body)


def small_index(tmp_path, ids=("aa", "bb", "cc"), recipe=(("B3", "B9"), 3)):
    """A saved 8-permutation index over ``ids``, and the path it was saved to."""
    index = LshIndex(BandingPlan(0.5, 4, 2), 8, 11, recipe)
    for i, uid in enumerate(ids):
        values = np.arange(i, i + 8, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15 >> 3)
        index.insert(MinHashSignature(uid, 8, 11, values), "bot" if i % 2 else "human")
    path = tmp_path / "small.idx"
    index.save(path)
    return index, path


class TestPersistence:
    def test_seed_outside_u64_rejected(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                LshIndex(BandingPlan(0.5, 4, 2), 8, seed)

    def test_non_str_id_is_refused_before_save(self, tmp_path):
        # Stored, such an id would fail only when the index is saved.
        index = fresh_index(num_perm=8)
        with pytest.raises(ValueError, match="^user_id must be a str, got 7$"):
            index.insert(MinHashSignature(7, 8, 1, np.zeros(8, dtype=np.uint64)), "bot")
            index.save(tmp_path / "int-id.idx")
        assert len(index) == 0

    def test_failed_save_leaves_no_file(self, tmp_path):
        index = fresh_index(num_perm=8)
        index.insert(MinHashSignature("\ud800", 8, 1, np.zeros(8, dtype=np.uint64)), "bot")
        path = tmp_path / "bad.idx"
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate is not UTF-8
            index.save(path)
        assert not path.exists()

    def test_file_follows_documented_layout(self, tmp_path):
        ids = ("aa", "été", "", "z" * 300)
        index, path = small_index(tmp_path, ids)
        fields, body = read_index_file(path)
        assert fields.pop("checksum")
        assert fields == {"alphabets": ["B3", "B9"], "bands": 4, "k_shingle": 3, "num_perm": 8,
                          "rows": 2, "seed": 11, "threshold": 0.5, "users": 4}
        raw = [uid.encode("utf-8") for uid in ids]
        offsets = np.cumsum([0] + [len(r) for r in raw]).astype("<u8")
        labels = np.array([0, 1, 0, 1], dtype=np.uint8)
        values = index._values[:4].astype("<u8")
        assert body == offsets.tobytes() + b"".join(raw) + labels.tobytes() + values.tobytes()
        # No band digests are stored.
        assert len(body) == 8 * 5 + sum(map(len, raw)) + 4 + 4 * 8 * 8

    def test_round_trip_restores_every_column(self, tmp_path):
        @given(st.data())
        @settings(max_examples=60, deadline=None)
        def check(data):
            index, entries, probes = draw_index_parts(data)
            index.insert_many([sig for sig, _ in entries], [label for _, label in entries])
            index.recipe = data.draw(st.sampled_from([None, (("B3",), 4), (("B5", "B9"), 7)]))
            path = tmp_path / "drawn.idx"
            index.save(path)
            loaded = LshIndex.load(path)
            assert (loaded.plan, loaded.num_perm, loaded.seed) == (index.plan, index.num_perm, index.seed)
            assert loaded.recipe == index.recipe
            assert snapshot(loaded) == snapshot(index)
            for probe in probes:
                assert loaded.query(probe) == index.query(probe)
            for floor in (None, 0.0, 0.5):
                assert classify_many(loaded, probes, floor) == classify_many(index, probes, floor)

        check()

    def test_load_digests_nothing_until_a_query(self, tmp_path, monkeypatch):
        # Loading stores the columns; the first query digests all ten rows
        # in one call, beside its own signature, and the digests are those
        # of the original.
        index = fresh_index(num_perm=8)
        rng = np.random.Generator(np.random.Philox(key=18))
        for i in range(10):
            index.insert(MinHashSignature(f"u{i}", 8, 1, rng.integers(0, 1 << 61, 8, dtype=np.uint64)),
                         "bot")
        path = tmp_path / "index.bin"
        index.save(path)
        probe = MinHashSignature("p", 8, 1, index._values[3])
        want = index.query(probe)
        calls = counting_digests(monkeypatch)
        loaded = LshIndex.load(path)
        assert calls == []
        assert loaded.query(probe) == want
        assert calls == [(8,), (10, 8)]
        np.testing.assert_array_equal(loaded._lookup[0], index.band_digests(index._values[:10]))

    def test_long_id_round_trips(self, tmp_path):
        uid = "é" * 35_000  # 70,000 UTF-8 bytes
        index, path = small_index(tmp_path, ("short", uid, "end"))
        loaded = LshIndex.load(path)
        assert loaded.labels == index.labels == {"short": "human", uid: "bot", "end": "human"}

    def test_round_trip_queries_identical(self, tmp_path):
        index = fresh_index(threshold=0.3, num_perm=64, seed=9)
        rng = np.random.Generator(np.random.Philox(key=14))
        probes = []
        for i in range(40):
            a, b = make_set_pair(0.6, 80, rng)
            values = minhash(a, 64, 9).values
            index.insert(MinHashSignature(f"u{i}", 64, 9, values), "bot" if i % 2 else "human")
            probes.append(minhash(b, 64, 9))
        path = tmp_path / "index.bin"
        index.save(path)
        loaded = LshIndex.load(path)
        assert loaded.plan == index.plan
        assert loaded.labels == index.labels
        for probe in probes:
            assert loaded.query(probe) == index.query(probe)

    def test_save_is_stable_across_round_trips(self, tmp_path):
        index = fresh_index(num_perm=32)
        rng = np.random.Generator(np.random.Philox(key=15))
        for i in range(10):
            a, _ = make_set_pair(0.4, 50, rng)
            index.insert(MinHashSignature(f"u{i}", 32, 1, minhash(a, 32, 1).values), "bot")
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        index.save(p1)
        LshIndex.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an index at all")
        with pytest.raises(FormatError):
            LshIndex.load(path)

    def test_version_1_file_asks_for_rebuild(self, tmp_path):
        path = tmp_path / "v1.idx"
        path.write_bytes(struct.pack("<4sBdIIIQQ", b"BDIX", 1, 0.4, 32, 4, 128, 42, 0))
        with pytest.raises(FormatError, match="version 1 .*rebuild the index with index-build"):
            LshIndex.load(path)

    def test_load_rejects_duplicate_user(self, tmp_path):
        _, path = small_index(tmp_path, ("aa", "bb"))
        fields, body = read_index_file(path)
        second_id = 8 * 3 + 2
        assert body[second_id : second_id + 2] == b"bb"
        write_index_file(path, fields, body[:second_id] + b"aa" + body[second_id + 2 :])
        with pytest.raises(FormatError, match="twice"):
            LshIndex.load(path)

    def test_load_rejects_truncation(self, tmp_path):
        # Cut at every byte, a file raises FormatError and nothing else.
        _, path = small_index(tmp_path, ("aa", "été"))
        blob = path.read_bytes()
        cut = tmp_path / "cut.idx"
        for end in range(len(blob)):
            cut.write_bytes(blob[:end])
            with pytest.raises(FormatError):
                LshIndex.load(cut)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        _, path = small_index(tmp_path)
        blob = path.read_bytes()
        body_at = len(blob) - len(read_index_file(path)[1])
        bad = tmp_path / "bad.idx"

        @given(st.integers(0, len(blob) - 1), st.integers(0, 7))
        @settings(max_examples=200, deadline=None)
        def check(at, bit):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            bad.write_bytes(bytes(flipped))
            if at < body_at:  # the header may then fail to parse first
                with pytest.raises(FormatError):
                    LshIndex.load(bad)
            else:
                with pytest.raises(FormatError, match="checksum"):
                    LshIndex.load(bad)

        check()

    def test_checksum_covers_the_header_fields(self, tmp_path):
        # A seed changed in place still parses, but would sketch every
        # query under the wrong hash family.
        _, path = small_index(tmp_path)
        blob = path.read_bytes()
        assert blob.count(b'"seed": 11') == 1
        path.write_bytes(blob.replace(b'"seed": 11', b'"seed": 12'))
        with pytest.raises(FormatError, match="checksum"):
            LshIndex.load(path)

    @pytest.mark.parametrize(
        "name,kind",
        [(name, kind) for name in ("bands", "rows", "num_perm", "seed", "users", "k_shingle")
         for kind in (float, bool)]
        + [("threshold", kind) for kind in (bool, int, str)] + [("alphabets", str)],
    )
    def test_header_field_of_wrong_type(self, tmp_path, name, kind):
        # e.g. "bands": 4.0, "seed": true, "threshold": 0
        _, path = small_index(tmp_path)
        fields, body = read_index_file(path)
        fields[name] = kind(fields[name])
        write_index_file(path, fields, body)
        with pytest.raises(FormatError, match=f"wrong type for {name}"):
            LshIndex.load(path)

    @pytest.mark.parametrize(
        "changes",
        [
            {"threshold": 0.0},
            {"threshold": 2.0},
            {"threshold": float("nan")},
            {"bands": 3},
            {"bands": 8, "rows": 2},
            {"bands": 0, "rows": 0, "num_perm": 0},
            {"bands": 8193, "rows": 1, "num_perm": 8193},
            {"seed": -1},
            {"seed": 1 << 64},
            {"users": -1},
            {"users": 2},
            {"users": 1 << 62},
            {"alphabets": None},
            {"k_shingle": None},
            {"k_shingle": 0},
            {"alphabets": []},
            {"alphabets": ["B7"]},
            {"alphabets": ["B3", "B3"]},
            {"alphabets": [3]},
            {"alphabets": [["B3"]]},
        ],
        ids=repr,
    )
    def test_bad_header_value_raises_format_error(self, tmp_path, changes):
        _, path = small_index(tmp_path)
        fields, body = read_index_file(path)
        write_index_file(path, fields | changes, body)
        with pytest.raises(FormatError):
            LshIndex.load(path)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_header_must_hold_exactly_its_fields(self, tmp_path, change):
        _, path = small_index(tmp_path)
        fields, body = read_index_file(path)
        if change == "drop":
            del fields["users"]
        else:
            fields["max_tweets"] = 40
        write_index_file(path, fields, body)
        with pytest.raises(FormatError, match="fields must be"):
            LshIndex.load(path)

    def test_header_that_is_not_a_json_object(self, tmp_path):
        path = tmp_path / "bad.idx"
        for header in (b"[1, 2]", b"{", b"\xff\xfe", b"[" * 100_000):
            path.write_bytes(struct.pack("<4sBI", b"BDIX", 2, len(header)) + header)
            with pytest.raises(FormatError, match="corrupt index header"):
                LshIndex.load(path)

    def test_body_that_does_not_fit_its_offsets(self, tmp_path):
        # Each body below carries a valid checksum: the checks after it
        # must still catch it.
        _, path = small_index(tmp_path, ("aa", "bb"))
        fields, body = read_index_file(path)
        offsets = np.frombuffer(body[:24], "<u8")
        rest = body[24:]
        bad_bodies = {
            "first offset": np.array([1, 2, 4], "<u8").tobytes() + rest,
            "falling offsets": np.array([0, 5, 4], "<u8").tobytes() + rest,
            "offsets past the body": np.array([0, 2, 1 << 40], "<u8").tobytes() + rest,
            "id not UTF-8": offsets.tobytes() + b"\xff" + rest[1:],
            "label code 2": body[: 24 + 4] + b"\x02" + body[24 + 5 :],
            "trailing byte": body + b"\x00",
        }
        for name, bad in bad_bodies.items():
            write_index_file(path, fields, bad)
            with pytest.raises(FormatError):
                LshIndex.load(path)
