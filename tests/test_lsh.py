import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdna.classify import classify_many
from botdna.errors import DuplicateUser, FormatError, IncompatibleSignatures
from botdna.lsh import (
    _DENSE_SCAN_SHARE,
    BandingPlan,
    LshIndex,
    Neighbor,
    _gauss_legendre,
    lsh_plan,
)
from botdna.minhash import MinHashSignature, minhash

from conftest import draw_index_parts, exact_jaccard, make_set_pair


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
        assert index._digests[: len(index)].shape == (n, index.plan.bands)

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


def snapshot(index):
    """Everything an index shows: ids, labels, columns and the ordinal map."""
    n = len(index)
    return (
        list(index._user_ids),
        index.labels,
        dict(index._ordinals),
        index._values[:n].tobytes(),
        index._digests[:n].tobytes(),
    )


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

    def test_bad_block_leaves_index_unchanged(self, monkeypatch):
        # The inputs come as generators through blocks of one to three
        # rows, so a bad signature may follow whole blocks already staged.
        seen = set()

        @given(st.data())
        @settings(max_examples=100, deadline=None)
        def check(data):
            parts, entries, probes = draw_index_parts(data)
            rows = data.draw(st.integers(1, 3), label="rows per block")
            monkeypatch.setattr("botdna.lsh.ROW_CACHE_BYTES", rows * 8 * parts.num_perm)
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
                if at >= rows:
                    seen.add("after a staged block")
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
        assert seen == {"after a staged block"}

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
        num_perm = data.draw(st.sampled_from([1, 2, 6, 8, 12, 128]), label="num_perm")
        bands = data.draw(
            st.sampled_from([b for b in range(1, num_perm + 1) if num_perm % b == 0]), label="bands"
        )
        index = LshIndex(BandingPlan(0.5, bands, num_perm // bands), num_perm, seed=5)
        n = data.draw(st.integers(0, 5), label="n")
        # Full u64 range, so the fold below 2**61 - 1 is exercised too.
        rows = st.lists(st.integers(0, (1 << 64) - 1), min_size=num_perm, max_size=num_perm)
        matrix = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.uint64)
        matrix = matrix.reshape(n, num_perm)
        got = index.band_digests(matrix)
        assert got.shape == (n, bands) and got.dtype == np.uint64
        for row, digests in zip(matrix, got):
            np.testing.assert_array_equal(digests, index.band_digests(row))


class TestNeighborVotes:
    def test_equals_counting_query_neighbors(self, monkeypatch):
        @given(st.data())
        @settings(max_examples=100, deadline=None)
        def check(data):
            parts, entries, probes = draw_index_parts(data)
            rows = data.draw(st.integers(1, 4), label="rows per block")
            monkeypatch.setattr("botdna.lsh.ROW_CACHE_BYTES", rows * 8 * parts.num_perm)
            index = sequential(parts, entries)
            for floor in (0.0, 0.5, index.plan.threshold, 1.0):
                want = []
                for probe in probes:
                    kept = [nb for nb in index.query(probe) if nb.jaccard >= floor]
                    want.append((len(kept), sum(nb.label == "bot" for nb in kept)))
                assert index.neighbor_votes(iter(probes), floor) == want

        check()


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

        With rows=1, band b of values v digests to c[b]*v[b] mod p + o[b];
        read c and o back through band_digests and solve for a value whose
        band-b2 digest equals the all-zero signature's band-b1 one.
        """
        prime = (1 << 61) - 1
        index = LshIndex(BandingPlan(0.01, num_perm, 1), num_perm, seed=3)
        offsets = index.band_digests(np.zeros(num_perm, dtype=np.uint64))
        coeffs = index.band_digests(np.ones(num_perm, dtype=np.uint64)) - offsets
        gaps = {
            (b1, b2): (int(offsets[b1]) - int(offsets[b2])) % (1 << 64)
            for b1 in range(num_perm)
            for b2 in range(num_perm)
            if b1 != b2
        }
        (b1, b2), gap = next((pair, gap) for pair, gap in gaps.items() if 0 < gap < prime)
        values = np.ones(num_perm, dtype=np.uint64)
        values[b2] = gap * pow(int(coeffs[b2]), -1, prime) % prime
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
        # Querying between the two insert stages checks the lazy re-sort.
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
                    expected = [
                        Neighbor(
                            sig.user_id,
                            label,
                            np.count_nonzero(sig.values == probe.values) / index.num_perm,
                        )
                        for sig, label in inserted
                        if np.any(index.band_digests(sig.values) == want)
                    ]
                    assert index.query(probe) == expected

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

    def test_load_digests_in_blocks(self, tmp_path, monkeypatch):
        # Three signatures per band-digest call: the blocks must line up.
        index = fresh_index(num_perm=8)
        rng = np.random.Generator(np.random.Philox(key=18))
        for i in range(10):
            index.insert(MinHashSignature(f"u{i}", 8, 1, rng.integers(0, 1 << 61, 8, dtype=np.uint64)),
                         "bot")
        path = tmp_path / "index.bin"
        index.save(path)
        monkeypatch.setattr("botdna.lsh.ROW_CACHE_BYTES", 3 * 8 * 8)
        calls = []
        band_digests = LshIndex.band_digests
        monkeypatch.setattr(LshIndex, "band_digests",
                            lambda self, values: calls.append(len(values)) or band_digests(self, values))
        loaded = LshIndex.load(path)
        assert calls == [3, 3, 3, 1]
        np.testing.assert_array_equal(loaded._digests[:10], index.band_digests(index._values[:10]))

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
