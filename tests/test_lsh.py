import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert index.bucket_entry_count() == n * index.plan.bands

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
        with pytest.raises(ValueError):
            LshIndex(BandingPlan(0.4, 3, 5), 128, 1)


class TestQuery:
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


class TestPersistence:
    def test_seed_outside_u64_rejected(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                LshIndex(BandingPlan(0.5, 4, 2), 8, seed)

    def test_failed_save_leaves_no_file(self, tmp_path):
        index = fresh_index()
        index.seed = -1  # cannot be packed as u64
        path = tmp_path / "bad.idx"
        with pytest.raises(struct.error):
            index.save(path)
        assert not path.exists()

    def test_save_of_unstorable_id_leaves_no_file(self, tmp_path):
        index = fresh_index(num_perm=8)
        values = np.arange(8, dtype=np.uint64)
        index.insert(MinHashSignature("short", 8, 1, values), "bot")
        index.insert(MinHashSignature("x" * 70_000, 8, 1, values), "bot")  # id length is a u16
        path = tmp_path / "bad.idx"
        with pytest.raises(struct.error):
            index.save(path)
        assert not path.exists()

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

    def test_load_rejects_duplicate_user(self, tmp_path):
        index = fresh_index(num_perm=32)
        rng = np.random.Generator(np.random.Philox(key=17))
        for uid in ("aa", "bb"):
            a, _ = make_set_pair(0.4, 50, rng)
            index.insert(MinHashSignature(uid, 32, 1, minhash(a, 32, 1).values), "bot")
        path = tmp_path / "index.bin"
        index.save(path)
        blob = bytearray(path.read_bytes())
        header = struct.calcsize("<4sBdIIIQQ")
        second_id = header + (3 + 2 + 8 * (32 + index.plan.bands)) + 3
        assert blob[second_id : second_id + 2] == b"bb"
        blob[second_id : second_id + 2] = b"aa"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="twice"):
            LshIndex.load(path)

    def test_load_rejects_truncation(self, tmp_path):
        index = fresh_index(num_perm=32)
        rng = np.random.Generator(np.random.Philox(key=16))
        a, _ = make_set_pair(0.4, 50, rng)
        index.insert(MinHashSignature("u0", 32, 1, minhash(a, 32, 1).values), "bot")
        path = tmp_path / "index.bin"
        index.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            LshIndex.load(path)
