import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import seqcore as sq


def brute_radical_inverse(i, base):
    # independent digit-string oracle
    digits = []
    while i > 0:
        digits.append(i % base)
        i //= base
    return sum(d * base ** -(k + 1) for k, d in enumerate(digits))


def reference_sobol_raw(indices, dim):
    """Random-access reference: XOR the direction integers selected by the
    bits of each index's Gray code, one masked pass per bit."""
    V = sq._direction_matrix(sq.DirectionTable.embedded(), dim, sq.SOBOL_BITS)
    g = sq.gray_code(np.asarray(indices, dtype=np.uint64))
    acc = np.zeros((g.size, dim), dtype=np.uint64)
    for k in range(sq.SOBOL_BITS):
        remaining = g >> np.uint64(k)
        if not remaining.any():
            break
        sel = (remaining & np.uint64(1)).astype(bool)
        acc[sel] ^= V[:, k]
    return acc


def reference_owen_scramble(raw, seed, bits=sq.SOBOL_BITS):
    """Reference: one pass per coordinate and level, where the flip of bit
    k hashes the k-1 bits above it."""
    mix, u64 = sq._splitmix64, np.uint64
    raw = np.ascontiguousarray(raw, dtype=np.uint64)
    out = np.zeros_like(raw)
    seed_key = mix(u64(seed & sq._MASK64))
    for j in range(raw.shape[1]):
        col = raw[:, j]
        dim_key = mix(seed_key ^ u64((j + 1) * 0x9E3779B97F4A7C15 & sq._MASK64))
        for k in range(1, bits + 1):
            level_key = mix(dim_key ^ u64(k))
            flip = mix(level_key ^ (col >> u64(bits - k + 1))) & u64(1)
            bit = (col >> u64(bits - k)) & u64(1)
            out[:, j] |= (bit ^ flip) << u64(bits - k)
    return out * 2.0**-bits


def reference_uniform_points(indices, dim, seed):
    """Reference: the counter-based uniform baseline, one coordinate at a time."""
    mix, u64 = sq._splitmix64, np.uint64
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((idx.size, dim))
    seed_key = mix(u64(seed & sq._MASK64))
    for j in range(dim):
        dim_key = mix(seed_key ^ u64((j + 1) * 0xD1B54A32D192ED03 & sq._MASK64))
        out[:, j] = (mix(dim_key ^ (idx * u64(0x9E3779B97F4A7C15))) >> u64(11)) * 2.0**-53
    return out


class TestRadicalInverse:
    def test_single_digit_reflection(self):
        assert sq.radical_inverse(1, 2) == 0.5

    def test_two_binary_digits(self):
        assert sq.radical_inverse(3, 2) == 0.75

    def test_base_three(self):
        # digits of 5 in base 3 are (2, 1) least-significant first -> 2/3 + 1/9
        expected = brute_radical_inverse(5, 3)
        assert expected == pytest.approx(7.0 / 9.0, abs=1e-15)
        assert sq.radical_inverse(5, 3) == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 10**9), st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_matches_brute_force(self, i, base):
        assert sq.radical_inverse(i, base) == pytest.approx(
            brute_radical_inverse(i, base), abs=1e-15
        )

    @given(st.integers(0, 10**6), st.integers(2, 50))
    def test_range(self, i, base):
        v = sq.radical_inverse(i, base)
        assert 0.0 <= v < 1.0

    def test_dyadic_exact(self):
        # base-2 values are exact dyadic rationals
        for i in range(1, 1 << 12):
            assert sq.radical_inverse(i, 2) == brute_radical_inverse(i, 2)

    def test_vectorized_matches_scalar(self):
        idx = np.arange(0, 2000)
        for base in (2, 3, 7):
            vec = sq.radical_inverse_many(idx, base)
            ref = np.array([sq.radical_inverse(int(i), base) for i in idx])
            np.testing.assert_array_equal(vec, ref)

    def test_bad_base(self):
        with pytest.raises(ValueError):
            sq.radical_inverse(3, 1)

    def test_keeps_index_shape(self):
        idx = np.arange(12).reshape(3, 4)
        ref = [[sq.radical_inverse(int(i), 3) for i in row] for row in idx]
        np.testing.assert_array_equal(sq.radical_inverse_many(idx, 3), ref)


class TestHalton:
    def test_zero_index_is_origin(self):
        np.testing.assert_array_equal(sq.halton_point(0, 3), np.zeros(3))

    def test_first_point(self):
        np.testing.assert_allclose(sq.halton_point(1, 2), [0.5, 1 / 3], atol=1e-15)

    def test_point_seven(self):
        expected = [brute_radical_inverse(7, 2), brute_radical_inverse(7, 3)]
        np.testing.assert_allclose(sq.halton_point(7, 2), expected, atol=1e-15)
        assert sq.halton_point(7, 2)[0] == 0.875

    def test_large_dimension_extends_prime_table(self):
        pt = sq.halton_point(5, 100)
        assert pt.shape == (100,)
        assert sq.primes(100)[-1] == 541

    @pytest.mark.parametrize("base_pos,b", [(0, 2), (1, 3), (2, 5)])
    def test_stratification(self, base_pos, b):
        # the first b^m points are exactly the fractions j/b^m, one per bin
        m = 3
        n = b**m
        pts = sq.halton_points(np.arange(n), base_pos + 1)[:, base_pos]
        scaled = pts * n
        bins = np.rint(scaled).astype(int)
        np.testing.assert_allclose(scaled, bins, atol=1e-9)
        assert sorted(bins) == list(range(n))

    @pytest.mark.parametrize("start", [0, 10**6, 2**40])
    def test_matches_scalar_across_block_edge(self, start):
        # rows on both sides of a block edge; the spread of digit counts in
        # one block ends its digit loop at a different pass than its neighbour's
        rows = sq._HALTON_ROWS
        idx = np.arange(start + rows - 40, start + rows + 40)
        idx[::7] = np.random.default_rng(start % 97).integers(0, 2**45, size=idx[::7].size)
        pts = sq.halton_points(np.concatenate([np.arange(rows - 80), idx]), 5)[rows - 80 :]
        ref = [[sq.radical_inverse(int(i), b) for b in sq.primes(5)] for i in idx]
        np.testing.assert_array_equal(pts, ref)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            sq.halton_points(np.arange(4), 0)
        with pytest.raises(ValueError, match="1-D"):
            sq.halton_points(np.arange(4).reshape(2, 2), 2)
        with pytest.raises(ValueError, match="nonnegative"):
            sq.halton_points([3, -1], 2)


class TestGrayCode:
    def test_values(self):
        assert sq.gray_code(0) == 0
        assert sq.gray_code(3) == 2
        assert sq.gray_code(13) == 11

    @given(st.integers(0, 2**40))
    def test_consecutive_differ_in_one_bit(self, i):
        diff = sq.gray_code(i) ^ sq.gray_code(i + 1)
        assert diff != 0 and diff & (diff - 1) == 0

    def test_is_bijection_on_range(self):
        n = 1 << 10
        vals = sq.gray_code(np.arange(n))
        assert len(np.unique(vals)) == n


class TestSobol:
    def test_index_zero_is_origin(self):
        np.testing.assert_array_equal(sq.sobol_point(0, 8), np.zeros(8))

    def test_first_dimension_gray_order(self):
        pts = sq.sobol_points(np.arange(4), 1).ravel()
        np.testing.assert_array_equal(pts, [0.0, 0.5, 0.75, 0.25])

    def test_matches_digital_construction(self):
        # brute force: bit-matrix multiply over F2 applied to the Gray code
        table = sq.DirectionTable.embedded()
        V = sq._direction_matrix(table, 6, sq.SOBOL_BITS)
        rng = np.random.default_rng(0)
        for i in map(int, rng.integers(0, 1 << 12, size=64)):
            g = sq.gray_code(i)
            acc = np.zeros(6, dtype=np.uint64)
            for k in range(sq.SOBOL_BITS):
                if (g >> k) & 1:
                    acc ^= V[:, k]
            np.testing.assert_array_equal(
                sq.sobol_point(i, 6), acc * 2.0**-sq.SOBOL_BITS
            )

    @pytest.mark.parametrize("m", [1, 4, 7, 10])
    def test_dyadic_stratification(self, m):
        n = 1 << m
        pts = sq.sobol_points(np.arange(n), 5)
        for j in range(5):
            bins = np.floor(pts[:, j] * n).astype(int)
            assert sorted(bins) == list(range(n))

    def test_matches_reference_implementation(self):
        scipy_qmc = pytest.importorskip("scipy.stats.qmc")
        ref = scipy_qmc.Sobol(d=16, scramble=False, bits=32).random(512)
        mine = sq.sobol_points(np.arange(512), 16)
        np.testing.assert_array_equal(mine, ref)

    def test_dimension_beyond_table(self):
        with pytest.raises(ValueError, match="max supported dimension 16"):
            sq.sobol_point(1, 17)

    def test_table_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "dirs.txt"
        lines = ["d s a m_i"]
        for row, (s, a, m) in enumerate(sq._EMBEDDED_ROWS):
            lines.append(f"{row + 2} {s} {a} " + " ".join(map(str, m)))
        path.write_text("\n".join(lines) + "\n")
        table = sq.DirectionTable.from_file(path)
        assert table == sq.DirectionTable.embedded()
        np.testing.assert_array_equal(
            sq.sobol_points(np.arange(64), 16, table),
            sq.sobol_points(np.arange(64), 16),
        )

    B = sq._BLOCK_ROWS

    @pytest.mark.parametrize("start", [0, 1, 128, 2**31 - 5])
    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B, B + 1, B + 2, 2 * B + 1])
    def test_range_matches_random_access(self, start, n):
        idx = np.arange(start, start + n)
        np.testing.assert_array_equal(sq.sobol_raw(idx, 16), reference_sobol_raw(idx, 16))

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1])
    def test_range_ending_at_last_index(self, n):
        idx = np.arange(2**sq.SOBOL_BITS - n, 2**sq.SOBOL_BITS)
        np.testing.assert_array_equal(sq.sobol_raw(idx, 7), reference_sobol_raw(idx, 7))

    @pytest.mark.parametrize("k", [3, 12, 13, 20])
    def test_range_across_power_of_two(self, k):
        idx = np.arange(2**k - 5, 2**k + self.B + 3)
        np.testing.assert_array_equal(sq.sobol_raw(idx, 16), reference_sobol_raw(idx, 16))

    @pytest.mark.parametrize(
        "idx",
        [
            np.arange(50, 0, -1),
            np.array([0, 2, 1, 3]),  # spans n - 1 but is not increasing
            np.arange(0, 200, 2),
            np.r_[np.arange(10), np.arange(11, 20)],
            np.array([7, 7, 7]),
            np.random.default_rng(2).integers(0, 2**32, size=300),
            np.array([], dtype=np.int64),
        ],
        ids=["reversed", "permuted", "stride-2", "gap", "repeated", "random", "empty"],
    )
    def test_other_index_arrays_take_random_access(self, idx):
        np.testing.assert_array_equal(sq.sobol_raw(idx, 5), reference_sobol_raw(idx, 5))

    def test_bad_indices(self):
        with pytest.raises(ValueError, match="1-D"):
            sq.sobol_raw(np.arange(4).reshape(2, 2), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            sq.sobol_raw([2, -1], 3)
        with pytest.raises(ValueError, match="< 2"):
            sq.sobol_raw([2**32], 3)

    def test_table_invariants_enforced(self):
        with pytest.raises(ValueError, match="odd"):
            sq.DirectionTable(degrees=(2,), coeffs=(1,), initials=((1, 2),))
        with pytest.raises(ValueError, match="odd|< 2"):
            sq.DirectionTable(degrees=(2,), coeffs=(1,), initials=((1, 5),))


class TestOwenScramble:
    def test_deterministic(self):
        raw = sq.sobol_raw(np.arange(100), 3)
        a = sq.owen_scramble(raw, seed=99)
        b = sq.owen_scramble(raw, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        raw = sq.sobol_raw(np.arange(100), 3)
        a = sq.owen_scramble(raw, seed=1)
        b = sq.owen_scramble(raw, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_preserves_dyadic_stratification(self, m):
        n = 1 << m
        raw = sq.sobol_raw(np.arange(n), 4)
        pts = sq.owen_scramble(raw, seed=7)
        for j in range(4):
            bins = np.floor(pts[:, j] * n).astype(int)
            assert sorted(bins) == list(range(n))

    def test_nestedness(self):
        # two coordinates sharing their first k bits share the flips of
        # those bits: scrambled values agree on the shared prefix
        a = np.array([[0b10110000_00000000_00000000_00000000]], dtype=np.uint64)
        b = np.array([[0b10111111_11111111_11111111_11111111]], dtype=np.uint64)
        sa = sq.owen_scramble(a, seed=5)[0, 0]
        sb = sq.owen_scramble(b, seed=5)[0, 0]
        ia = int(sa * 2.0**32)
        ib = int(sb * 2.0**32)
        # shared prefix: top 4 bits
        assert ia >> 28 == ib >> 28

    def test_range(self):
        raw = sq.sobol_raw(np.arange(512), 6)
        pts = sq.owen_scramble(raw, seed=3)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 2**10 - 1, 2**10, 2**10 + 1, 2**14 + 1, 2**20, 2**20 + 1]
    )
    def test_matches_per_level_loop(self, n):
        # n sets the prefix-table depth K = bit_length(n - 1), capped at 20
        d = 1 if n > 2**14 + 1 else 4
        raw = sq.sobol_raw(np.arange(n), d)
        np.testing.assert_array_equal(
            sq.owen_scramble(raw, 2024), reference_owen_scramble(raw, 2024)
        )

    @pytest.mark.parametrize("bits", [1, 8, 20, 32, 63])
    @pytest.mark.parametrize("n, d", [(1, 16), (7, 3), (1000, 16), (5000, 2)])
    def test_random_words_match_per_level_loop(self, bits, n, d):
        rng = np.random.default_rng(bits * 1000 + n)
        raw = rng.integers(0, 2**bits, size=(n, d), dtype=np.uint64)
        for seed in (0, -3, 2**64 + 5):
            np.testing.assert_array_equal(
                sq.owen_scramble(raw, seed, bits), reference_owen_scramble(raw, seed, bits)
            )

    def test_signed_integers_accepted(self):
        raw = sq.sobol_raw(np.arange(64), 3)
        np.testing.assert_array_equal(
            sq.owen_scramble(raw.astype(np.int64), 8), sq.owen_scramble(raw, 8)
        )

    def test_empty(self):
        assert sq.owen_scramble(np.zeros((0, 3), dtype=np.uint64), 1).shape == (0, 3)

    @pytest.mark.parametrize(
        "raw, bits, match",
        [
            (np.arange(8, dtype=np.uint64), 32, r"\(n, d\)"),
            (np.full((2, 2), 0.5), 32, "integers"),
            (np.array([[1, -1]]), 32, "nonnegative"),
            (np.array([[1, 2**32]], dtype=np.uint64), 32, "< 2\\^32"),
            (np.array([[1, 256]]), 8, "< 2\\^8"),
            (np.array([[1, 2]]), 0, "bits"),
            (np.array([[1, 2]]), 64, "bits"),
            (np.array([[1, 2]]), 70, "bits"),
        ],
        ids=["1-D", "float", "negative", "too-wide-32", "too-wide-8", "bits-0", "bits-64", "bits-70"],
    )
    def test_rejects_bad_input(self, raw, bits, match):
        with pytest.raises(ValueError, match=match):
            sq.owen_scramble(raw, 1, bits)

    def test_mean_star_discrepancy_published_value(self):
        # published mean over 32 scramblings: 0.001818 (d=4, N=1000,
        # burn-in 128); tolerance is wide because the seeds differ
        from lowdisc import discrepancy as disc

        spec = disc.KernelSpec("star")
        vals = [
            disc.discrepancy_single(
                spec,
                sq.generate(
                    sq.SequenceSpec("sobol-scrambled", 4, burn_in=128, seed=s), 1000
                ),
            )
            for s in range(32)
        ]
        assert np.mean(vals) == pytest.approx(0.001818, rel=0.10)


class TestGenerate:
    def test_halton_first_point(self):
        pts = sq.generate(sq.SequenceSpec("halton", 2), 1)
        np.testing.assert_array_equal(pts, [[0.0, 0.0]])

    def test_burn_in_shifts_indices(self):
        spec = sq.SequenceSpec("halton", 3, burn_in=128)
        direct = sq.halton_points(np.arange(128, 228), 3)
        np.testing.assert_array_equal(sq.generate(spec, 100), direct)

    def test_vdc(self):
        pts = sq.generate(sq.SequenceSpec("vdc", 1), 4)
        np.testing.assert_array_equal(pts.ravel(), [0.0, 0.5, 0.25, 0.75])

    @pytest.mark.parametrize(
        "spec",
        [
            sq.SequenceSpec("halton", 3, burn_in=5),
            sq.SequenceSpec("sobol", 4),
            sq.SequenceSpec("sobol-scrambled", 2, seed=11),
            sq.SequenceSpec("uniform", 2, burn_in=3, seed=4),
        ],
        ids=lambda s: s.kind,
    )
    def test_prefix_extensibility(self, spec):
        small = sq.generate(spec, 17)
        big = sq.generate(spec, 60)
        np.testing.assert_array_equal(small, big[:17])

    @pytest.mark.parametrize("n", [1, 5, sq._BLOCK_ROWS + 3])
    def test_uniform_matches_per_coordinate_form(self, n):
        idx = np.arange(11, 11 + n)
        np.testing.assert_array_equal(
            sq.generate(sq.SequenceSpec("uniform", 6, burn_in=11, seed=5), n),
            reference_uniform_points(idx, 6, 5),
        )

    def test_classical_range_half_open(self):
        for spec in [
            sq.SequenceSpec("halton", 4),
            sq.SequenceSpec("sobol", 4),
            sq.SequenceSpec("uniform", 4, seed=0),
        ]:
            pts = sq.generate(spec, 300)
            assert pts.min() >= 0.0 and pts.max() < 1.0

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_uniform_prefix_property(self, n1, n2):
        spec = sq.SequenceSpec("uniform", 2, seed=9)
        lo, hi = min(n1, n2), max(n1, n2)
        np.testing.assert_array_equal(
            sq.generate(spec, lo), sq.generate(spec, hi)[:lo]
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="seed"):
            sq.SequenceSpec("uniform", 2)
        with pytest.raises(ValueError, match="seed"):
            sq.SequenceSpec("halton", 2, seed=3)
        with pytest.raises(ValueError, match="model_path"):
            sq.SequenceSpec("neural", 2)
        with pytest.raises(ValueError, match="one-dimensional"):
            sq.SequenceSpec("vdc", 2)
        with pytest.raises(ValueError, match="kind"):
            sq.SequenceSpec("lattice", 2)
        with pytest.raises(ValueError):
            sq.generate(sq.SequenceSpec("halton", 2), 0)


class TestPointFiles:
    def test_csv_roundtrip_exact(self, tmp_path):
        pts = sq.generate(sq.SequenceSpec("halton", 3, burn_in=11), 50)
        path = tmp_path / "p.csv"
        sq.save_points_csv(pts, path)
        np.testing.assert_array_equal(sq.load_points_csv(path), pts)

    def test_bin_roundtrip_exact(self, tmp_path):
        pts = sq.generate(sq.SequenceSpec("sobol", 5, burn_in=7), 33)
        path = tmp_path / "p.bin"
        sq.save_points_bin(pts, path)
        np.testing.assert_array_equal(sq.load_points_bin(path), pts)

    def test_bin_header(self, tmp_path):
        path = tmp_path / "p.bin"
        sq.save_points_bin(np.zeros((2, 3)), path)
        raw = path.read_bytes()
        assert raw[:4] == b"LDP1"
        assert len(raw) == 16 + 2 * 3 * 8

    def test_load_sniffs_format(self, tmp_path):
        pts = np.array([[0.25, 0.5]])
        sq.save_points_csv(pts, tmp_path / "a.csv")
        sq.save_points_bin(pts, tmp_path / "a.bin")
        np.testing.assert_array_equal(sq.load_points(tmp_path / "a.csv"), pts)
        np.testing.assert_array_equal(sq.load_points(tmp_path / "a.bin"), pts)

    @pytest.mark.parametrize("content", ["", "\n", "  \n\t\n"], ids=["empty", "newline", "blank"])
    def test_empty_csv(self, tmp_path, content):
        path = tmp_path / "nothing.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match="nothing.csv.*empty"):
            sq.load_points(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\0" * 24)
        with pytest.raises(ValueError, match="magic"):
            sq.load_points_bin(path)

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"LDP1\x01\0\0")
        with pytest.raises(ValueError, match="stub.bin.*header"):
            sq.load_points_bin(path)

    def test_body_not_whole_float64(self, tmp_path):
        path = tmp_path / "ragged.bin"
        sq.save_points_bin(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="ragged.bin.*float64"):
            sq.load_points_bin(path)


class TestSplitSeed:
    def test_stable(self):
        assert sq.split_seed(1, "a") == sq.split_seed(1, "a")

    def test_labels_distinguish(self):
        seen = {sq.split_seed(1), sq.split_seed(1, "a"), sq.split_seed(1, "b"),
                sq.split_seed(1, "a", 0), sq.split_seed(2, "a")}
        assert len(seen) == 5


def reference_points(kind, dim, idx, seed=None):
    """Points of raw indices ``idx`` from the references above, one formula
    per kind and no row blocks."""
    if kind in ("vdc", "halton"):
        return np.array([[sq.radical_inverse(int(i), b) for b in sq.primes(dim)] for i in idx])
    if kind == "sobol":
        return reference_sobol_raw(idx, dim) * 2.0**-sq.SOBOL_BITS
    if kind == "sobol-scrambled":
        return reference_owen_scramble(reference_sobol_raw(idx, dim), seed)
    return reference_uniform_points(idx, dim, seed)


def edge_sizes(block):
    return [1, block - 1, block, block + 1, 2 * block + 1]


class TestRowBlocks:
    """``generate`` fills its output through one row-block driver; every
    kind must give the same points as its one-piece reference."""

    CLASSICAL = [
        ("vdc", 1, None, sq._HALTON_ROWS),
        ("halton", 3, None, sq._HALTON_ROWS),
        ("sobol", 16, None, sq._BLOCK_ROWS),
        ("sobol-scrambled", 5, 2024, sq._BLOCK_ROWS),
        ("uniform", 4, 77, sq._BLOCK_ROWS),
    ]

    @pytest.mark.parametrize("burn_in", [0, 128])
    @pytest.mark.parametrize("kind, dim, seed, block", CLASSICAL, ids=[c[0] for c in CLASSICAL])
    def test_matches_reference_at_block_edges(self, kind, dim, seed, block, burn_in):
        sizes = edge_sizes(block)
        ref = reference_points(kind, dim, np.arange(burn_in, burn_in + sizes[-1]), seed)
        for n in sizes:
            pts = sq.generate(sq.SequenceSpec(kind, dim, burn_in=burn_in, seed=seed), n)
            np.testing.assert_array_equal(pts, ref[:n], err_msg=f"n={n}")

    @pytest.mark.parametrize("burn_in", [0, 128])
    @pytest.mark.parametrize("n", edge_sizes(sq._BLOCK_ROWS))
    @pytest.mark.parametrize(
        "bands, hidden, layers, d",
        # the wider model rounds 4096-row block products apart from whole-array ones
        [(2, 8, 2, 2), (4, 48, 3, 3)],
        ids=["tiny", "block-sensitive"],
    )
    def test_neural_matches_whole_array_forward(self, tmp_path, n, burn_in, bands, hidden, layers, d):
        from lowdisc import neuralnet as nn

        model = nn.init_mlp(nn.EncodingConfig(bands=bands, n_norm=2**14), d, hidden, layers, seed=5)
        nn.save_model(model, tmp_path / "m.nn")
        spec = sq.SequenceSpec("neural", d, burn_in=burn_in, model_path=str(tmp_path / "m.nn"))
        whole = nn.forward(model, np.arange(burn_in + 1, burn_in + n + 1))
        np.testing.assert_array_equal(sq.generate(spec, n), whole)

    def test_neural_warns_once_per_call(self, tmp_path):
        from lowdisc import neuralnet as nn

        model = nn.init_mlp(nn.EncodingConfig(bands=1, n_norm=10), 1, 4, 2, seed=0)
        nn.save_model(model, tmp_path / "m.nn")
        spec = sq.SequenceSpec("neural", 1, burn_in=5, model_path=str(tmp_path / "m.nn"))
        n = 2 * sq._BLOCK_ROWS + 1
        with pytest.warns(nn.ExtrapolationWarning) as record:
            sq.generate(spec, n)
        assert [str(w.message) for w in record] == [
            f"evaluating indices up to {5 + n} beyond the trained normalization length 10"
        ]

    @pytest.mark.parametrize("kind, seed", [("sobol", None), ("sobol-scrambled", 1), ("halton", None), ("uniform", 1)])
    def test_no_n_sized_temporaries(self, kind, seed):
        # no index array and no full-size word array next to the result
        import tracemalloc

        spec = sq.SequenceSpec(kind, 8, burn_in=7, seed=seed)
        sq.generate(spec, 2)  # warm the caches
        n = 1 << 17
        tracemalloc.start()
        try:
            pts = sq.generate(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Owen's prefix tables hold 2^17 uint32 flips per coordinate at this n
        tables = 4 * 8 * n if kind == "sobol-scrambled" else 0
        assert peak < pts.nbytes + tables + (2 << 20)

    def test_sobol_points_hold_no_word_array(self):
        import tracemalloc

        n = 1 << 17
        tracemalloc.start()
        try:
            pts = sq.sobol_points(np.arange(5, 5 + n), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pts.nbytes  # the index array plus the points

    def test_sobol_index_limit(self):
        top = 2**sq.SOBOL_BITS
        pts = sq.generate(sq.SequenceSpec("sobol", 3, burn_in=top - 9000), 9000)
        np.testing.assert_array_equal(pts, reference_points("sobol", 3, np.arange(top - 9000, top)))
        with pytest.raises(ValueError, match="< 2\\^32"):
            sq.generate(sq.SequenceSpec("sobol", 3, burn_in=top - 9000), 9001)


class TestPointFileErrors:
    @pytest.mark.parametrize(
        "content, match",
        [("0.1,0.2\n0.3\n", "number of columns"), ("0.1,0.2\n0.3,abc\n", "abc")],
        ids=["ragged", "not-a-number"],
    )
    def test_csv_errors_name_the_file(self, tmp_path, content, match):
        path = tmp_path / "broken.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"broken.csv: .*{match}"):
            sq.load_points(path)


def assert_points_or_named_error(load, path):
    """A loader either returns finite unit-cube points or raises a
    ValueError that names the file."""
    try:
        pts = load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert pts.ndim == 2 and pts.size and pts.dtype == np.float64
    assert ((pts >= 0.0) & (pts <= 1.0)).all()


class TestPointFileBoundary:
    @pytest.mark.parametrize(
        "content", ["0.1,nan\n", "0.1,7\n", "0.5,0.5\n-inf,0.2\n", "# only a comment\n"],
        ids=["nan", "outside", "minus-inf", "no-points"])
    def test_bad_csv_points_name_the_file(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match="bad.csv: "):
            sq.load_points(path)

    @pytest.mark.parametrize("points", [[[0.2, -0.5]], [[np.nan]], np.zeros((0, 3))],
                             ids=["outside", "nan", "no-points"])
    def test_bad_bin_points_name_the_file(self, tmp_path, points):
        path = tmp_path / "bad.bin"
        sq.save_points_bin(np.asarray(points, dtype=float), path)
        with pytest.raises(ValueError, match="bad.bin: "):
            sq.load_points(path)

    @given(text=st.text(alphabet="0123456789.,-+e naif#\n\t\x00x", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_csv_text(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_text(text)
        assert_points_or_named_error(sq.load_points_csv, path)

    @given(data=st.binary(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_csv_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_bytes(data)
        assert_points_or_named_error(sq.load_points_csv, path)

    @given(draw=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bin_damaged(self, tmp_path_factory, draw):
        path = tmp_path_factory.mktemp("bin") / "p.bin"
        sq.save_points_bin(sq.generate(sq.SequenceSpec("halton", 3), 4), path)
        data = bytearray(path.read_bytes())
        for pos, mask in draw.draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)),
                                            max_size=4)):
            data[pos] ^= mask
        path.write_bytes(bytes(data[:draw.draw(st.integers(0, len(data)))]))
        assert_points_or_named_error(sq.load_points_bin, path)
