import numpy as np
import pytest

from mlqmc_eig import (
    GeneratingVector,
    default_generating_vector,
    lattice_point,
    load_generating_vector,
    random_shift,
    shift_and_center,
    shift_average_and_variance,
)
from qmc_diagnostics import lattice_points, max_nn_distance, star_discrepancy_bruteforce


class TestGeneratingVector:
    def test_load_two_line_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1\n182667\n")
        z = load_generating_vector(path, n_max=2 ** 20)
        assert np.array_equal(z.z, [1, 182667])

    def test_header_lines_skipped(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("# comment\n1\n# another\n3\n")
        z = load_generating_vector(path, n_max=8)
        assert np.array_equal(z.z, [1, 3])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("# only a header\n")
        with pytest.raises(ValueError):
            load_generating_vector(path, n_max=8)

    def test_min_dimension_enforced(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1\n3\n")
        with pytest.raises(ValueError):
            load_generating_vector(path, min_dimension=3, n_max=8)

    def test_n_max_from_conventional_name(self, tmp_path):
        path = tmp_path / "lattice-7-1024-65536.4"
        path.write_text("1\n3\n5\n7\n")
        assert load_generating_vector(path).n_max == 65536

    def test_components_beyond_length_rejected(self, zvec):
        with pytest.raises(ValueError):
            zvec.components(len(zvec) + 1)

    def test_bundled_vector_contract(self, zvec):
        assert len(zvec) >= 64
        assert zvec.n_max == 2 ** 20
        assert np.array_equal(zvec.z[:2], [1, 182667])
        assert np.all(zvec.z % 2 == 1)
        assert np.all((0 < zvec.z) & (zvec.z < zvec.n_max))

    def test_builtin_vector_is_the_korobov_rule(self):
        # z_1 = 1, z_(j+1) = 182667 z_j mod 2^20, by repeated multiplication
        expected = [1]
        while len(expected) < 256:
            expected.append(expected[-1] * 182667 % 2 ** 20)
        z = default_generating_vector(min_dimension=256)
        assert z.z.tolist() == expected
        assert z.n_max == 2 ** 20
        assert z.z[255] == 6691
        with pytest.raises(ValueError, match="need at least 257"):
            default_generating_vector(min_dimension=257)

    def test_even_components_rejected(self):
        with pytest.raises(ValueError):
            GeneratingVector(np.array([1, 4]), 8)


class TestLatticePoints:
    def test_k_zero_is_origin(self, zvec):
        assert np.all(lattice_point(zvec, 16, 0, dim=8) == 0)

    def test_small_example(self):
        z = GeneratingVector(np.array([1, 3]), 1 << 20)
        assert np.allclose(lattice_point(z, 4, 1), [0.25, 0.75])

    def test_nesting_even_indices(self, zvec):
        for m in (4, 6, 8):
            p_n = lattice_points(zvec, 2 ** m, 8)
            p_2n = lattice_points(zvec, 2 ** (m + 1), 8)
            assert np.array_equal(p_n, p_2n[::2])

    def test_exact_rationality(self, zvec, rng):
        n = 1 << 10
        for k in rng.integers(0, n, size=50):
            pt = lattice_point(zvec, n, int(k), dim=8)
            numerators = pt * n
            assert np.array_equal(numerators, np.rint(numerators))
            assert np.array_equal(numerators.astype(np.int64),
                                  (int(k) * zvec.z[:8]) % n)

    def test_out_of_range_rejected(self, zvec):
        with pytest.raises(ValueError):
            lattice_point(zvec, 16, 16)
        with pytest.raises(ValueError):
            lattice_point(zvec, 24, 0)
        with pytest.raises(ValueError):
            lattice_points(zvec, 2 ** 21, 4)


class TestShifts:
    def test_shift_and_center_example(self):
        out = shift_and_center(np.array([0.9, 0.2]), np.array([0.3, 0.4]))
        assert np.allclose(out, [-0.3, 0.1])

    def test_zero_shift(self):
        t = np.array([0.1, 0.6])
        assert np.allclose(shift_and_center(t, np.zeros(2)), t - 0.5)

    def test_bijection(self, rng):
        t = rng.random(6)
        delta = rng.random(6)
        recovered = np.mod(shift_and_center(t, delta) + 0.5 - delta, 1.0)
        assert np.allclose(recovered, t, atol=1e-15)

    def test_group_structure_preserved(self, zvec, rng):
        # pairwise differences mod 1 are shift-invariant
        pts = lattice_points(zvec, 16, 4)
        delta = rng.random(4)
        shifted = shift_and_center(pts, delta)
        d_plain = np.mod(pts[3] - pts[7], 1.0)
        d_shift = np.mod(shifted[3] - shifted[7], 1.0)
        assert np.allclose(d_plain, d_shift, atol=1e-14)

    def test_shiftset_reproducible(self):
        shift = random_shift(42, 2, 1, 16)
        assert np.array_equal(shift, random_shift(42, 2, 1, 16))
        assert not np.array_equal(shift, random_shift(42, 3, 1, 16))
        assert not np.array_equal(shift, random_shift(42, 2, 2, 16))

    def test_shift_in_unit_cube(self):
        sh = np.stack([random_shift(0, 0, r, 32) for r in range(2)])
        assert sh.shape == (2, 32)
        assert np.all((sh >= 0) & (sh < 1))


class TestShiftAveraging:
    def test_identical_estimates(self):
        mean, var = shift_average_and_variance([5.0, 5.0, 5.0])
        assert mean == 5.0 and var == 0.0

    def test_two_point_example(self):
        mean, var = shift_average_and_variance([0.0, 2.0])
        assert mean == 1.0 and var == 1.0

    def test_matches_formula_oracle(self, rng):
        q = rng.standard_normal(8)
        mean, var = shift_average_and_variance(q)
        r = len(q)
        oracle = sum((q.mean() - qi) ** 2 for qi in q) / (r * (r - 1))
        assert var == pytest.approx(oracle, abs=1e-14)
        assert mean == pytest.approx(q.mean(), abs=1e-15)

    def test_needs_two_shifts(self):
        with pytest.raises(ValueError):
            shift_average_and_variance([1.0])


class TestNearestNeighbour:
    def test_two_points(self):
        assert max_nn_distance(np.array([[0.0, 0.0], [0.5, 0.5]])) == 0.5

    def test_duplicate_gives_zero_for_that_point(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.1]])
        assert max_nn_distance(pts) == 0.0

    def test_matches_pairwise_oracle(self):
        z = GeneratingVector(np.array([1, 3]), 1 << 20)
        pts = lattice_points(z, 4, 2)
        d = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        np.fill_diagonal(d, np.inf)
        assert max_nn_distance(pts) == pytest.approx(d.min(axis=1).max())

    def test_oracle_on_random_set(self, rng):
        pts = rng.random((40, 2))
        d = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        np.fill_diagonal(d, np.inf)
        assert max_nn_distance(pts) == pytest.approx(d.min(axis=1).max())

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            max_nn_distance(np.array([[0.5, 0.5]]))


def star_discrepancy_1d_oracle(points):
    """Classical closed form for 1-d star discrepancy."""
    x = np.sort(np.asarray(points, dtype=float))
    n = x.size
    i = np.arange(1, n + 1)
    return float(max(np.maximum(i / n - x, x - (i - 1) / n).max(), 0.0))


class TestStarDiscrepancy:
    def test_single_midpoint(self):
        assert star_discrepancy_bruteforce(np.array([[0.5]])) == 0.5

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equally_spaced(self, n):
        pts = (np.arange(n) / n)[:, None]
        assert star_discrepancy_bruteforce(pts) == pytest.approx(1.0 / n)

    def test_all_points_at_origin(self):
        pts = np.zeros((2, 1))
        assert star_discrepancy_bruteforce(pts) == 1.0

    def test_matches_1d_oracle(self, rng):
        pts = rng.random(12)
        got = star_discrepancy_bruteforce(pts[:, None])
        assert got == pytest.approx(star_discrepancy_1d_oracle(pts), abs=1e-14)

    def test_2d_hand_computed(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5]])
        # worst box: [0, 0.5+eps)^2 captures both points with volume 0.25
        assert star_discrepancy_bruteforce(pts) == pytest.approx(0.75)

    def test_size_limits(self, rng):
        with pytest.raises(ValueError):
            star_discrepancy_bruteforce(rng.random((65, 1)))
        with pytest.raises(ValueError):
            star_discrepancy_bruteforce(rng.random((4, 4)))


def test_nn_distance_decays_with_n(zvec):
    dists = [max_nn_distance(lattice_points(zvec, 2 ** m, 2))
             for m in range(4, 13)]
    assert all(b <= a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0] / 8
