import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.special

from mlqmc_eig import make_problem, problem1, problem2, zeta
from mlqmc_eig.problems import island_mask


def zeta_partial_sum_bracket(p, n=2_000_000):
    """Independent oracle: partial sum with integral tail bracket."""
    j = np.arange(1, n + 1, dtype=float)
    partial = np.sum(j ** (-p))
    lo = partial + (n + 1) ** (1 - p) / (p - 1)
    hi = partial + n ** (1 - p) / (p - 1)
    return lo, hi


class TestZeta:
    def test_zeta2_analytic(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)

    @pytest.mark.parametrize("p", [4 / 3, 1.5, 2.0, 3.0])
    def test_against_scipy(self, p):
        assert zeta(p) == pytest.approx(float(scipy.special.zeta(p)), abs=1e-10)

    def test_partial_sum_bracket(self):
        # the bracket is ~2.5e-13 wide; allow the function's 1e-10 tolerance
        lo, hi = zeta_partial_sum_bracket(2.0)
        assert lo - 1e-10 <= zeta(2.0) <= hi + 1e-10

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            zeta(1.0)


class TestProblem1:
    def test_a_min_p2(self):
        # a_min = 1 - zeta(2)/2 = 1 - pi^2/12, oracle via partial sums to 1e-6
        p = problem1(2.0)
        lo, hi = zeta_partial_sum_bracket(2.0)
        assert abs(p.a_min - (1 - hi / 2)) < 1e-6
        assert p.a_min == pytest.approx(1 - math.pi ** 2 / 12, abs=1e-10)

    def test_scaled_mean_for_slow_decay(self):
        p = problem1(4 / 3)
        x = (0.3, 0.7)
        assert p.a0(x) == pytest.approx(math.pi / math.sqrt(2))
        assert p.a_min > 0

    def test_term_sup_norm_on_grid(self):
        # |a_j|_inf = j^-p, sampled on a 512^2 grid
        p = problem1(2.0)
        g = (np.arange(512) + 0.5) / 512
        xx, yy = np.meshgrid(g, g)
        vals = np.abs(p.a_term(3, (xx, yy)))
        assert vals.max() == pytest.approx(3.0 ** -2, abs=1e-3)

    def test_eval_at_zero_gives_mean(self):
        p = problem1(2.0)
        x = (0.37, 0.81)
        assert p.a_values(x, np.zeros(16)) == pytest.approx(1.0, abs=1e-15)
        assert p.b_values(x, np.zeros(16)) == 0.0

    def test_eval_single_term(self):
        # y1 = 1/2 at x = (1/2, 1/2): sin(pi/2) sin(pi) = 0
        p = problem1(2.0)
        assert p.a_values((0.5, 0.5), [0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_eval_matches_direct_formula(self):
        p = problem1(2.0)
        x = (0.25, 0.25)
        y = [0.5, 0.5]
        expected = 1.0
        for j, yj in enumerate(y, start=1):
            expected += yj * j ** -2.0 * math.sin(j * math.pi * x[0]) \
                * math.sin((j + 1) * math.pi * x[1])
        assert p.a_values(x, y) == pytest.approx(expected, abs=1e-14)

    def test_rejects_small_decay(self):
        with pytest.raises(ValueError):
            problem1(1.2)

    def test_positivity_over_random_samples(self, rng):
        p = problem1(2.0)
        for _ in range(50):
            x = tuple(rng.random(2))
            y = rng.random(64) - 0.5
            assert p.a_values(x, y) >= p.a_min - 1e-12

    def test_linearity_in_y(self, rng):
        p = problem1(2.0)
        x = tuple(rng.random(2))
        y1 = rng.random(32) - 0.5
        y2 = rng.random(32) - 0.5
        a_mid = p.a_values(x, (y1 + y2) / 2)
        a1 = p.a_values(x, y1)
        a2 = p.a_values(x, y2)
        assert a_mid == pytest.approx((a1 + a2) / 2, abs=1e-13)

    def test_truncate_matches_zero_padding(self, prob1, rng):
        y = rng.random(8) - 0.5
        x = tuple(rng.random(2))
        padded = np.concatenate([y[:3], np.zeros(5)])
        assert prob1.a_values(x, y[:3]) == pytest.approx(prob1.a_values(x, padded),
                                                         abs=1e-15)


class TestProblem2:
    def test_mean_values_on_and_off_islands(self, prob2):
        inside = (0.25, 0.25)
        outside = (0.5, 0.5)
        assert prob2.a0(inside) == pytest.approx(0.01)
        assert prob2.b0(inside) == pytest.approx(2.0)
        assert prob2.a0(outside) == pytest.approx(0.011)
        assert prob2.b0(outside) == pytest.approx(0.3)

    def test_term_supports(self, prob2, rng):
        inside = tuple(np.array([[0.2, 0.3], [0.7, 0.8], [0.27, 0.71]]).T)
        outside = tuple(np.array([[0.5, 0.5], [0.05, 0.05], [0.45, 0.95]]).T)
        for j in (2, 4, 6):   # even terms live off the islands
            assert np.all(prob2.a_term(j, inside) == 0)
            assert np.all(prob2.b_term(j, inside) == 0)
        for j in (1, 3, 5):   # odd terms live on the islands
            assert np.all(prob2.a_term(j, outside) == 0)
            assert np.all(prob2.b_term(j, outside) == 0)

    def test_support_strictly_inside_complement(self, rng):
        # points strictly inside the complement of the island set
        prob = problem2(2.0, 2.0, 2.0, 2.0)
        pts = []
        while len(pts) < 200:
            x = rng.random(2)
            if not island_mask(tuple(x)) and np.all((np.abs(x - 0.25) > 0.13) | (x > 0.9)):
                pts.append(x)
        pts = np.array(pts)
        assert np.all(prob.a_term(1, tuple(pts.T)) == 0)

    def test_island_mask_closed(self):
        assert island_mask((0.125, 0.125))
        assert island_mask((0.375, 0.25))
        assert not island_mask((0.5, 0.125))

    def test_scaling_below_two(self):
        p = problem2(4 / 3, 2.0, 4 / 3, 2.0)
        inside = (0.25, 0.25)
        outside = (0.5, 0.5)
        assert p.a0(inside) == pytest.approx(0.01 * math.pi / math.sqrt(2))
        assert p.a0(outside) == pytest.approx(0.011)
        assert p.b0(inside) == pytest.approx(2.0 * math.pi / math.sqrt(2))
        assert p.a_min > 0

    def test_rejects_small_decay(self):
        with pytest.raises(ValueError):
            problem2(1.0, 2.0, 2.0, 2.0)


def test_terms_keep_their_operation_order(prob1, prob2, rng):
    # assembly is pinned bitwise to these formulas, evaluated in this order
    x1, x2 = rng.random(64), rng.random(64)
    on_island = island_mask((x1, x2))
    for j in (1, 2, 5):
        assert np.array_equal(
            prob1.a_term(j, (x1, x2)),
            j ** -2.0 * np.sin(j * np.pi * x1) * np.sin((j + 1) * np.pi * x2))
        k = (j + 1) // 2
        mode = k ** -2.0 * np.sin(8 * k * np.pi * x1) * np.sin(8 * (k + 1) * np.pi * x2)
        # odd terms on the islands, even ones off them
        support, sigma_a, sigma_b = (on_island, 0.01, 2.0) if j % 2 else \
            (~on_island, 0.011, 0.3)
        assert np.array_equal(prob2.a_term(j, (x1, x2)),
                              np.where(support, sigma_a * mode, 0.0))
        assert np.array_equal(prob2.b_term(j, (x1, x2)),
                              np.where(support, sigma_b * mode, 0.0))


def test_rank_one_parts_rebuild_every_term_bitwise(prob1, prob2, rng):
    # an outside term's two products have disjoint supports, so summing the
    # products of each term reproduces the term's own arithmetic
    x1, x2 = rng.random(40), rng.random(30)
    x1[:4] = x2[:4] = (0.125, 0.375, 0.625, 0.875)   # island edges
    grid = (x1[None, :], x2[:, None])
    for family in (prob1.a_term, prob2.a_term, prob2.b_term):
        index, weight, F, G = family.rank_one(8, x1, x2)
        assert F.shape == (40, index.size) and G.shape == (30, index.size)
        for j in range(1, 9):
            parts = [weight[k] * (F[:, k] * G[:, k, None])
                     for k in np.flatnonzero(index == j - 1)]
            assert len(parts) == (2 if family is not prob1.a_term and j % 2 == 0 else 1)
            assert np.array_equal(sum(parts[1:], parts[0]), family(j, grid))


def test_separable_looks_through_wrappers(prob2):
    wrapped = dataclasses.replace(prob2, a_term=functools.wraps(prob2.a_term)(
        lambda j, x: prob2.a_term(j, x)))
    assert wrapped.separable == (prob2.a_term, prob2.b_term)
    plain = dataclasses.replace(prob2, a_term=lambda j, x: prob2.a_term(j, x))
    assert plain.separable is None


def test_make_problem_dispatch():
    assert make_problem("problem1", p_tilde=2.0).name.startswith("problem1")
    assert make_problem("problem2").name.startswith("problem2")
    with pytest.raises(ValueError):
        make_problem("problem3")


class TestCoefficientSeries:
    @pytest.mark.parametrize("dropped", ["b0", "b_term"])
    def test_refuses_half_of_b(self, prob2, dropped):
        # before the check, b0 without b_term assembled at y = 0 and then
        # failed inside assembly at any nonzero y
        with pytest.raises(ValueError, match="both b0 and b_term"):
            dataclasses.replace(prob2, **{dropped: None})

    def test_fields_list_a_then_b(self, prob1, prob2):
        assert prob1.fields == ((prob1.a0, prob1.a_term),) and not prob1.has_b
        assert prob2.fields == ((prob2.a0, prob2.a_term), (prob2.b0, prob2.b_term))
        assert prob2.has_b
