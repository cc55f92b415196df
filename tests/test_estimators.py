import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from mlqmc_eig import (
    CoefficientSeries,
    EstimatorOptions,
    SeparableTerms,
    adaptive_mlqmc,
    build_uniform_mesh,
    default_levels,
    level_params,
    mass_interior,
    mc_estimate,
    mlmc_estimate,
    mlqmc_estimate,
    qmc_single_level,
    sample_level_difference,
    stiffness_interior,
)
from mlqmc_eig import estimators
from mlqmc_eig.estimators import largest_variance_per_work
from mlqmc_eig.mesh_fem import CoefficientBoundError


class TestLevelParams:
    def test_meshwidth_rule(self):
        for ell in range(5):
            lp = level_params(ell, 16)
            assert lp.h == 2.0 ** -(ell + 3)

    def test_coarse_rules_fixed_policy(self):
        # H = min(h^(1/4), h0) quantized to the mesh family; S = ceil(sqrt(s))
        for ell in range(8):
            lp = level_params(ell, 16, s=64)
            assert lp.coarse_h == 1 / 8
            assert lp.coarse_s == 8

    def test_coarse_mesh_deepens_eventually(self):
        lp = level_params(10, 16)   # h = 2^-13, h^(1/4) = 2^-3.25
        assert lp.coarse_exponent == 4

    def test_geometric_policy(self):
        lp = level_params(3, 16, s=64, s_policy="geometric")
        assert lp.s == 32
        assert lp.prev_s == 16
        assert lp.coarse_s == max(math.isqrt(31) + 1, 4)

    def test_truncations_monotone(self):
        ss = [level_params(e, 16, s=64, s_policy="geometric").s
              for e in range(6)]
        assert all(a <= b for a, b in zip(ss, ss[1:]))

    def test_power_of_two_points(self):
        with pytest.raises(ValueError):
            level_params(0, 24)


class TestSampleOps:
    def test_direct_sample_deterministic_laplacian(self, prob1):
        lp = level_params(0, 16)
        lam, _, _ = sample_level_difference(prob1, lp, np.zeros(64))
        mesh = build_uniform_mesh(3)
        A = stiffness_interior(mesh, prob1, np.zeros(64))
        M = mass_interior(mesh, prob1)
        dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0]
        assert lam == pytest.approx(dense, abs=5e-8)
        assert lam > 0

    def test_direct_sample_bitwise_repeatable(self, prob1, rng):
        lp = level_params(0, 16)
        y = rng.random(64) - 0.5
        lam1, _, _ = sample_level_difference(prob1, lp, y)
        lam2, _, _ = sample_level_difference(prob1, lp, y)
        assert lam1 == lam2

    def test_level0_difference_is_value(self, prob1, rng):
        lp = level_params(0, 16)
        y = rng.random(64) - 0.5
        delta, pair, _ = sample_level_difference(prob1, lp, y)
        assert delta > 0
        assert delta == pair.lam

    def test_difference_small_vs_level(self, prob1, rng):
        lp0 = level_params(0, 16)
        lp1 = level_params(1, 16)
        y = rng.random(64) - 0.5
        lam0, _, _ = sample_level_difference(prob1, lp0, y)
        delta, _, _ = sample_level_difference(prob1, lp1, y)
        assert abs(delta) < abs(lam0)

    def test_matches_standalone_two_grid_bitwise(self, prob1, zvec, two_grid):
        lp = level_params(1, 16)
        y = np.asarray(mlqmc_lattice_sample(zvec, 16, 5, 64))
        delta, _, _ = sample_level_difference(prob1, lp, y)
        coarse = build_uniform_mesh(lp.coarse_exponent)
        lam_f, _ = two_grid(prob1, y, (coarse, lp.coarse_s),
                            (build_uniform_mesh(lp.mesh_exponent), lp.s))
        lam_p, _ = two_grid(prob1, y, (coarse, lp.coarse_s),
                            (build_uniform_mesh(lp.mesh_exponent - 1), lp.prev_s))
        assert delta == lam_f - lam_p


def mlqmc_lattice_sample(zvec, n, k, dim):
    from mlqmc_eig import lattice_point
    return lattice_point(zvec, n, k, dim=dim) - 0.5


class TestMlqmcEstimate:
    def test_single_level_reduces_to_qmc(self, prob1, zvec):
        levels = [level_params(0, 32)]
        ml = mlqmc_estimate(prob1, levels, 4, zvec, seed=3)
        sl = qmc_single_level(prob1, 3, 64, 32, 4, zvec, seed=3)
        assert ml.estimate == sl.estimate
        assert ml.levels[0].per_shift == sl.levels[0].per_shift

    def test_variance_additivity(self, prob1, zvec):
        rep = mlqmc_estimate(prob1, default_levels([32, 16]), 4, zvec, seed=5)
        assert rep.total_variance == sum(lv.variance for lv in rep.levels)

    def test_warm_toggle_matched_seed(self, prob1, zvec):
        levels = default_levels([32, 16])
        warm = mlqmc_estimate(prob1, levels, 2, zvec, seed=1,
                              options=EstimatorOptions(warm_start=True))
        cold = mlqmc_estimate(prob1, levels, 2, zvec, seed=1,
                              options=EstimatorOptions(warm_start=False))
        assert abs(warm.estimate - cold.estimate) <= 1e-6
        assert warm.total_linear_solves < cold.total_linear_solves

    def test_level_variance_drops(self, prob1, zvec):
        rep = mlqmc_estimate(prob1, default_levels([64, 32]), 4, zvec, seed=2)
        assert rep.levels[1].variance < rep.levels[0].variance

    def test_problem1_level_ratios_near_four(self, prob1, zvec):
        # the adaptive driver's bias estimate assumes O(h^2) eigenvalue error
        # (_BIAS_ALPHA = 2), so Q_l / Q_(l+1) near 2^2; 3.98-4.01 measured
        assert estimators._BIAS_ALPHA == 2.0
        rep = mlqmc_estimate(prob1, default_levels([4] * 5), 2, zvec, seed=0)
        q = [lv.q_hat for lv in rep.levels]
        ratios = [q[ell] / q[ell + 1] for ell in (1, 2, 3)]
        assert all(3.0 <= r <= 5.0 for r in ratios), ratios

    def test_determinism_and_threads(self, prob1, zvec):
        levels = default_levels([16, 16])
        a = mlqmc_estimate(prob1, levels, 2, zvec, seed=11)
        b = mlqmc_estimate(prob1, levels, 2, zvec, seed=11)
        c = mlqmc_estimate(prob1, levels, 2, zvec, seed=11, max_workers=4)
        assert a.estimate == b.estimate == c.estimate
        assert a.to_dict()["levels"][0]["per_shift"] == \
            c.to_dict()["levels"][0]["per_shift"]

    def test_two_grid_toggle_consistent(self, prob1, zvec):
        levels = default_levels([16, 8])
        enhanced = mlqmc_estimate(prob1, levels, 2, zvec, seed=4)
        plain = mlqmc_estimate(prob1, levels, 2, zvec, seed=4,
                               options=EstimatorOptions(two_grid=False,
                                                        warm_start=False))
        # same points, same bias target; two-grid error is far below the
        # sampling scale
        assert enhanced.estimate == pytest.approx(plain.estimate, abs=1e-4)

    def test_report_roundtrip(self, prob1, zvec):
        rep = mlqmc_estimate(prob1, default_levels([16, 8]), 2, zvec, seed=6)
        d = rep.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["estimate"] == rep.estimate
        assert d["levels"][1]["per_shift"] == rep.levels[1].per_shift

    def test_csv_rows_contract(self, prob1, zvec):
        rep = mlqmc_estimate(prob1, default_levels([16, 8]), 2, zvec, seed=6)
        rows = rep.level_csv_rows()
        assert rows[0] == ["level", "h", "s", "H", "S", "N", "R", "Q_hat", "V",
                           "cost_seconds", "solves", "rq_iters_median", "krylov_iters"]
        assert len(rows) == 3

    def test_needs_a_level(self, prob1, zvec):
        # the report reads its number of shifts off the level reports
        with pytest.raises(ValueError, match="at least one level"):
            mlqmc_estimate(prob1, [], 2, zvec, seed=0)
        with pytest.raises(ValueError, match="at least one level"):
            mlmc_estimate(prob1, [], seed=0)

    def test_failed_sample_aborts(self, zvec):
        fragile = CoefficientSeries(
            name="fragile",
            a0=lambda x: np.full(np.broadcast(*x).shape, 0.4),
            a_term=SeparableTerms(lambda j: (float(j == 1), None, np.ones_like, np.ones_like)),
            c=lambda x: np.ones(np.broadcast(*x).shape),
            a_min=-0.1,    # deliberately violated for some y
        )
        with pytest.raises(CoefficientBoundError):
            mlqmc_estimate(fragile, [level_params(0, 16, s=1)], 2, zvec, seed=0)


class TestBaselines:
    def test_mc_two_samples(self, prob1):
        rep = mc_estimate(prob1, 3, 64, 2, seed=21)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=21, spawn_key=(10001,)))
        lams = [sample_level_difference(prob1, level_params(0, 16),
                                        rng.random(64) - 0.5)[0] for _ in range(2)]
        assert rep.estimate == np.mean(lams)

    def test_iid_levels_need_two_samples(self, prob1):
        # one sample has no variance estimate
        with pytest.raises(ValueError, match="at least 2 samples"):
            mc_estimate(prob1, 3, 64, 1, seed=0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            mlmc_estimate(prob1, [8, 4, 1], seed=0)

    def test_mc_standard_error_oracle(self, prob1):
        rep = mc_estimate(prob1, 3, 64, 32, seed=22)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=22, spawn_key=(10001,)))
        vals = []
        for _ in range(32):
            y = rng.random(64) - 0.5
            lam, _, _ = sample_level_difference(prob1, level_params(0, 16), y)
            vals.append(lam)
        vals = np.array(vals)
        oracle = vals.var(ddof=1) / 32
        assert rep.total_variance == pytest.approx(oracle, rel=1e-12)
        assert rep.estimate == pytest.approx(vals.mean(), rel=1e-14)

    def test_mc_qmc_statistical_agreement(self, prob1, zvec):
        mc = mc_estimate(prob1, 3, 64, 256, seed=23)
        qmc = qmc_single_level(prob1, 3, 64, 64, 8, zvec, seed=23)
        spread = 3 * math.sqrt(mc.total_variance + qmc.total_variance)
        assert abs(mc.estimate - qmc.estimate) <= spread

    def test_mc_reports_measured_rq_iterations(self, prob1):
        # ten inverse-power steps leave each cold solve one RQ step
        rep = mc_estimate(prob1, 3, 64, 8, seed=0)
        assert rep.levels[0].rq_iterations_median == 1.0

    def test_iid_paths_bitwise(self, prob1):
        # recorded before MC and MLMC were routed through the shared
        # stream runner; the i.i.d. draws, the cold solves and the
        # np.mean / var(ddof=1) reduction must all stay as they were.
        # The floats are pinned to roundoff (1e-10 relative): the
        # fill-reducing ordering of the factorizations sets their last
        # digits.  The solve counts stay exact: eleven per cold solve, ten
        # inverse-power steps and one RQ step.
        mc = mc_estimate(prob1, 3, 64, 8, seed=0)
        assert mc.estimate == pytest.approx(20.32723920564289, rel=1e-10)
        assert mc.total_variance == pytest.approx(0.004310476134157272, rel=1e-10)
        assert mc.total_linear_solves == 88
        mlmc = mlmc_estimate(prob1, [8, 4, 2], seed=0)
        assert mlmc.estimate == pytest.approx(19.48841115262004, rel=1e-10)
        assert mlmc.total_variance == pytest.approx(0.0035166578217462226, rel=1e-10)
        assert mlmc.total_linear_solves == 220

    def test_mlmc_telescopes(self, prob1, zvec):
        ml = mlmc_estimate(prob1, [128, 32], seed=24)
        qmc = qmc_single_level(prob1, 4, 64, 64, 8, zvec, seed=25)
        spread = 3 * math.sqrt(ml.total_variance + qmc.total_variance)
        assert abs(ml.estimate - qmc.estimate) <= spread
        assert ml.kind == "mlmc"


class TestAdaptive:
    def test_loose_tolerance_minimal_work(self, prob1, zvec):
        rep = adaptive_mlqmc(prob1, 0.625, 8, zvec, seed=0)
        assert max(lv.ell for lv in rep.levels) <= 1
        assert all(lv.n_points == 16 for lv in rep.levels)
        assert rep.tolerance_achieved

    def test_variance_postcondition(self, prob1, zvec):
        eps = 0.05
        rep = adaptive_mlqmc(prob1, eps, 8, zvec, seed=0)
        assert rep.total_variance <= eps ** 2 / 2

    def test_trajectory_recorded(self, prob1, zvec):
        rep = adaptive_mlqmc(prob1, 0.625, 8, zvec, seed=0)
        assert rep.trajectory[0] == {"action": "add_level", "level": 0, "N": 16}

    def test_doubling_rule(self):
        rows = [SimpleNamespace(variance=v, work_units=w)
                for v, w in [(4.0, 2.0), (3.0, 1.0), (1.0, 1.0), (6.0, 2.0)]]
        # variance per work 2, 3, 1, 3: the tie goes to the lower level
        assert largest_variance_per_work(rows) == 1

    def test_mse_within_tolerance_against_reference(self, prob1, zvec):
        """The driver's promise MSE = bias^2 + variance <= eps^2, checked
        as the RMS error of seeds 0-9 at eps = 0.02, R = 8.

        The reference E[lambda] = 19.511930519549583 for Problem 1
        (p = 2, s = 64) does not use the driver: a fixed-level
        ``mlqmc_estimate`` on the default hierarchy h = 1/8 .. 1/256
        (m = 3..8) with N = 4096, 1024, 512, 128, 32, 16 points per
        shift, R = 8 and seed 1000 gives 19.51270309345078 (standard
        error 1.9e-5), and the Richardson term Q_L/3 with
        Q_L = -0.0023177217035892372 at m = 8 removes the O(h^2) bias
        (Q_{L-1}/Q_L = 3.998).
        """
        eps, reference = 0.02, 19.511930519549583
        errors = [adaptive_mlqmc(prob1, eps, 8, zvec, seed=seed).estimate - reference
                  for seed in range(10)]
        rms = math.sqrt(sum(e * e for e in errors) / len(errors))
        print(f"errors {['%.2e' % e for e in errors]}, RMS {rms:.2e} (<= {eps})")
        assert rms <= eps

    def test_rejects_bad_inputs(self, prob1, zvec):
        with pytest.raises(ValueError):
            adaptive_mlqmc(prob1, -1.0, 8, zvec, seed=0)
        with pytest.raises(ValueError):
            adaptive_mlqmc(prob1, 0.5, 1, zvec, seed=0)

    def test_shared_levels_match_independent_runs(self, prob1, zvec, monkeypatch):
        # starting levels at N = 1 makes the driver double level 0 at
        # eps = 0.1, so the sweep revisits both added and doubled levels
        monkeypatch.setattr(estimators, "_N_INITIAL", 1)
        tolerances = [0.2, 0.1, 0.05]

        def run(eps, **kwargs):
            rep = adaptive_mlqmc(prob1, eps, 4, zvec, seed=0, **kwargs)
            d = rep.to_dict()
            del d["total_cost_seconds"]
            for lv in d["levels"]:
                del lv["cost_seconds"]
            return d

        alone = [run(eps) for eps in tolerances]
        computed = []
        lattice_levels = estimators._lattice_levels

        def counted(problem, levels, *args):
            computed.extend(levels)
            return lattice_levels(problem, levels, *args)

        monkeypatch.setattr(estimators, "_lattice_levels", counted)
        evaluated = {}
        shared = [run(eps, evaluated=evaluated) for eps in tolerances]
        assert shared == alone
        assert any(t["action"] == "double" for d in alone for t in d["trajectory"])
        assert len(computed) == len(set(computed)) == len(evaluated)
        assert len(computed) < sum(len(d["trajectory"]) for d in alone)
