import json
import os
import re
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mlqmc_eig import (
    build_uniform_mesh,
    cli,
    mass_interior,
    smallest_eigenpair_cold,
    stiffness_interior,
)
from mlqmc_eig.cli import (
    ConfigError,
    ExperimentConfig,
    convergence_study,
    main,
    run_experiment,
)
from mlqmc_eig.estimators import (
    LevelReport,
    MlqmcReport,
    mc_estimate,
    mlmc_estimate,
    qmc_single_level,
)


def write_config(tmp_path, **overrides):
    raw = {
        "problem": {"name": "problem1", "p_tilde": 2.0},
        "estimator": "mlqmc",
        "levels": [32, 16],
        "R": 2,
        "seed": 9,
        "s": 64,
        "out_dir": str(tmp_path / "out"),
    }
    if "tolerances" in overrides:
        del raw["levels"]   # adaptive runs pick their own counts
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def small_vector(tmp_path):
    """A 64-component generating vector for N <= 16, named by the convention."""
    path = tmp_path / "lattice-0-1-16.64"
    path.write_text("\n".join(str(2 * (j % 8) + 1) for j in range(64)) + "\n")
    return path


# configs that must exit 2 at load; each names what the error must mention
MALFORMED = [
    pytest.param({"options": {"two_grid": "false"}}, "two_grid", id="bool-as-string"),
    pytest.param({"R": "abc"}, "'R'", id="int-as-string"),
    pytest.param({"levels": [3, 2]}, "powers of 2", id="mlqmc-levels-not-pow2"),
    pytest.param({"estimator": "mlmc", "levels": [6, 3]}, "powers of 2",
                 id="mlmc-levels-not-pow2"),
    pytest.param({"estimator": "qmc", "N": 3}, "powers of 2", id="qmc-n-not-pow2"),
    pytest.param({"estimator": "mc", "N": 1}, "at least 2 samples", id="mc-one-sample"),
    pytest.param({"estimator": "mlmc", "levels": [8, 4, 1]}, "at least 2 samples",
                 id="mlmc-one-sample-level"),
    pytest.param({"s": 0}, "'s'", id="zero-dimension"),
    pytest.param({"options": []}, "'options'", id="options-not-object"),
    pytest.param({"seed": True}, "'seed'", id="bool-as-int"),
    pytest.param({"R": 2.7}, "'R'", id="float-as-int"),
    pytest.param({"study": {"exponents": [3, 4]}}, "exponents", id="two-exponents"),
    pytest.param({"study": {"exponents": [3, 4, 4]}}, "consecutive",
                 id="repeated-exponent"),
    pytest.param({"study": {"exponents": [5, 4, 3]}}, "ascending",
                 id="descending-exponents"),
    pytest.param({"study": {"exponents": [3, 5, 7]}}, "consecutive",
                 id="gapped-exponents"),
    pytest.param({"max_level": 0}, "max_level", id="zero-level-cap"),
    pytest.param({"options": {"shared_shifts": False}}, "shared_shifts",
                 id="removed-option"),
    pytest.param({"rq_tol": 5e-8}, "rq_tol", id="removed-rq-tol"),
    pytest.param({"study": {"mode": "two_grid", "exponents": [3, 4, 5],
                            "coarse_exponent": 4}}, "coarse_exponent",
                 id="two-grid-study-coarse-finer"),
    pytest.param({"study": {"mode": "two_grid", "coarse_s": 65}}, "coarse_s",
                 id="two-grid-study-coarse-s-above-s"),
    pytest.param({"s": 300}, "need at least 300", id="vector-too-short"),
    pytest.param({"generating_vector": "missing.txt"}, "missing.txt",
                 id="vector-missing"),
    pytest.param({"tolerances": [0.5], "levels": [32, 16]}, "'tolerances' or 'levels'",
                 id="tolerances-with-levels"),
]

README = Path(__file__).resolve().parents[1] / "README.md"


def _kind_name(kind):
    return f"[{kind[0].__name__}]" if isinstance(kind, list) else kind.__name__


class TestConfig:
    @pytest.mark.parametrize("overrides, match", MALFORMED)
    def test_malformed_config_exits_2_at_load(self, tmp_path, capsys, overrides, match):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(json.loads(path.read_text()))
        out = tmp_path / "never"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_malformed_seed_from_environment_exits_2(self, tmp_path, capsys,
                                                     monkeypatch):
        path = write_config(tmp_path, estimator="mc", N=4)
        out = tmp_path / "never"
        for text in ("abc", "-1", "1.5"):
            monkeypatch.setenv("MLQMC_EIG_SEED", text)
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and "'seed'" in lines[0]
        assert not out.exists()

    def test_readme_documents_the_schema(self):
        text = README.read_text()
        rows = re.findall(r"^\| `([\w.]+)` \| (\S+) \| `(.*)` \| (.*) \|$", text,
                          re.MULTILINE)
        documented = {key: (kind, json.loads(default), domain)
                      for key, kind, default, domain in rows}
        assert documented == {key.path: (_kind_name(key.kind), key.default,
                                         key.domain[1]) for key in cli._SCHEMA}
        example = text.split("Example config:")[1].split("```json")[1].split("```")[0]
        config = ExperimentConfig.from_dict(json.loads(example))
        assert config.tolerances == [0.04, 0.02, 0.01]
        assert config.options.two_grid and config.options.warm_start

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_file(path)

    def test_unknown_problem_key(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "problem1", "decay": 2})
        with pytest.raises(ConfigError, match="decay"):
            ExperimentConfig.from_file(path)

    def test_missing_problem(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"estimator": "mc"}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match=":2"):
            ExperimentConfig.from_file(path)

    def test_tolerances_must_decrease(self, tmp_path):
        for tolerances in ([0.01, 0.02], [0.02, 0.02]):
            path = write_config(tmp_path, tolerances=tolerances)
            with pytest.raises(ConfigError, match="decreasing"):
                ExperimentConfig.from_file(path)

    def test_unknown_s_policy(self, tmp_path):
        path = write_config(tmp_path, s_policy="bogus")
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_file(path)
        assert main(["run", "--config", str(path)]) == 2

    def test_problem_parameter_of_other_problem(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "problem1", "p_a": 2.0})
        with pytest.raises(ConfigError, match="p_a"):
            ExperimentConfig.from_file(path)
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_compare_estimator(self, tmp_path):
        path = write_config(tmp_path, tolerances=[0.2], estimators=["mlqmc", "bogus"])
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_file(path)
        out = tmp_path / "never"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_r_floor_for_qmc(self, tmp_path):
        path = write_config(tmp_path, R=1)
        with pytest.raises(ConfigError, match="R >= 2"):
            ExperimentConfig.from_file(path)


class TestRun:
    def test_artifacts_written_and_roundtrip(self, tmp_path):
        config = ExperimentConfig.from_file(write_config(tmp_path))
        status = run_experiment(config)
        assert status == 0
        out = Path(config.out_dir)
        payload = json.loads((out / "report.json").read_text())
        # the report's fields, levels included, are what report.json holds
        report = payload[0]["report"]
        assert list(report) == [f.name for f in fields(MlqmcReport)]
        assert list(report["levels"][0]) == [f.name for f in fields(LevelReport)]
        levels = (out / "levels.csv").read_text().splitlines()
        assert levels[0].startswith("level,h,s,H,S,N,R,Q_hat")
        assert len(levels) == 3
        cost = (out / "cost_vs_tolerance.csv").read_text().splitlines()
        assert cost[0] == "epsilon,estimator,cost_seconds,total_solves,estimate,total_variance"

    def test_same_seed_identical_csv_modulo_timing(self, tmp_path):
        # byte-identical up to the wall-clock column, which is measured
        # (not modelled) and so varies run to run by design
        cfg1 = ExperimentConfig.from_file(write_config(tmp_path))
        run_experiment(cfg1, tmp_path / "a")
        run_experiment(cfg1, tmp_path / "b")

        def strip_timing(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            col = rows[0].index("cost_seconds")
            return [r[:col] + r[col + 1:] for r in rows]

        a = strip_timing(tmp_path / "a" / "levels.csv")
        b = strip_timing(tmp_path / "b" / "levels.csv")
        assert a == b

    def test_malformed_config_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "never"
        status = main(["run", "--config", str(bad), "--out", str(out)])
        assert status == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_sweep_matches_independent_runs_modulo_timing(self, tmp_path):
        tolerances = [0.2, 0.1]

        def untimed_reports(out, tols):
            config = ExperimentConfig.from_file(
                write_config(tmp_path, tolerances=tols, R=4))
            assert run_experiment(config, out) == 0
            payload = json.loads((out / "report.json").read_text())
            for entry in payload:
                del entry["report"]["total_cost_seconds"]
                for lv in entry["report"]["levels"]:
                    del lv["cost_seconds"]
            return payload

        sweep = untimed_reports(tmp_path / "sweep", tolerances)
        alone = [entry for i, eps in enumerate(tolerances)
                 for entry in untimed_reports(tmp_path / f"alone{i}", [eps])]
        assert sweep == alone

    def test_first_tolerance_at_level_cap_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, tolerances=[0.05], R=4, max_level=1)
        out = tmp_path / "capped"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())
        assert "error" in capsys.readouterr().err

    def test_later_tolerance_at_level_cap_keeps_achieved(self, tmp_path):
        path = write_config(tmp_path, tolerances=[0.625, 0.05], R=4, max_level=1)
        out = tmp_path / "capped"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        payload = json.loads((out / "report.json").read_text())
        assert [entry["tolerance"] for entry in payload] == [0.625]
        assert len((out / "cost_vs_tolerance.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("kind", ["mc", "qmc", "mlmc"])
    def test_tolerances_need_mlqmc_exits_2_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, kind):
        # only adaptive MLQMC sweeps tolerances, so run refuses them elsewhere
        def no_work(*args, **kwargs):
            raise AssertionError("run started work")
        for name in ("adaptive_mlqmc", "mc_estimate", "qmc_single_level",
                     "mlmc_estimate"):
            monkeypatch.setattr(cli, name, no_work)
        path = write_config(tmp_path, estimator=kind, N=4, tolerances=[0.5])
        out = tmp_path / "never"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "tolerances" in lines[0] and kind in lines[0]
        assert not out.exists()

    def test_first_tolerance_at_point_cap_writes_nothing(self, tmp_path, capsys):
        # at eps = 1e-4 the variance target asks some level for 32 points per
        # shift, past the vector's n_max = 16
        path = write_config(tmp_path, tolerances=[1e-4],
                            generating_vector=str(small_vector(tmp_path)))
        out = tmp_path / "capped"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "maximum of 16 points" in lines[0]

    def test_later_tolerance_at_point_cap_keeps_achieved(self, tmp_path):
        path = write_config(tmp_path, tolerances=[0.5, 1e-4],
                            generating_vector=str(small_vector(tmp_path)))
        out = tmp_path / "capped"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        payload = json.loads((out / "report.json").read_text())
        assert [entry["tolerance"] for entry in payload] == [0.5]
        assert len((out / "cost_vs_tolerance.csv").read_text().splitlines()) == 2

    def test_non_finite_value_writes_nothing(self, tmp_path, monkeypatch):
        # report.json is strict JSON, serialized before any file is written
        mc = cli.mc_estimate

        def nan_variance(*args):
            rep = mc(*args)
            rep.total_variance = float("nan")
            return rep
        monkeypatch.setattr(cli, "mc_estimate", nan_variance)
        config = ExperimentConfig.from_file(write_config(tmp_path, estimator="mc", N=4))
        out = tmp_path / "never"
        with pytest.raises(ValueError, match="JSON"):
            run_experiment(config, out)
        assert not out.exists() or not any(out.iterdir())

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("injected")
        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="injected"):
            cli._write(out, {"report.json": "{}\n", "levels.csv": "level\n"})
        assert list(out.iterdir()) == []

    def test_mc_estimator_run(self, tmp_path):
        path = write_config(tmp_path, estimator="mc", N=8, mesh_exponent=3)
        status = main(["run", "--config", str(path)])
        assert status == 0

    def test_seed_override_precedence(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, estimator="mc", N=4)
        out_env = tmp_path / "env_out"
        monkeypatch.setenv("MLQMC_EIG_SEED", "77")
        monkeypatch.setenv("MLQMC_EIG_OUT", str(out_env))
        assert main(["run", "--config", str(path)]) == 0
        payload = json.loads((out_env / "report.json").read_text())
        assert payload[0]["report"]["seed"] == 77
        # explicit flag beats the environment
        assert main(["run", "--config", str(path), "--seed", "5",
                     "--out", str(tmp_path / "flag_out")]) == 0
        payload = json.loads(
            (tmp_path / "flag_out" / "report.json").read_text())
        assert payload[0]["report"]["seed"] == 5


class TestStudy:
    def test_direct_rate_near_two(self, tmp_path):
        path = write_config(tmp_path, study={"mode": "direct",
                                             "exponents": [3, 4, 5, 6]})
        config = ExperimentConfig.from_file(path)
        summary = convergence_study(config)
        assert 1.8 <= summary["fitted_rate"] <= 2.2
        assert summary["reference"] == pytest.approx(19.7392, abs=1e-3)
        study = Path(config.out_dir) / "study.csv"
        assert study.read_text().splitlines()[0] == "h,lambda_h,error_estimate"

    def test_two_grid_solves_the_coarse_pair_once(self, tmp_path, monkeypatch,
                                                  two_grid):
        # one cold coarse solve serves every mesh, and each lambda_h is the
        # one a cold coarse solve per mesh gives
        path = write_config(tmp_path, study={"mode": "two_grid",
                                             "exponents": [3, 4, 5, 6],
                                             "coarse_exponent": 3, "coarse_s": 8})
        config = ExperimentConfig.from_file(path)
        calls = []

        def counted(*args):
            calls.append(args)
            return smallest_eigenpair_cold(*args)

        monkeypatch.setattr(cli, "smallest_eigenpair_cold", counted)
        summary = convergence_study(config)
        assert len(calls) == 1
        problem, coarse, y = config.problem(), build_uniform_mesh(3), np.zeros(64)
        per_mesh = [two_grid(problem, y, (coarse, 8), (build_uniform_mesh(m), 64))[0]
                    for m in (3, 4, 5, 6)]
        assert [lam.hex() for lam in summary["lambda_h"]] == \
            [lam.hex() for lam in per_mesh]

    def test_non_finite_value_writes_nothing(self, tmp_path, monkeypatch):
        # study.csv is not written when study_summary.json cannot be
        config = ExperimentConfig.from_file(write_config(tmp_path))
        monkeypatch.setattr(np, "polyfit", lambda *args: np.array([np.nan, 0.0]))
        out = tmp_path / "never"
        with pytest.raises(ValueError, match="JSON"):
            convergence_study(config, out)
        assert not out.exists() or not any(out.iterdir())

    def test_study_through_main(self, tmp_path, capsys):
        path = write_config(tmp_path, study={"exponents": [3, 4, 5]})
        out = tmp_path / "study"
        assert main(["study", "--config", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fitted rate ")
        assert (out / "study.csv").exists() and (out / "study_summary.json").exists()

    def test_problem2_reference_is_richardson(self, tmp_path):
        # no analytic value for Problem 2: the reference extrapolates the two
        # finest cold eigenvalues at rate 2
        path = write_config(tmp_path, problem={"name": "problem2"},
                            study={"mode": "direct", "exponents": [3, 4, 5]})
        config = ExperimentConfig.from_file(path)
        summary = convergence_study(config)
        problem, y = config.problem(), np.zeros(64)
        lams = []
        for m in (3, 4, 5):
            mesh = build_uniform_mesh(m)
            pair, _ = smallest_eigenpair_cold(stiffness_interior(mesh, problem, y),
                                              mass_interior(mesh, problem))
            lams.append(pair.lam)
        assert summary["lambda_h"] == lams
        assert summary["reference"] == lams[2] + (lams[2] - lams[1]) / 3.0
        rows = (Path(config.out_dir) / "study.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == \
            [abs(lam - summary["reference"]) for lam in lams]

    def test_two_grid_rate_near_two(self, tmp_path):
        path = write_config(
            tmp_path,
            study={"mode": "two_grid", "exponents": [4, 5, 6],
                   "coarse_exponent": 3, "coarse_s": 8},
        )
        summary = convergence_study(ExperimentConfig.from_file(path))
        assert 1.8 <= summary["fitted_rate"] <= 2.2


def fake_report(counts, scale, cost):
    """A report whose level l has variance scale[l] / N_l at work N_l cost[l]."""
    levels = [SimpleNamespace(variance=v / n, work_units=n * c)
              for n, v, c in zip(counts, scale, cost)]
    return SimpleNamespace(levels=levels,
                           total_variance=sum(lv.variance for lv in levels))


def test_grow_doubles_the_largest_variance_per_work():
    # the compare tests run at eps = 0.2, where no baseline ever doubles
    seen = []

    def make(counts):
        seen.append(list(counts))
        return fake_report(counts, [8.0, 1.0], [1.0, 1.0])
    # variance per work 8/N0^2 against 1/N1^2: level 0 until N0 = 8, then
    # level 1; the total variance 8/N0 + 1/N1 meets 1.3 at [8, 4]
    assert cli._grow(make, [2, 2], 1.3, 64).total_variance == 1.25
    assert seen == [[2, 2], [4, 2], [8, 2], [8, 4]]
    # past the cap of 4 points it gives up
    seen.clear()
    assert cli._grow(make, [2, 2], 1.3, 4) is None
    assert seen == [[2, 2], [4, 2]]


class TestCompare:
    def test_compare_writes_cost_rows(self, tmp_path):
        path = write_config(
            tmp_path,
            estimator="mlqmc",
            tolerances=[0.2, 0.1],
            estimators=["mlqmc", "qmc"],
            R=4,
        )
        assert main(["compare", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        rows = (Path(cfg.out_dir) / "cost_vs_tolerance.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2
        assert rows[1].split(",")[1] == "mlqmc"

    def test_baselines_are_the_estimators_at_the_grown_counts(self, tmp_path, monkeypatch):
        # each baseline row is the estimate of a direct estimator call at the
        # counts that _grow reached, on the adaptive run's finest mesh
        grown = []
        grow = cli._grow

        def spy(*args):
            grown.append(grow(*args))
            return grown[-1]
        monkeypatch.setattr(cli, "_grow", spy)
        kinds = ["mlqmc", "qmc", "mlmc", "mc"]
        path = write_config(tmp_path, tolerances=[0.2], estimators=kinds, R=4)
        assert main(["compare", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        rows = [row.split(",") for row in
                (Path(cfg.out_dir) / "cost_vs_tolerance.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["0.2", kind] for kind in kinds]

        qmc_rep, mlmc_rep, mc_rep = grown
        assert qmc_rep.levels[0].h == mlmc_rep.levels[-1].h == mc_rep.levels[0].h
        m = round(-np.log2(qmc_rep.levels[0].h))
        problem, z = cfg.problem(), cfg.vector()
        direct = [
            qmc_single_level(problem, m, cfg.s, qmc_rep.levels[0].n_points, cfg.n_shifts,
                             z, cfg.seed, options=cfg.options, max_workers=cfg.threads),
            mlmc_estimate(problem, [lv.n_points for lv in mlmc_rep.levels], cfg.seed,
                          s=cfg.s, s_policy=cfg.s_policy),
            mc_estimate(problem, m, cfg.s, mc_rep.levels[0].n_points, cfg.seed),
        ]
        assert [row[4] for row in rows[1:]] == [repr(rep.estimate) for rep in direct]

    def test_runs_whatever_the_estimator(self, tmp_path):
        # compare reads tolerances even where run refuses them
        path = write_config(tmp_path, estimator="mc", N=4, tolerances=[0.2],
                            estimators=["mlqmc", "mc"], R=4)
        out = tmp_path / "compare"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "cost_vs_tolerance.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["0.2", "mlqmc"],
                                                              ["0.2", "mc"]]

    def test_missed_baseline_exits_1_without_its_row(self, tmp_path, monkeypatch):
        # a baseline that cannot meet its variance target leaves out its row
        grow = cli._grow

        def qmc_misses(make, counts, var_target, cap):
            if make(list(counts)).kind == "qmc":
                return None
            return grow(make, counts, var_target, cap)
        monkeypatch.setattr(cli, "_grow", qmc_misses)
        path = write_config(tmp_path, tolerances=[0.2], estimators=["mlqmc", "qmc", "mc"],
                            R=4)
        out = tmp_path / "compare"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
        rows = (out / "cost_vs_tolerance.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["0.2", "mlqmc"],
                                                              ["0.2", "mc"]]

    def test_one_shift_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # compare always runs adaptive MLQMC, which needs R >= 2, whatever
        # the configured estimator
        def no_work(*args, **kwargs):
            raise AssertionError("compare started work")
        monkeypatch.setattr(cli, "adaptive_mlqmc", no_work)
        path = write_config(tmp_path, estimator="mc", R=1, tolerances=[0.5])
        ExperimentConfig.from_file(path)
        out = tmp_path / "never"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "R >= 2" in lines[0]
        assert not out.exists()

    def test_later_tolerance_at_level_cap_keeps_achieved(self, tmp_path):
        path = write_config(tmp_path, tolerances=[0.625, 0.05], R=4, max_level=1,
                            estimators=["mlqmc", "qmc"])
        out = tmp_path / "capped"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
        rows = (out / "cost_vs_tolerance.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["0.625", "mlqmc"],
                                                              ["0.625", "qmc"]]
