import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mlqmc_eig import build_uniform_mesh, cli, smallest_eigenpair_cold
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
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


# configs that must exit 2 at load; each names what the error must mention
MALFORMED = [
    pytest.param({"options": {"two_grid": "false"}}, "two_grid", id="bool-as-string"),
    pytest.param({"R": "abc"}, "'R'", id="int-as-string"),
    pytest.param({"levels": [3, 2]}, "powers of 2", id="mlqmc-levels-not-pow2"),
    pytest.param({"estimator": "mlmc", "levels": [6, 3]}, "powers of 2",
                 id="mlmc-levels-not-pow2"),
    pytest.param({"estimator": "qmc", "N": 3}, "powers of 2", id="qmc-n-not-pow2"),
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
    pytest.param({"study": {"mode": "two_grid", "exponents": [3, 4, 5],
                            "coarse_exponent": 4}}, "coarse_exponent",
                 id="two-grid-study-coarse-finer"),
    pytest.param({"study": {"mode": "two_grid", "coarse_s": 65}}, "coarse_s",
                 id="two-grid-study-coarse-s-above-s"),
    pytest.param({"s": 300}, "need at least 300", id="vector-too-short"),
    pytest.param({"generating_vector": "missing.txt"}, "missing.txt",
                 id="vector-missing"),
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

    def test_two_grid_rate_near_two(self, tmp_path):
        path = write_config(
            tmp_path,
            study={"mode": "two_grid", "exponents": [4, 5, 6],
                   "coarse_exponent": 3, "coarse_s": 8},
        )
        summary = convergence_study(ExperimentConfig.from_file(path))
        assert 1.8 <= summary["fitted_rate"] <= 2.2


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
                          s=cfg.s, s_policy=cfg.s_policy, rq_tol=cfg.options.rq_tol),
            mc_estimate(problem, m, cfg.s, mc_rep.levels[0].n_points, cfg.seed,
                        rq_tol=cfg.options.rq_tol),
        ]
        assert [row[4] for row in rows[1:]] == [repr(rep.estimate) for rep in direct]

    def test_later_tolerance_at_level_cap_keeps_achieved(self, tmp_path):
        path = write_config(tmp_path, tolerances=[0.625, 0.05], R=4, max_level=1,
                            estimators=["mlqmc", "qmc"])
        out = tmp_path / "capped"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
        rows = (out / "cost_vs_tolerance.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["0.625", "mlqmc"],
                                                              ["0.625", "qmc"]]
