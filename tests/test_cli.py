import numpy as np
import pytest

from robustsurv import WEIBULL, EXPONENTIAL, datasets, if2_wald, pif, sigma_model
from robustsurv.cli import (
    HypothesisParseError,
    hypothesis_parse,
    main,
    read_csv_rows,
)


class TestHypothesisParse:
    def test_simple_named(self):
        parsed = hypothesis_parse("scale=2,shape=5", WEIBULL)
        assert not parsed.two_sample and parsed.restriction.r == 2
        np.testing.assert_array_equal(
            parsed.restriction.jacobian(np.ones(2)), np.eye(2)
        )
        np.testing.assert_allclose(parsed.restriction.m(np.array([2.0, 5.0])), 0.0)

    def test_simple_vector_form(self):
        parsed = hypothesis_parse("theta=2,5", WEIBULL)
        assert parsed.restriction.r == 2
        np.testing.assert_allclose(parsed.restriction.m(np.array([2.0, 5.0])), 0.0)

    def test_component(self):
        parsed = hypothesis_parse("shape=1", WEIBULL)
        assert parsed.restriction.r == 1
        np.testing.assert_array_equal(
            parsed.restriction.jacobian(np.ones(2)), [[0.0], [1.0]]
        )

    def test_exponential_mean(self):
        parsed = hypothesis_parse("mean=2", EXPONENTIAL)
        assert parsed.restriction.r == 1

    def test_two_sample_homogeneity(self):
        parsed = hypothesis_parse("theta1=theta2", WEIBULL)
        assert parsed.two_sample and parsed.restriction.r == 2

    def test_two_sample_one_sided(self):
        parsed = hypothesis_parse("shape1=shape2 dir=greater", WEIBULL)
        assert parsed.two_sample and parsed.direction == "greater"
        theta = np.array([2.0, 5.0])
        np.testing.assert_array_equal(
            parsed.restriction.jacobian1(theta, theta), [[0.0], [1.0]]
        )
        np.testing.assert_array_equal(
            parsed.restriction.jacobian2(theta, theta), [[0.0], [-1.0]]
        )
        parsed.restriction.validate_at(theta, theta)  # finite-difference check

    def test_direction_less_negates(self):
        parsed = hypothesis_parse("shape1=shape2 dir=less", WEIBULL)
        theta1 = np.array([2.0, 6.0])
        theta2 = np.array([2.0, 5.0])
        assert parsed.restriction.m(theta1, theta2)[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty"),
            ("shape=abc", "clause"),
            ("scale=1,scale=2", "twice"),
            ("flavor=1", "unknown parameter"),
            ("shape1=scale2", "mismatched"),
            ("shape=1 dir=greater", "two-sample"),
            ("theta=2", "2 value"),
            ("shape1=shape2 dir=sideways", "direction"),
        ],
    )
    def test_errors_carry_position_info(self, text, match):
        with pytest.raises(HypothesisParseError, match=match):
            hypothesis_parse(text, WEIBULL)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestFitCommand:
    def test_singleton_grid_single_row(self, outdir):
        code = main(["fit", "veteran", "--alpha", "0", "--out", str(outdir)])
        assert code == 0
        rows = read_csv_rows(outdir / "fit.csv")
        assert len(rows) == 1
        assert float(rows[0]["scale"]) == pytest.approx(121.0, abs=3.0)

    def test_arm_selection(self, outdir):
        code = main([
            "fit", "veteran", "--alpha", "0", "--arm-column", "arm", "--arm", "A",
            "--out", str(outdir),
        ])
        assert code == 0
        rows = read_csv_rows(outdir / "fit.csv")
        assert float(rows[0]["scale"]) == pytest.approx(123.0, abs=3.0)
        assert float(rows[0]["shape"]) == pytest.approx(0.99, abs=0.05)


class TestTestCommand:
    def test_exponentiality_pvalue_curve(self, outdir):
        # outlier-affected arm: significant at alpha=0, stable insignificant
        # for alpha beyond ~0.2
        code = main([
            "test", "veteran", "--arm-column", "arm", "--arm", "B",
            "--hypothesis", "shape=1", "--alpha-grid", "0:1:0.1",
            "--out", str(outdir),
        ])
        assert code == 0
        rows = read_csv_rows(outdir / "test.csv")
        assert len(rows) == 11
        p = {float(r["alpha_dpd"]): float(r["p_value"]) for r in rows}
        assert p[0.0] < 0.05
        assert all(p[a] > 0.05 for a in (0.3, 0.5, 0.7, 1.0))

    def test_roundtrip_exact(self, outdir):
        main([
            "test", "veteran", "--arm-column", "arm", "--arm", "B",
            "--hypothesis", "shape=1", "--alpha", "0.5", "--out", str(outdir),
        ])
        rows = read_csv_rows(outdir / "test.csv")
        from robustsurv import FitConfig, LinearRestriction, fit, wald_statistic

        arm = datasets.load_veteran()["B"]
        report = wald_statistic(
            fit(arm, WEIBULL, FitConfig(alpha=0.5)),
            LinearRestriction.component(1, 1.0, 2, name="shape"),
        )
        assert float(rows[0]["statistic"]) == report.statistic
        assert float(rows[0]["p_value"]) == report.p_value


class TestCompareCommand:
    def test_one_sided_shapes(self, outdir):
        code = main([
            "compare", "veteran", "--arm-column", "arm",
            "--hypothesis", "shape1=shape2 dir=greater",
            "--alpha", "0.5", "--out", str(outdir),
        ])
        assert code == 0
        rows = read_csv_rows(outdir / "compare.csv")
        assert rows[0]["one_sided"] == "true"
        assert float(rows[0]["p_value"]) == pytest.approx(0.39, abs=0.06)

    def test_two_files(self, outdir, tmp_path):
        arms = datasets.load_veteran()
        from robustsurv import write_csv

        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(arms["A"], a_path)
        write_csv(arms["B"], b_path)
        code = main([
            "compare", str(a_path), str(b_path),
            "--hypothesis", "theta1=theta2", "--alpha", "0.5", "--out", str(outdir),
        ])
        assert code == 0
        rows = read_csv_rows(outdir / "compare.csv")
        assert rows[0]["n1"] == "69" and rows[0]["n2"] == "68"


class TestKmplotCommand:
    def test_writes_loglog_hazard(self, outdir):
        code = main(["kmplot", "veteran", "--out", str(outdir)])
        assert code == 0
        rows = read_csv_rows(outdir / "kmplot.csv")
        with_hazard = [r for r in rows if r["log_cumulative_hazard"]]
        assert len(with_hazard) > 50
        # straight-line diagnostic data: both columns finite
        assert all(np.isfinite(float(r["log_time"])) for r in with_hazard)


class TestInfluenceCommand:
    def test_curve_files(self, outdir):
        code = main([
            "influence", "--family", "weibull", "--theta", "2,5",
            "--alpha", "0.5", "--hypothesis", "shape=5",
            "--t-points", "50", "--out", str(outdir),
        ])
        assert code == 0
        rows = read_csv_rows(outdir / "if_alpha0.5.csv")
        assert len(rows) == 50
        rows2 = read_csv_rows(outdir / "if2_pif_alpha0.5.csv")
        assert all(float(r["if2"]) >= 0.0 for r in rows2)

    def test_two_sample_hypothesis_writes_nothing(self, outdir, capsys):
        code = main([
            "influence", "--family", "weibull", "--theta", "2,5",
            "--hypothesis", "shape1=shape2", "--t-points", "20", "--out", str(outdir),
        ])
        assert code == 2
        assert "one-sample" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_hypothesis_files_match_the_api(self, outdir, tmp_path):
        argv = [
            "influence", "--family", "weibull", "--theta", "2,5",
            "--alpha-grid", "0:1:0.5", "--t-points", "20",
        ]
        assert main(argv + ["--hypothesis", "shape=5", "--out", str(outdir)]) == 0
        plain = tmp_path / "plain"
        assert main(argv + ["--out", str(plain)]) == 0
        theta0, grid = np.array([2.0, 5.0]), np.geomspace(1e-2, 1e2, 20)
        restriction = hypothesis_parse("shape=5", WEIBULL).restriction
        for alpha in (0.0, 0.5, 1.0):
            name = f"if_alpha{alpha:g}.csv"
            assert (outdir / name).read_bytes() == (plain / name).read_bytes()
            sigma = sigma_model(WEIBULL, theta0, alpha)
            if2 = if2_wald(WEIBULL, theta0, alpha, restriction, grid, sigma=sigma)
            pifv = pif(WEIBULL, theta0, alpha, restriction, np.ones(2), grid,
                       level=0.05, sigma=sigma)
            rows = read_csv_rows(outdir / f"if2_pif_alpha{alpha:g}.csv")
            assert [float(r["if2"]) for r in rows] == if2.tolist()
            assert [float(r["pif"]) for r in rows] == pifv.tolist()
        assert len(list(outdir.iterdir())) == 6

    def test_alpha_zero_writes_one_curve(self, outdir):
        code = main([
            "influence", "--family", "weibull", "--theta", "2,5",
            "--alpha", "0", "--t-points", "20", "--out", str(outdir),
        ])
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["if_alpha0.csv"]


class TestSimulateCommand:
    def test_tiny_level_run(self, outdir):
        code = main([
            "simulate", "--family", "exp", "--theta", "1",
            "--censoring-mean", "9", "--n", "40", "--replications", "20",
            "--alpha", "0", "--hypothesis", "mean=1",
            "--seed", "3", "--out", str(outdir),
        ])
        assert code == 0
        rows = read_csv_rows(outdir / "simulate_level_power.csv")
        assert rows[0]["hypothesis"] == "mean=1"
        assert int(rows[0]["valid"]) + int(rows[0]["failed"]) == 20


    def test_environment_read_per_call(self, outdir, monkeypatch):
        from robustsurv import cli

        specs = []

        def capture(spec):
            specs.append(spec)
            return real(spec)

        real = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", capture)
        argv = [
            "simulate", "--family", "exp", "--theta", "1",
            "--censoring-mean", "9", "--n", "20", "--replications", "2",
            "--alpha", "0", "--hypothesis", "mean=1", "--out", str(outdir),
        ]
        for seed, workers in (("11", "1"), ("12", "2")):
            monkeypatch.setenv("ROBUSTSURV_SEED", seed)
            monkeypatch.setenv("ROBUSTSURV_WORKERS", workers)
            assert main(argv) == 0
        assert [(s.design.seed, s.workers) for s in specs] == [(11, 1), (12, 2)]
        monkeypatch.delenv("ROBUSTSURV_SEED")
        monkeypatch.delenv("ROBUSTSURV_WORKERS")
        assert main(argv + ["--seed", "5"]) == 0
        assert (specs[-1].design.seed, specs[-1].workers) == (5, 1)


class TestErrorPaths:
    def test_missing_file(self, outdir, capsys):
        code = main(["fit", "nope.csv", "--out", str(outdir)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_hypothesis(self, outdir, capsys):
        code = main([
            "test", "veteran", "--hypothesis", "nonsense", "--out", str(outdir)
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["fit", "veteran", "--arm-column", "arm", "--arm", "B"],
        ["influence", "--family", "weibull", "--theta", "2,5"],
    ], ids=["fit", "influence"])
    @pytest.mark.parametrize("alpha", [
        ["--alpha", "nan"], ["--alpha", "inf"], ["--alpha-grid", "0:nan:0.1"],
        ["--alpha-grid", "nan:1:0.1"], ["--alpha-grid", "0:inf:0.5"],
    ], ids=["nan", "inf", "grid-stop-nan", "grid-start-nan", "grid-stop-inf"])
    def test_nonfinite_alpha_writes_nothing(self, outdir, capsys, command, alpha):
        assert main(command + alpha + ["--out", str(outdir)]) == 2
        assert "error: alpha must be finite and nonnegative" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_overflowing_theta_writes_nothing(self, outdir, capsys):
        code = main([
            "influence", "--family", "weibull", "--theta", "1e-300,2",
            "--hypothesis", "shape=2", "--out", str(outdir),
        ])
        assert code == 2
        assert "error: sensitivity matrix has non-finite entries" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_bad_grid(self, outdir, capsys):
        code = main([
            "fit", "veteran", "--alpha-grid", "1:0:0.1", "--out", str(outdir)
        ])
        assert code == 2


class TestDatasets:
    def test_veteran_structure(self, veteran):
        assert veteran["A"].n == 69
        assert veteran["B"].n == 68
        assert veteran["combined"].n == 137
        censored = 137 - veteran["combined"].n_events
        assert censored == 9
