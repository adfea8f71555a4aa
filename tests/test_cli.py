import argparse
import csv
import shutil

import numpy as np
import pytest

from robustsurv import WEIBULL, EXPONENTIAL, FitResult, cli, datasets, if2_wald, pif, sigma_model
from robustsurv.cli import HypothesisParseError, build_parser, hypothesis_parse, main


def read_csv_rows(path) -> list[dict]:
    """Read back a CLI-written CSV (numbers round-trip exactly)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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
        stacked = np.array([2.0, 5.0, 2.0, 5.0])  # (theta1, theta2)
        np.testing.assert_array_equal(
            parsed.restriction.jacobian(stacked), [[0.0], [1.0], [0.0], [-1.0]]
        )
        parsed.restriction.validate_at(stacked)  # shape and rank check

    def test_direction_less_negates(self):
        parsed = hypothesis_parse("shape1=shape2 dir=less", WEIBULL)
        stacked = np.array([2.0, 6.0, 2.0, 5.0])  # (theta1, theta2)
        assert parsed.restriction.m(stacked)[0] == pytest.approx(-1.0)

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

    @pytest.mark.parametrize("argv", [
        ["--theta", "1e7,1", "--alpha", "0.5"],
        ["--theta", "1e7,1", "--alpha", "0.5", "--hypothesis", "shape=1"],
        # alpha 0 passes (cond 7e11) and alpha 1 does not (1.3e12): no partial output
        ["--theta", "6e5,1", "--alpha-grid", "0:1:1"],
    ], ids=["curve", "hypothesis", "second-alpha"])
    def test_singular_sensitivity_writes_nothing(self, outdir, capsys, argv):
        assert main(["influence", *argv, "--out", str(outdir)]) == 2
        assert "error: sensitivity matrix is singular" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_overflowing_theta_writes_nothing(self, outdir, capsys):
        code = main([
            "influence", "--family", "weibull", "--theta", "1e-300,2",
            "--hypothesis", "shape=2", "--out", str(outdir),
        ])
        assert code == 2
        assert "error: weighted integrals are not finite at theta=[1e-300, 2.0]" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("hypothesis", [["--hypothesis", "shape=5"], []],
                             ids=["hypothesis", "curves-only"])
    @pytest.mark.parametrize("level", ["0", "1", "2", "-0.5", "nan"])
    def test_level_outside_unit_interval_writes_nothing(self, outdir, capsys, level, hypothesis):
        code = main(["influence", "--theta", "2,5", "--level", level, *hypothesis,
                     "--out", str(outdir)])
        assert code == 2
        assert "error: level must lie in (0, 1)" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("option,value", [
        ("--t-min", "-1"), ("--t-min", "0"), ("--t-min", "nan"), ("--t-max", "inf"), ("--t-max", "nan"),
    ])
    def test_t_range_outside_the_positive_reals_writes_nothing(self, outdir, capsys, option, value):
        # refused before numpy builds the grid, so no RuntimeWarning precedes it
        code = main(["influence", "--theta", "2,5", option, value, "--out", str(outdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {option} must be positive and finite, got {float(value)!r}\n"
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_t_points_below_one_writes_nothing(self, outdir, capsys, points):
        code = main(["influence", "--theta", "2,5", "--t-points", points, "--out", str(outdir)])
        assert code == 2
        assert "error: --t-points must be at least 1" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_bad_grid(self, outdir, capsys):
        code = main([
            "fit", "veteran", "--alpha-grid", "1:0:0.1", "--out", str(outdir)
        ])
        assert code == 2


def run(argv, outdir) -> int:
    """main's exit code, whether main returns it or argparse exits with it."""
    try:
        return main(argv + ["--out", str(outdir)])
    except SystemExit as exc:
        return exc.code


def written(outdir) -> list:
    return sorted(p.name for p in outdir.iterdir()) if outdir.exists() else []


@pytest.fixture()
def seen(monkeypatch):
    """The samples each command handed to fit_grid or kmpl_fit."""
    samples = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(sample, *rest):
            samples.append(sample)
            return real(sample, *rest)

        monkeypatch.setattr(cli, name, wrapper)

    spy("fit_grid")
    spy("kmpl_fit")
    return samples


ONE_SAMPLE = {
    "fit": ["fit", "veteran", "--alpha", "0"],
    "test": ["test", "veteran", "--hypothesis", "shape=1", "--alpha", "0"],
    "kmplot": ["kmplot", "veteran"],
}
COMPARE = ["compare", "veteran", "--hypothesis", "shape1=shape2", "--alpha", "0"]
TWO_FILES = ["compare", "veteran", "veteran", *COMPARE[2:]]


class TestInputRule:
    """One rule for every command's input: --arm-column and --arm take effect
    together or the command exits 2 and writes nothing."""

    @pytest.mark.parametrize("command", ONE_SAMPLE)
    @pytest.mark.parametrize("arm_options,expected", [
        ([], "combined"),
        (["--arm-column", "arm", "--arm", "A"], "A"),
        (["--arm-column", "arm", "--arm", "B"], "B"),
    ], ids=["whole-file", "arm-A", "arm-B"])
    def test_selects_exactly_that_sample(self, outdir, veteran, seen, command, arm_options,
                                         expected):
        assert run(ONE_SAMPLE[command] + arm_options, outdir) == 0
        assert written(outdir) == [f"{command}.csv"]
        (sample,) = seen
        assert sample.n == {"A": 69, "B": 68, "combined": 137}[expected]
        assert sample.z.tobytes() == veteran[expected].z.tobytes()
        assert sample.delta.tobytes() == veteran[expected].delta.tobytes()

    @pytest.mark.parametrize("command", ONE_SAMPLE)
    @pytest.mark.parametrize("bad,message", [
        (["--arm", "A"], "--arm and --arm-column must be given together"),
        (["--arm-column", "arm"], "--arm and --arm-column must be given together"),
        (["--arm-column", "arm", "--arm", "Z"], "arm 'Z' not found (have ['A', 'B'])"),
        (["--arm-column", "nonexistent", "--arm", "A"], "missing column 'nonexistent'"),
        (["--time-column", "nonexistent"], "missing column 'nonexistent'"),
        (["--time-column", "time_days"], "missing column 'time_days'"),
        (["--status-column", "nonexistent"], "missing column 'nonexistent'"),
    ], ids=["arm-only", "arm-column-only", "unknown-arm", "unknown-arm-column",
            "unknown-time-column", "old-time-column", "unknown-status-column"])
    def test_refused_input_writes_nothing(self, outdir, capsys, command, bad, message):
        assert run(ONE_SAMPLE[command] + bad, outdir) == 2
        assert message in capsys.readouterr().err
        assert written(outdir) == []

    def test_compare_splits_one_file_by_arm(self, outdir, veteran, seen):
        assert run(COMPARE + ["--arm-column", "arm"], outdir) == 0
        sample1, sample2 = seen
        assert (sample1.z.tobytes(), sample2.z.tobytes()) == (
            veteran["A"].z.tobytes(), veteran["B"].z.tobytes())
        rows = read_csv_rows(outdir / "compare.csv")
        assert (rows[0]["n1"], rows[0]["n2"]) == ("69", "68")

    @pytest.mark.parametrize("argv,message", [
        (COMPARE, "compare takes two input files, or one file with --arm-column"),
        (TWO_FILES + ["--arm-column", "arm"],
         "compare takes two input files, or one file with --arm-column"),
        (["compare", "veteran", *TWO_FILES[1:]],
         "compare takes two input files, or one file with --arm-column"),
        (COMPARE + ["--arm-column", "time"], "--arm-column must yield exactly two arms"),
        (COMPARE + ["--arm-column", "arm", "--time-column", "nonexistent"],
         "missing column 'nonexistent'"),
        (COMPARE + ["--arm", "A"], "unrecognized arguments: --arm A"),
        (COMPARE + ["--arm-column", "arm", "--arm", "Z"], "unrecognized arguments: --arm Z"),
    ], ids=["one-file", "two-files-arm-column", "three-files", "many-arms",
            "unknown-time-column", "arm", "arm-column-and-arm"])
    def test_compare_refused_input_writes_nothing(self, outdir, capsys, argv, message):
        assert run(argv, outdir) == 2
        assert message in capsys.readouterr().err
        assert written(outdir) == []

    def test_copy_of_bundled_file_reads_like_the_alias(self, tmp_path):
        copy = tmp_path / "trial.csv"
        shutil.copyfile(datasets.veteran_csv_path(), copy)
        commands = [
            ["fit", "--alpha-grid", "0:1:0.5", "--arm-column", "arm", "--arm", "A"],
            ["fit", "--alpha", "0.5"],
            ["test", "--hypothesis", "shape=1", "--alpha", "0.5", "--arm-column", "arm",
             "--arm", "B"],
            ["compare", "--arm-column", "arm", "--hypothesis", "shape1=shape2 dir=greater",
             "--alpha", "0.5"],
            ["kmplot"],
        ]
        for k, (name, *options) in enumerate(commands):
            alias, path = tmp_path / f"alias{k}", tmp_path / f"path{k}"
            assert run([name, "veteran", *options], alias) == 0
            assert run([name, str(copy), *options], path) == 0
            assert written(alias) == written(path) == [f"{name}.csv"]
            assert (alias / f"{name}.csv").read_bytes() == (path / f"{name}.csv").read_bytes()


INPUTS = {"inputs", "time_column", "status_column", "arm_column"}
TUNING = {"family", "alpha", "alpha_grid"}
OPTIONS = {
    "fit": INPUTS | TUNING | {"arm", "out"},
    "test": INPUTS | TUNING | {"arm", "hypothesis", "out"},
    "compare": INPUTS | TUNING | {"hypothesis", "out"},
    "kmplot": INPUTS | {"arm", "out"},
    "influence": TUNING | {"level", "theta", "hypothesis", "t_min", "t_max", "t_points", "out"},
    "simulate": TUNING | {"level", "seed", "workers", "experiment", "theta", "censoring_mean",
                          "contamination_fraction", "contamination", "hypothesis", "n",
                          "replications", "out"},
}
SIMULATE = ["simulate", "--family", "exp", "--theta", "1", "--censoring-mean", "9",
            "--n", "20", "--replications", "2", "--alpha", "0", "--hypothesis", "mean=1"]


class TestOptionGroups:
    def test_each_command_declares_only_what_it_reads(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: [a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in commands.choices.items()
        }
        assert {name: set(dests) for name, dests in declared.items()} == OPTIONS
        assert sum(map(len, declared.values())) == 59

    @pytest.mark.parametrize("argv", [
        ["kmplot", "veteran", "--alpha", "0"],
        ["kmplot", "veteran", "--family", "exp"],
        ["fit", "veteran", "--seed", "1"],
        ["test", "veteran", "--hypothesis", "shape=1", "--level", "0.1"],
        ["influence", "--theta", "2,5", "--workers", "2"],
        ["simulate", *SIMULATE[1:], "--arm", "A"],
    ], ids=["kmplot-alpha", "kmplot-family", "fit-seed", "test-level", "influence-workers",
            "simulate-arm"])
    def test_unread_option_is_refused(self, outdir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(outdir)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("variable", ["ROBUSTSURV_SEED", "ROBUSTSURV_WORKERS"])
    def test_environment_read_by_simulate_only(self, outdir, capsys, monkeypatch, variable):
        monkeypatch.setenv(variable, "abc")
        assert main(["kmplot", "veteran", "--out", str(outdir / "km")]) == 0
        assert main(["fit", "veteran", "--alpha", "0", "--out", str(outdir / "fit")]) == 0
        capsys.readouterr()
        assert main(SIMULATE + ["--out", str(outdir / "sim")]) == 2
        assert "error:" in capsys.readouterr().err
        assert list((outdir / "sim").iterdir()) == []


class TestReportTable:
    """test and compare share one table: a failed first alpha keeps every
    column and the converged rows' hypothesis text."""

    @pytest.fixture(autouse=True)
    def fail_alpha_zero(self, monkeypatch):
        real = cli.fit_grid

        def patched(sample, family, grid):
            return [FitResult.failed(family, sample.n, r.alpha, "no root") if r.alpha == 0.0 else r
                    for r in real(sample, family, grid)]

        monkeypatch.setattr(cli, "fit_grid", patched)

    def check(self, path, columns, hypothesis):
        header = path.read_text().splitlines()[0].split(",")
        rows = read_csv_rows(path)
        assert header == columns
        assert [r["converged"] for r in rows] == ["false", "true", "true"]
        assert rows[0]["statistic"] == rows[0]["p_value"] == "nan"
        assert {r["hypothesis"] for r in rows} == {hypothesis}
        diagnostics = columns[columns.index("converged") + 1:]
        assert [[bool(r[k]) for k in diagnostics] for r in rows] == [
            [False] * len(diagnostics), [True] * len(diagnostics), [True] * len(diagnostics)]
        return rows

    def test_test_table(self, outdir):
        code = main(["test", "veteran", "--arm-column", "arm", "--arm", "B",
                     "--hypothesis", "shape=1", "--alpha-grid", "0:1:0.5", "--out", str(outdir)])
        assert code == 1
        rows = self.check(outdir / "test.csv",
                          ["alpha_dpd", "hypothesis", "statistic", "df", "p_value", "converged",
                           "lambda_cond", "inner_cond", "residual_mass_flagged"], "shape = 1")
        assert [r["df"] for r in rows] == ["1"] * 3

    def test_compare_table(self, outdir):
        code = main(["compare", "veteran", "--arm-column", "arm",
                     "--hypothesis", "shape1=shape2 dir=greater", "--alpha-grid", "0:1:0.5",
                     "--out", str(outdir)])
        assert code == 1
        rows = self.check(outdir / "compare.csv",
                          ["alpha_dpd", "hypothesis", "statistic", "df", "one_sided", "p_value",
                           "n1", "n2", "converged", "sigma_tilde_cond"],
                          "shape1 = shape2 (one-sided)")
        assert [(r["df"], r["one_sided"], r["n1"], r["n2"]) for r in rows] == [
            ("", "true", "69", "68")] * 3


class TestCsvFormat:
    def test_every_command_writes_the_one_format(self, tmp_path):
        # LF line ends only, a full header row, floats to 17 significant
        # digits and lowercase booleans, whichever module wrote the file
        commands = {
            "fit": ["fit", "veteran", "--alpha-grid", "0:1:0.5"],
            "test": ["test", "veteran", "--hypothesis", "shape=1", "--alpha", "0.5"],
            "compare": ["compare", "veteran", "--arm-column", "arm",
                        "--hypothesis", "shape1=shape2 dir=greater", "--alpha", "0.5"],
            "kmplot": ["kmplot", "veteran"],
            "influence": ["influence", "--theta", "2,5", "--hypothesis", "shape=5",
                          "--alpha", "0.5", "--t-points", "20"],
            "simulate": ["simulate", "--family", "exp", "--theta", "1",
                         "--censoring-mean", "9", "--n", "30", "--replications", "5",
                         "--alpha", "0", "--hypothesis", "mean=1"],
        }
        written = []
        for name, argv in commands.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            written += sorted((tmp_path / name).iterdir())
        assert len(written) == 7
        for path in written:
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), path.name
            header, *rows = list(csv.reader(data.decode("utf-8").split("\n")[:-1]))
            assert rows and all(len(row) == len(header) for row in rows), path.name
            for cell in (cell for row in rows for cell in row):
                assert cell not in ("True", "False"), path.name
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert cell == f"{value:.17g}", (path.name, cell)


class TestDatasets:
    def test_veteran_structure(self, veteran):
        assert veteran["A"].n == 69
        assert veteran["B"].n == 68
        assert veteran["combined"].n == 137
        censored = 137 - veteran["combined"].n_events
        assert censored == 9
