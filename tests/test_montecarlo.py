from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustsurv import (
    ExperimentSpec,
    FamilySpec,
    LinearRestriction,
    SyntheticDesign,
    run_experiment,
    run_level_power,
    simulate,
)
from robustsurv import montecarlo


def exp_design(seed=0, eps=0.0, contam_mean=10.0):
    return SyntheticDesign(
        lifetime=FamilySpec("exp", (1.0,)),
        censoring_mean=9.0,
        contamination_fraction=eps,
        contamination=FamilySpec("exp", (contam_mean,)) if eps else None,
        seed=seed,
    )


def small_spec(**kwargs):
    defaults = dict(
        design=exp_design(seed=17),
        n=40,
        replications=24,
        alpha_grid=(0.0, 0.5),
        hypotheses=(("H_mean1", LinearRestriction.simple((1.0,))),),
        level=0.05,
        kind="level_power",
        workers=1,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            small_spec(kind="bogus")

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            small_spec(alpha_grid=(0.5, 0.0))

    @pytest.mark.parametrize("grid", [(np.nan,), (0.0, np.nan), (0.0, np.inf)])
    def test_rejects_nonfinite_alpha(self, grid):
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            small_spec(alpha_grid=grid)

    def test_rejects_missing_hypotheses(self):
        with pytest.raises(ValueError, match="hypothesis"):
            small_spec(hypotheses=())

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError, match="level"):
            small_spec(level=1.0)


class TestLevelPower:
    def test_counts_reconcile_and_se_binomial(self):
        report = run_level_power(small_spec())
        for row in report.rows:
            assert row["valid"] + row["failed"] == 24
            if row["valid"]:
                p = row["rejection_rate"]
                assert row["std_error"] == pytest.approx(
                    np.sqrt(p * (1 - p) / row["valid"]), rel=1e-12
                )
                assert 0.0 <= p <= 1.0

    def test_deterministic_across_worker_counts(self):
        serial = run_level_power(small_spec()).to_csv_string()
        parallel = run_level_power(small_spec(workers=2)).to_csv_string()
        assert serial == parallel

    def test_failures_counted_and_flagged(self, monkeypatch):
        calls = {"count": 0}
        real_fit_grid = montecarlo.fit_grid

        def flaky(sample, family, grid):
            calls["count"] += 1
            results = real_fit_grid(sample, family, grid)
            if calls["count"] % 3 == 0:  # fail every third replication
                import dataclasses

                results = [dataclasses.replace(r, converged=False) for r in results]
            return results

        monkeypatch.setattr(montecarlo, "fit_grid", flaky)
        report = run_level_power(small_spec())
        assert report.invalid
        assert all(v == 8 for v in report.failed_by_alpha.values())
        for row in report.rows:
            assert row["failed"] == 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_test_failures_counted_by_reason(self, workers):
        # r = 2 restriction on a one-parameter family: its Jacobian is
        # rank-deficient, so wald_statistic raises on every converged fit
        bad = LinearRestriction(np.ones((1, 2)), np.ones(2), description="rank 1")
        spec = small_spec(
            replications=6,
            workers=workers,
            hypotheses=(("H_mean1", LinearRestriction.simple((1.0,))), ("H_bad", bad)),
        )
        report = run_level_power(spec)
        reason = "ValueError: restriction jacobian is rank-deficient at theta"
        converged = sum(r["valid"] for r in report.rows if r["hypothesis"] == "H_mean1")
        assert converged > 0
        assert report.test_failures == {reason: converged}
        assert all(r["valid"] == 0 for r in report.rows if r["hypothesis"] == "H_bad")
        assert f"failed tests by reason: {reason}: {converged}" in report.summary()
        assert "rank-deficient" not in report.to_csv_string()

    def test_csv_roundtrip(self, tmp_path):
        report = run_level_power(small_spec())
        out = tmp_path / "report.csv"
        report.write_csv(out)
        import csv

        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.rows)
        for disk, mem in zip(rows, report.rows):
            assert float(disk["rejection_rate"]) == pytest.approx(
                mem["rejection_rate"], abs=0.0
            )

    def test_run_experiment_dispatch(self):
        report = run_experiment(small_spec())
        assert report.kind == "level_power"
        assert report.to_csv_string() == run_level_power(small_spec()).to_csv_string()
        with pytest.raises(ValueError, match="spec.kind must be 'level_power'"):
            run_level_power(small_spec(kind="mse", hypotheses=()))


def numpy_tally(pvals, spec):
    """Rows and failed fits per alpha of a (replications, alpha, hypothesis)
    p-value table by np.isfinite, np.mean over the booleans and np.sqrt: the
    oracle of run_level_power's tally in ints and floats."""
    rows = []
    for i, alpha in enumerate(spec.alpha_grid):
        for j, (name, _) in enumerate(spec.hypotheses):
            col = pvals[:, i, j]
            valid = np.isfinite(col)
            k = int(valid.sum())
            rate = float(np.mean(col[valid] < spec.level)) if k else float("nan")
            se = float(np.sqrt(rate * (1.0 - rate) / k)) if k else float("nan")
            rows.append((float(alpha), name, rate, se, k, spec.replications - k))
    converged = np.isfinite(pvals).any(axis=2)
    failed = {float(a): int(spec.replications - converged[:, i].sum()) for i, a in enumerate(spec.alpha_grid)}
    return rows, failed


class TestTally:
    @given(
        st.integers(1, 50),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_numpy_tally(self, replications, n_alpha, n_hyp, seed):
        # p-values drawn uniform, some exactly at the level, with NaN cells
        # (failed tests) and NaN rows (failed fits)
        rng = np.random.default_rng(seed)
        pvals = rng.uniform(0.0, 0.2, (replications, n_alpha, n_hyp))
        pvals[rng.random(pvals.shape) < 0.1] = 0.05
        pvals[rng.random(pvals.shape) < 0.15] = np.nan
        pvals[rng.random(pvals.shape[:2]) < 0.2] = np.nan
        spec = small_spec(
            replications=replications,
            alpha_grid=tuple(0.25 * a for a in range(n_alpha)),
            hypotheses=tuple((f"H{j}", LinearRestriction.simple((1.0,))) for j in range(n_hyp)),
        )
        per_rep = [(table.tolist(), Counter()) for table in pvals]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_collect", lambda spec, worker: per_rep)
            report = run_level_power(spec)
        rows, failed = numpy_tally(pvals, spec)
        got = [tuple(row[c] for c in report.columns) for row in report.rows]
        assert len(got) == len(rows)
        for mine, theirs in zip(got, rows):
            assert [type(v) for v in mine] == [type(v) for v in theirs]
            assert repr(mine) == repr(theirs)
        assert report.failed_by_alpha == failed
        assert report.invalid == any(k > 0.02 * replications for k in failed.values())

    def test_replication_tables_are_lists_of_floats(self):
        out, failures = montecarlo._level_power_rep(small_spec(), 0)
        assert isinstance(out, list) and all(isinstance(row, list) for row in out)
        assert all(isinstance(p, float) and 0.0 <= p <= 1.0 for row in out for p in row)
        assert failures == Counter()


class TestMse:
    def test_single_replication_is_squared_error(self):
        spec = small_spec(kind="mse", replications=1, hypotheses=())
        report = run_experiment(spec)
        from robustsurv import EXPONENTIAL, FitConfig, fit

        sample = simulate(spec.design, spec.n, replication=0)
        theta_hat = fit(sample, EXPONENTIAL, FitConfig(alpha=0.0)).theta_hat[0]
        row = next(r for r in report.rows if r["alpha"] == 0.0)
        assert row["empirical_mse"] == pytest.approx((theta_hat - 1.0) ** 2, rel=1e-12)

    def test_efficiency_and_robustness_orderings(self):
        pure = run_experiment(
            small_spec(kind="mse", design=exp_design(seed=5), n=100,
                       replications=400, alpha_grid=(0.0, 1.0), hypotheses=())
        )
        mse = {row["alpha"]: row["empirical_mse"] for row in pure.rows}
        assert mse[0.0] < mse[1.0]  # pure-data efficiency ordering

        contaminated = run_experiment(
            small_spec(kind="mse", design=exp_design(seed=6, eps=0.1), n=100,
                       replications=400, alpha_grid=(0.0, 0.5), hypotheses=())
        )
        mse_c = {row["alpha"]: row["empirical_mse"] for row in contaminated.rows}
        assert mse_c[0.0] > mse_c[0.5]  # robustness reversal under contamination


class TestVarianceRatio:
    def test_columns_and_ratio_definition(self):
        spec = small_spec(kind="variance_ratio", replications=60, n=80, hypotheses=())
        report = run_experiment(spec)
        for row in report.rows:
            assert row["ratio"] == pytest.approx(
                row["mean_variance_estimate"] / row["empirical_mse"], rel=1e-12
            )

    def test_mse_report_is_the_ratio_report_without_its_ratio_columns(self):
        spec = small_spec(kind="variance_ratio", replications=30, n=60, hypotheses=(),
                          alpha_grid=(0.0, 0.5, 1.0))
        ratio = run_experiment(spec)
        mse = run_experiment(replace(spec, kind="mse"))
        assert ratio.columns == mse.columns[:4] + ("mean_variance_estimate", "ratio") + mse.columns[4:]
        drop = ("mean_variance_estimate", "ratio")
        stripped = [{c: v for c, v in row.items() if c not in drop} for row in ratio.rows]
        assert repr(stripped) == repr(mse.rows)
        assert (mse.failed_by_alpha, mse.invalid, mse.test_failures) == (
            ratio.failed_by_alpha, ratio.invalid, ratio.test_failures)

    def test_small_sample_brackets(self):
        # scale-parameter calibration is tight already at n=50; the shape
        # parameter needs a wider bracket there
        spec = ExperimentSpec(
            design=SyntheticDesign(
                lifetime=FamilySpec("weibull", (2.0, 5.0)), censoring_mean=17.4, seed=31
            ),
            n=50,
            replications=300,
            alpha_grid=(0.0, 0.5),
            kind="variance_ratio",
        )
        report = run_experiment(spec)
        for row in report.rows:
            lo, hi = (0.7, 1.4) if row["parameter"] == "scale" else (0.55, 1.6)
            assert lo <= row["ratio"] <= hi, row

    def test_classical_clt_oracle(self):
        # bypass the fitting stack: sample mean of uncensored exponentials with
        # the sample variance as its variance estimate has ratio -> 1
        rng = np.random.default_rng(123)
        n, reps = 500, 4000
        draws = rng.exponential(1.0, (reps, n))
        means = draws.mean(axis=1)
        variances = draws.var(axis=1, ddof=1) / n
        ratio = variances.mean() / np.mean((means - 1.0) ** 2)
        assert ratio == pytest.approx(1.0, abs=0.05)


class TestDeterminismContract:
    def test_same_spec_same_bytes(self):
        a = run_level_power(small_spec()).to_csv_string()
        b = run_level_power(small_spec()).to_csv_string()
        assert a == b

    def test_seed_changes_results(self):
        a = run_level_power(small_spec()).to_csv_string()
        b = run_level_power(small_spec(design=exp_design(seed=18))).to_csv_string()
        assert a != b

    def test_summary_mentions_failures_and_design(self):
        report = run_level_power(small_spec())
        text = report.summary()
        assert "exponential(mean=1)" in text
        assert "failed fits" in text
