import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustsurv import (
    CensoredSample,
    CsvFormatError,
    FamilySpec,
    SyntheticDesign,
    WEIBULL,
    ingest_csv,
    ingest_csv_arms,
    simulate,
    write_csv,
)
from robustsurv.data import _csv_table


def write_rows(path, rows, header="time,status"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestIngest:
    def test_sorts_canonically(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["3,1", "1,0", "2,1"])
        sample = ingest_csv(path)
        assert [(z, d) for z, d in zip(sample.z, sample.delta)] == [(1, 0), (2, 1), (3, 1)]

    def test_events_precede_censorings_at_ties(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["2,1", "2,0"])
        sample = ingest_csv(path)
        assert list(sample.delta) == [1, 0]

    def test_bad_status_reports_row(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,1", "2,2"])
        with pytest.raises(CsvFormatError, match=r":3:.*status.*'2'"):
            ingest_csv(path)

    def test_negative_time_reports_row(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,1", "-2,1"])
        with pytest.raises(CsvFormatError, match=r":3:.*time"):
            ingest_csv(path)

    def test_unparsable_time_reports_location(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["abc,1"])
        with pytest.raises(CsvFormatError, match=r":2:.*'abc'"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,1"], header="t,status")
        with pytest.raises(CsvFormatError, match="missing column 'time'"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty file"):
            ingest_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            ingest_csv(path)

    def test_arm_split(self, tmp_path):
        path = write_rows(
            tmp_path / "d.csv", ["1,1,A", "2,0,B", "3,1,A"], header="time,status,arm"
        )
        arms = ingest_csv_arms(path, arm_column="arm")
        assert arms["A"].n == 2 and arms["B"].n == 1

    @pytest.mark.parametrize("header, row, message", [
        ("time,status", "1,1\nabc,1", "column 'time': cannot parse 'abc' as a time"),
        ("time,status", "1,1\n-2,1", "column 'time': time must be a finite nonnegative number, got '-2'"),
        ("time,status", "1,1\ninf,1", "column 'time': time must be a finite nonnegative number, got 'inf'"),
        ("time,status", "1,1\nnan,0", "column 'time': time must be a finite nonnegative number, got 'nan'"),
        ("time,status", "1,1\n2, yes", "column 'status': status must be 0 or 1, got 'yes'"),
        ("time,status", "1,1\n2", "column 'status': status must be 0 or 1, got ''"),
        ("status,time", "1,1\n1", "column 'time': cannot parse '' as a time"),
    ], ids=["unparsable", "negative", "infinite", "nan", "bad-status", "short-status", "short-time"])
    def test_row_errors_word_for_word(self, tmp_path, header, row, message):
        path = write_rows(tmp_path / "d.csv", [row], header=header)
        with pytest.raises(CsvFormatError) as info:
            ingest_csv(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("text, line", [
        ("time,status\n1,1\n\n\nabc,1\n", 5),
        ('time,status,note\n1,1,"two\nlines"\nabc,1,x\n', 4),
    ], ids=["blank-lines", "quoted-newline"])
    def test_row_error_names_the_file_line(self, tmp_path, text, line):
        # blank lines and quoted newlines count as lines of the file
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError) as info:
            ingest_csv(path)
        assert str(info.value) == f"{path}:{line}: column 'time': cannot parse 'abc' as a time"

    def test_short_row_arm_cell_is_empty(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,1,A", "2,0"], header="time,status,arm")
        arms = ingest_csv_arms(path, arm_column="arm")
        assert sorted(arms) == ["", "A"] and arms[""].n == 1

    def test_roundtrip_idempotent(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["3,1", "1,0", "2,1", "2,0", "2,1"])
        sample = ingest_csv(path)
        out = tmp_path / "o.csv"
        write_csv(sample, out)
        assert out.read_text(encoding="utf-8").startswith("time,status\n") and b"\r" not in out.read_bytes()
        again = ingest_csv(out)
        np.testing.assert_array_equal(sample.z, again.z)
        np.testing.assert_array_equal(sample.delta, again.delta)


def _cell(value):
    """One cell as the writer turned it before csv.writer quoted it."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return value


def csv_writer_text(header, rows):
    """Oracle: the package's CSV text by csv.writer and per-cell formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([list(map(_cell, row)) for row in rows])
    return buf.getvalue()


TEXT = st.text(st.sampled_from('ab ,"\n\r%'), max_size=5)
CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, np.float64(-0.0)]),
    st.integers(-(10**30), 10**30),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.just(""),
    TEXT,
)


class TestCsvTable:
    @given(st.lists(TEXT, max_size=4), st.lists(st.lists(CELLS, max_size=4), max_size=6))
    def test_equals_csv_writer_per_cell(self, header, rows):
        assert _csv_table(header, rows) == csv_writer_text(header, rows)

    def test_rows_sharing_a_row_format(self):
        rows = [[1.0, 2, "a,b", None], [np.float64(0.1), np.int64(-3), 'say "x"', True],
                [1e-300, 0, "", np.bool_(False)], [float("nan")], [""], []]
        assert _csv_table(["t", "n", "s", "x"], rows) == csv_writer_text(["t", "n", "s", "x"], rows)


class TestCensoredSample:
    def test_requires_observations(self):
        with pytest.raises(ValueError):
            CensoredSample(np.array([]), np.array([], dtype=np.int8))

    def test_rejects_negative_and_nonbinary(self):
        with pytest.raises(ValueError):
            CensoredSample.from_pairs([(-1.0, 1)])
        with pytest.raises(ValueError):
            CensoredSample.from_pairs([(1.0, 2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_rejects_a_bad_time_wherever_it_sorts(self, bad, where):
        z = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        z[where] = bad
        with pytest.raises(ValueError, match="^observed times must be finite and nonnegative$"):
            CensoredSample(z, np.array([1, 0, 1, 1, 0]))

    @pytest.mark.parametrize("bad", [-1, 2, 127])
    def test_rejects_an_indicator_other_than_0_or_1(self, bad):
        with pytest.raises(ValueError, match="^event indicators must be 0 or 1$"):
            CensoredSample(np.array([3.0, 1.0, 2.0]), np.array([1, bad, 0]))

    def test_identity_equality_and_hash(self):
        pairs = [(3.0, 1), (1.0, 0), (2.0, 1)]
        a, b = CensoredSample.from_pairs(pairs), CensoredSample.from_pairs(pairs)
        assert a == a and a != b
        assert {a: "a", b: "b"}[a] == "a" and len({a, b, a}) == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 1)),
            min_size=1,
            max_size=40,
        )
    )
    def test_sorting_invariant_under_ties(self, pairs):
        sample = CensoredSample.from_pairs([(float(z), d) for z, d in pairs])
        assert np.all(np.diff(sample.z) >= 0)
        # events first at ties: within a tied block delta is nonincreasing
        for value in np.unique(sample.z):
            block = sample.delta[sample.z == value]
            assert np.all(np.diff(block.astype(int)) <= 0)


class TestSimulate:
    def test_exponential_censoring_rate_matches_design(self):
        # censoring mean 9 was chosen to censor 10% of unit-mean exponentials
        design = SyntheticDesign(
            lifetime=FamilySpec("exp", (1.0,)), censoring_mean=9.0, seed=7
        )
        sample = simulate(design, 200_000)
        assert abs((1.0 - sample.delta.mean()) - 0.10) < 0.003

    def test_weibull_censoring_rate_matches_design(self):
        design = SyntheticDesign(
            lifetime=FamilySpec("weibull", (2.0, 5.0)), censoring_mean=17.4, seed=8
        )
        sample = simulate(design, 200_000)
        assert abs((1.0 - sample.delta.mean()) - 0.10) < 0.004

    def test_zero_contamination_identical_stream(self):
        base = SyntheticDesign(lifetime=FamilySpec("exp", (1.0,)), censoring_mean=9.0, seed=3)
        degenerate = SyntheticDesign(
            lifetime=FamilySpec("exp", (1.0,)),
            censoring_mean=9.0,
            contamination_fraction=0.0,
            contamination=FamilySpec("exp", (10.0,)),
            seed=3,
        )
        a = simulate(base, 500)
        b = simulate(degenerate, 500)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.delta, b.delta)

    def test_deterministic_given_seed_and_replication(self):
        design = SyntheticDesign(lifetime=FamilySpec("exp", (1.0,)), censoring_mean=9.0, seed=5)
        a = simulate(design, 100, replication=4)
        b = simulate(design, 100, replication=4)
        c = simulate(design, 100, replication=5)
        np.testing.assert_array_equal(a.z, b.z)
        assert not np.array_equal(a.z, c.z)

    def test_contaminated_fraction_within_binomial_band(self):
        eps = 0.05
        design = SyntheticDesign(
            lifetime=FamilySpec("exp", (1.0,)),
            censoring_mean=9.0,
            contamination_fraction=eps,
            contamination=FamilySpec("exp", (40.0,)),
            seed=11,
        )
        n = 100_000
        sample = simulate(design, n)
        # draws above ~12 are overwhelmingly contaminating observations
        frac_big = np.mean(sample.z > 12.0)
        expected = eps * np.exp(-12.0 / 40.0) * np.exp(-12.0 / 9.0)
        band = 3.0 * np.sqrt(eps * (1 - eps) / n)
        assert abs(frac_big - expected) < band + 0.002

    def test_family_spec_validated_at_construction(self):
        for family, theta in (
            ("weibull", (2.0, -1.0)), ("weibull", (2.0,)), ("exp", (float("nan"),)), ("lognormal", (1.0,)),
        ):
            with pytest.raises(ValueError):
                FamilySpec(family, theta)
        caller = np.array([2.0, 5.0])
        spec = FamilySpec("Weibull", caller)
        family, theta = spec.resolve()
        assert family is WEIBULL and spec.resolve()[1] is theta
        np.testing.assert_array_equal(theta, caller)
        assert not theta.flags.writeable and caller.flags.writeable

    def test_design_validation(self):
        with pytest.raises(ValueError):
            SyntheticDesign(lifetime=FamilySpec("exp", (1.0,)), censoring_mean=0.0)
        with pytest.raises(ValueError):
            SyntheticDesign(
                lifetime=FamilySpec("exp", (1.0,)),
                censoring_mean=1.0,
                contamination_fraction=0.2,
            )
