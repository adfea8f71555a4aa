import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustsurv import CensoredSample, kmpl_fit


def sample_of(pairs):
    return CensoredSample.from_pairs(pairs)


class TestKmplFit:
    def test_no_censoring_reduces_to_ecdf(self):
        fit = kmpl_fit(sample_of([(1, 1), (2, 1), (3, 1)]))
        np.testing.assert_allclose(fit.jumps, [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(fit.cdf_values, [1 / 3, 2 / 3, 1.0])
        assert fit.residual_mass == 0.0

    def test_hand_product_limit(self, small_sample):
        fit = kmpl_fit(small_sample)
        np.testing.assert_allclose(fit.support, [1, 3])
        np.testing.assert_allclose(fit.jumps, [1 / 3, 2 / 3])
        np.testing.assert_allclose(fit.cdf_values, [1 / 3, 1.0])

    def test_defective_tail_reassigned(self):
        fit = kmpl_fit(sample_of([(1, 1), (2, 1), (3, 0)]))
        np.testing.assert_allclose(fit.jumps, [1 / 3, 1 / 3])
        assert fit.residual_mass == pytest.approx(1 / 3, abs=1e-12)
        assert fit.tail_point == 3.0
        idx = np.searchsorted(fit.weight_points, 3.0)
        assert fit.weight_masses[idx] == pytest.approx(1 / 3, abs=1e-12)
        assert fit.weight_masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_total_mass_one_when_last_is_event(self):
        fit = kmpl_fit(sample_of([(1, 0), (2, 0), (5, 1)]))
        assert fit.jumps.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_censored(self):
        fit = kmpl_fit(sample_of([(1, 0), (2, 0)]))
        assert fit.support.size == 0
        np.testing.assert_allclose(fit.weight_points, [2.0])
        np.testing.assert_allclose(fit.weight_masses, [1.0])

    def test_tied_event_and_censoring_at_max(self):
        fit = kmpl_fit(sample_of([(1, 1), (5, 1), (5, 0)]))
        # event at 5 consumes 1/2 of the remaining 2/3; censored leftover 1/3
        assert fit.residual_mass == pytest.approx(1 / 3, abs=1e-12)
        np.testing.assert_allclose(fit.weight_points, [1.0, 5.0])
        np.testing.assert_allclose(fit.weight_masses, [1 / 3, 2 / 3])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 1), (5, 1), (5, 0)],  # censored tail tied to the last event
            [(1, 1), (2, 0), (5, 1), (5, 0), (5, 0)],
            [(1, 1), (2, 1), (3, 0)],  # censored tail beyond the last event
            [(0.5, 0), (1, 1), (1, 1), (2.5, 0), (4, 1), (7, 0), (9, 0)],
            [(1, 0), (2, 0)],  # no event at all
        ],
    )
    def test_tail_weights_as_a_sorted_union(self, pairs):
        # the tail-completed weights, bit for bit, as the sorted union of the
        # support and the tail point with the tail mass added where it falls
        fit = kmpl_fit(sample_of(pairs))
        points = np.unique(np.concatenate((fit.support, [fit.tail_point])))
        masses = np.zeros(points.size)
        masses[np.searchsorted(points, fit.support)] = fit.jumps
        masses[np.searchsorted(points, fit.tail_point)] += fit.residual_mass
        assert fit.residual_mass > 1e-12
        assert fit.weight_points.tolist() == points.tolist()
        assert fit.weight_masses.tolist() == masses.tolist()

    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 1)), min_size=1, max_size=30
        )
    )
    def test_ecdf_reduction_and_jump_locations(self, pairs):
        pairs = [(float(z), d) for z, d in pairs]
        sample = sample_of(pairs)
        fit = kmpl_fit(sample)
        if sample.n_events == sample.n:
            query = np.unique(sample.z)
            ecdf = np.searchsorted(sample.z, query, side="right") / sample.n
            np.testing.assert_array_equal(fit.support, query)
            np.testing.assert_allclose(fit.cdf_values, ecdf, atol=1e-12)
        event_times = set(sample.z[sample.delta == 1])
        for point, mass in zip(fit.weight_points, fit.weight_masses):
            if mass > 0:
                assert point in event_times or point == fit.tail_point
        assert fit.weight_masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_write_csv_roundtrip(self, small_sample, tmp_path):
        fit = kmpl_fit(small_sample)
        out = tmp_path / "km.csv"
        fit.write_csv(out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        np.testing.assert_allclose(
            [float(r["cdf"]) for r in rows], fit.cdf_values, rtol=0, atol=0
        )
        np.testing.assert_allclose(
            [float(r["jump"]) for r in rows], fit.jumps, rtol=0, atol=0
        )


def unique_oracle(sample):
    """Support, jumps and CDF with the support and each event's place in it
    from np.unique(..., return_inverse=True) and the jumps by np.add.at: the
    oracle of the fit, which finds the runs of tied event times in the
    sorted z instead."""
    z, delta, n = sample.z, sample.delta, sample.n
    at_risk = n - np.arange(n)
    survival = np.cumprod(1.0 - delta / at_risk)
    prev = np.concatenate(([1.0], survival[:-1]))
    raw = np.where(delta == 1, prev * delta / at_risk, 0.0)
    events = delta == 1
    support, inverse = np.unique(z[events], return_inverse=True)
    jumps = np.zeros(support.size)
    np.add.at(jumps, inverse, raw[events])
    return support, jumps, np.cumsum(jumps)


class TestRunsOfTies:
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 1)), min_size=1, max_size=60),
        st.sampled_from([1.0, 0.1, 7.3]),
    )
    def test_matches_the_unique_oracle(self, pairs, scale):
        # integer-grid times tie often, events with events and with censorings
        sample = sample_of([(scale * z, d) for z, d in pairs])
        fit = kmpl_fit(sample)
        support, jumps, cdf = unique_oracle(sample)
        assert fit.support.tolist() == support.tolist()
        assert fit.jumps.tolist() == jumps.tolist()
        assert fit.cdf_values.tolist() == cdf.tolist()

    def test_veteran_matches_the_unique_oracle(self, veteran):
        for sample in veteran.values():  # arms A and B and the combined trial
            fit = kmpl_fit(sample)
            support, jumps, cdf = unique_oracle(sample)
            assert fit.support.tolist() == support.tolist()
            assert fit.jumps.tolist() == jumps.tolist()
            assert fit.cdf_values.tolist() == cdf.tolist()


class TestKmIntegral:
    """Expectations under the tail-completed product-limit weights, formed
    from the fit's weight points and masses."""

    def test_normalizes(self, small_sample):
        assert kmpl_fit(small_sample).weight_masses.sum() == pytest.approx(1.0)

    def test_identity_on_uncensored_is_mean(self):
        z = np.array([0.5, 1.5, 9.0, 2.0])
        fit = kmpl_fit(CensoredSample(z, np.ones(4, dtype=np.int8)))
        assert fit.weight_masses @ fit.weight_points == pytest.approx(z.mean())

    def test_hand_value(self, small_sample):
        fit = kmpl_fit(small_sample)
        assert fit.weight_masses @ fit.weight_points == pytest.approx(7 / 3)


class TestSharedPerSample:
    def test_one_read_only_fit_per_sample(self, small_sample):
        fit = kmpl_fit(small_sample)
        assert kmpl_fit(small_sample) is fit
        for arr in (fit.support, fit.cdf_values, fit.jumps, fit.weight_points, fit.weight_masses):
            assert not arr.flags.writeable
        # an equal but distinct sample gets its own fit with the same numbers
        other = kmpl_fit(sample_of([(1.0, 1), (2.0, 0), (3.0, 1)]))
        assert other is not fit
        np.testing.assert_array_equal(other.weight_masses, fit.weight_masses)
