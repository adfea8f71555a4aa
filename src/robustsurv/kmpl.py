"""Product-limit estimation.

The product-limit CDF carries probability mass only at event times.  When the
largest observation is censored the estimate is defective (total mass < 1);
for integration purposes the leftover mass is reassigned to the largest
observed time (Efron-style tail completion) so the weights form a proper
distribution, while the raw defective masses stay available for diagnostics.
The fit depends on the sample alone, so it is computed once per sample and
shared, read-only, by every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CensoredSample, _csv_table

__all__ = ["KmplFit", "kmpl_fit"]

RESIDUAL_MASS_FLAG = 0.05  # defective-tail fraction worth surfacing in reports


@dataclass(frozen=True)
class KmplFit:
    """Product-limit estimate of the lifetime distribution.

    support/cdf_values/jumps describe the raw (possibly defective) estimate at
    the distinct event times; weight_points/weight_masses are the
    tail-completed weights used for integration.
    """

    support: np.ndarray
    cdf_values: np.ndarray
    jumps: np.ndarray
    residual_mass: float
    tail_point: float
    weight_points: np.ndarray
    weight_masses: np.ndarray

    @property
    def tail_flagged(self) -> bool:
        return self.residual_mass > RESIDUAL_MASS_FLAG

    def write_csv(self, path) -> None:
        """(time, cdf, jump) rows plus the log-log cumulative-hazard columns
        used for straight-line model diagnostics."""
        with np.errstate(divide="ignore", invalid="ignore"):  # cells off the log's domain stay empty
            logs = np.log([self.support, -np.log1p(-self.cdf_values)])
        _csv_table(
            ["time", "cdf", "jump", "log_time", "log_cumulative_hazard"],
            ([t, c, j, lt if t > 0 else "", lh if 0.0 < c < 1.0 else ""]
             for t, c, j, lt, lh in np.transpose([self.support, self.cdf_values, self.jumps, *logs]).tolist()),
            path,
        )


def kmpl_fit(sample: CensoredSample) -> KmplFit:
    """Product-limit fit over the sample's canonical ordering.

    The survival factor at the i-th ordered observation is
    1 - delta_i / (n - i + 1); masses fall at event times only and the jump at
    a tied event time aggregates the tied factors.  Built on the first call
    for a sample; later calls return the same read-only fit.
    """
    return sample._memo("kmpl", _kmpl_fit)


def _kmpl_fit(sample: CensoredSample) -> KmplFit:
    z, delta = sample.z, sample.delta
    n = sample.n
    at_risk = n - np.arange(n)
    survival = np.multiply.accumulate(1.0 - delta / at_risk)
    event_mask = delta == 1
    # the jump at the i-th time, an event, is S(i-1) / (n - i + 1)
    raw_jumps = np.concatenate(([1.0], survival[:-1]))[event_mask] / at_risk[event_mask]
    # tied event times are runs in the sorted z; each event's jump goes to its run
    event_z = z[event_mask]
    first = np.ones(event_z.size, dtype=bool)
    np.not_equal(event_z[1:], event_z[:-1], out=first[1:])
    support = event_z[first]
    jumps = np.zeros(support.size)
    np.add.at(jumps, np.add.accumulate(first, dtype=np.intp) - 1, raw_jumps)
    cdf_values = np.add.accumulate(jumps)

    residual = float(survival[-1])
    tail_point = float(z[-1])
    if residual > 1e-12 and (support.size == 0 or tail_point > support[-1]):
        # a censored largest time beyond every event time: its own weight point
        weight_points, weight_masses = np.concatenate((support, [tail_point])), np.concatenate((jumps, [residual]))
    else:
        # the tail mass at the last event time, which may be the largest time,
        # or roundoff absorbed there so that the masses sum to 1
        residual = max(residual, 0.0)
        weight_points, weight_masses = support, jumps.copy()
        weight_masses[-1] += residual
    for arr in (support, cdf_values, jumps, weight_points, weight_masses):
        arr.setflags(write=False)
    return KmplFit(
        support=support,
        cdf_values=cdf_values,
        jumps=jumps,
        residual_mass=residual,
        tail_point=tail_point,
        weight_points=weight_points,
        weight_masses=weight_masses,
    )
