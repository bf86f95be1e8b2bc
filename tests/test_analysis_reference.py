"""The extraction chain against the one it replaced.

``reference_extract`` is the earlier chain, kept here as it was: the
profile carries its noise floor, normalization rescales that floor by the
peak, and the 6 dB margin is applied to the carried floor at every step; the
cluster count keeps the strict local maxima above the threshold, strongest
first, at least ``REFERENCE_SEPARATION_BINS`` apart. Its K-factor is
``+inf`` where the survivors other than the peak sum to nothing beside it,
as ``extract_parameters`` now has it; the earlier chain divided by zero there.
``extract_parameters`` must return the same delay spread, moments, K-factor
and cluster count, compared with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirkit.analysis import PowerDelayProfile, extract_parameters
from cirkit.errors import EmptyProfileError

REFERENCE_SEPARATION_BINS = 2
REFERENCE_MARGIN_DB = 6.0


def reference_floor(powers):
    """Median of the weakest quarter; 0 below 16 bins."""
    if powers.size < 16:
        return 0.0
    return float(np.median(np.sort(powers)[: powers.size // 4]))


def reference_count(powers, floor):
    thresh = floor * 10.0 ** (REFERENCE_MARGIN_DB / 10.0)
    left = np.r_[-np.inf, powers[:-1]]
    right = np.r_[powers[1:], -np.inf]
    candidates = np.nonzero((powers > thresh) & (powers > left) & (powers > right))[0]
    order = candidates[np.argsort(powers[candidates], kind="stable")[::-1]]
    kept = []
    for idx in order:
        if all(abs(idx - k) >= REFERENCE_SEPARATION_BINS for k in kept):
            kept.append(int(idx))
    return len(kept)


def reference_extract(delays, powers, los_flag):
    """(DS, m1, m2, KF, cluster count) of the earlier chain."""
    floor = reference_floor(powers)
    thresh = floor * 10.0 ** (REFERENCE_MARGIN_DB / 10.0)
    powers = np.where(powers < thresh, 0.0, powers)
    above = np.nonzero(powers > thresh)[0]
    if above.size == 0:
        raise EmptyProfileError("no PDP bin exceeds the noise threshold")
    first = int(above[0])
    delays = delays[first:] - delays[first]
    peak = float(np.max(powers[first:]))
    powers = powers[first:] / peak
    floor = floor / peak
    total = float(np.sum(powers))
    m1 = float(np.sum(powers * delays) / total)
    m2 = float(np.sum(powers * delays**2) / total)
    ds = math.sqrt(max(m2 - m1 * m1, 0.0))
    kf = None
    if los_flag:
        surviving = powers[powers > 0.0]
        strongest = float(np.max(surviving))
        rest = float(np.sum(surviving)) - strongest
        kf = math.inf if rest <= 0.0 else float(10.0 * np.log10(strongest / rest))
    return ds, m1, m2, kf, reference_count(powers, floor)


@st.composite
def profiles(draw):
    """Runs of equal powers (plateaus and ties, zeros among them) and free
    values, 1 to 96 bins, on one of a few delay grids."""
    palette = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5)) + [0.0]
    value = st.one_of(st.sampled_from(palette), st.floats(0.0, 1e3))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 6)), min_size=1, max_size=40))
    powers = np.array([v for v, count in runs for _ in range(count)][:96])
    step = draw(st.sampled_from([1e-9, 39.0625e-9, 1 / 25.6e6]))
    start = draw(st.sampled_from([0.0, 3e-7]))
    return start + np.arange(powers.size) * step, powers


@settings(max_examples=500, derandomize=True, deadline=None)
@given(profile=profiles(), los_flag=st.booleans())
@example(profile=(np.arange(32) * 1e-9, np.r_[1.0, np.zeros(31)]), los_flag=True)
# under 16 bins the floor, and so the threshold, is 0
@example(profile=(np.arange(15) * 1e-9, np.full(15, 2.0)), los_flag=True)
@example(profile=(np.arange(20) * 1e-9, np.zeros(20)), los_flag=False)
# the second bin rounds away beside the first: no scattered power, KF +inf
@example(profile=(np.arange(2) * 1e-9, np.array([1.0, 1e-20])), los_flag=True)
# the last bin is a local maximum at exactly the threshold, the floor of
# 1.0 times the margin: not counted
@example(
    profile=(np.arange(16) * 1e-9, np.r_[1.0, 1.0, np.full(12, 4.0), 0.0, 1.0 * 10.0**0.6]),
    los_flag=True,
)
@example(
    profile=(np.arange(32) * 1e-9, np.r_[np.full(16, 1e-6), 1.0, 0.5, 1.0, 0.5, np.full(12, 1e-6)]),
    los_flag=True,
)
def test_extract_equals_reference(profile, los_flag):
    delays, powers = profile
    pdp = PowerDelayProfile(delays, powers)
    try:
        expected = reference_extract(pdp.delays_s, pdp.powers_linear, los_flag)
    except EmptyProfileError as err:
        with pytest.raises(type(err)):
            extract_parameters(pdp, los_flag)
        return
    params = extract_parameters(pdp, los_flag)
    got = (
        params.rms_delay_spread_s,
        params.mean_excess_delay_s,
        params.second_moment_s2,
        params.k_factor_db,
        params.cluster_count,
    )
    assert got == expected
