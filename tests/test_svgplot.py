import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cirkit import gbsm, svgplot
from cirkit.analysis import PowerDelayProfile


def reference_numbers(profiles):
    """The plot's polyline points and tick texts, formatted from numpy
    scalars one value at a time."""
    x_max = max(max(float(p.delays_s[-1]) * 1e6 for _, p in profiles), 1e-3)
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B
    y_lo, y_hi = svgplot._FLOOR_DB, 0.0

    def sx(us):
        return svgplot._MARGIN_L + plot_w * us / x_max

    def sy(db):
        return svgplot._MARGIN_T + plot_h * (y_hi - db) / (y_hi - y_lo)

    polylines = []
    for _, pdp in profiles:
        with np.errstate(divide="ignore"):
            db = np.maximum(10.0 * np.log10(pdp.powers_linear), svgplot._FLOOR_DB)
        polylines.append(
            " ".join(f"{sx(t * 1e6):.2f},{sy(v):.2f}" for t, v in zip(pdp.delays_s, db))
        )
    x_ticks = [(f"{sx(t):.2f}", f"{t:.2f}") for t in np.linspace(0.0, x_max, 6)]
    y_ticks = [(f"{sy(t) + 3:.2f}", f"{t:.0f}") for t in np.linspace(y_lo, y_hi, 7)]
    return polylines, x_ticks, y_ticks


def single_bin():
    return PowerDelayProfile([0.0], [1.0])


def with_clamped_and_zero_bins():
    powers = np.exp(-np.arange(353) / 20.0)
    powers[[5, 17, 200]] = 0.0  # -inf dB
    powers[300:] = 1e-9  # -90 dB, below the plot floor
    return PowerDelayProfile(np.arange(353) / 25.6e6, powers)


def simulated():
    return gbsm.simulate_pdp(gbsm.PRESETS["urban-nlos"], 4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: [("measured", single_bin())],
        lambda: [("measured", single_bin()), ("simulated", with_clamped_and_zero_bins())],
        lambda: [("measured", with_clamped_and_zero_bins()), ("simulated", simulated())],
        lambda: [("measured", simulated()), ("simulated", single_bin())],
    ],
)
def test_numbers_match_numpy_scalar_formatting(tmp_path, make):
    profiles = make()
    path = tmp_path / "plot.svg"
    svgplot.write_pdp_comparison_svg(path, profiles)
    svg = path.read_text()
    polylines, x_ticks, y_ticks = reference_numbers(profiles)
    assert re.findall(r'<polyline points="([^"]*)"', svg) == polylines
    assert re.findall(r'<text x="([^"]*)" y="\d+" text-anchor="middle" font-family="sans-serif" '
                      r'font-size="10">([^<]*)</text>', svg) == x_ticks
    assert re.findall(r'<text x="\d+" y="([^"]*)" text-anchor="end" font-family="sans-serif" '
                      r'font-size="10">([^<]*)</text>', svg) == y_ticks


POWERS = st.one_of(
    st.floats(0.0, 1e308),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1e300, 1.0]),
)


@st.composite
def random_profiles(draw):
    """One or two PDPs of random powers, the edge values among them, on
    random uniform grids."""
    profiles = []
    for label in draw(st.sampled_from([["measured"], ["measured", "simulated"]])):
        powers = draw(st.lists(POWERS, min_size=1, max_size=40))
        step = draw(st.sampled_from([1 / 25.6e6, 1 / 61.44e6, 1e-9, 3.3e-7]))
        first = draw(st.sampled_from([0.0, -0.0, 2e-8]))
        delays = first + np.arange(len(powers)) * step
        profiles.append((label, PowerDelayProfile(delays, powers)))
    return profiles


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(profiles=random_profiles())
def test_random_points_match_per_point_formatting(tmp_path, profiles):
    path = tmp_path / "plot.svg"
    svgplot.write_pdp_comparison_svg(path, profiles)
    polylines = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert polylines == reference_numbers(profiles)[0]
