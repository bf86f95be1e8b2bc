"""The block estimator against the per-period loop it replaced.

``loop_estimate_cirs`` deconvolves one period at a time, exactly as
``sounder.estimate_cirs`` did before it worked on one ``(periods, taps)``
block. The block code must reproduce it bit for bit (``np.array_equal``).
"""

import numpy as np
import pytest

from cirkit import sounder
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.signal import IqSignal
from cirkit.sounder import average_pdp, build_sounding_signal, estimate_cirs, zadoff_chu_waveform


def loop_estimate_cirs(rx, waveform, regularization, taper_fraction):
    n = waveform.period
    x_spec = np.fft.fft(waveform.base_sequence)
    ref_power = np.abs(x_spec) ** 2
    if regularization is None:
        regularization = sounder._AUTO_REGULARIZATION * float(np.mean(ref_power))
    window = sounder._taper_window(n, taper_fraction)
    guard = min(sounder._TAPER_GUARD_TAPS, n // 2) if window is not None else 0
    denom = ref_power + regularization
    rows = []
    for p in range(len(rx) // n):
        y_spec = np.fft.fft(rx.samples[p * n : (p + 1) * n])
        h_spec = y_spec * np.conj(x_spec) / denom
        if window is not None:
            h_spec = h_spec * window
        taps = np.fft.ifft(h_spec)
        if guard:
            taps = np.roll(taps, guard)
        rows.append(taps)
    return rows


def loop_average_powers(rows):
    return np.mean([np.abs(taps) ** 2 for taps in rows], axis=0)


def capture(periods, extra_samples=0, seed=0):
    """A noisy 3-path capture of ``periods`` whole periods plus a partial one."""
    waveform = zadoff_chu_waveform(repetitions=periods + 1)
    rx = add_awgn(
        apply_channel(build_sounding_signal(waveform), SyntheticChannel([1.0, 0.0, 0.4j, 0.2])),
        20.0,
        seed,
    )
    samples = rx.samples[: periods * waveform.period + extra_samples]
    return IqSignal(samples, rx.sample_rate_hz), waveform


def assert_block_equals_loop(rx, waveform, regularization, taper):
    block = estimate_cirs(rx, waveform, regularization, taper)
    rows = loop_estimate_cirs(rx, waveform, regularization, taper)
    assert block.taps.shape == (len(rows), waveform.period)
    assert block.delay_step_s == 1.0 / rx.sample_rate_hz
    assert np.array_equal(block.taps, np.array(rows))
    assert np.array_equal(average_pdp(block).powers_linear, loop_average_powers(rows))


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
@pytest.mark.parametrize("regularization", [0.0, None])
def test_block_equals_loop_reference(regularization, taper):
    rx, waveform = capture(periods=40, seed=3)
    assert_block_equals_loop(rx, waveform, regularization, taper)


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_partial_last_period_equals_loop_reference(taper):
    rx, waveform = capture(periods=7, extra_samples=200, seed=4)
    assert_block_equals_loop(rx, waveform, None, taper)
    assert estimate_cirs(rx, waveform, None, taper).taps.shape[0] == 7


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_one_period_equals_loop_reference(taper):
    rx, waveform = capture(periods=1, seed=5)
    assert_block_equals_loop(rx, waveform, None, taper)
