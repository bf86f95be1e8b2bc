"""The receive chain against the plain implementations it replaced.

``loop_estimate_cirs`` deconvolves one period at a time, exactly as
``sounder.estimate_cirs`` did before it worked on ``(periods, taps)``
blocks. ``reference_mitigate`` cleans a capture as ``mitigate_artifacts``
did before it repaired spikes in place: the median of a copy of the
magnitudes, and interpolation over every good sample. The production code
must reproduce both bit for bit (``np.array_equal``).
"""

import numpy as np
import pytest

from cirkit import sounder
from cirkit.analysis import CHUNK_ROWS
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.errors import ValidationError
from cirkit.signal import IqSignal
from cirkit.sounder import (
    average_pdp,
    build_sounding_signal,
    estimate_cirs,
    mitigate_artifacts,
    zadoff_chu_waveform,
)


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


def reference_mitigate(rx, spike_threshold=sounder._SPIKE_THRESHOLD):
    x = rx.samples
    if not np.any(x):
        return rx
    x = x - np.mean(x)
    mag = np.abs(x)
    median = float(np.median(mag))
    bad = mag > spike_threshold * median
    if np.any(bad):
        good = np.nonzero(~bad)[0]
        if good.size == 0:
            raise ValidationError("every sample flagged as a spike; capture unusable")
        idx = np.arange(x.size)
        x = x.copy()
        x[bad] = np.interp(idx[bad], good, x.real[good]) + 1j * np.interp(
            idx[bad], good, x.imag[good]
        )
    return IqSignal(x, rx.sample_rate_hz, rx.center_frequency_hz)


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


# one row past a chunk, and a sum carried over two chunk boundaries
@pytest.mark.parametrize("periods", [CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_chunk_boundary_equals_loop_reference(taper, periods):
    rx, waveform = capture(periods=periods, seed=6)
    assert_block_equals_loop(rx, waveform, None, taper)


def spiked(positions, seed=7):
    """A noisy capture with 100x spikes of random phase at ``positions``."""
    rx, _ = capture(periods=4, extra_samples=10, seed=seed)
    samples = rx.samples.copy()
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(positions))
    samples[positions] = 100.0 * np.exp(1j * phases)
    return IqSignal(samples, rx.sample_rate_hz, 2.48e9)


SPIKED_LENGTH = 4 * 353 + 10
SPIKE_CASES = {
    "first-sample": [0],
    "last-sample": [-1],
    "both-ends": [0, 1, -2, -1],
    "adjacent-runs": [10, 11, 13, 14, 15, 17, 400, 402],
    # one short of half: with exactly half, the median falls between the
    # spikes and the rest and nothing is flagged
    "half-the-samples": np.random.default_rng(8).permutation(SPIKED_LENGTH)[
        : SPIKED_LENGTH // 2 - 1
    ],
}


@pytest.mark.parametrize("case", sorted(SPIKE_CASES))
def test_mitigate_equals_reference(case):
    rx = spiked(SPIKE_CASES[case])
    cleaned = mitigate_artifacts(rx)
    assert np.array_equal(cleaned.samples, reference_mitigate(rx).samples)
    assert np.max(np.abs(cleaned.samples)) < 10.0  # every spike was repaired
    assert cleaned.sample_rate_hz == rx.sample_rate_hz
    assert cleaned.center_frequency_hz == rx.center_frequency_hz


def test_mitigate_leaves_its_input_unchanged():
    rx = spiked([5, 6])
    before = rx.samples.copy()
    mitigate_artifacts(rx)
    assert np.array_equal(rx.samples, before)


def test_mitigate_without_spikes_equals_reference():
    rx, _ = capture(periods=3, seed=9)
    assert np.array_equal(mitigate_artifacts(rx).samples, reference_mitigate(rx).samples)
