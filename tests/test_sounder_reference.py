"""The receive chain against the plain implementations it replaced.

``loop_estimate_cirs`` deconvolves one period at a time by the formula of
``sounder.estimate_pdp``: the period, followed by its first N-1 samples,
convolved with the guard-rotated kernel through transforms of the padded
length M. ``dft_estimate_cirs`` is the textbook per-period spectral
division through DFTs of the period itself; the loop's CIRs come within
``DFT_TOLERANCE`` of its peak. ``reference_mitigate`` cleans a capture held
whole by the formula of ``mitigate_artifacts``: the chunks' sums added in
order for the mean, ``np.median`` of each chunk's magnitudes (of the last
``_CHUNK_SAMPLES`` samples for a short last chunk) for its threshold, and
interpolation over every good sample. The production code must reproduce
``reference_mitigate`` and the mean squared magnitude of the loop's CIRs
bit for bit (``np.array_equal``).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_io import read_range

from cirkit import sounder
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.signal import IqSignal, is_prime, zadoff_chu
from cirkit.sounder import CHUNK_ROWS, build_sounding_signal, estimate_pdp, mitigate_artifacts

# largest |h - h_dft| allowed, as a fraction of the largest |h_dft|
DFT_TOLERANCE = 1e-12


def smooth_length(size):
    """The least 2^a 3^b 5^c >= ``size``, by trying every such product."""
    top = size.bit_length() + 1
    return min(
        2**a * 3**b * 5**c
        for a in range(top)
        for b in range(top)
        for c in range(top)
        if 2**a * 3**b * 5**c >= size
    )


def spectrum_and_guard(sequence, taper_fraction):
    x_spec = np.fft.fft(sequence)
    window = sounder._taper_window(sequence.size, taper_fraction)
    guard = min(sounder._TAPER_GUARD_TAPS, sequence.size // 2) if window is not None else 0
    return x_spec, np.abs(x_spec) ** 2, window, guard


def loop_estimate_cirs(rx, sequence, taper_fraction):
    n = sequence.size
    x_spec, denom, window, guard = spectrum_and_guard(sequence, taper_fraction)
    spectrum = np.conj(x_spec) if window is None else np.conj(x_spec) * window
    g = np.roll(np.fft.ifft(spectrum / denom), guard - 1)
    m = smooth_length(2 * n - 1)
    kernel = np.fft.fft(np.concatenate([g, np.zeros(m - n)]))
    rows = []
    for p in range(len(rx) // n):
        y = rx.samples[p * n : (p + 1) * n]
        padded = np.concatenate([y, y[: n - 1], np.zeros(m - (2 * n - 1))])
        rows.append(np.fft.ifft(np.fft.fft(padded) * kernel)[n - 1 : 2 * n - 1])
    return rows


def dft_estimate_cirs(rx, sequence, taper_fraction):
    n = sequence.size
    x_spec, denom, window, guard = spectrum_and_guard(sequence, taper_fraction)
    rows = []
    for p in range(len(rx) // n):
        y_spec = np.fft.fft(rx.samples[p * n : (p + 1) * n])
        h_spec = y_spec * np.conj(x_spec) / denom
        if window is not None:
            h_spec = h_spec * window
        rows.append(np.roll(np.fft.ifft(h_spec), guard))
    return rows


def assert_near_dft(rows, dft_rows):
    error = np.max(np.abs(np.array(rows) - np.array(dft_rows)))
    assert error <= DFT_TOLERANCE * np.max(np.abs(np.array(dft_rows)))


def reference_mitigate(rx):
    x, n, chunk = rx.samples, len(rx), sounder._CHUNK_SAMPLES
    starts = range(0, n, chunk)
    x = x - sum(np.add.reduce(x[lo : lo + chunk]) for lo in starts) / np.intp(n)
    mag = np.abs(x)
    bad = np.zeros(n, dtype=bool)
    for lo in starts:
        # a short last chunk's window is the capture's last chunk of samples
        window = mag[max(min(lo, n - chunk), 0) : lo + chunk]
        threshold = sounder._SPIKE_THRESHOLD * float(np.median(window))
        bad[lo : lo + chunk] = mag[lo : lo + chunk] > threshold
    good, idx = np.flatnonzero(~bad), np.flatnonzero(bad)
    x[bad] = np.interp(idx, good, x.real[good]) + 1j * np.interp(idx, good, x.imag[good])
    return IqSignal(x, rx.sample_rate_hz, rx.center_frequency_hz)


def loop_average_powers(rows):
    return np.mean([np.abs(taps) ** 2 for taps in rows], axis=0)


def capture(periods, extra_samples=0, seed=0, snr_db=20.0):
    """A 3-path capture of ``periods`` whole periods plus a partial one, at
    ``snr_db`` (None: noiseless)."""
    sequence = zadoff_chu(sounder.DEFAULT_ROOT, sounder.DEFAULT_SEQUENCE_LENGTH)
    tx = build_sounding_signal(sequence, periods + 1, sounder.DEFAULT_SAMPLE_RATE_HZ)
    rx = add_awgn(
        apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.4j, 0.2])),
        math.inf if snr_db is None else snr_db,
        seed,
    )
    samples = rx.samples[: periods * sequence.size + extra_samples]
    return IqSignal(samples, rx.sample_rate_hz), sequence


def assert_block_equals_loop(rx, sequence, taper):
    pdp = estimate_pdp(rx, sequence, taper)
    rows = loop_estimate_cirs(rx, sequence, taper)
    assert np.array_equal(pdp.delays_s, np.arange(sequence.size) * (1.0 / rx.sample_rate_hz))
    assert np.array_equal(pdp.powers_linear, loop_average_powers(rows))
    assert_near_dft(rows, dft_estimate_cirs(rx, sequence, taper))


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
@pytest.mark.parametrize("snr_db", [0.0, None])
def test_block_equals_loop_reference(snr_db, taper):
    rx, sequence = capture(periods=40, seed=3, snr_db=snr_db)
    assert_block_equals_loop(rx, sequence, taper)


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_partial_last_period_equals_loop_reference(taper):
    rx, sequence = capture(periods=7, extra_samples=200, seed=4)
    assert_block_equals_loop(rx, sequence, taper)
    assert len(loop_estimate_cirs(rx, sequence, taper)) == 7


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_one_period_equals_loop_reference(taper):
    rx, sequence = capture(periods=1, seed=5)
    assert_block_equals_loop(rx, sequence, taper)


# one row past a chunk, and a sum carried over two chunk boundaries
@pytest.mark.parametrize("periods", [CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_chunk_boundary_equals_loop_reference(taper, periods):
    rx, sequence = capture(periods=periods, seed=6)
    assert_block_equals_loop(rx, sequence, taper)


def test_padded_length_is_the_smallest_smooth_length():
    assert smooth_length(2 * 353 - 1) == 720
    assert smooth_length(2 * 8191 - 1) == 16384
    for size in [3, 5, 7, 11, 13, 705, 721, 3997, 16381]:
        assert sounder._smooth_length(size) == smooth_length(size)


PRIMES = [p for p in range(2, 2000) if is_prime(p)]


def test_zadoff_chu_spectrum_is_flat():
    """|X[k]|^2 = N in every DFT bin of a prime-length Zadoff-Chu sequence,
    so ``estimate_pdp`` divides by |X|^2 with no ridge term. Every root
    holds it to 1e-12 N, root N - 1 (the conjugate of root 1, whose phase
    pi u n (n + 1) / N would reach about pi N^2 radians unreduced) too."""
    for n in sorted({*PRIMES, 353, 8191}):
        for root in sorted({1, 2, n - 1} & set(range(1, n))):
            power = np.abs(np.fft.fft(zadoff_chu(root, n))) ** 2
            assert np.max(np.abs(power - n)) <= 1e-12 * n, (n, root)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.sampled_from(PRIMES),
    taper=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True)),
    periods=st.integers(1, 9),
    extra=st.floats(0.0, 1.0, exclude_max=True),
    start=st.floats(0.0, 1.0, exclude_max=True),
    chunk_rows=st.integers(1, 4),
    fft_rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    n=8191, taper=sounder.DEFAULT_TAPER_FRACTION, periods=3, extra=0.5, start=0.25,
    chunk_rows=2, fft_rows=1, seed=0,
)
def test_any_prime_equals_loop_reference(
    n, taper, periods, extra, start, chunk_rows, fft_rows, seed
):
    """Any prime period and taper; a partial last period, a start
    inside the first period, and chunks and transform blocks of a few rows,
    so that either may end part-way."""
    sequence = zadoff_chu(1, n)
    start, extra = int(start * n), int(extra * n)
    rng = np.random.default_rng(seed)
    size = start + periods * n + extra
    samples = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    rx = IqSignal(samples, 1e6)
    aligned = IqSignal(samples[start:], 1e6)
    with mock.patch.object(sounder, "CHUNK_ROWS", chunk_rows), mock.patch.object(
        sounder, "_FFT_ROWS", fft_rows
    ):
        powers = estimate_pdp(rx, sequence, taper, start).powers_linear
        from_aligned = estimate_pdp(aligned, sequence, taper).powers_linear
    rows = loop_estimate_cirs(aligned, sequence, taper)
    assert np.array_equal(powers, loop_average_powers(rows))
    assert np.array_equal(from_aligned, powers)
    assert_near_dft(rows, dft_estimate_cirs(aligned, sequence, taper))


@pytest.mark.parametrize("n", [1, 4, 12, 64, 360])
@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
def test_any_sequence_equals_loop_reference(n, taper):
    """Deconvolution takes any sequence with no zero DFT bin, not only a
    prime-length Zadoff-Chu one: random sequences of lengths that are not
    prime, in chunks of two periods and a partial last one."""
    rng = np.random.default_rng(n)
    sequence = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples = rng.standard_normal(5 * n + n // 2) + 1j * rng.standard_normal(5 * n + n // 2)
    rx = IqSignal(samples, 1e6)
    with mock.patch.object(sounder, "CHUNK_ROWS", 2), mock.patch.object(sounder, "_FFT_ROWS", 1):
        powers = estimate_pdp(rx, sequence, taper).powers_linear
    rows = loop_estimate_cirs(rx, sequence, taper)
    assert len(rows) == 5
    assert np.array_equal(powers, loop_average_powers(rows))
    assert_near_dft(rows, dft_estimate_cirs(rx, sequence, taper))


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
    samples = read_range(cleaned, 0, len(rx))
    assert np.array_equal(samples, reference_mitigate(rx).samples)
    assert np.max(np.abs(samples)) < 10.0  # every spike was repaired
    assert cleaned.sample_rate_hz == rx.sample_rate_hz


def test_mitigate_leaves_its_input_unchanged():
    rx = spiked([5, 6])
    before = rx.samples.copy()
    mitigate_artifacts(rx)
    assert np.array_equal(rx.samples, before)


def test_mitigate_without_spikes_equals_reference():
    rx, _ = capture(periods=3, seed=9)
    assert np.array_equal(
        read_range(mitigate_artifacts(rx), 0, len(rx)), reference_mitigate(rx).samples
    )
