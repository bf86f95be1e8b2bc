"""Channel sounding: from a received IQ capture to CIRs and an averaged PDP.

The transmit side tiles a prime-length Zadoff-Chu sequence; the receive side
removes capture artifacts, aligns to the sequence, deconvolves one channel
impulse response per period and averages squared magnitudes into a power
delay profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import CHUNK_ROWS, PowerDelayProfile, add_row_powers
from .errors import ValidationError
from .signal import IqSignal, _frozen_complex, circular_cross_correlate, is_prime, zadoff_chu

DEFAULT_SEQUENCE_LENGTH = 353
DEFAULT_ROOT = 1
DEFAULT_REPETITIONS = 3
DEFAULT_SAMPLE_RATE_HZ = 25.6e6
DEFAULT_TAPER_FRACTION = 0.1

# ridge term as a fraction of the mean reference spectral power
_AUTO_REGULARIZATION = 1e-6

_SPIKE_THRESHOLD = 6.0

# circular pre-shift applied with tapering so the taper kernel's pre-cursor
# ringing stays causal instead of wrapping to the far end of the delay axis
_TAPER_GUARD_TAPS = 16


@dataclass(frozen=True)
class SoundingWaveform:
    """A Zadoff-Chu base sequence tiled ``repetitions`` times."""

    base_sequence: np.ndarray
    repetitions: int
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "base_sequence", _frozen_complex(self.base_sequence))
        if not is_prime(self.base_sequence.size):
            raise ValidationError(
                f"base sequence length must be prime, got {self.base_sequence.size}"
            )
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if not np.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0:
            raise ValidationError("sample_rate_hz must be finite and positive")

    @property
    def period(self) -> int:
        return self.base_sequence.size


def zadoff_chu_waveform(
    root: int = DEFAULT_ROOT,
    length: int = DEFAULT_SEQUENCE_LENGTH,
    repetitions: int = DEFAULT_REPETITIONS,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
) -> SoundingWaveform:
    """Build the standard sounding waveform (353 samples at 25.6 MS/s by default)."""
    return SoundingWaveform(zadoff_chu(root, length), repetitions, sample_rate_hz)


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """A block of CIR snapshots: complex taps on a uniform delay grid.

    ``taps`` has shape ``(snapshots, delay_taps)``; row p is snapshot p.
    """

    taps: np.ndarray
    delay_step_s: float

    def __post_init__(self):
        object.__setattr__(self, "taps", _frozen_complex(self.taps))
        if self.taps.ndim != 2 or self.taps.size == 0:
            raise ValidationError("CIR taps must be a non-empty 2-D (snapshots, taps) block")
        if self.delay_step_s <= 0:
            raise ValidationError("delay_step_s must be positive")


def build_sounding_signal(
    waveform: SoundingWaveform, center_frequency_hz: float = 0.0
) -> IqSignal:
    """Concatenate ``repetitions`` copies of the base sequence."""
    samples = np.tile(waveform.base_sequence, waveform.repetitions)
    return IqSignal(samples, waveform.sample_rate_hz, center_frequency_hz)


def mitigate_artifacts(rx: IqSignal, spike_threshold: float = _SPIKE_THRESHOLD) -> IqSignal:
    """Simplified capture clean-up: DC offset removal and spike suppression.

    The complex mean is subtracted, then any sample whose magnitude exceeds
    ``spike_threshold`` times the median magnitude is replaced by linear
    interpolation of its neighbours. This is a deliberately simple stand-in
    for full iterative restoration of hardware artifacts.

    Besides the input, this holds one cleaned capture and one float array
    of magnitudes; spikes are repaired in the cleaned capture in place.
    """
    if not np.any(rx.samples):
        return rx
    x = rx.samples - np.mean(rx.samples)
    mag = np.abs(x)
    threshold = spike_threshold * float(np.median(mag, overwrite_input=True))
    del mag  # reordered by the median
    is_bad = np.abs(x) > threshold
    bad = np.flatnonzero(is_bad)
    if bad.size:
        # the good samples next to a run of spikes are the ones that bracket
        # it, so interpolating from them alone equals interpolating from all
        near = np.concatenate([bad - 1, bad + 1])
        near = near[(near >= 0) & (near < x.size)]
        near = np.unique(near[~is_bad[near]])
        if near.size == 0:
            raise ValidationError("every sample flagged as a spike; capture unusable")
        x[bad] = np.interp(bad, near, x.real[near]) + 1j * np.interp(bad, near, x.imag[near])
    x.setflags(write=False)
    return IqSignal(x, rx.sample_rate_hz, rx.center_frequency_hz)


def synchronize(rx: IqSignal, waveform: SoundingWaveform) -> int:
    """Locate the start of the first sequence period in the capture.

    Correlates the first full window against the base sequence and returns
    the lag with the largest correlation magnitude, in [0, period).
    """
    n = waveform.period
    if len(rx) < 2 * n:
        raise ValidationError(
            f"capture too short to synchronize: {len(rx)} samples < 2 x {n}"
        )
    corr = circular_cross_correlate(rx.samples[:n], waveform.base_sequence)
    return int(np.argmax(np.abs(corr)))


def _taper_window(n: int, taper_fraction: float) -> np.ndarray | None:
    """Raised-cosine roll-off over the outer ``taper_fraction`` of band edges.

    Built on the shifted (monotonic-frequency) axis and returned in DFT bin
    order; None when the taper is disabled.
    """
    if taper_fraction <= 0.0:
        return None
    if not 0.0 < taper_fraction <= 0.5:
        raise ValidationError("taper fraction must lie in (0, 0.5]")
    edge = max(1, int(round(n * taper_fraction)))
    window = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(edge) + 0.5) / edge))
    window[:edge] = ramp
    window[n - edge :] = ramp[::-1]
    return np.fft.ifftshift(window)


def estimate_cirs(
    rx: IqSignal,
    waveform: SoundingWaveform,
    regularization: float | None = None,
    taper_fraction: float = DEFAULT_TAPER_FRACTION,
) -> ChannelImpulseResponse:
    """Estimate one CIR per complete sequence period in the capture.

    H[k] = Y[k] conj(X[k]) / (|X[k]|^2 + regularization), optionally edge
    tapered, then inverse transformed; the periods go through 2-D FFTs of
    ``CHUNK_ROWS`` rows into one preallocated block.
    ``regularization=None`` selects the default ridge term of 1e-6 times
    the mean reference spectral power; pass 0 for plain division. Row p of
    the returned block is period p; if the capture holds fewer complete
    periods than ``waveform.repetitions`` the block has fewer rows.

    With tapering enabled each CIR is additionally rotated right by a small
    guard so the taper kernel's two-sided ringing lands at causal delays;
    downstream normalization re-references delay zero, so only the raw tap
    indices shift.
    """
    n = waveform.period
    x_spec = np.fft.fft(waveform.base_sequence)
    ref_power = np.abs(x_spec) ** 2
    if not np.any(ref_power):
        raise ValidationError("reference sequence has zero energy")
    if regularization is None:
        regularization = _AUTO_REGULARIZATION * float(np.mean(ref_power))
    if regularization < 0:
        raise ValidationError("regularization must be >= 0")

    n_periods = len(rx) // n
    if n_periods == 0:
        raise ValidationError(f"capture holds no complete period of {n} samples")

    window = _taper_window(n, taper_fraction)
    guard = min(_TAPER_GUARD_TAPS, n // 2) if window is not None else 0
    denom = ref_power + regularization
    periods = rx.samples[: n_periods * n].reshape(n_periods, n)
    taps = np.empty((n_periods, n), dtype=np.complex128)
    buffer = np.empty((min(CHUNK_ROWS, n_periods), n), dtype=np.complex128)
    for start in range(0, n_periods, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_periods)
        h = buffer[: stop - start]
        np.fft.fft(periods[start:stop], axis=-1, out=h)
        # two steps, as (Y conj(X)) / denom: folding conj(X) / denom into one
        # factor changes the last bits
        h *= np.conj(x_spec)
        h /= denom
        if window is not None:
            h *= window
        np.fft.ifft(h, axis=-1, out=h)
        # circular shift right by the guard
        taps[start:stop, guard:] = h[:, : n - guard]
        taps[start:stop, :guard] = h[:, n - guard :]
    taps.setflags(write=False)
    return ChannelImpulseResponse(taps, 1.0 / rx.sample_rate_hz)


def average_pdp(cirs: ChannelImpulseResponse) -> PowerDelayProfile:
    """Average squared CIR magnitudes over the snapshots into a power delay
    profile. The noise floor is left unset; it is estimated downstream.

    Squared magnitudes are formed ``CHUNK_ROWS`` snapshots at a time and
    summed row after row, the same sum as ``np.mean(..., axis=0)``.
    """
    rows, n = cirs.taps.shape
    power = np.zeros(n)
    for start in range(0, rows, CHUNK_ROWS):
        add_row_powers(power, cirs.taps[start : start + CHUNK_ROWS])
    delays = np.arange(n) * cirs.delay_step_s
    return PowerDelayProfile(delays, power / rows)
