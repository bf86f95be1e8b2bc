"""Synthetic channel application and noise injection.

This is the desk-scale stand-in for over-the-air propagation: it lets the
whole sounding chain be exercised and verified without SDR hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .signal import IqSignal, _frozen


@dataclass(frozen=True)
class SyntheticChannel:
    """Ground-truth impulse response on the signal's sample grid."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", _frozen(self.taps, np.complex128))
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValidationError("channel taps must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.taps)):
            raise ValidationError("channel taps must be finite")


def check_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64): a root seed is the first Philox key word."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def apply_channel(tx: IqSignal, channel: SyntheticChannel) -> IqSignal:
    """Circularly convolve a signal with a synthetic channel.

    Circular (not linear) convolution matches the periodic sounding
    waveform: every period sees the same steady-state channel and there are
    no edge transients to discard. The product of the two spectra is formed
    and transformed back in one buffer, which the result adopts, so the peak
    is two signal-sized arrays.
    """
    n = len(tx)
    if channel.taps.size > n:
        raise ValidationError(
            f"channel ({channel.taps.size} taps) longer than signal ({n} samples)"
        )
    spectrum = np.fft.fft(tx.samples)
    spectrum *= np.fft.fft(channel.taps, n)
    out = np.fft.ifft(spectrum, out=spectrum)
    out.setflags(write=False)
    return IqSignal(out, tx.sample_rate_hz, tx.center_frequency_hz)


def add_awgn(signal: IqSignal, snr_db: float, rng_seed) -> IqSignal:
    """Add circularly-symmetric complex Gaussian noise at the requested SNR.

    ``snr_db=inf`` disables noise and returns the input unchanged; NaN and
    ``-inf`` are rejected, and so is a finite SNR whose linear ratio
    10^(snr_db / 10) is not a finite, non-zero double (above about 3082 dB
    or below about -3233 dB) or whose noise variance overflows. The noise is
    a deterministic function of the seed: n real parts, then n imaginary
    parts, drawn into the array that becomes the result.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValidationError(f"snr_db must be a number or +inf, got {snr_db}")
    if snr_db == math.inf:
        return signal
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValidationError(
            f"snr_db {snr_db} is out of range: 10^(snr_db / 10) is not a finite, non-zero double"
        )
    power = float(np.mean(np.abs(signal.samples) ** 2))
    if power <= 0.0:
        raise ValidationError("cannot set an SNR on a zero-energy signal")
    noise_var = power / ratio
    if noise_var == math.inf:
        raise ValidationError(f"snr_db {snr_db} is out of range: the noise variance overflows")
    rng = np.random.default_rng(check_seed(rng_seed))
    out = np.empty(len(signal), dtype=np.complex128)
    out.real = rng.standard_normal(len(signal))
    out.imag = rng.standard_normal(len(signal))
    out *= math.sqrt(noise_var / 2.0)
    out += signal.samples
    out.setflags(write=False)
    return IqSignal(out, signal.sample_rate_hz, signal.center_frequency_hz)
