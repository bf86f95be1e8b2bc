"""Complex baseband primitives: Zadoff-Chu sequences, transforms, correlation.

All functions are pure and all values are immutable after construction, so
they are safe to share between threads. Domain objects adopt a frozen
complex128 array as it is and copy anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _is_frozen(arr: np.ndarray) -> bool:
    """True when ``arr`` and every array in its ``.base`` chain are read-only
    and the chain ends in an array that owns its data or in ``bytes``, so
    its memory changes only if someone turns writing back on."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return isinstance(arr, bytes)


def _frozen_complex(values) -> np.ndarray:
    """A read-only complex128 array of ``values``: adopted without a copy when
    it already is one and frozen, copied otherwise, so no caller can change a
    domain object behind its back."""
    if type(values) is np.ndarray and values.dtype == np.complex128 and _is_frozen(values):
        return values
    try:
        arr = np.array(values, dtype=np.complex128)
    except ValueError as err:  # ragged rows or non-numeric values
        raise ValidationError(f"not an array of complex values: {err}") from err
    arr.setflags(write=False)
    return arr


def check_capture(samples: int, sample_rate_hz: float, center_frequency_hz: float) -> None:
    """The checks every capture passes, in memory or on disk: at least one
    sample, a finite positive rate and a non-negative carrier."""
    if samples == 0:
        raise ValidationError("IqSignal requires a non-empty 1-D sample vector")
    if not np.isfinite(sample_rate_hz) or sample_rate_hz <= 0:
        raise ValidationError(f"sample_rate_hz must be finite and positive, got {sample_rate_hz}")
    if not center_frequency_hz >= 0:
        raise ValidationError("center_frequency_hz must be >= 0")


@dataclass(frozen=True)
class IqSignal:
    """Complex baseband sample stream.

    ``center_frequency_hz`` is carried as metadata only; no operation in this
    package mixes signals up or down.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_frequency_hz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_complex(self.samples))
        if self.samples.ndim != 1:
            raise ValidationError("IqSignal requires a non-empty 1-D sample vector")
        check_capture(self.samples.size, self.sample_rate_hz, self.center_frequency_hz)

    def __len__(self) -> int:
        return self.samples.size

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``lo`` to ``hi`` as a read-only view: the range read that
        ``io.IqReader`` offers for a capture on disk, so the receive chain
        takes either."""
        return self.samples[lo:hi]

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (fine for sequence lengths)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Generate a prime-length Zadoff-Chu sequence.

    Uses the odd-length convention x[n] = exp(-i*pi*root*n*(n+1)/length).
    Prime length guarantees the CAZAC property for every root in
    1..length-1: unit magnitude everywhere and zero periodic
    autocorrelation at all nonzero lags.
    """
    if not is_prime(length):
        raise ValidationError(f"Zadoff-Chu length must be prime, got {length}")
    if not 0 < root < length:
        raise ValidationError(
            f"Zadoff-Chu root must satisfy 0 < root < length, got root={root}, length={length}"
        )
    n = np.arange(length, dtype=np.float64)
    return np.exp(-1j * np.pi * root * n * (n + 1.0) / length)


def dft(samples) -> np.ndarray:
    """Forward DFT, X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).

    Arbitrary lengths are supported, including primes; the sounding
    sequences used here are prime-length so this is load-bearing.
    """
    x = np.asarray(samples)
    if x.size == 0:
        raise ValidationError("dft of empty input")
    return np.fft.fft(x)


def idft(spectrum) -> np.ndarray:
    """Inverse DFT with 1/N normalization; idft(dft(x)) == x."""
    x = np.asarray(spectrum)
    if x.size == 0:
        raise ValidationError("idft of empty input")
    return np.fft.ifft(x)


def circular_cross_correlate(a, b) -> np.ndarray:
    """Periodic cross-correlation r[k] = sum_n a[n] * conj(b[(n-k) mod N]).

    Computed via transforms as idft(dft(a) * conj(dft(b))), which equals the
    direct summation to rounding precision.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(
            f"cross-correlation needs equal-length 1-D inputs, got {a.shape} and {b.shape}"
        )
    if a.size == 0:
        raise ValidationError("cross-correlation of empty inputs")
    return np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))
