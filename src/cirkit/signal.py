"""Complex baseband primitives: Zadoff-Chu sequences and correlation.

All functions are pure and all values are immutable after construction, so
they are safe to share between threads. Every domain object, a
``PowerDelayProfile`` too, adopts a frozen array of the dtype it stores and
copies anything else (:func:`_frozen`), so producers freeze (:func:`_freeze`)
the fresh arrays they hand over.
"""

from __future__ import annotations

import math
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


def _frozen(values, dtype) -> np.ndarray:
    """A read-only ``dtype`` array of ``values``, the dtype its holder stores:
    adopted without a copy when it already is one and frozen, copied
    otherwise, so no caller can change a domain object behind its back."""
    if type(values) is np.ndarray and values.dtype == dtype and _is_frozen(values):
        return values
    try:
        arr = np.array(values, dtype=dtype)
    except ValueError as err:  # ragged rows or non-numeric values
        raise ValidationError(f"not an array of {np.dtype(dtype)} values: {err}") from err
    arr.setflags(write=False)
    return arr


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _read_target(out, lo: int, samples: int, where: str = "") -> np.ndarray:
    """``out`` as a flat view when it is a writable C-contiguous complex128
    array, the only kind a capture's ``read_into`` fills, and the samples
    it takes from ``lo`` on lie in a capture of ``samples``. Anything else
    raises ``ValidationError`` before a sample is read, since a copy would
    be filled in its place; ``where``, a file's path and a colon, starts
    the range error."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.complex128
            and out.flags.c_contiguous and out.flags.writeable):
        what = type(out).__name__
        if isinstance(out, np.ndarray):
            read_only = "" if out.flags.writeable else "read-only "
            strided = "" if out.flags.c_contiguous else "strided "
            what = f"a {read_only}{strided}{out.dtype} array"
        raise ValidationError(
            f"read_into fills a writable C-contiguous complex128 array, not {what}"
        )
    flat = out.reshape(-1)
    if not 0 <= lo <= lo + flat.size <= samples:
        raise ValidationError(f"{where}no samples [{lo}, {lo + flat.size}) in {samples}")
    return flat


def _check_rate(sample_rate_hz: float) -> None:
    """Raise ``ValidationError``, its message starting with the field's
    name, unless ``sample_rate_hz`` is finite and positive."""
    if not 0 < sample_rate_hz < math.inf:
        raise ValidationError(f"sample_rate_hz must be finite and positive, got {sample_rate_hz}")


def check_capture(samples: int, sample_rate_hz: float, center_frequency_hz: float) -> None:
    """The checks every capture passes, in memory or on disk: at least one
    sample, a finite positive rate and a non-negative carrier."""
    if samples == 0:
        raise ValidationError("IqSignal requires a non-empty 1-D sample vector")
    _check_rate(sample_rate_hz)
    if not center_frequency_hz >= 0:
        raise ValidationError("center_frequency_hz must be >= 0")


@dataclass(frozen=True)
class IqSignal:
    """Complex baseband sample stream.

    A capture the receive chain reads needs three members, which this and
    ``io.IqReader`` both have: ``len``, ``sample_rate_hz`` and
    ``read_into``. ``center_frequency_hz`` is carried as metadata only, for
    ``io.write_iq``; no operation in this package mixes signals up or down.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_frequency_hz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(self.samples, np.complex128))
        if self.samples.ndim != 1:
            raise ValidationError("IqSignal requires a non-empty 1-D sample vector")
        check_capture(self.samples.size, self.sample_rate_hz, self.center_frequency_hz)

    def __len__(self) -> int:
        return self.samples.size

    def read_into(self, lo: int, out: np.ndarray, scratch: np.ndarray) -> None:
        """Copy the samples from ``lo`` on into ``out``, as ``io.IqReader``
        fills it; the samples are in memory already, so ``scratch`` is unused."""
        flat = _read_target(out, lo, self.samples.size)
        flat[...] = self.samples[lo : lo + flat.size]


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
    """Generate a prime-length Zadoff-Chu sequence, as a read-only array.

    Uses x[n] = exp(-i*pi*root*n*(n + length mod 2)/length): n*(n+1) for
    an odd length, n^2 for the one even prime, 2. Prime length guarantees
    the CAZAC property for every root in 1..length-1: unit magnitude
    everywhere and zero periodic autocorrelation at all nonzero lags, so
    every DFT bin holds the same power, ``length``.
    """
    if not is_prime(length):
        raise ValidationError(f"Zadoff-Chu length must be prime, got {length}")
    if not 0 < root < length:
        raise ValidationError(
            f"Zadoff-Chu root must satisfy 0 < root < length, got root={root}, length={length}"
        )
    # the phase in units of pi/length, reduced mod 2*length in integers so
    # that no root carries a large phase's rounding into the sequence
    n = np.arange(length, dtype=np.int64)
    k = n * (n + length % 2) % (2 * length) * root % (2 * length)
    return _freeze(np.exp(-1j * np.pi * k / length))[0]


def circular_cross_correlate(a, b) -> np.ndarray:
    """Periodic cross-correlation r[k] = sum_n a[n] * conj(b[(n-k) mod N]).

    Computed via transforms as ifft(fft(a) * conj(fft(b))), numpy's DFTs of
    any length, primes included, which equals the direct summation to
    rounding precision.
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
