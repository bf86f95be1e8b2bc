"""Channel sounding: from a received IQ capture to CIRs and an averaged PDP.

The transmit side tiles a base sequence, by default a prime-length
Zadoff-Chu one; the receive side takes the same sequence, removes capture
artifacts, aligns to the sequence, deconvolves one channel impulse response
per period of the sequence's length and averages squared magnitudes into a
power delay profile. The sample rate is the capture's.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .analysis import PowerDelayProfile
from .errors import ValidationError
from .signal import IqSignal, _freeze, _frozen, circular_cross_correlate

DEFAULT_SEQUENCE_LENGTH = 353
DEFAULT_ROOT = 1
DEFAULT_REPETITIONS = 3
DEFAULT_SAMPLE_RATE_HZ = 25.6e6
DEFAULT_TAPER_FRACTION = 0.1

_SPIKE_THRESHOLD = 6.0

# circular pre-shift applied with tapering so the taper kernel's pre-cursor
# ringing stays causal instead of wrapping to the far end of the delay axis
_TAPER_GUARD_TAPS = 16


def _sequence(values) -> np.ndarray:
    """``values`` as a frozen complex128 base sequence, one period of the
    sounding; anything but a non-empty 1-D array raises ``ValidationError``."""
    sequence = _frozen(values, np.complex128)
    if sequence.ndim != 1 or sequence.size == 0:
        raise ValidationError(
            f"base sequence must be a non-empty 1-D array, got shape {sequence.shape}"
        )
    return sequence


def _check_repetitions(repetitions: int) -> int:
    """``repetitions`` when the sequence is tiled at least once."""
    if not repetitions >= 1:
        raise ValidationError("repetitions must be >= 1")
    return repetitions


def build_sounding_signal(
    sequence, repetitions: int, sample_rate_hz: float, center_frequency_hz: float = 0.0
) -> IqSignal:
    """Concatenate ``repetitions`` copies of the base ``sequence``."""
    samples = np.tile(_sequence(sequence), _check_repetitions(repetitions))
    return IqSignal(samples, sample_rate_hz, center_frequency_hz)


# samples per mitigation chunk, each chunk its own spike-median window:
# 256 periods of the default sequence, 3.5 ms at 25.6 MS/s
_CHUNK_SAMPLES = 90_368

# CIR rows (snapshots or periods) handled per array block;
# output does not depend on it, peak memory and speed do
CHUNK_ROWS = 256

# chunk tasks that run at once; each works in its own slot's buffers, so
# the receive chain holds this many chunks whatever the capture length
_MAX_WORKERS = 2

# the buffers carved for the chunk slots start at multiples of this many bytes
_ALIGN = 64


@functools.cache
def _pool():
    # imported here, not with the module: the import costs milliseconds and
    # a one-chunk capture never needs it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_MAX_WORKERS, thread_name_prefix="cirkit-chunks")


# a forked child inherits the pool but not its threads, and an idle pool
# starts none for new work: the child must make its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _buffer_bytes(shape, dtype) -> int:
    """The bytes a buffer of ``shape`` and ``dtype`` takes in a slot."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN


def _carve(arena: np.ndarray, layout) -> tuple[np.ndarray, ...]:
    """One C-contiguous view of ``arena`` per ``(shape, dtype)`` of ``layout``, in turn."""
    views = []
    offset = 0
    for shape, dtype in layout:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        views.append(arena[offset : offset + size].view(dtype).reshape(shape))
        offset += _buffer_bytes(shape, dtype)
    return tuple(views)


def _map_chunks(kernel, items, layout):
    """``kernel(item, buffers)`` for each of ``items``, yielded in order.

    It serves both the receive chain (mitigation and estimation) and the
    dataset generator (``gbsm.generate_dataset``, whose buffer is the
    float32 chunk a call renders and the file writer then writes as it is).
    ``buffers`` holds one C-contiguous array per ``(shape, dtype)`` of
    ``layout``, the buffers of the call's slot; its contents are whatever
    an earlier call left. Up to ``_MAX_WORKERS`` calls run at once on a
    thread pool, each in its own slot; numpy's FFTs and array loops release
    the GIL, so the calls share the cores. A result may be a view of its
    buffers: they go to a later call only once the caller has asked for the
    next result. With one item or one usable CPU the calls run inline in
    one slot.

    Every slot's buffers are carved from one byte array, made in the
    calling thread when the first result is asked for and freed when this
    ends, so a call keeps nothing and concurrent calls share nothing.
    Kernels write into their buffers, or into rows the caller made, and
    allocate nothing large, since memory a worker thread allocates stays
    in that thread's malloc arena. When a call fails or the caller stops
    early, every call not yet started is cancelled and every running one
    waited for, its result dropped, so no task outlives this and keeps a
    buffer.
    """
    items = list(items)
    slots = min(_MAX_WORKERS, len(items), _usable_cpus())
    slot_bytes = sum(_buffer_bytes(*spec) for spec in layout)
    # one allocation, not one per buffer: with one np.empty per buffer,
    # repeated in-process estimates of a 7200-period capture took about
    # 2 250 minor page faults and 3-5% more time per call, against 0 or 1
    # fault with this one (2-core x86-64, glibc)
    arena = np.empty(slots * slot_bytes, dtype=np.uint8)
    buffers = [_carve(arena[i * slot_bytes :], layout) for i in range(slots)]
    if slots <= 1:
        for item in items:
            yield kernel(item, buffers[0])
        return
    pool = _pool()
    running = collections.deque()
    try:
        for i, item in enumerate(items):
            if len(running) == slots:
                yield running.popleft().result()
            running.append(pool.submit(kernel, item, buffers[i % slots]))
        while running:
            yield running.popleft().result()
    finally:
        if running:
            from concurrent.futures import wait

            for future in running:
                future.cancel()
            wait(running)


def add_rows(power: np.ndarray, rows: np.ndarray) -> None:
    """Add each row of the float block ``rows`` into ``power``, one row after
    another, as ``for row in rows: power += row`` does; ``rows`` is changed.

    The running total goes into row 0, then numpy adds the rows up in one
    call. ``np.add.reduce(rows, axis=0)`` adds a C-ordered block of two or
    more columns row after row, and is the fastest such call; on a
    one-column block it adds pairwise, so that one goes through
    ``np.add.accumulate``, which always adds in order but reads a wide
    block column by column, six times slower than the reduction.
    """
    rows[0] += power
    if rows.shape[1] > 1:
        np.add.reduce(rows, axis=0, out=power)
    else:
        power[...] = np.add.accumulate(rows, axis=0, out=rows)[-1]


def _chunk_layout(samples: int):
    """A mitigation task's buffers for a capture of ``samples``: room for a
    chunk widened by a sample on either side, or for the whole capture and
    a sample when it is shorter, for their magnitudes, which are also the
    read's scratch, and for their spike flags: 25 bytes per sample."""
    size = min(samples + 1, _CHUNK_SAMPLES + 2)
    return ((size,), np.complex128), ((size,), np.float64), ((size,), np.bool_)


@dataclass(frozen=True)
class CleanedCapture:
    """A capture read through its mitigation: each range read has the mean
    subtracted and the spikes at ``spike_index`` set to ``spike_value``.

    ``source`` is any capture with ``len``, ``sample_rate_hz`` and
    ``read_into(lo, out, scratch)``, such as an ``IqSignal`` or an
    ``io.IqReader``, and so is the result. A range read is the source's
    read into ``out``, through ``scratch`` when the samples come from a
    file, then the clean-up in place: it makes no copy of the range.
    """

    source: object
    mean: complex
    spike_index: np.ndarray
    spike_value: np.ndarray

    @property
    def sample_rate_hz(self) -> float:
        return self.source.sample_rate_hz

    def __len__(self) -> int:
        return len(self.source)

    def read_into(self, lo: int, out: np.ndarray, scratch: np.ndarray) -> None:
        """Fill the writable C-contiguous complex128 array ``out`` with the
        cleaned samples from ``lo`` on; ``scratch``, at least 8 bytes per
        sample of ``out``, is the source's to overwrite."""
        self.source.read_into(lo, out, scratch)
        flat = out.reshape(-1)  # a view: the source took only a contiguous out
        flat -= self.mean
        first, last = np.searchsorted(self.spike_index, (lo, lo + flat.size))
        flat[self.spike_index[first:last] - lo] = self.spike_value[first:last]


def mitigate_artifacts(rx) -> CleanedCapture:
    """Simplified capture clean-up: DC offset removal and spike suppression.

    The complex mean is subtracted, then any sample whose magnitude exceeds
    ``_SPIKE_THRESHOLD`` (6) times the median magnitude of its chunk is
    replaced by linear interpolation of its neighbours. This is a
    deliberately simple stand-in for full iterative restoration of hardware
    artifacts.

    The capture is read twice, in chunks of ``_CHUNK_SAMPLES`` samples
    (256 periods, 3.5 ms at 25.6 MS/s) through ``_map_chunks``. The first
    pass adds the chunks' ``np.add.reduce`` sums in chunk order and divides
    by the sample count as ``np.mean`` divides. The second takes each
    chunk's median magnitude by ``np.median``'s rules (the mean of the
    middle pair; NaN, which flags nothing, when a magnitude is NaN) and
    flags the chunk's spikes; a short last chunk takes its median over the
    capture's last ``_CHUNK_SAMPLES`` samples. A median per chunk follows a
    capture whose level changes, such as one whose transmitter starts
    late. Besides a few chunks this holds the spike list and nothing that
    grows with the capture, and the result does not depend on the number
    of threads. The result is a ``CleanedCapture`` that cleans each range
    of ``rx`` as it is read, so a capture larger than RAM streams through.
    """
    n = len(rx)
    layout = _chunk_layout(n)

    def chunk_sum(lo, buffers):
        size = min(_CHUNK_SAMPLES, n - lo)
        x = buffers[0][:size]
        rx.read_into(lo, x, buffers[1][:size])
        return np.add.reduce(x)

    mean = sum(_map_chunks(chunk_sum, range(0, n, _CHUNK_SAMPLES), layout)) / np.intp(n)
    # the last task takes a short last chunk along
    tasks = range(0, max(n - _CHUNK_SAMPLES, 0) + 1, _CHUNK_SAMPLES)
    found = _map_chunks(functools.partial(_chunk_spikes, rx, mean), tasks, layout)
    bad, near, values = (np.concatenate(part) for part in zip(*found))
    repaired = np.empty(0, dtype=np.complex128)
    if bad.size:
        # a chunk's edge neighbour may be a spike of the chunk next to it;
        # the good samples next to a run of spikes are the ones that
        # bracket it, so interpolating from them alone equals interpolating
        # from all
        near, first = np.unique(near, return_index=True)
        good = ~np.isin(near, bad)
        near, values = near[good], values[first[good]]
        repaired = np.interp(bad, near, values.real) + 1j * np.interp(bad, near, values.imag)
    return CleanedCapture(rx, mean, bad, repaired)


def _chunk_spikes(rx, mean, lo: int, buffers):
    """The spikes of the chunk from ``lo``, and of a short last chunk after
    it: the indices of the samples whose ``|x - mean|`` exceeds
    ``_SPIKE_THRESHOLD`` times their window's median magnitude, and the
    indices and values of the samples next to them that are not flagged
    with them.

    A chunk from sample ``first`` is read with a sample on either side,
    sample ``first - 1 + p`` at position p of ``buffers``, and is its own
    window; the magnitudes' positions are the read's scratch until the
    magnitudes are taken. A short last chunk
    is then read the same way over the front of the buffers. Its window,
    the capture's last ``_CHUNK_SAMPLES`` samples, is its own magnitudes
    followed by the end of the chunk's, which are still in place behind
    them, so no sample is read for it a second time.
    """
    n = len(rx)
    x, mag, flags = buffers
    window = slice(1, min(n, _CHUNK_SAMPLES) + 1)
    hi = min(lo + _CHUNK_SAMPLES, n)
    spans = [(lo, hi)]
    if 0 < n - hi < _CHUNK_SAMPLES:
        spans.append((hi, n))
    found = []
    for first, last in spans:
        read = slice(int(first == 0), min(last + 1, n) - first + 1)
        rx.read_into(first - 1 + read.start, x[read], mag[read])
        x[read] -= mean
        np.abs(x[read], out=mag[read])
        threshold = _SPIKE_THRESHOLD * _median(mag[window])
        np.abs(x[read], out=mag[read])  # in sample order again
        flagged = np.greater(mag[1 : last - first + 1], threshold, out=flags[: last - first])
        hits = np.flatnonzero(flagged) + first
        near = np.setdiff1d(np.concatenate([hits - 1, hits + 1]), hits)
        near = near[(near >= 0) & (near < n)]
        found.append((hits, near, x[near - first + 1]))
    return tuple(np.concatenate(part) for part in zip(*found))


def _median(mag: np.ndarray) -> float:
    """``np.median(mag)``, found by partitioning ``mag`` in place around its
    upper middle (one pivot: numpy partitions around several far slower)."""
    half = mag.size // 2
    mag.partition(half)
    if np.isnan(mag[half:].max()):  # NaNs sort last; np.median is then NaN
        return np.nan
    if mag.size % 2:
        return mag[half]
    return (mag[:half].max() + mag[half]) / 2  # the mean of the middle pair, as np.mean adds


def synchronize(rx, sequence) -> int:
    """Locate the start of the first period of the base ``sequence`` in the
    capture.

    Correlates the first full window against the sequence and returns the
    lag with the largest correlation magnitude, in [0, period). ``rx`` is
    an ``IqSignal`` or any capture read by range; only the first period is
    read, through ``read_into``.
    """
    sequence = _sequence(sequence)
    n = sequence.size
    if len(rx) < 2 * n:
        raise ValidationError(
            f"capture too short to synchronize: {len(rx)} samples < 2 x {n}"
        )
    window = np.empty(n, dtype=np.complex128)
    rx.read_into(0, window, np.empty(n))
    corr = circular_cross_correlate(window, sequence)
    return int(np.argmax(np.abs(corr)))


def check_taper(taper_fraction: float, name: str = "taper fraction") -> float:
    """``taper_fraction`` when it is 0, which disables the taper, or lies in
    (0, 0.5]; anything else raises ``ValidationError`` naming ``name``."""
    if taper_fraction != 0.0 and not 0.0 < taper_fraction <= 0.5:
        raise ValidationError(f"{name} must be 0 or lie in (0, 0.5], got {taper_fraction}")
    return taper_fraction


def _taper_window(n: int, taper_fraction: float) -> np.ndarray | None:
    """Raised-cosine roll-off over the outer ``taper_fraction`` of band edges.

    Built on the shifted (monotonic-frequency) axis and returned in DFT bin
    order; None when ``taper_fraction`` is 0, which disables the taper.
    """
    if check_taper(taper_fraction) == 0.0:
        return None
    edge = max(1, int(round(n * taper_fraction)))
    window = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(edge) + 0.5) / edge))
    window[:edge] = ramp
    window[n - edge :] = ramp[::-1]
    return np.fft.ifftshift(window)


def _smooth_length(size: int) -> int:
    """The smallest 2^a 3^b 5^c >= ``size``: a length numpy transforms
    without the Bluestein detour a prime length takes."""
    while True:
        rest = size
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return size
        size += 1


def estimate_pdp(
    rx,
    sequence,
    taper_fraction: float = DEFAULT_TAPER_FRACTION,
    start: int = 0,
) -> PowerDelayProfile:
    """Estimate one CIR per complete period of the base ``sequence`` in the
    capture from sample ``start`` on, and average their squared magnitudes into a power
    delay profile. The noise floor is left unset; it is estimated
    downstream.

    Each period y is circularly convolved with the kernel
    g = IDFT(conj(X[k]) W[k] / |X[k]|^2), X the DFT of the base sequence
    and W the edge taper (1 without it): the spectral division
    H = Y conj(X) / |X|^2, tapered, done in the delay domain. The sequence
    needs no zero DFT bin and nothing else: the division is exact and needs
    no ridge term. A prime-length Zadoff-Chu sequence has |X[k]|^2 = N in
    every bin. The convolution is a linear one of [y, y[:N-1]] with g,
    through FFTs of the smallest 2^a 3^b 5^c length M >= 2N - 1, since the
    period N, a prime by default, may have no fast transform; see
    ``_cir_chunks``. Each CIR equals the per-period DFT formula to rounding
    (within 1e-12 of the peak). With tapering enabled each CIR is
    additionally rotated right by a small guard so the taper kernel's
    two-sided ringing lands at causal delays; downstream normalization
    re-references delay zero, so only the raw tap indices shift.

    Each chunk of ``CHUNK_ROWS`` periods is read, deconvolved and squared,
    and the squared magnitudes are added into the powers row after row in
    chunk order, the order in which ``np.mean(..., axis=0)`` adds up all
    periods at once. The memory is a few chunks whatever the capture
    length. ``rx`` is an ``IqSignal`` or any capture read by range, such as
    ``mitigate_artifacts``' result.
    """
    sequence = _sequence(sequence)
    n = sequence.size
    power = np.zeros(n)
    rows = 0
    for block in _cir_chunks(rx, sequence, taper_fraction, start):
        add_rows(power, block)
        rows += len(block)
    return PowerDelayProfile(*_freeze(np.arange(n) * (1.0 / rx.sample_rate_hz), power / rows))


# periods transformed at once inside a chunk: 64 padded rows of about two
# periods hold about as much as a chunk's 256 rows of squared magnitudes
_FFT_ROWS = 64


def _cir_chunks(rx, sequence, taper_fraction, start):
    """Deconvolve the complete periods of the 1-D complex128 base
    ``sequence`` from sample ``start`` on, ``CHUNK_ROWS`` at a time, through
    ``_map_chunks``, and square the CIRs' magnitudes.

    A base sequence with a zero DFT bin, which no prime-length Zadoff-Chu
    sequence has, is rejected naming that bin. The kernel g of
    ``estimate_pdp`` is built once per call and rotated
    right by the taper guard less one, and G is the DFT of g zero-padded to
    M, the smallest 2^a 3^b 5^c >= 2N - 1. Each period y of N samples is
    written into a row of M as [y, y[:N-1], 0, ...], transformed, multiplied
    by G and transformed back: that is the linear convolution with the
    rotated g, and its columns N-1 to 2N-2 are the period's CIR, already
    rotated by the guard. ``_FFT_ROWS`` periods go through the transforms at
    once, and |h|^2 of each such block of CIRs h goes into the matching
    rows of a chunk's ``(rows, period)`` buffer; the chunks' buffers are
    yielded in chunk order. Each block is read with those rows as the
    read's scratch.
    """
    n = sequence.size
    x_spec = np.fft.fft(sequence)
    ref_power = np.abs(x_spec) ** 2
    if not ref_power.all():
        # the first zero bin: the smallest of non-negative powers
        raise ValidationError(
            f"reference sequence has zero energy in DFT bin {int(np.argmin(ref_power))}"
        )

    n_periods = (len(rx) - start) // n
    if n_periods <= 0:
        raise ValidationError(f"capture holds no complete period of {n} samples")

    window = _taper_window(n, taper_fraction)
    guard = min(_TAPER_GUARD_TAPS, n // 2) if window is not None else 0
    spectrum = np.conj(x_spec) if window is None else np.conj(x_spec) * window
    spectrum /= ref_power
    m = _smooth_length(2 * n - 1)
    kernel = np.zeros(m, dtype=np.complex128)
    kernel[:n] = np.roll(np.fft.ifft(spectrum), guard - 1)
    np.fft.fft(kernel, out=kernel)

    chunk_rows = min(CHUNK_ROWS, n_periods)
    fft_rows = min(_FFT_ROWS, chunk_rows)

    def deconvolve(first, buffers):
        padded, periods, out = buffers
        rows = min(CHUNK_ROWS, n_periods - first)
        for lo in range(0, rows, fft_rows):
            z = padded[: min(fft_rows, rows - lo)]
            y = periods[: len(z)]
            squared = out[lo : lo + len(z)]
            # the read's scratch is the rows the squared CIRs go to
            rx.read_into(start + (first + lo) * n, y.reshape(-1), squared)
            z[:, :n] = y
            z[:, n : 2 * n - 1] = y[:, : n - 1]
            z[:, 2 * n - 1 :] = 0
            np.fft.fft(z, axis=-1, out=z)
            z *= kernel
            np.fft.ifft(z, axis=-1, out=z)
            np.abs(z[:, n - 1 : 2 * n - 1], out=squared)
            np.square(squared, out=squared)
        return out[:rows]

    layout = (
        ((fft_rows, m), np.complex128),
        ((fft_rows, n), np.complex128),
        ((chunk_rows, n), np.float64),
    )
    return _map_chunks(deconvolve, range(0, n_periods, CHUNK_ROWS), layout)
