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


# samples per mitigation chunk: CHUNK_ROWS periods of the default sequence
# (at least 64, the longest run numpy sums without splitting it)
_CHUNK_SAMPLES = CHUNK_ROWS * DEFAULT_SEQUENCE_LENGTH
# the median's histogram counts the top 20 bits of each magnitude (sign,
# exponent and 8 mantissa bits: 256 bins an octave), then narrows an
# oversized bin 16 bits at a time
_TOP_BITS = 20
_KEY_BITS = 16


@dataclass(frozen=True)
class CleanedCapture:
    """A capture read through its mitigation: each range read has the mean
    subtracted and the spikes at ``spike_index`` set to ``spike_value``.

    ``source`` is anything with ``len``, ``read(lo, hi)``,
    ``sample_rate_hz`` and ``center_frequency_hz``: an ``IqSignal`` or an
    ``io.IqReader``.
    """

    source: object
    mean: complex
    spike_index: np.ndarray
    spike_value: np.ndarray

    @property
    def sample_rate_hz(self) -> float:
        return self.source.sample_rate_hz

    @property
    def center_frequency_hz(self) -> float:
        return self.source.center_frequency_hz

    def __len__(self) -> int:
        return len(self.source)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Cleaned samples ``lo`` to ``hi`` as a new array."""
        x = self.source.read(lo, hi) - self.mean
        first, last = np.searchsorted(self.spike_index, (lo, hi))
        x[self.spike_index[first:last] - lo] = self.spike_value[first:last]
        return x


def mitigate_artifacts(
    rx, spike_threshold: float = _SPIKE_THRESHOLD
) -> IqSignal | CleanedCapture:
    """Simplified capture clean-up: DC offset removal and spike suppression.

    The complex mean is subtracted, then any sample whose magnitude exceeds
    ``spike_threshold`` times the median magnitude is replaced by linear
    interpolation of its neighbours. This is a deliberately simple stand-in
    for full iterative restoration of hardware artifacts.

    The capture is read in chunks of ``_CHUNK_SAMPLES`` samples, a few
    times over: once for the mean (summed pairwise exactly as ``np.mean``
    does), once for a histogram of the magnitudes' top bits, and once or
    more to find the exact median inside the histogram and gather the
    spikes. Besides one chunk this holds the spike list and nothing that
    grows with the capture; the result equals the whole-array formulas bit
    for bit. An ``IqSignal`` comes back as a cleaned ``IqSignal``. Any
    other capture, such as an ``io.IqReader``, comes back as a
    ``CleanedCapture`` that cleans each range as it is read, so a capture
    larger than RAM streams through.
    """
    if not spike_threshold >= 0:
        raise ValidationError(f"spike_threshold must be >= 0, got {spike_threshold}")
    n = len(rx)
    total = _pairwise_sum(rx, 0, n)
    mean = total.dtype.type(total / np.intp(n))  # as np.mean divides
    spike_index, spike_value = _spike_repairs(rx, mean, spike_threshold)
    cleaned = CleanedCapture(rx, mean, spike_index, spike_value)
    if not isinstance(rx, IqSignal):
        return cleaned
    x = cleaned.read(0, n)
    x.setflags(write=False)
    return IqSignal(x, rx.sample_rate_hz, rx.center_frequency_hz)


def _pairwise_sum(rx, lo: int, hi: int) -> np.complex128:
    """``np.add.reduce`` of samples ``lo`` to ``hi``, bit for bit, reading at
    most one chunk at a time.

    numpy sums complex values pairwise over their float count: a run longer
    than 128 floats splits at half its floats, rounded down to a multiple
    of 8. Splitting the same way until a run fits a chunk and handing that
    run to numpy gives the same tree of additions.
    """
    if hi - lo <= _CHUNK_SAMPLES:
        return np.add.reduce(rx.read(lo, hi))
    floats = hi - lo  # half the float count of the run
    mid = lo + (floats - floats % 8) // 2
    return _pairwise_sum(rx, lo, mid) + _pairwise_sum(rx, mid, hi)


def _magnitude_chunks(rx, mean, pad: int = 0):
    """(offset, start, x, |x|) of each chunk of ``_CHUNK_SAMPLES`` samples of
    the mean-free capture, widened by up to ``pad`` samples on either side:
    ``x`` starts at sample ``start`` and the chunk ``offset`` samples into it."""
    n = len(rx)
    for lo in range(0, n, _CHUNK_SAMPLES):
        start = max(lo - pad, 0)
        x = rx.read(start, min(lo + _CHUNK_SAMPLES + pad, n)) - mean
        yield lo - start, start, x, np.abs(x)


def _spike_repairs(rx, mean, spike_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and repaired values of the samples whose ``|x - mean|``
    exceeds ``spike_threshold`` times its median."""
    histogram = _top_key_counts(rx, mean)
    if histogram is None:  # np.median is NaN, and nothing exceeds it
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.complex128)
    median, index, samples = _median_and_candidates(rx, mean, *histogram, spike_threshold)
    threshold = spike_threshold * float(median)

    is_bad = np.abs(samples) > threshold
    bad = index[is_bad]
    if bad.size == 0:
        return bad, np.empty(0, dtype=np.complex128)
    # the good samples next to a run of spikes are the ones that bracket
    # it, so interpolating from them alone equals interpolating from all
    near = np.concatenate([bad - 1, bad + 1])
    near = near[(near >= 0) & (near < len(rx))]
    near = np.unique(near[~is_bad[np.searchsorted(index, near)]])
    if near.size == 0:
        raise ValidationError("every sample flagged as a spike; capture unusable")
    near_samples = samples[np.searchsorted(index, near)]
    repaired = np.interp(bad, near, near_samples.real) + 1j * np.interp(
        bad, near, near_samples.imag
    )
    return bad, repaired


def _top_key_counts(rx, mean) -> tuple[int, np.ndarray] | None:
    """Counts of the top ``_TOP_BITS`` bits of every ``|x - mean|``, as the
    first key seen and the counts from it on, or None when a magnitude is
    NaN. The counts span only the keys seen, a few thousand for a capture
    with a few octaves of magnitudes."""
    first, counts = None, None
    for _, _, _, mag in _magnitude_chunks(rx, mean):
        if np.isnan(mag).any():
            return None
        keys = (mag.view(np.uint64) >> (64 - _TOP_BITS)).view(np.int64)
        low = int(keys.min())
        part = np.bincount(keys - low)
        if counts is None:
            first, counts = low, part
            continue
        start, end = min(first, low), max(first + counts.size, low + part.size)
        if end - start > counts.size:
            grown = np.zeros(end - start, dtype=np.int64)
            grown[first - start : first - start + counts.size] = counts
            first, counts = start, grown
        counts[low - first : low - first + part.size] += part
    return first, counts


def _narrow(counts: np.ndarray, rank: int) -> tuple[int, int, int]:
    """The bin of ``counts`` that holds ``rank``, the rank within that bin,
    and the bin's count."""
    cum = np.cumsum(counts)
    key = int(np.searchsorted(cum, rank, side="right"))
    return key, rank - int(cum[key] - counts[key]), int(counts[key])


def _median_and_candidates(
    rx, mean, first_key: int, counts: np.ndarray, spike_threshold: float
):
    """The exact median of ``|x - mean|``, and the sorted indices and values
    of a superset of the spikes and of the samples that bracket them.

    Non-negative floats sort like their bits read as ``uint64``. So each
    middle rank is found in the bin of ``counts`` (keys from ``first_key``
    on) that holds it, by ``np.partition`` of the values in that bin; a bin
    of more than one chunk of values is first narrowed on its next 16 bits,
    pass by pass.
    The first pass also keeps every sample above ``spike_threshold`` times
    the lower edge of the median's bin, with its neighbours.
    """
    n = len(rx)
    # each middle rank narrows to the values whose bits above ``shift``
    # equal ``prefix``: its rank among them is ``within``, their number ``count``
    ranks = sorted({(n - 1) // 2, n // 2})
    state = {}
    for rank in ranks:
        key, within, count = _narrow(counts, rank)
        state[rank] = (64 - _TOP_BITS, first_key + key, within, count)
    shift, prefix = state[ranks[0]][:2]
    floor = spike_threshold * float(np.uint64(prefix << shift).view(np.float64))
    values: dict[int, float] = {}
    near_index, near_value = [], []
    first_pass = True
    while len(values) < len(ranks):
        groups = {state[rank][:2]: state[rank][3] for rank in ranks if rank not in values}
        gathered = {group: [] for group in groups}
        refined = {group: np.zeros(1 << _KEY_BITS, dtype=np.int64) for group in groups}
        for offset, start, x, mag in _magnitude_chunks(rx, mean, pad=int(first_pass)):
            core = mag[offset : offset + _CHUNK_SAMPLES]
            keys = core.view(np.uint64)
            for (shift, prefix), count in groups.items():
                in_group = keys[(keys >> shift) == prefix]
                if count <= _CHUNK_SAMPLES:
                    gathered[shift, prefix].append(in_group.view(np.float64))
                else:
                    bits = min(_KEY_BITS, shift)
                    sub = (in_group >> (shift - bits)) & ((1 << bits) - 1)
                    refined[shift, prefix] += np.bincount(
                        sub.view(np.int64), minlength=1 << _KEY_BITS
                    )
            if first_pass:
                hits = np.flatnonzero(core > floor) + offset
                near = np.unique(np.concatenate([hits - 1, hits, hits + 1]))
                near = near[(near >= 0) & (near < x.size)]
                near_index.append(near + start)
                near_value.append(x[near])
        first_pass = False
        for rank in ranks:
            if rank in values:
                continue
            shift, prefix, within, count = state[rank]
            if count <= _CHUNK_SAMPLES:
                group = np.concatenate(gathered[shift, prefix])
                values[rank] = np.partition(group, within)[within]
                continue
            bits = min(_KEY_BITS, shift)
            sub, within, count = _narrow(refined[shift, prefix], within)
            shift, prefix = shift - bits, (prefix << bits) | sub
            state[rank] = (shift, prefix, within, count)
            if shift == 0:  # every bit is known
                values[rank] = np.uint64(prefix).view(np.float64)
    # np.median: the mean of the middle value or values
    median = np.mean(np.array([values[rank] for rank in ranks]))
    index, first = np.unique(np.concatenate(near_index), return_index=True)
    return median, index, np.concatenate(near_value)[first]


def synchronize(rx, waveform: SoundingWaveform) -> int:
    """Locate the start of the first sequence period in the capture.

    Correlates the first full window against the base sequence and returns
    the lag with the largest correlation magnitude, in [0, period). ``rx``
    is an ``IqSignal`` or any capture read by range; only the first period
    is read.
    """
    n = waveform.period
    if len(rx) < 2 * n:
        raise ValidationError(
            f"capture too short to synchronize: {len(rx)} samples < 2 x {n}"
        )
    corr = circular_cross_correlate(rx.read(0, n), waveform.base_sequence)
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
    taps = np.empty((len(rx) // waveform.period, waveform.period), dtype=np.complex128)
    row = 0
    for block in _cir_chunks(rx, waveform, regularization, taper_fraction):
        taps[row : row + len(block)] = block
        row += len(block)
    taps.setflags(write=False)
    return ChannelImpulseResponse(taps, 1.0 / rx.sample_rate_hz)


def estimate_pdp(
    rx,
    waveform: SoundingWaveform,
    regularization: float | None = None,
    taper_fraction: float = DEFAULT_TAPER_FRACTION,
    start: int = 0,
) -> PowerDelayProfile:
    """``average_pdp(estimate_cirs(...))`` of the capture from sample
    ``start`` on, without the CIR block: each chunk of ``CHUNK_ROWS``
    periods is read, deconvolved and added into the powers, so the memory
    is one chunk whatever the capture length. ``rx`` is an ``IqSignal`` or
    any capture read by range, such as ``mitigate_artifacts``' result for
    an ``io.IqReader``. The powers equal the two-step result bit for bit.
    """
    blocks = _cir_chunks(rx, waveform, regularization, taper_fraction, start)
    return _average_blocks(blocks, waveform.period, 1.0 / rx.sample_rate_hz)


def _cir_chunks(rx, waveform, regularization, taper_fraction, start=0):
    """Yield the CIRs of the complete periods from sample ``start`` on,
    ``CHUNK_ROWS`` at a time, as ``(rows, period)`` blocks that reuse one
    buffer; see ``estimate_cirs`` for the formula."""
    n = waveform.period
    x_spec = np.fft.fft(waveform.base_sequence)
    ref_power = np.abs(x_spec) ** 2
    if not np.any(ref_power):
        raise ValidationError("reference sequence has zero energy")
    if regularization is None:
        regularization = _AUTO_REGULARIZATION * float(np.mean(ref_power))
    if not regularization >= 0:
        raise ValidationError("regularization must be >= 0")

    n_periods = (len(rx) - start) // n
    if n_periods <= 0:
        raise ValidationError(f"capture holds no complete period of {n} samples")

    window = _taper_window(n, taper_fraction)
    guard = min(_TAPER_GUARD_TAPS, n // 2) if window is not None else 0
    denom = ref_power + regularization
    buffer = np.empty((min(CHUNK_ROWS, n_periods), n), dtype=np.complex128)
    rotated = np.empty_like(buffer) if guard else buffer
    for first in range(0, n_periods, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n_periods - first)
        lo = start + first * n
        periods = rx.read(lo, lo + rows * n).reshape(rows, n)
        h = buffer[:rows]
        np.fft.fft(periods, axis=-1, out=h)
        del periods
        # two steps, as (Y conj(X)) / denom: folding conj(X) / denom into one
        # factor changes the last bits
        h *= np.conj(x_spec)
        h /= denom
        if window is not None:
            h *= window
        np.fft.ifft(h, axis=-1, out=h)
        if guard:  # circular shift right by the guard
            rotated[:rows, guard:] = h[:, : n - guard]
            rotated[:rows, :guard] = h[:, n - guard :]
        yield rotated[:rows]


def average_pdp(cirs: ChannelImpulseResponse) -> PowerDelayProfile:
    """Average squared CIR magnitudes over the snapshots into a power delay
    profile. The noise floor is left unset; it is estimated downstream.

    Squared magnitudes are formed ``CHUNK_ROWS`` snapshots at a time and
    summed row after row, the same sum as ``np.mean(..., axis=0)``.
    """
    rows, n = cirs.taps.shape
    blocks = (cirs.taps[first : first + CHUNK_ROWS] for first in range(0, rows, CHUNK_ROWS))
    return _average_blocks(blocks, n, cirs.delay_step_s)


def _average_blocks(blocks, n: int, delay_step_s: float) -> PowerDelayProfile:
    power = np.zeros(n)
    rows = 0
    for block in blocks:
        add_row_powers(power, block)
        rows += len(block)
    return PowerDelayProfile(np.arange(n) * delay_step_s, power / rows)
