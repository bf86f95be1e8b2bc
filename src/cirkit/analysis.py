"""Power-delay-profile statistics and measured-vs-simulated comparison.

The large-scale quantities extracted here are the RMS delay spread (square
root of the second central moment of the PDP), the mean excess delay, the
Ricean K-factor and the number of resolvable multipath clusters. They are
the configuration inputs for the stochastic channel generator.

Each step that judges or normalizes a profile is one public function of a
:class:`PowerDelayProfile`, and a measured and a simulated profile take the
same calls: :func:`estimate_noise_floor`, :func:`noise_threshold` a fixed
6 dB above that floor, and :func:`normalize_pdp`. Every quantity is read
above that one threshold. One private step on arrays, ``_statistics`` of
the thresholded powers (``_kept``), serves :func:`extract_parameters`,
which aligns them first (``_aligned``, as :func:`normalize_pdp` does), and
:func:`compare_pdps`; ``_moments`` is the one delay-spread formula. Every
delay lies in ``_DELAY_RANGE_S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyProfileError, InternalConsistencyError, ValidationError
from .signal import _freeze, _frozen

# how far above the noise floor a bin must lie to count as signal: 6 dB
_MARGIN = 10.0 ** (6.0 / 10.0)

# the lowest level, in dB against a normalized profile's peak of 1, that a
# comparison or a plot tells apart: a weaker bin, or one of exactly 0, reads
# as this level
_FLOOR_DB = -60.0

# the slack, in s^2, that ChannelParameters allows sigma^2 = m2 - m1^2
_RADICAND_EPS_S2 = 1e-18

# the range of a profile's delay step and delays and of a drawn delay spread,
# in s: squared delays lose their precision below about 1e-150 s and overflow
# above about 1e150 s; the bounds leave room for powers and delay ratios
_DELAY_RANGE_S = (1e-100, 1e100)

# how far a PDP delay step may stray from the mean step, relative to the
# largest delay: float64 rounding of a grid such as ``np.arange(n) / fs``
# grows with the delays, not with the step
_STEP_JITTER_REL = 1e-12


@dataclass(frozen=True)
class PowerDelayProfile:
    """Average of squared CIR magnitudes on a uniform delay grid; it adopts
    frozen float64 arrays and copies anything else (``signal._frozen``)."""

    delays_s: np.ndarray
    powers_linear: np.ndarray

    def __post_init__(self):
        delays = _frozen(self.delays_s, np.float64)
        powers = _frozen(self.powers_linear, np.float64)
        object.__setattr__(self, "delays_s", delays)
        object.__setattr__(self, "powers_linear", powers)
        if delays.ndim != 1 or delays.size == 0 or delays.shape != powers.shape:
            raise ValidationError("PDP needs non-empty, equal-length delay and power vectors")
        if np.any(powers < 0) or not np.all(np.isfinite(powers)):
            raise ValidationError("PDP powers must be finite and non-negative")
        low, high = _DELAY_RANGE_S
        if not (delays[0] >= 0 and np.all(delays <= high)):  # a NaN fails too
            raise ValidationError(f"PDP delays must lie in [0, {high}] s")
        if delays.size > 1:
            step = self.delay_step_s
            if step < low:
                raise ValidationError(f"PDP delay step {step:.6g} s is below {low} s")
            if np.max(np.abs(np.diff(delays) - step)) > _STEP_JITTER_REL * delays[-1]:
                raise ValidationError("PDP delay grid is not uniform")

    def __len__(self) -> int:
        return self.delays_s.size

    @property
    def delay_step_s(self) -> float:
        if len(self) < 2:
            return 0.0
        return float((self.delays_s[-1] - self.delays_s[0]) / (len(self) - 1))


@dataclass(frozen=True)
class ChannelParameters:
    """Large-scale channel quantities extracted from one PDP.

    ``k_factor_db`` is ``None`` for an NLOS profile, which has no K-factor,
    and ``+inf`` for a LOS profile of which one bin survives thresholding,
    which has no scattered power; it is never a sentinel number.
    """

    rms_delay_spread_s: float
    mean_excess_delay_s: float
    second_moment_s2: float
    k_factor_db: float | None
    cluster_count: int

    def __post_init__(self):
        if self.rms_delay_spread_s < 0 or self.second_moment_s2 < 0:
            raise ValidationError("delay moments must be non-negative")
        if self.cluster_count < 0:
            raise ValidationError("cluster_count must be >= 0")
        # self-consistency of sigma^2 = m2 - m1^2
        resid = abs(
            self.second_moment_s2
            - self.mean_excess_delay_s**2
            - self.rms_delay_spread_s**2
        )
        scale = max(self.second_moment_s2, self.mean_excess_delay_s**2)
        if resid > 1e-12 * scale + _RADICAND_EPS_S2:
            raise InternalConsistencyError(
                "rms_delay_spread inconsistent with the delay moments"
            )


@dataclass(frozen=True)
class ComparisonReport:
    """Headline differences between a measured and a simulated PDP."""

    ds_error_s: float
    ds_relative_error: float
    cluster_count_diff: int
    mean_abs_db_deviation: float

    def __post_init__(self):
        floats = (self.ds_error_s, self.ds_relative_error, self.mean_abs_db_deviation)
        if not all(map(math.isfinite, floats)):
            raise ValidationError("comparison report fields must be finite")


def estimate_noise_floor(pdp: PowerDelayProfile) -> float:
    """Estimate the noise floor as the median of the weakest 25% of bins.

    A profile of fewer than 16 bins is too short to populate the quartile;
    its floor is 0.
    """
    powers = pdp.powers_linear
    if powers.size < 16:
        return 0.0
    quartile = np.sort(powers)[: powers.size // 4]
    return float(np.median(quartile))


def noise_threshold(pdp: PowerDelayProfile) -> float:
    """The power a bin of ``pdp`` must exceed to count as signal: the noise
    floor of :func:`estimate_noise_floor`, 6 dB up."""
    return estimate_noise_floor(pdp) * _MARGIN


def _kept(powers: np.ndarray, threshold: float) -> np.ndarray:
    """``powers`` with every bin below ``threshold`` zeroed."""
    return np.where(powers < threshold, 0.0, powers)


def _aligned(delays_s: np.ndarray, powers: np.ndarray, threshold: float) -> tuple:
    """The frozen delays and powers from the first bin above ``threshold``
    on, that bin moved to delay 0 and the peak power scaled to 1."""
    above = np.nonzero(powers > threshold)[0]
    if above.size == 0:
        raise EmptyProfileError("no PDP bin exceeds the noise threshold")
    first = int(above[0])
    powers = powers[first:]
    return _freeze(delays_s[first:] - delays_s[first], powers / float(np.max(powers)))


def normalize_pdp(pdp: PowerDelayProfile) -> PowerDelayProfile:
    """Align the first bin above :func:`noise_threshold` to delay 0 and
    scale peak power to 1. Bins before that bin are discarded."""
    return PowerDelayProfile(*_aligned(pdp.delays_s, pdp.powers_linear, noise_threshold(pdp)))


def _moments(delays_s: np.ndarray, powers: np.ndarray, total) -> tuple:
    """sum P(tau)*tau / total, sum P(tau)*tau^2 / total and the RMS delay
    spread sqrt(max(m2 - m1^2, 0)) of them, along the last axis."""
    m1 = np.sum(powers * delays_s, axis=-1) / total
    m2 = np.sum(powers * delays_s**2, axis=-1) / total
    return m1, m2, np.sqrt(np.maximum(m2 - m1 * m1, 0.0))


def _statistics(delays_s: np.ndarray, kept: np.ndarray, threshold: float) -> tuple:
    """m1, m2, RMS delay spread and cluster count of the thresholded powers
    ``kept``. Clusters are the bins strictly above ``threshold`` and both
    neighbours (the one neighbour at an end); zeroing the bins below
    ``threshold`` neither makes nor hides one."""
    total = float(np.sum(kept))
    if total <= 0.0:
        raise ValidationError("PDP has zero total power")
    m1, m2, spread = _moments(delays_s, kept, total)
    peaks = kept > threshold
    peaks[1:] &= kept[1:] > kept[:-1]
    peaks[:-1] &= kept[:-1] > kept[1:]
    return float(m1), float(m2), float(spread), int(np.count_nonzero(peaks))


def _k_factor(kept: np.ndarray) -> float:
    """Ricean K-factor in dB of the thresholded powers ``kept``.

    Ratio of the strongest surviving bin to the aggregate power of all other
    surviving bins (the average power of the scattered component in the
    Ricean sense). When no scattered power is left, because one bin
    survives or the others sum to nothing beside the peak in float64, the
    K-factor is unbounded: ``+inf``."""
    surviving = kept[kept > 0.0]
    if surviving.size == 0:
        raise EmptyProfileError("no surviving bin in thresholded PDP")
    peak = float(np.max(surviving))
    rest = float(np.sum(surviving)) - peak
    if rest <= 0.0:
        return math.inf
    return float(10.0 * np.log10(peak / rest))


def discrete_delay_spread(delays_s: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """RMS delay spread of discrete (delay, power) sets along the last axis.

    Rows are sets of paths, for example a cluster set with its LOS term;
    powers need not sum to 1. A negative rounding residue clamps to 0.
    """
    return _moments(delays_s, powers, powers.sum(axis=-1))[2]


def extract_parameters(pdp: PowerDelayProfile, los_flag: bool) -> ChannelParameters:
    """Run the full extraction chain on a raw or a normalized PDP.

    The threshold of :func:`noise_threshold`, thresholding, normalization,
    then the statistics and the K-factor (LOS profiles only) of the
    normalized profile, clusters counted against the threshold scaled by
    the same peak.
    """
    threshold = noise_threshold(pdp)
    delays, kept = _aligned(pdp.delays_s, _kept(pdp.powers_linear, threshold), threshold)
    peak = float(np.max(pdp.powers_linear))
    m1, m2, ds, clusters = _statistics(delays, kept, threshold / peak)
    return ChannelParameters(
        rms_delay_spread_s=ds,
        mean_excess_delay_s=m1,
        second_moment_s2=m2,
        k_factor_db=_k_factor(kept) if los_flag else None,
        cluster_count=clusters,
    )


def _require_normalized(name: str, pdp: PowerDelayProfile) -> None:
    if abs(float(np.max(pdp.powers_linear)) - 1.0) > 1e-9 or pdp.delays_s[0] != 0.0:
        raise ValidationError(f"{name} PDP must be normalized (peak 1 at delay 0)")


def compare_pdps(measured: PowerDelayProfile, simulated: PowerDelayProfile) -> ComparisonReport:
    """Compare two normalized PDPs.

    Reports the absolute and relative RMS delay spread error, the cluster
    count difference (simulated minus measured) and the mean absolute
    dB-domain deviation over the union of above-threshold bins after
    nearest-bin resampling of the coarser grid onto the finer one; each
    side's level counts as at least ``_FLOOR_DB`` (-60 dB), so a bin that
    is 0 on one side adds its distance to that floor, not an unbounded term.
    Resampling is nearest-bin rather than interpolation because PDPs are
    power histograms and interpolation would invent energy. When the
    measured delay spread is 0 and the simulated one is not, the relative
    error is undefined and a ``ValidationError`` is raised.
    """
    _require_normalized("measured", measured)
    _require_normalized("simulated", simulated)
    thresh_m = noise_threshold(measured)
    thresh_s = noise_threshold(simulated)
    _, _, ds_m, count_m = _statistics(
        measured.delays_s, _kept(measured.powers_linear, thresh_m), thresh_m
    )
    _, _, ds_s, count_s = _statistics(
        simulated.delays_s, _kept(simulated.powers_linear, thresh_s), thresh_s
    )
    ds_error = abs(ds_s - ds_m)
    if ds_error == 0.0:
        ds_rel = 0.0
    elif ds_m > 0.0:
        ds_rel = ds_error / ds_m
    else:
        raise ValidationError("measured delay spread is 0; relative error undefined")

    _, aligned_m, aligned_s = align_to_finer_grid(measured, simulated)
    union = (aligned_m > thresh_m) | (aligned_s > thresh_s)
    if not np.any(union):
        raise EmptyProfileError("no bin above threshold in either profile")
    dev = np.abs(_clamped_db(aligned_m[union]) - _clamped_db(aligned_s[union]))
    return ComparisonReport(
        ds_error_s=float(ds_error),
        ds_relative_error=float(ds_rel),
        cluster_count_diff=count_s - count_m,
        mean_abs_db_deviation=float(np.mean(dev)),
    )


def _clamped_db(powers: np.ndarray) -> np.ndarray:
    """``powers`` in dB, each at least :data:`_FLOOR_DB` (a zero power too)."""
    with np.errstate(divide="ignore"):
        return np.maximum(10.0 * np.log10(powers), _FLOOR_DB)


def align_to_finer_grid(
    measured: PowerDelayProfile, simulated: PowerDelayProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resample the coarser profile onto the finer one's delay grid by nearest bin.

    Returns the finer grid's delays, then the measured and the simulated
    powers on it. The measured grid counts as the finer one unless the
    simulated step is strictly smaller. Delays outside the coarser profile's
    span clamp to its edge bins.
    """
    fine, coarse = measured, simulated
    if simulated.delay_step_s and (
        not measured.delay_step_s or simulated.delay_step_s < measured.delay_step_s
    ):
        fine, coarse = simulated, measured
    if len(coarse) == 1:
        resampled = np.full(len(fine), coarse.powers_linear[0])
    else:
        idx = np.rint((fine.delays_s - coarse.delays_s[0]) / coarse.delay_step_s).astype(int)
        resampled = coarse.powers_linear[np.clip(idx, 0, len(coarse) - 1)]
    if fine is measured:
        return fine.delays_s, fine.powers_linear, resampled
    return fine.delays_s, resampled, fine.powers_linear
