"""Power-delay-profile statistics and measured-vs-simulated comparison.

The large-scale quantities extracted here are the RMS delay spread (square
root of the second central moment of the PDP), the mean excess delay, the
Ricean K-factor and the number of resolvable multipath clusters. They are
the configuration inputs for the stochastic channel generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyProfileError, InternalConsistencyError, ValidationError

DEFAULT_MARGIN_DB = 6.0
DEFAULT_MIN_SEPARATION_BINS = 2

# CIR rows (snapshots, periods or realizations) handled per array block;
# output does not depend on it, peak memory and speed do
CHUNK_ROWS = 256

# |radicand| below this (in s^2) is treated as rounding noise and clamped to 0
_RADICAND_EPS_S2 = 1e-18

_STEP_JITTER_REL = 1e-12


@dataclass(frozen=True)
class PowerDelayProfile:
    """Average of squared CIR magnitudes on a uniform delay grid.

    ``noise_floor_linear`` is optional; it is attached by
    :func:`estimate_noise_floor` (or by whoever knows the floor) before
    thresholding and normalization.
    """

    delays_s: np.ndarray
    powers_linear: np.ndarray
    noise_floor_linear: float | None = None

    def __post_init__(self):
        delays = np.array(self.delays_s, dtype=np.float64)
        powers = np.array(self.powers_linear, dtype=np.float64)
        delays.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "delays_s", delays)
        object.__setattr__(self, "powers_linear", powers)
        if delays.ndim != 1 or delays.size == 0 or delays.shape != powers.shape:
            raise ValidationError("PDP needs non-empty, equal-length delay and power vectors")
        if np.any(powers < 0) or not np.all(np.isfinite(powers)):
            raise ValidationError("PDP powers must be finite and non-negative")
        if delays[0] < 0 or not np.all(np.isfinite(delays)):
            raise ValidationError("PDP delays must be finite and >= 0")
        if delays.size > 1:
            steps = np.diff(delays)
            step = (delays[-1] - delays[0]) / (delays.size - 1)
            if step <= 0:
                raise ValidationError("PDP delays must be strictly increasing")
            if np.max(np.abs(steps - step)) > _STEP_JITTER_REL * step:
                raise ValidationError("PDP delay grid is not uniform")
        if self.noise_floor_linear is not None and self.noise_floor_linear < 0:
            raise ValidationError("noise floor must be >= 0")

    def __len__(self) -> int:
        return self.delays_s.size

    @property
    def delay_step_s(self) -> float:
        if len(self) < 2:
            return 0.0
        return float((self.delays_s[-1] - self.delays_s[0]) / (len(self) - 1))

    def with_noise_floor(self, floor: float) -> "PowerDelayProfile":
        return replace(self, noise_floor_linear=float(floor))


@dataclass(frozen=True)
class ChannelParameters:
    """Large-scale channel quantities extracted from one PDP.

    ``k_factor_db`` is ``None`` when no K-factor is available (NLOS profile,
    or fewer than two bins survive thresholding); it is never a sentinel
    number.
    """

    rms_delay_spread_s: float
    mean_excess_delay_s: float
    second_moment_s2: float
    k_factor_db: float | None
    cluster_count: int
    scenario_label: str = ""

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


def _threshold_value(pdp: PowerDelayProfile, margin_db: float) -> float:
    if pdp.noise_floor_linear is None:
        raise ValidationError("PDP noise floor has not been computed yet")
    return pdp.noise_floor_linear * 10.0 ** (margin_db / 10.0)


def estimate_noise_floor(pdp: PowerDelayProfile) -> float:
    """Estimate the noise floor as the median of the weakest 25% of bins.

    Requires at least 16 bins so the quartile is meaningfully populated.
    """
    if len(pdp) < 16:
        raise ValidationError(f"noise floor estimation needs >= 16 bins, got {len(pdp)}")
    quartile = np.sort(pdp.powers_linear)[: len(pdp) // 4]
    return float(np.median(quartile))


def default_noise_floor(pdp: PowerDelayProfile) -> float:
    """The attached noise floor, else the estimate when the profile has at
    least 16 bins, else 0 (too few bins to estimate one)."""
    if pdp.noise_floor_linear is not None:
        return pdp.noise_floor_linear
    if len(pdp) >= 16:
        return estimate_noise_floor(pdp)
    return 0.0


def threshold_pdp(pdp: PowerDelayProfile, margin_db: float = DEFAULT_MARGIN_DB) -> PowerDelayProfile:
    """Zero every bin below noise_floor * 10^(margin_db/10); grid is preserved."""
    thresh = _threshold_value(pdp, margin_db)
    powers = np.where(pdp.powers_linear < thresh, 0.0, pdp.powers_linear)
    return PowerDelayProfile(pdp.delays_s, powers, pdp.noise_floor_linear)


def normalize_pdp(pdp: PowerDelayProfile, margin_db: float = DEFAULT_MARGIN_DB) -> PowerDelayProfile:
    """Align the first bin above threshold to delay 0 and scale peak power to 1.

    Bins before the reference are discarded. The noise floor, when present,
    is rescaled by the same power factor so later thresholding stays
    consistent.
    """
    thresh = _threshold_value(pdp, margin_db)
    above = np.nonzero(pdp.powers_linear > thresh)[0]
    if above.size == 0:
        raise EmptyProfileError("no PDP bin exceeds the noise threshold")
    first = int(above[0])
    delays = pdp.delays_s[first:] - pdp.delays_s[first]
    powers = pdp.powers_linear[first:]
    peak = float(np.max(powers))
    floor = pdp.noise_floor_linear / peak if pdp.noise_floor_linear is not None else None
    return PowerDelayProfile(delays, powers / peak, floor)


def _moments(delays_s: np.ndarray, powers: np.ndarray, total) -> tuple:
    """The power-weighted mean delay and mean squared delay along the last
    axis, sum P(tau)*tau / total and sum P(tau)*tau^2 / total."""
    return (
        np.sum(powers * delays_s, axis=-1) / total,
        np.sum(powers * delays_s**2, axis=-1) / total,
    )


def _pdp_moments(pdp: PowerDelayProfile) -> tuple[float, float]:
    total = float(np.sum(pdp.powers_linear))
    if total <= 0.0:
        raise ValidationError("PDP has zero total power")
    m1, m2 = _moments(pdp.delays_s, pdp.powers_linear, total)
    return float(m1), float(m2)


def mean_excess_delay(pdp: PowerDelayProfile) -> float:
    """Power-weighted mean delay, sum P(tau)*tau / sum P(tau)."""
    return _pdp_moments(pdp)[0]


def second_moment(pdp: PowerDelayProfile) -> float:
    """Power-weighted mean squared delay, sum P(tau)*tau^2 / sum P(tau)."""
    return _pdp_moments(pdp)[1]


def add_row_powers(power: np.ndarray, taps: np.ndarray) -> None:
    """Add |taps|^2 of each row of a ``(rows, delay_taps)`` block into
    ``power``, one row after another.

    That is the order in which ``np.mean(..., axis=0)`` sums a C-ordered
    block, so powers summed chunk by chunk and divided by the row count are
    bit-identical to the mean over all rows at once.
    """
    for row in np.abs(taps) ** 2:
        power += row


def discrete_delay_spread(delays_s: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """RMS delay spread of discrete (delay, power) sets along the last axis.

    Rows are sets of paths, for example a cluster set with its LOS term;
    powers need not sum to 1. A negative rounding residue clamps to 0.
    """
    m1, m2 = _moments(delays_s, powers, powers.sum(axis=-1))
    return np.sqrt(np.maximum(m2 - m1 * m1, 0.0))


def _spread(m1: float, m2: float) -> float:
    """sqrt(m2 - m1^2); a negative radicand beyond rounding is an error."""
    radicand = m2 - m1 * m1
    if radicand < 0.0:
        if radicand < -_RADICAND_EPS_S2:
            raise InternalConsistencyError(
                f"negative delay-spread radicand {radicand} s^2 exceeds rounding tolerance"
            )
        radicand = 0.0
    return float(np.sqrt(radicand))


def rms_delay_spread(pdp: PowerDelayProfile) -> float:
    """Square root of the second central moment of the PDP."""
    return _spread(*_pdp_moments(pdp))


def k_factor(pdp: PowerDelayProfile) -> float | None:
    """Ricean K-factor in dB of a thresholded profile.

    Ratio of the strongest surviving bin to the aggregate power of all other
    surviving bins (the average power of the scattered component in the
    Ricean sense). Returns None when fewer than two bins survive; callers
    handling NLOS profiles simply do not ask for a K-factor.
    """
    surviving = pdp.powers_linear[pdp.powers_linear > 0.0]
    if surviving.size == 0:
        raise EmptyProfileError("no surviving bin in thresholded PDP")
    if surviving.size < 2:
        return None
    peak = float(np.max(surviving))
    rest = float(np.sum(surviving)) - peak
    return float(10.0 * np.log10(peak / rest))


def count_clusters(
    pdp: PowerDelayProfile,
    margin_db: float = DEFAULT_MARGIN_DB,
    min_separation_bins: int = DEFAULT_MIN_SEPARATION_BINS,
) -> int:
    """Count resolvable multipath components as local PDP maxima.

    A bin is a candidate when it is strictly above the noise threshold and
    strictly greater than both neighbours (boundary bins compare against
    their single neighbour). Candidates closer than ``min_separation_bins``
    keep only the stronger one.
    """
    if min_separation_bins < 1:
        raise ValidationError("min_separation_bins must be >= 1")
    thresh = _threshold_value(pdp, margin_db)
    p = pdp.powers_linear
    n = p.size
    left = np.empty(n)
    right = np.empty(n)
    left[0] = -np.inf
    left[1:] = p[:-1]
    right[-1] = -np.inf
    right[:-1] = p[1:]
    candidates = np.nonzero((p > thresh) & (p > left) & (p > right))[0]
    if candidates.size == 0:
        return 0
    # strongest-first greedy pruning against already-kept peaks
    order = candidates[np.argsort(p[candidates], kind="stable")[::-1]]
    kept: list[int] = []
    for idx in order:
        if all(abs(idx - k) >= min_separation_bins for k in kept):
            kept.append(int(idx))
    return len(kept)


def extract_parameters(
    pdp: PowerDelayProfile,
    los_flag: bool,
    margin_db: float = DEFAULT_MARGIN_DB,
    min_separation_bins: int = DEFAULT_MIN_SEPARATION_BINS,
    label: str = "",
) -> ChannelParameters:
    """Run the full extraction chain on a raw PDP.

    Noise floor estimation, thresholding, normalization, the delay-moment
    formulas, the K-factor (LOS profiles only) and the cluster count, in
    that order. A noise floor already attached to the profile is reused.
    """
    if pdp.noise_floor_linear is None:
        pdp = pdp.with_noise_floor(estimate_noise_floor(pdp))
    cleaned = normalize_pdp(threshold_pdp(pdp, margin_db), margin_db)
    m1, m2 = _pdp_moments(cleaned)
    ds = _spread(m1, m2)
    kf = k_factor(cleaned) if los_flag else None
    clusters = count_clusters(cleaned, margin_db, min_separation_bins)
    return ChannelParameters(
        rms_delay_spread_s=ds,
        mean_excess_delay_s=m1,
        second_moment_s2=m2,
        k_factor_db=kf,
        cluster_count=clusters,
        scenario_label=label,
    )


def _require_normalized(name: str, pdp: PowerDelayProfile) -> None:
    if abs(float(np.max(pdp.powers_linear)) - 1.0) > 1e-9 or pdp.delays_s[0] != 0.0:
        raise ValidationError(f"{name} PDP must be normalized (peak 1 at delay 0)")


def compare_pdps(
    measured: PowerDelayProfile,
    simulated: PowerDelayProfile,
    margin_db: float = DEFAULT_MARGIN_DB,
    min_separation_bins: int = DEFAULT_MIN_SEPARATION_BINS,
) -> ComparisonReport:
    """Compare two normalized PDPs.

    Reports the absolute and relative RMS delay spread error, the cluster
    count difference (simulated minus measured) and the mean absolute
    dB-domain deviation over the union of above-threshold bins after
    nearest-bin resampling of the coarser grid onto the finer one.
    Resampling is nearest-bin rather than interpolation because PDPs are
    power histograms and interpolation would invent energy.
    """
    _require_normalized("measured", measured)
    _require_normalized("simulated", simulated)
    measured = measured.with_noise_floor(default_noise_floor(measured))
    simulated = simulated.with_noise_floor(default_noise_floor(simulated))

    ds_m = rms_delay_spread(threshold_pdp(measured, margin_db))
    ds_s = rms_delay_spread(threshold_pdp(simulated, margin_db))
    ds_error = abs(ds_s - ds_m)
    if ds_error == 0.0:
        ds_rel = 0.0
    elif ds_m > 0.0:
        ds_rel = ds_error / ds_m
    else:
        ds_rel = np.inf

    cluster_diff = count_clusters(simulated, margin_db, min_separation_bins) - count_clusters(
        measured, margin_db, min_separation_bins
    )

    _, aligned_m, aligned_s = align_to_finer_grid(measured, simulated)
    union = (aligned_m > _threshold_value(measured, margin_db)) | (
        aligned_s > _threshold_value(simulated, margin_db)
    )
    if not np.any(union):
        raise EmptyProfileError("no bin above threshold in either profile")
    tiny = 1e-30
    dev = np.abs(
        10.0 * np.log10(np.maximum(aligned_m[union], tiny))
        - 10.0 * np.log10(np.maximum(aligned_s[union], tiny))
    )
    return ComparisonReport(
        ds_error_s=float(ds_error),
        ds_relative_error=float(ds_rel),
        cluster_count_diff=int(cluster_diff),
        mean_abs_db_deviation=float(np.mean(dev)),
    )


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
