"""Geometry-inspired stochastic channel generator.

Draws log-normal large-scale parameters, synthesizes a cluster delay line
(exponential delay drawing with a proportionality factor, exponential power
decay, log-normal per-cluster shadowing, optional user-fixed clusters and a
LOS component), rescales delays so the realized RMS delay spread matches the
drawn target exactly, and renders band-limited CIRs on the sounder's sample
grid.

Datasets and simulated PDPs draw from counter-based Philox streams keyed
by (root seed, stream): snapshot i owns a fixed run of uniform words, so
the output is bit-identical however the work is split into blocks. The
single-row public functions read a row from ``default_rng(rng_seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import __about__
from .analysis import (
    CHUNK_ROWS,
    DEFAULT_MARGIN_DB,
    ChannelParameters,
    PowerDelayProfile,
    add_row_powers,
    default_noise_floor,
    discrete_delay_spread,
    normalize_pdp,
)
from .errors import ValidationError
from .sounder import ChannelImpulseResponse

DEFAULT_R_TAU = 2.3
DEFAULT_SHADOWING_DB = 3.0
KERNEL_HALF_WIDTH = 8
# cluster draws per snapshot before a CIR-span overflow becomes an error
MAX_CLUSTER_DRAWS = 8
# second Philox key word of each consumer's stream; draw attempts sit above bit 32
DATASET_STREAM = 0
SIMULATE_STREAM = 1
# uniform words of the Box-Muller pair that gives a row's DS and K-factor
LARGE_SCALE = slice(0, 2)

ENFORCEMENT_EXACT = "exact"
ENFORCEMENT_SINGLE_CLUSTER = "skipped-single-cluster"
ENFORCEMENT_RELAXED_FIXED = "relaxed-fixed-delays"


@dataclass(frozen=True)
class ScenarioConfig:
    """Generator configuration for one propagation scenario.

    ``ds_sigma_log10`` is the standard deviation of log10(DS/1s);
    ``kf_sigma_db`` the standard deviation of the K-factor in dB (normal in
    dB is log-normal in linear). ``fixed_clusters`` holds user-pinned
    (delay_s, relative_power_linear) pairs for known real-world scatterers.
    """

    label: str
    ds_median_s: float
    ds_sigma_log10: float
    kf_median_db: float | None
    kf_sigma_db: float
    num_clusters: int
    delay_proportionality_r_tau: float
    per_cluster_shadowing_db: float
    los: bool
    fixed_clusters: tuple[tuple[float, float], ...]
    sample_rate_hz: float
    cir_length_taps: int

    def __post_init__(self):
        fixed = tuple((float(d), float(p)) for d, p in self.fixed_clusters)
        object.__setattr__(self, "fixed_clusters", fixed)
        if not self.ds_median_s > 0:
            raise ValidationError("ds_median_s must be > 0")
        if not (self.ds_sigma_log10 >= 0 and self.kf_sigma_db >= 0):
            raise ValidationError("spread parameters must be >= 0")
        if self.num_clusters < 1:
            raise ValidationError("num_clusters must be >= 1")
        if not self.delay_proportionality_r_tau > 1.0:
            raise ValidationError("delay proportionality factor r_tau must be > 1")
        if not self.per_cluster_shadowing_db >= 0:
            raise ValidationError("per_cluster_shadowing_db must be >= 0")
        if self.sample_rate_hz <= 0 or not math.isfinite(self.sample_rate_hz):
            raise ValidationError("sample_rate_hz must be finite and positive")
        if self.cir_length_taps < 1:
            raise ValidationError("cir_length_taps must be >= 1")
        if self.los and self.kf_median_db is None:
            raise ValidationError("LOS scenario requires kf_median_db")
        if not self.los and self.kf_median_db is not None:
            raise ValidationError("NLOS scenario must not carry kf_median_db")
        floats = (self.ds_median_s, self.ds_sigma_log10, self.kf_median_db or 0.0, self.kf_sigma_db,
                  self.delay_proportionality_r_tau, self.per_cluster_shadowing_db)
        if not all(map(math.isfinite, floats)):
            raise ValidationError("scenario parameters must be finite")
        if self.num_clusters < len(self.fixed_clusters):
            raise ValidationError("num_clusters smaller than the number of fixed clusters")
        span = self.cir_length_taps / self.sample_rate_hz
        for delay, power in self.fixed_clusters:
            if not 0 <= delay < span:
                raise ValidationError(
                    f"fixed cluster delay {delay} s not representable in {span} s CIR span"
                )
            if not 0 < power < math.inf:
                raise ValidationError("fixed cluster power must be finite and > 0")


def _table_preset(label: str, ds_ns: float, kf_db: float | None, clusters: int) -> ScenarioConfig:
    return ScenarioConfig(
        label=label,
        ds_median_s=ds_ns * 1e-9,
        ds_sigma_log10=0.0,
        kf_median_db=kf_db,
        kf_sigma_db=0.0,
        num_clusters=clusters,
        delay_proportionality_r_tau=DEFAULT_R_TAU,
        per_cluster_shadowing_db=DEFAULT_SHADOWING_DB,
        los=kf_db is not None,
        fixed_clusters=(),
        sample_rate_hz=25.6e6,
        cir_length_taps=353,
    )


# measured-campaign presets; spreads are zero because each comes from
# single-point extraction (one measurement gives no distribution)
PRESETS: dict[str, ScenarioConfig] = {
    "urban-los": _table_preset("urban-los", 45.0, 13.0, 15),
    "urban-nlos": _table_preset("urban-nlos", 125.0, None, 19),
    "campus-los": _table_preset("campus-los", 50.0, 21.0, 17),
    "campus-nlos": _table_preset("campus-nlos", 175.0, None, 22),
}


@dataclass(frozen=True)
class Cluster:
    delay_s: float
    power_linear: float
    fixed: bool


@dataclass(frozen=True)
class ClusterSet:
    """Discrete scatterer set: (delay, power) clusters plus a LOS component.

    Total power (clusters plus LOS) is 1. ``ds_enforcement`` records whether
    the delay-spread rescaling ran exactly, was skipped for a single-cluster
    set, or was relaxed because fixed-cluster delays were preserved.
    """

    clusters: tuple[Cluster, ...]
    los_power_linear: float
    ds_enforcement: str = ENFORCEMENT_EXACT

    def __post_init__(self):
        if not self.clusters:
            raise ValidationError("cluster set must contain at least one cluster")
        if self.los_power_linear < 0:
            raise ValidationError("LOS power must be >= 0")
        for c in self.clusters:
            if c.delay_s < 0 or c.power_linear <= 0:
                raise ValidationError("clusters need delay >= 0 and power > 0")
        total = sum(c.power_linear for c in self.clusters) + self.los_power_linear
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"cluster set power sums to {total}, expected 1")

    @property
    def delays(self) -> np.ndarray:
        return np.array([c.delay_s for c in self.clusters])

    @property
    def powers(self) -> np.ndarray:
        return np.array([c.power_linear for c in self.clusters])

    def rms_delay_spread(self) -> float:
        """Exact RMS delay spread of the discrete set including the LOS term."""
        delays = np.append(self.delays, 0.0)
        powers = np.append(self.powers, self.los_power_linear)
        return float(discrete_delay_spread(delays, powers))


def check_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64): a root seed is the first Philox key word."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def seeded_rng(rng_seed) -> np.random.Generator:
    """``np.random.default_rng(rng_seed)`` for the single-row functions: an
    integer seed must pass ``check_seed``; a ``np.random.SeedSequence`` is
    taken as it is."""
    if isinstance(rng_seed, (int, np.integer)):
        rng_seed = check_seed(rng_seed)
    return np.random.default_rng(rng_seed)


def _layout(config: ScenarioConfig) -> tuple[int, slice, slice]:
    """(width, cluster words, phase words) of a snapshot's row of uniform
    words: the ``LARGE_SCALE`` pair, a delay word per stochastic cluster,
    its shadowing in Box-Muller pairs, one phase word per cluster, and
    padding to a multiple of 4 words, one Philox block."""
    n_stoch = config.num_clusters - len(config.fixed_clusters)
    phases = LARGE_SCALE.stop + n_stoch + 2 * ((n_stoch + 1) // 2)
    end = phases + config.num_clusters
    return -(-end // 4) * 4, slice(LARGE_SCALE.stop, phases), slice(phases, end)


def _stream_words(
    root: int, stream: int, start: int, rows: int, width: int, attempt: int = 0
) -> np.ndarray:
    """Rows ``start`` to ``start + rows - 1``, ``width`` uniform words each,
    of the Philox stream keyed (root, stream, attempt). Row i begins at
    counter ``i * width / 4``, so a row's words do not depend on which rows
    are drawn with it."""
    key = np.array([root, attempt << 32 | stream], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=start * width // 4)
    return np.random.Generator(bitgen).random((rows, width))


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from uniform words in [0, 1), two per pair (u1, u2)
    along the last axis: sqrt(-2 ln(1 - u1)) times cos and sin of 2 pi u2."""
    pairs = words.reshape(*words.shape[:-1], -1, 2)
    radius = np.sqrt(-2.0 * np.log1p(-pairs[..., 0]))
    angle = 2.0 * np.pi * pairs[..., 1]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return normals.reshape(words.shape)


def config_from_parameters(params: ChannelParameters, defaults: ScenarioConfig) -> ScenarioConfig:
    """Fill a scenario config from extracted channel parameters.

    Copies ``defaults`` and overrides the delay spread median, K-factor
    median (LOS flag follows K-factor presence) and cluster count.
    """
    if params.cluster_count == 0:
        raise ValidationError("cluster_count is 0; nothing to simulate")
    return replace(
        defaults,
        ds_median_s=params.rms_delay_spread_s,
        kf_median_db=params.k_factor_db,
        num_clusters=params.cluster_count,
        los=params.k_factor_db is not None,
    )


def _large_scale(words: np.ndarray, config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """(DS, K-factor in dB) of S rows from their (S, 2) ``LARGE_SCALE`` words:
    DS log-normal around its median, the K-factor normal in dB around its
    median (log-normal in linear) and absent (None) for NLOS configs."""
    z = _box_muller(words)
    ds = 10.0 ** (math.log10(config.ds_median_s) + config.ds_sigma_log10 * z[:, 0])
    if not config.los:
        return ds, None
    return ds, config.kf_median_db + config.kf_sigma_db * z[:, 1]


def draw_large_scale(config: ScenarioConfig, rng_seed) -> tuple[float, float | None]:
    """Draw one (delay spread, K-factor) realization from the first row of
    ``np.random.default_rng(rng_seed)``; see ``_large_scale``."""
    words = seeded_rng(rng_seed).random((1, _layout(config)[0]))
    ds, kf = _large_scale(words[:, LARGE_SCALE], config)
    return float(ds[0]), None if kf is None else float(kf[0])


def _preserve_fixed_scale(
    delays: np.ndarray, powers: np.ndarray, scale_mask: np.ndarray, ds_target: float
) -> float:
    """Scale factor for the scalable delays so the set's sigma hits the target.

    sigma^2 is a quadratic in the scale factor, so this solves it in closed
    form; when the target is below the minimum achievable sigma the vertex
    (closest achievable) is returned.
    """
    w = powers / powers.sum()
    m1s = float(np.sum(w[scale_mask] * delays[scale_mask]))
    m2s = float(np.sum(w[scale_mask] * delays[scale_mask] ** 2))
    m1f = float(np.sum(w[~scale_mask] * delays[~scale_mask]))
    m2f = float(np.sum(w[~scale_mask] * delays[~scale_mask] ** 2))
    a = m2s - m1s * m1s
    b = -2.0 * m1s * m1f
    c = m2f - m1f * m1f - ds_target * ds_target
    if a <= 0.0:
        return 1.0
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return -b / (2.0 * a)
    return max((-b + math.sqrt(disc)) / (2.0 * a), 0.0)


class _ClusterBlock(NamedTuple):
    """Cluster sets of S snapshots as arrays; row r is one ``ClusterSet``."""

    delays: np.ndarray  # (S, K) seconds
    powers: np.ndarray  # (S, K)
    fixed: np.ndarray  # (S, K) bool
    los: np.ndarray  # (S,)
    enforcement: str


def _draw_clusters(
    ds: np.ndarray, los: np.ndarray, words: np.ndarray, config: ScenarioConfig, preserve: bool
) -> _ClusterBlock:
    """``generate_clusters`` for S rows from their (S, C) cluster words: a
    delay uniform per stochastic cluster, then its shadowing by Box-Muller."""
    rows = ds.size
    n_stoch = config.num_clusters - len(config.fixed_clusters)
    u = words[:, :n_stoch]  # 1-u is uniform on (0, 1]
    shadowing = config.per_cluster_shadowing_db * _box_muller(words[:, n_stoch:])[:, :n_stoch]
    r_tau = config.delay_proportionality_r_tau
    raw = (-r_tau * ds)[:, None] * np.log1p(-u)
    raw.sort(axis=-1)
    stoch_delays = raw - raw[:, :1]
    decay = np.exp(-stoch_delays * (r_tau - 1.0) / (r_tau * ds)[:, None])
    stoch_weights = decay * 10.0 ** (-shadowing / 10.0)

    fixed_delays = [d for d, _ in config.fixed_clusters]
    fixed_weights = [p for _, p in config.fixed_clusters]
    delays = np.concatenate([stoch_delays, np.tile(fixed_delays, (rows, 1))], axis=1)
    weights = np.concatenate([stoch_weights, np.tile(fixed_weights, (rows, 1))], axis=1)
    fixed = np.zeros(delays.shape, dtype=bool)
    fixed[:, n_stoch:] = True
    order = np.argsort(delays, axis=-1, kind="stable")
    delays = np.take_along_axis(delays, order, axis=-1)
    weights = np.take_along_axis(weights, order, axis=-1)
    fixed = np.take_along_axis(fixed, order, axis=-1)
    powers = weights / weights.sum(axis=-1, keepdims=True) * (1.0 - los)[:, None]

    if config.num_clusters == 1:
        return _ClusterBlock(delays, powers, fixed, los, ENFORCEMENT_SINGLE_CLUSTER)
    all_delays = np.concatenate([delays, np.zeros((rows, 1))], axis=1)
    all_powers = np.concatenate([powers, los[:, None]], axis=1)
    sigma = discrete_delay_spread(all_delays, all_powers)
    if np.any(sigma == 0.0):
        raise ValidationError("degenerate cluster set (all delays equal); cannot scale")
    if preserve and config.fixed_clusters:
        for row in range(rows):
            scale_mask = np.append(~fixed[row], False)
            alpha = _preserve_fixed_scale(all_delays[row], all_powers[row], scale_mask, ds[row])
            delays[row] = np.where(fixed[row], delays[row], delays[row] * alpha)
        return _ClusterBlock(delays, powers, fixed, los, ENFORCEMENT_RELAXED_FIXED)
    delays = delays * (ds / sigma)[:, None]
    return _ClusterBlock(delays, powers, fixed, los, ENFORCEMENT_EXACT)


def _cluster_block(
    ds: np.ndarray, kf, draw, config: ScenarioConfig, preserve: bool = False, first_index: int = 0
) -> _ClusterBlock:
    """Cluster sets of S snapshots with (S,) DS and K-factors in dB (None for
    NLOS) from ``draw(attempt)``, the (S, C) cluster words of draw number
    ``attempt``. A row whose largest delay does not fit the CIR span is drawn
    again from the next draw, keeping its DS and K-factor, up to
    ``MAX_CLUSTER_DRAWS`` draws in all; other rows are untouched.
    ``first_index`` numbers the rows in the error raised when draws run out.
    """
    if np.any(ds <= 0):
        raise ValidationError("ds_s must be > 0")
    los = np.zeros(ds.size)
    if kf is not None:
        k_linear = 10.0 ** (kf / 10.0)
        los = k_linear / (k_linear + 1.0)
    span = config.cir_length_taps / config.sample_rate_hz

    block = _draw_clusters(ds, los, draw(0), config, preserve)
    over = np.nonzero(block.delays.max(axis=-1) >= span)[0]
    for attempt in range(1, MAX_CLUSTER_DRAWS):
        if over.size == 0:
            break
        redo = _draw_clusters(ds[over], los[over], draw(attempt)[over], config, preserve)
        block.delays[over] = redo.delays
        block.powers[over] = redo.powers
        block.fixed[over] = redo.fixed
        over = over[redo.delays.max(axis=-1) >= span]
    if over.size:
        raise ValidationError(
            f"config {config.label!r}, snapshot {first_index + int(over[0])}: cluster delays "
            f"overflow the {span} s CIR span in {MAX_CLUSTER_DRAWS} draws"
        )
    return block


def _stream_block(
    config: ScenarioConfig, root: int, stream: int, start: int, rows: int
) -> tuple[np.ndarray, _ClusterBlock]:
    """Phase words and cluster sets of rows ``start`` to ``start + rows - 1``
    of the (root, stream) stream. Draw ``attempt`` of a row that overflows
    the CIR span reads the same row of the (root, stream, attempt) stream."""
    width, clusters, phases = _layout(config)
    words = _stream_words(root, stream, start, rows, width)
    ds, kf = _large_scale(words[:, LARGE_SCALE], config)

    def draw(attempt: int) -> np.ndarray:
        again = _stream_words(root, stream, start, rows, width, attempt) if attempt else words
        return again[:, clusters]

    return words[:, phases], _cluster_block(ds, kf, draw, config, first_index=start)


def generate_clusters(
    ds_s: float, kf_db: float | None, config: ScenarioConfig, rng_seed, preserve_fixed_delays=False
) -> ClusterSet:
    """Synthesize one cluster delay line with the requested delay spread.

    Stochastic delays are drawn exponentially with proportionality factor
    r_tau, sorted and shifted to start at 0; powers decay exponentially in
    delay with log-normal per-cluster shadowing. Fixed clusters enter
    verbatim. For LOS scenarios the scattered power is scaled to 1/(K+1)
    and a LOS component of power K/(K+1) sits at delay 0. Finally all
    delays (stochastic only, when ``preserve_fixed_delays``) are rescaled by
    one factor so the exact RMS delay spread of the discrete set equals
    ``ds_s``.

    The delays and shadowing come from the cluster words of the first row
    of ``np.random.default_rng(rng_seed)``, laid out as a dataset row. The
    draw is conditioned on fitting the CIR span: when the largest rescaled
    delay is at or past ``cir_length_taps / sample_rate_hz``, they are drawn
    again (same DS and K-factor) from the generator's next row, and
    ``ValidationError`` is raised after ``MAX_CLUSTER_DRAWS`` draws.
    """
    width, cluster_words, _ = _layout(config)
    rng = seeded_rng(rng_seed)

    def next_row(attempt: int) -> np.ndarray:
        return rng.random((1, width))[:, cluster_words]

    kf = None if kf_db is None else np.array([float(kf_db)])
    block = _cluster_block(np.array([float(ds_s)]), kf, next_row, config, preserve_fixed_delays)
    clusters = tuple(
        Cluster(float(d), float(p), bool(f))
        for d, p, f in zip(block.delays[0], block.powers[0], block.fixed[0])
    )
    return ClusterSet(clusters, float(block.los[0]), block.enforcement)


def _render_block(
    delays: np.ndarray, powers: np.ndarray, phase_words: np.ndarray, los_power, config
) -> np.ndarray:
    """Render S CIRs from (S, K) cluster delays and powers, or (1, K) ones
    that all S rows share. Each cluster has amplitude sqrt(power) and phase
    2 pi u from its (S, K) phase word u.

    Each path is a unit-energy windowed-sinc kernel of half-width 8 taps
    around its fractional position: 17 slots from ceil(pos - 8), the last
    used only while it is not past floor(pos + 8), that is for an integer
    position. Taps outside the CIR are dropped. The LOS term, with the real
    amplitude sqrt(``los_power``) ((S,) or (1,)) at delay 0, is added after
    the clusters when any row has one. Each tap sums its contributions in
    path order, so a row equals adding the paths one by one into a zero CIR.
    """
    n_taps = config.cir_length_taps
    amplitudes = np.sqrt(powers) * np.exp(1j * (2.0 * np.pi * phase_words))
    los_amplitude = np.sqrt(los_power)
    rows = amplitudes.shape[0]
    if np.any(los_amplitude > 0.0):
        delays = np.concatenate([delays, np.zeros((delays.shape[0], 1))], axis=1)
        los_column = np.broadcast_to(los_amplitude, (rows,))[:, None]
        amplitudes = np.concatenate([amplitudes, los_column], axis=1)
    pos = delays * config.sample_rate_hz
    idx = np.ceil(pos - KERNEL_HALF_WIDTH)[..., None] + np.arange(2 * KERNEL_HALF_WIDTH + 1)
    offsets = idx - pos[..., None]
    window = 0.5 * (1.0 + np.cos(np.pi * offsets / KERNEL_HALF_WIDTH))
    kern = np.sinc(offsets) * window
    used = idx <= np.floor(pos + KERNEL_HALF_WIDTH)[..., None]
    kern[~used] = 0.0
    kern /= np.sqrt(np.sum(kern**2, axis=-1, keepdims=True))

    # one spare column per row collects the unused slots and off-CIR taps
    col = np.where(used & (idx >= 0) & (idx < n_taps), idx, n_taps).astype(np.intp)
    flat = (col + (np.arange(rows) * (n_taps + 1))[:, None, None]).ravel()
    size = rows * (n_taps + 1)
    taps = np.empty((rows, n_taps), dtype=np.complex128)
    for part, values in (("real", amplitudes.real), ("imag", amplitudes.imag)):
        summed = np.bincount(flat, (values[..., None] * kern).ravel(), size)
        setattr(taps, part, summed.reshape(rows, n_taps + 1)[:, :n_taps])
    return taps


def synthesize_cir(
    clusters: ClusterSet, config: ScenarioConfig, rng_seed
) -> ChannelImpulseResponse:
    """Render one CIR realization of a cluster set on the sample grid, as a
    one-row block.

    Each cluster contributes sqrt(power) with an independent uniform phase
    (the LOS phase is fixed at 0), placed at its fractional delay with a
    windowed-sinc kernel of half-width 8 taps. Kernel truncation and
    boundary clipping keep the total tap energy within about +-0.5 dB of 1
    when clusters sit a few bins apart; clusters sharing bins additionally
    interfere realization-by-realization (their phase-averaged power still
    adds exactly, which is what the PDP sees).
    """
    fs = config.sample_rate_hz
    span = config.cir_length_taps / fs
    max_delay = float(np.max(clusters.delays))
    if max_delay >= span:
        raise ValidationError(f"cluster delay {max_delay} s overflows the {span} s CIR span")
    words = seeded_rng(rng_seed).random((1, len(clusters.clusters)))
    los = np.array([clusters.los_power_linear])
    taps = _render_block(clusters.delays[None], clusters.powers, words, los, config)
    return ChannelImpulseResponse(taps, 1.0 / fs)


def simulate_pdp(config: ScenarioConfig, rng_seed: int, n_realizations: int) -> PowerDelayProfile:
    """Simulate a normalized PDP: one cluster-set draw, many phase realizations.

    Cluster positions stay fixed across realizations; only the per-cluster
    phases are redrawn, mirroring consecutive snapshots of a static channel.
    Row 0 of the (rng_seed, ``SIMULATE_STREAM``) stream gives the DS,
    K-factor and clusters, and row i the phases of realization i.
    """
    root = check_seed(rng_seed)
    if n_realizations < 1:
        raise ValidationError("n_realizations must be >= 1")
    _, block = _stream_block(config, root, SIMULATE_STREAM, 0, 1)
    width, _, phases = _layout(config)
    power = np.zeros(config.cir_length_taps)
    for start in range(0, n_realizations, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n_realizations - start)
        words = _stream_words(root, SIMULATE_STREAM, start, rows, width)[:, phases]
        taps = _render_block(block.delays, block.powers, words, block.los, config)
        add_row_powers(power, taps)
    delays = np.arange(config.cir_length_taps) * (1.0 / config.sample_rate_hz)
    pdp = PowerDelayProfile(delays, power / n_realizations)
    return normalize_pdp(pdp.with_noise_floor(default_noise_floor(pdp)), DEFAULT_MARGIN_DB)


def generate_dataset(config: ScenarioConfig, count: int, rng_seed: int, path=None):
    """Generate ``count`` independent channel snapshots, optionally writing them.

    Every snapshot draws fresh large-scale parameters, clusters and phases
    from its own fixed run of words of one counter-based stream keyed by the
    root seed, so the first n snapshots are the same for any ``count`` >= n.
    Snapshots are drawn and rendered ``CHUNK_ROWS`` at a time. Returns the
    in-memory dataset; writes the container file when ``path`` is given.
    """
    from . import io as cirkit_io  # deferred: io needs this module's types

    root = check_seed(rng_seed)
    if count < 1:
        raise ValidationError("count must be >= 1")
    if count > cirkit_io.MAX_DATASET_SNAPSHOTS:
        raise ValidationError(
            f"count {count} exceeds the {cirkit_io.MAX_DATASET_SNAPSHOTS} snapshots "
            "a dataset file can hold"
        )
    snapshots = np.empty((count, config.cir_length_taps), dtype=np.complex128)
    for start in range(0, count, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, count)
        phases, block = _stream_block(config, root, DATASET_STREAM, start, stop - start)
        snapshots[start:stop] = _render_block(block.delays, block.powers, phases, block.los, config)
    comments = (f"seed={root}", f"generator_version={__about__.__version__}")
    blob = cirkit_io.config_to_text(config, comments=comments)
    snapshots.setflags(write=False)
    dataset = cirkit_io.Dataset(snapshots, config.sample_rate_hz, blob)
    if path is not None:
        cirkit_io.write_dataset(path, dataset)
    return dataset
