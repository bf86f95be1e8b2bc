"""Geometry-inspired stochastic channel generator.

Draws log-normal large-scale parameters, synthesizes a cluster delay line
(exponential delay drawing with a proportionality factor, exponential power
decay, log-normal per-cluster shadowing and a LOS component) as rows of
path delays and powers, the LOS path last at delay 0, and rescales delays
so the realized RMS delay spread matches the drawn target exactly. One
placement step puts the paths' band-limited kernels on the sounder's
sample grid, computing only the taps that a block of rows reaches: a
dataset places each CIR's complex amplitudes, and a simulated PDP, the
closed-form mean power of one cluster set over uniform phases, places its
paths' powers times their squared kernels.

Datasets and simulated PDPs draw from counter-based Philox streams keyed
by (root seed, stream): snapshot i owns a fixed run of uniform words, so
the output is bit-identical however the work is split into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import __about__
from .analysis import (
    ChannelParameters,
    PowerDelayProfile,
    _normalized,
    discrete_delay_spread,
)
from .channel_apply import check_seed
from .errors import ValidationError
from .signal import _check_rate
from .sounder import CHUNK_ROWS, DEFAULT_SAMPLE_RATE_HZ, DEFAULT_SEQUENCE_LENGTH, _map_chunks

DEFAULT_R_TAU = 2.3
DEFAULT_SHADOWING_DB = 3.0
KERNEL_HALF_WIDTH = 8
# kernel slot m of a path at tap position pos sits at tap ceil(pos) + m;
# per slot: m, (-1)^m, cos(pi m / 8) and sin(pi m / 8)
_SLOTS = np.arange(-KERNEL_HALF_WIDTH, KERNEL_HALF_WIDTH)
_SLOT_SIGN = np.where(_SLOTS % 2 == 0, 1.0, -1.0)
_SLOT_COS = np.cos(np.pi / KERNEL_HALF_WIDTH * _SLOTS)
_SLOT_SIN = np.sin(np.pi / KERNEL_HALF_WIDTH * _SLOTS)
# cluster draws per snapshot before a CIR-span overflow becomes an error
MAX_CLUSTER_DRAWS = 8
# second Philox key word of each consumer's stream; draw attempts sit above bit 32
DATASET_STREAM = 0
SIMULATE_STREAM = 1
# uniform words of the Box-Muller pair that gives a row's DS and K-factor
LARGE_SCALE = slice(0, 2)
# the range of a drawn DS and K-factor that the cluster arithmetic can take.
# A row's spread is computed from squared delays, which lose their precision
# below about 1e-150 s and overflow above about 1e150 s; the bounds leave room
# for the cluster powers and delay ratios. The LOS power K/(K+1) rounds to 1
# from K = 2**53 on; below 2**52 the clusters keep some power.
_DS_RANGE_S = (1e-100, 1e100)
_MAX_K_FACTOR_DB = 10.0 * math.log10(2.0**52)
# the largest snapshot, tap or cluster count: a dataset header's uint32
_MAX_COUNT = 2**32 - 1
# dataset rows rendered at once inside a chunk: each temporary of the
# kernel, (rows, paths, 16) floats, stays near 200 KB
_RENDER_ROWS = 64


@dataclass(frozen=True)
class ScenarioConfig:
    """Generator configuration for one propagation scenario.

    ``ds_sigma_log10`` is the standard deviation of log10(DS/1s);
    ``kf_sigma_db`` the standard deviation of the K-factor in dB (normal in
    dB is log-normal in linear). A rejection of one field's finite value
    starts with its name, for ``io.parse_config_text`` to read.
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
    sample_rate_hz: float
    cir_length_taps: int

    def __post_init__(self):
        if not self.ds_median_s > 0:
            raise ValidationError("ds_median_s must be > 0")
        for name in ("ds_sigma_log10", "kf_sigma_db"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("num_clusters", "cir_length_taps"):
            count = getattr(self, name)
            if not 1 <= count <= _MAX_COUNT:
                raise ValidationError(f"{name} must be in [1, {_MAX_COUNT}], got {count}")
        if not self.delay_proportionality_r_tau > 1.0:
            raise ValidationError("delay_proportionality_r_tau must be > 1")
        if not self.per_cluster_shadowing_db >= 0:
            raise ValidationError("per_cluster_shadowing_db must be >= 0")
        _check_rate(self.sample_rate_hz)
        if self.los and self.kf_median_db is None:
            raise ValidationError("LOS scenario requires kf_median_db")
        if not self.los and self.kf_median_db is not None:
            raise ValidationError("NLOS scenario must not carry kf_median_db")
        floats = ("ds_median_s", "ds_sigma_log10", "kf_median_db", "kf_sigma_db",
                  "delay_proportionality_r_tau", "per_cluster_shadowing_db")
        for name in floats:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"scenario parameter {name} must be finite, got {value!r}")


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
        # the CIR spans one sounding period
        sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
        cir_length_taps=DEFAULT_SEQUENCE_LENGTH,
    )


# measured-campaign presets; spreads are zero because each comes from
# single-point extraction (one measurement gives no distribution)
PRESETS: dict[str, ScenarioConfig] = {
    "urban-los": _table_preset("urban-los", 45.0, 13.0, 15),
    "urban-nlos": _table_preset("urban-nlos", 125.0, None, 19),
    "campus-los": _table_preset("campus-los", 50.0, 21.0, 17),
    "campus-nlos": _table_preset("campus-nlos", 175.0, None, 22),
}


def _layout(config: ScenarioConfig) -> tuple[int, slice, slice]:
    """(width, cluster words, phase words) of a snapshot's row of uniform
    words: the ``LARGE_SCALE`` pair, a delay word per cluster, its
    shadowing in Box-Muller pairs, one phase word per cluster, and padding
    to a multiple of 4 words, one Philox block."""
    n = config.num_clusters
    phases = LARGE_SCALE.stop + n + 2 * ((n + 1) // 2)
    end = phases + n
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
    if params.rms_delay_spread_s == 0:
        raise ValidationError("rms_delay_spread_s is 0; one bin gives no spread to draw from")
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
    with np.errstate(over="ignore"):  # an extreme spread gives inf, rejected by _stream_block
        ds = 10.0 ** (math.log10(config.ds_median_s) + config.ds_sigma_log10 * z[:, 0])
        if not config.los:
            return ds, None
        return ds, config.kf_median_db + config.kf_sigma_db * z[:, 1]


def _draw_clusters(
    ds: np.ndarray, los: np.ndarray, words: np.ndarray, config: ScenarioConfig, where
) -> tuple[np.ndarray, np.ndarray]:
    """(S, K + 1) path delays and powers of S rows with (S,) delay spreads
    and LOS powers, from their (S, C) cluster words: a delay word per
    cluster, then its shadowing by Box-Muller. Columns 0 to K - 1 hold the
    clusters in delay order, column K the LOS path at delay 0 (power 0 for
    NLOS configs).

    Delays are drawn exponentially with proportionality factor r_tau,
    sorted and shifted to start at 0; powers decay exponentially in delay
    with log-normal per-cluster shadowing. The cluster powers are scaled to
    1 less the LOS power, and then every delay is rescaled by one factor so
    the exact RMS delay spread of the row's paths equals its DS. A
    single-cluster set has no spread to rescale, and a row whose paths have
    none fails, named by ``where(row)``.
    """
    n = config.num_clusters
    u = words[:, :n]  # 1-u is uniform on (0, 1]
    shadowing = config.per_cluster_shadowing_db * _box_muller(words[:, n:])[:, :n]
    r_tau = config.delay_proportionality_r_tau
    raw = (-r_tau * ds)[:, None] * np.log1p(-u)
    raw.sort(axis=-1)
    delays = np.zeros((ds.size, n + 1))
    powers = np.empty((ds.size, n + 1))
    cluster_delays = delays[:, :n]
    np.subtract(raw, raw[:, :1], out=cluster_delays)
    decay = np.exp(-cluster_delays * (r_tau - 1.0) / (r_tau * ds)[:, None])
    weights = decay * 10.0 ** (-shadowing / 10.0)
    powers[:, :n] = weights / weights.sum(axis=-1, keepdims=True) * (1.0 - los)[:, None]
    powers[:, n] = los

    if n == 1:
        return delays, powers
    sigma = discrete_delay_spread(delays, powers)
    degenerate = np.flatnonzero(sigma == 0.0)
    if degenerate.size:
        raise ValidationError(
            f"{where(degenerate[0])}: cluster set has no delay spread "
            "(all power at one delay); cannot scale"
        )
    cluster_delays *= (ds / sigma)[:, None]
    return delays, powers


def _stream_block(
    config: ScenarioConfig, root: int, stream: int, start: int, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase words and the path delays and powers of ``_draw_clusters`` of
    rows ``start`` to ``start + rows - 1`` of the (root, stream) stream.

    A row's DS and K-factor come from its ``LARGE_SCALE`` words; for LOS
    configs the LOS power is K/(K+1). Its clusters come from its cluster
    words. A row whose largest delay does not fit the CIR span is drawn
    again, keeping its DS and K-factor, from the same row of the (root,
    stream, attempt) stream, up to ``MAX_CLUSTER_DRAWS`` draws in all;
    other rows are untouched. Before any cluster is drawn, a DS outside
    ``_DS_RANGE_S`` or a K-factor of ``_MAX_K_FACTOR_DB`` or more fails the
    block, naming the first such row and the config's parameters, so an
    extreme spread fails by name and not in the arithmetic. An error names
    a dataset row as its snapshot and ``simulate_pdp``'s one row by its
    seed.
    """
    width, clusters, phases = _layout(config)
    words = _stream_words(root, stream, start, rows, width)
    ds, kf = _large_scale(words[:, LARGE_SCALE], config)
    span = config.cir_length_taps / config.sample_rate_hz

    def where(row) -> str:
        if stream == DATASET_STREAM:
            return f"config {config.label!r}, snapshot {start + int(row)}"
        return f"config {config.label!r}, cluster set of simulate seed {root}"

    low, high = _DS_RANGE_S
    bad = np.nonzero(~((ds >= low) & (ds <= high)))[0]
    if bad.size:
        raise ValidationError(
            f"{where(bad[0])}: drawn delay spread {ds[bad[0]]:.6g} s is not in [{low}, {high}] s; "
            f"ds_median_s={config.ds_median_s}, ds_sigma_log10={config.ds_sigma_log10}"
        )
    los = np.zeros(rows)
    if kf is not None:
        bad = np.nonzero(kf >= _MAX_K_FACTOR_DB)[0]
        if bad.size:
            raise ValidationError(
                f"{where(bad[0])}: drawn K-factor {kf[bad[0]]:.6g} dB leaves the clusters "
                f"no power (it must be below {_MAX_K_FACTOR_DB:.4g} dB); "
                f"kf_median_db={config.kf_median_db}, kf_sigma_db={config.kf_sigma_db}"
            )
        k_linear = 10.0 ** (kf / 10.0)
        los = k_linear / (k_linear + 1.0)

    delays, powers = _draw_clusters(ds, los, words[:, clusters], config, where)
    over = np.nonzero(delays.max(axis=-1) >= span)[0]
    for attempt in range(1, MAX_CLUSTER_DRAWS):
        if over.size == 0:
            break
        again = _stream_words(root, stream, start, rows, width, attempt)[over, clusters]
        delays[over], powers[over] = _draw_clusters(
            ds[over], los[over], again, config, lambda row: where(over[row])
        )
        over = over[delays[over].max(axis=-1) >= span]
    if over.size:
        raise ValidationError(
            f"{where(over[0])}: cluster delays overflow the {span} s CIR span "
            f"in {MAX_CLUSTER_DRAWS} draws"
        )
    return words[:, phases], delays, powers


def _kernel(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first tap, values) of the unit-energy windowed-sinc kernels of paths
    at tap positions ``pos`` >= 0: sinc(x) times the window
    0.5 (1 + cos(pi x / 8)) at taps ceil(pos) + m, m = -8..7, for offsets
    x = m + frac with frac = ceil(pos) - pos. frac is exact for pos >= 0.5
    and lies in [0, 1]; it is 1 where 1 - pos rounds to 1. Returns
    ceil(pos) as intp, the tap of slot m = 0, and the values with a
    trailing axis of the 16 slots; nothing is clipped to a CIR.

    The values are in closed form, three transcendentals per path:
    sin(pi x) is (-1)^m sin(pi frac), and cos(pi x / 8) expands through the
    constants cos(pi m / 8) and sin(pi m / 8). The sinc is 1 at x = 0,
    which only frac = 0 or 1 gives. Slot m = 8 is left out: it is inside
    the half-width only at an integer position, where its value is 0.
    """
    first = np.ceil(pos)
    frac = first - pos
    x = frac[..., None] + _SLOTS
    sin_pi = np.sin(np.pi * frac)[..., None]
    angle = (np.pi / KERNEL_HALF_WIDTH) * frac
    cos_angle, sin_angle = np.cos(angle)[..., None], np.sin(angle)[..., None]
    window = 0.5 * (1.0 + _SLOT_COS * cos_angle - _SLOT_SIN * sin_angle)
    sinc = np.divide(_SLOT_SIGN * sin_pi, np.pi * x, out=np.ones_like(x), where=x != 0.0)
    kern = sinc * window
    kern /= np.sqrt(np.sum(kern**2, axis=-1, keepdims=True))
    return first.astype(np.intp), kern


def _place(first: np.ndarray, kern: np.ndarray, parts) -> None:
    """For each (values, out) of ``parts``, write into the real (S, taps)
    array ``out`` the sum of the (S, P) ``values`` times ``kern`` over the
    paths whose (S, P) ``first`` taps and (S, P, 16) slots ``_kernel``
    gives: each tap sums its paths in path order from 0.0.

    Only the delay support is summed: it runs from slot m = -8 of the
    earliest path to slot m = 7 of the latest, so every slot of every path
    lands in it; its columns outside the CIR are sliced off, so taps outside
    the CIR are dropped, and every other tap is set to +0.0, whatever
    ``out`` held. The work follows the support, not the CIR length.
    """
    rows, n_taps = parts[0][1].shape
    # a support row holds taps low to high - 1, which may overhang the CIR;
    # slot m = -8 of a path lands in its column ceil(pos) - 8 - low
    low = int(first.min()) - KERNEL_HALF_WIDTH
    high = int(first.max()) + KERNEL_HALF_WIDTH
    width = high - low
    cols = slice(max(low, 0), min(high, n_taps))
    start = first - KERNEL_HALF_WIDTH - low + (np.arange(rows) * width)[:, None]
    flat = (start[..., None] + np.arange(_SLOTS.size)).ravel()
    for values, out in parts:
        summed = np.bincount(flat, (values[..., None] * kern).ravel(), rows * width)
        out[:, : cols.start] = 0.0
        out[:, cols.stop :] = 0.0
        out[:, cols] = summed.reshape(rows, width)[:, cols.start - low : cols.stop - low]


def _render_block(
    delays: np.ndarray, powers: np.ndarray, phase_words: np.ndarray, config, out: np.ndarray
) -> np.ndarray:
    """Render S CIRs from the (S, K + 1) path delays and powers of
    ``_draw_clusters`` into ``out``, an (S, taps) complex array: a
    complex64 one's parts round as ``astype`` rounds them. Cluster k has
    amplitude sqrt(power) and phase 2 pi u from its (S, K) phase word u;
    the LOS path, column K, has the real amplitude sqrt(power) and is
    rendered for LOS configs only. One ``_place`` of the paths' kernels
    sums the real and the imaginary parts, so a row equals adding the paths
    one by one into a zero CIR. Boundary clipping and residual tail
    interference keep a row's energy within about +-0.5 dB of the power sum
    when clusters sit a few taps apart; clusters sharing taps also interfere
    row by row, but their phase-averaged power still adds.
    """
    clusters = phase_words.shape[1]
    paths = clusters + 1 if config.los else clusters
    amplitudes = np.sqrt(powers[:, :paths]).astype(np.complex128)
    # the LOS column keeps phase 0
    amplitudes[:, :clusters] *= np.exp(1j * (2.0 * np.pi * phase_words))
    first, kern = _kernel(delays[:, :paths] * config.sample_rate_hz)
    _place(first, kern, ((amplitudes.real, out.real), (amplitudes.imag, out.imag)))
    return out


def simulate_pdp(config: ScenarioConfig, rng_seed: int) -> PowerDelayProfile:
    """Simulate a normalized PDP: the mean power of one cluster set over
    uniform phases.

    Row 0 of the (rng_seed, ``SIMULATE_STREAM``) stream gives the DS,
    K-factor and paths; they stay fixed while the per-cluster phases
    vary, as in consecutive snapshots of a static channel. The cluster
    phases are independent and uniform, so the cross terms of |h|^2
    average to 0 and the expected power is sum p_k kernel_k^2 over the
    paths, LOS included: one ``_place`` of the paths' squared kernels,
    the same placement a dataset row's parts take. The profile is
    normalized as ``cirkit estimate`` normalizes a measured one, and built
    once, from the normalized arrays.
    """
    root = check_seed(rng_seed)
    _, delays, powers = _stream_block(config, root, SIMULATE_STREAM, 0, 1)
    first, kern = _kernel(delays * config.sample_rate_hz)
    power = np.empty((1, config.cir_length_taps))
    _place(first, kern**2, ((powers, power),))
    bins = np.arange(config.cir_length_taps) * (1.0 / config.sample_rate_hz)
    return _normalized(bins, power[0])


def generate_dataset(config: ScenarioConfig, count: int, rng_seed: int, path) -> None:
    """Write ``count`` independent channel snapshots into the dataset file ``path``.

    Every snapshot draws fresh large-scale parameters, clusters and phases
    from its own fixed run of words of one counter-based stream keyed by the
    root seed, so the first n snapshots are the same for any ``count`` >= n.
    Snapshots are drawn and rendered ``CHUNK_ROWS`` at a time, each chunk a
    task of ``sounder._map_chunks``; the bytes do not depend on how many run
    at once. Each chunk renders into its task's float32 buffer, which holds
    the rows as the container file stores them, and is written as soon as
    it is rendered: the call holds two such chunks, whatever ``count`` is.
    A failure leaves ``path`` as it was.
    """
    from . import io as cirkit_io  # deferred: io needs this module's types

    root = check_seed(rng_seed)
    if count < 1:
        raise ValidationError("count must be >= 1")
    if count > _MAX_COUNT:
        raise ValidationError(
            f"count {count} exceeds the {_MAX_COUNT} snapshots a dataset file can hold"
        )
    taps = config.cir_length_taps

    def render_chunk(start: int, buffers) -> np.ndarray:
        rows = min(CHUNK_ROWS, count - start)
        phases, delays, powers = _stream_block(config, root, DATASET_STREAM, start, rows)
        out = buffers[0][:rows]
        # a few rows at a time: a worker thread keeps what it allocates
        for lo in range(0, rows, _RENDER_ROWS):
            part = slice(lo, lo + _RENDER_ROWS)
            _render_block(delays[part], powers[part], phases[part], config, out[part])
        return out

    comments = (f"seed={root}", f"generator_version={__about__.__version__}")
    blob = cirkit_io.config_to_text(config, comments=comments)
    layout = (((CHUNK_ROWS, taps), "<c8"),)
    chunks = _map_chunks(render_chunk, range(0, count, CHUNK_ROWS), layout)
    try:
        cirkit_io._write_chds(path, count, taps, config.sample_rate_hz, blob, chunks)
    finally:
        chunks.close()
