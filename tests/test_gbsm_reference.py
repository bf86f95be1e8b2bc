"""The batched generator against a loop that draws one snapshot at a time.

The functions prefixed ``loop_`` open one Philox stream per snapshot at that
snapshot's counter, turn its uniform words into normals one Box-Muller pair
at a time, and place one cluster at a time, as a per-snapshot generator
would. The chunked code must reproduce them bit for bit (``np.array_equal``),
so any change to a drawn or rendered value fails here. The word layout of a
row is written out here on its own, so a change to it fails here too.
``sinc_kernel`` keeps the 0.2.0 kernel formula (``np.sinc`` times the
raised-cosine window), which the render must match to rounding.
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirkit import gbsm, io
from cirkit.analysis import DEFAULT_MARGIN_DB, estimate_noise_floor, normalize_pdp
from cirkit.cli import main
from cirkit.errors import ValidationError
from cirkit.gbsm import PRESETS, Cluster, ClusterSet
from cirkit.sounder import ChannelImpulseResponse, average_pdp

NS = 1e-9


def loop_sigma(delays, powers):
    total = powers.sum()
    m1 = float(np.sum(powers * delays) / total)
    m2 = float(np.sum(powers * delays**2) / total)
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def row_layout(config):
    """(width, delay words, shadowing words, phase words) of one row: DS and
    K pair, a delay word per stochastic cluster, shadowing in whole
    Box-Muller pairs, a phase word per cluster, padded to 4 words."""
    n_stoch = config.num_clusters - len(config.fixed_clusters)
    delays = slice(2, 2 + n_stoch)
    shadowing = slice(delays.stop, delays.stop + 2 * math.ceil(n_stoch / 2))
    phases = slice(shadowing.stop, shadowing.stop + config.num_clusters)
    return 4 * math.ceil(phases.stop / 4), delays, shadowing, phases


def loop_row(config, root, stream, index, attempt=0):
    """Row ``index`` of the (root, stream, attempt) stream, from its own Philox."""
    width = row_layout(config)[0]
    key = np.array([root, attempt * 2**32 + stream], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=index * width // 4)
    return np.random.Generator(bitgen).random(width)


def loop_normals(words):
    normals = []
    for u1, u2 in zip(words[0::2], words[1::2]):
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        normals += [radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)]
    return np.array(normals)


def loop_large_scale(config, row):
    z_ds, z_kf = loop_normals(row[:2])
    # a one-element array takes numpy's vectorized pow, which can differ from
    # the C library's scalar pow in the last bit
    [ds] = 10.0 ** np.array([math.log10(config.ds_median_s) + config.ds_sigma_log10 * z_ds])
    kf = config.kf_median_db + config.kf_sigma_db * z_kf if config.los else None
    return float(ds), kf


def loop_clusters(ds_s, kf_db, config, row, preserve_fixed_delays=False):
    _, delay_words, shadowing_words, _ = row_layout(config)
    n_fixed = len(config.fixed_clusters)
    n_stoch = config.num_clusters - n_fixed
    r_tau = config.delay_proportionality_r_tau
    if n_stoch > 0:
        u = row[delay_words]
        raw = -r_tau * ds_s * np.log1p(-u)
        raw.sort()
        stoch_delays = raw - raw[0]
        shadowing = config.per_cluster_shadowing_db * loop_normals(row[shadowing_words])
        stoch_weights = np.exp(-stoch_delays * (r_tau - 1.0) / (r_tau * ds_s)) * 10.0 ** (
            -shadowing[:n_stoch] / 10.0
        )
    else:
        stoch_delays = np.empty(0)
        stoch_weights = np.empty(0)
    delays = np.concatenate([stoch_delays, [d for d, _ in config.fixed_clusters]])
    weights = np.concatenate([stoch_weights, [p for _, p in config.fixed_clusters]])
    fixed_mask = np.zeros(delays.size, dtype=bool)
    fixed_mask[n_stoch:] = True
    order = np.argsort(delays, kind="stable")
    delays, weights, fixed_mask = delays[order], weights[order], fixed_mask[order]
    if kf_db is not None:
        k_linear = 10.0 ** (kf_db / 10.0)
        los_power = k_linear / (k_linear + 1.0)
    else:
        los_power = 0.0
    powers = weights / weights.sum() * (1.0 - los_power)
    all_delays = np.append(delays, 0.0)
    all_powers = np.append(powers, los_power)
    enforcement = gbsm.ENFORCEMENT_EXACT
    if config.num_clusters == 1:
        enforcement = gbsm.ENFORCEMENT_SINGLE_CLUSTER
    else:
        sigma = loop_sigma(all_delays, all_powers)
        if preserve_fixed_delays and n_fixed > 0:
            scale_mask = np.append(~fixed_mask, False)
            alpha = gbsm._preserve_fixed_scale(all_delays, all_powers, scale_mask, ds_s)
            delays = np.where(fixed_mask, delays, delays * alpha)
            enforcement = gbsm.ENFORCEMENT_RELAXED_FIXED
        else:
            delays = delays * (ds_s / sigma)
    clusters = tuple(
        Cluster(float(d), float(p), bool(f)) for d, p, f in zip(delays, powers, fixed_mask)
    )
    return ClusterSet(clusters, float(los_power), enforcement)


def loop_fitting_clusters(ds, kf, config, rows, preserve_fixed_delays=False):
    """The first cluster draw that fits the CIR span; draw a reads ``rows(a)``."""
    span = config.cir_length_taps / config.sample_rate_hz
    for attempt in range(gbsm.MAX_CLUSTER_DRAWS):
        clusters = loop_clusters(ds, kf, config, rows(attempt), preserve_fixed_delays)
        if np.max(clusters.delays) < span:
            return clusters
    raise ValidationError("no fitting draw")


def loop_generate_clusters(ds_s, kf_db, config, rng_seed, preserve_fixed_delays=False):
    rng = np.random.default_rng(rng_seed)
    width = row_layout(config)[0]
    return loop_fitting_clusters(
        ds_s, kf_db, config, lambda _: rng.random(width), preserve_fixed_delays
    )


SLOTS = np.arange(-8, 8)
SLOT_SIGN = np.array([(-1.0) ** m for m in range(-8, 8)])
SLOT_COS = np.cos(np.pi / 8 * SLOTS)
SLOT_SIN = np.sin(np.pi / 8 * SLOTS)


def loop_kernel(pos):
    """Taps and values of one path's kernel at ``pos`` taps, in the closed
    form: 16 slots at taps ceil(pos) + m, m = -8..7, offsets x = m + frac,
    sin(pi x) = (-1)^m sin(pi frac), and the window's cos(pi x / 8) expanded
    through cos(pi m / 8) and sin(pi m / 8)."""
    first = math.ceil(pos)
    frac = first - pos
    x = frac + SLOTS
    sin_pi = np.sin(np.pi * frac)
    angle = np.pi / 8 * frac
    window = 0.5 * (1.0 + SLOT_COS * np.cos(angle) - SLOT_SIN * np.sin(angle))
    sinc = np.array([1.0 if xm == 0 else sign * sin_pi / (np.pi * xm)
                     for sign, xm in zip(SLOT_SIGN, x)])
    kern = sinc * window
    return first + SLOTS, kern / math.sqrt(float(np.sum(kern**2)))


def sinc_kernel(pos):
    """The 0.2.0 kernel, ``np.sinc`` times the raised-cosine window over the
    taps from ceil(pos - 8) to floor(pos + 8): equal to ``loop_kernel`` up
    to rounding."""
    idx = np.arange(math.ceil(pos - 8), math.floor(pos + 8) + 1)
    offsets = idx - pos
    taps = np.sinc(offsets) * (0.5 * (1.0 + np.cos(np.pi * offsets / 8)))
    return idx, taps / math.sqrt(float(np.sum(taps**2)))


def loop_synthesize_cir(clusters, config, phases, kernel=loop_kernel):
    fs = config.sample_rate_hz
    n_taps = config.cir_length_taps
    taps = np.zeros(n_taps, dtype=np.complex128)

    def place(amplitude, delay_s):
        idx, kern = kernel(delay_s * fs)
        valid = (idx >= 0) & (idx < n_taps)
        taps[idx[valid]] += amplitude * kern[valid]

    for cluster, phase in zip(clusters.clusters, phases):
        place(math.sqrt(cluster.power_linear) * np.exp(1j * phase), cluster.delay_s)
    if clusters.los_power_linear > 0.0:
        place(math.sqrt(clusters.los_power_linear), 0.0)
    return ChannelImpulseResponse([taps], 1.0 / fs)


def loop_stream_clusters(config, root, stream, index):
    """DS, K-factor and fitting clusters of row ``index`` of a stream."""
    ds, kf = loop_large_scale(config, loop_row(config, root, stream, index))
    rows = functools.partial(loop_row, config, root, stream, index)
    return loop_fitting_clusters(ds, kf, config, rows)


def loop_phases(config, root, stream, index):
    return 2.0 * np.pi * loop_row(config, root, stream, index)[row_layout(config)[3]]


def loop_snapshot(config, root, index, kernel=loop_kernel):
    clusters = loop_stream_clusters(config, root, gbsm.DATASET_STREAM, index)
    phases = loop_phases(config, root, gbsm.DATASET_STREAM, index)
    return loop_synthesize_cir(clusters, config, phases, kernel).taps[0]


def loop_generate_dataset(config, count, root, kernel=loop_kernel):
    return np.vstack([loop_snapshot(config, root, i, kernel) for i in range(count)])


def loop_simulate_pdp(config, root, n_realizations):
    stream = gbsm.SIMULATE_STREAM
    clusters = loop_stream_clusters(config, root, stream, 0)
    taps = [
        loop_synthesize_cir(clusters, config, loop_phases(config, root, stream, i)).taps[0]
        for i in range(n_realizations)
    ]
    pdp = average_pdp(ChannelImpulseResponse(taps, 1.0 / config.sample_rate_hz))
    floor = estimate_noise_floor(pdp) if len(pdp) >= 16 else 0.0
    return normalize_pdp(pdp.with_noise_floor(floor), DEFAULT_MARGIN_DB)


FIXED = dataclasses.replace(
    PRESETS["urban-los"], fixed_clusters=((200 * NS, 0.3), (90 * NS, 0.1), (0.0, 0.05))
)
SINGLE = dataclasses.replace(PRESETS["urban-nlos"], num_clusters=1)
SINGLE_LOS = dataclasses.replace(PRESETS["urban-los"], num_clusters=1)
SPREAD = dataclasses.replace(PRESETS["campus-los"], ds_sigma_log10=0.15, kf_sigma_db=4.0)
CONFIGS = {**PRESETS, "fixed": FIXED, "single": SINGLE, "single-los": SINGLE_LOS, "spread": SPREAD}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dataset_equals_loop_reference(name):
    config = CONFIGS[name]
    # one short chunk, one full chunk and one row, two full chunks and 3 rows
    counts = (gbsm.CHUNK_ROWS - 1, gbsm.CHUNK_ROWS + 1, 2 * gbsm.CHUNK_ROWS + 3)
    loop = loop_generate_dataset(config, max(counts), 13)
    for count in counts:
        batched = gbsm.generate_dataset(config, count, 13).snapshots
        assert np.array_equal(batched, loop[:count]), count


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dataset_within_rounding_of_sinc_kernel(name):
    config = CONFIGS[name]
    count = gbsm.CHUNK_ROWS + 1
    batched = gbsm.generate_dataset(config, count, 13).snapshots
    reference = loop_generate_dataset(config, count, 13, kernel=sinc_kernel)
    peak = np.max(np.abs(reference), axis=1, keepdims=True)
    assert np.all(np.abs(batched - reference) <= 1e-14 * peak)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_pdp_equals_loop_reference(name):
    config = CONFIGS[name]
    for seed in range(6):
        batched = gbsm.simulate_pdp(config, seed, 40)
        loop = loop_simulate_pdp(config, seed, 40)
        assert np.array_equal(batched.delays_s, loop.delays_s)
        assert np.array_equal(batched.powers_linear, loop.powers_linear)
        assert batched.noise_floor_linear == loop.noise_floor_linear


def test_simulate_pdp_realizations_cross_chunks():
    config = PRESETS["urban-nlos"]
    n = 2 * gbsm.CHUNK_ROWS + 3
    batched = gbsm.simulate_pdp(config, 4, n)
    assert np.array_equal(batched.powers_linear, loop_simulate_pdp(config, 4, n).powers_linear)


@pytest.mark.parametrize("preserve", [False, True])
def test_generate_clusters_equals_loop_reference(preserve):
    for name, config in CONFIGS.items():
        for seed in range(10):
            ds = config.ds_median_s
            batched = gbsm.generate_clusters(ds, config.kf_median_db, config, seed, preserve)
            loop = loop_generate_clusters(ds, config.kf_median_db, config, seed, preserve)
            assert batched == loop, (name, seed)


def test_synthesize_cir_equals_loop_reference():
    step = 1.0 / PRESETS["urban-nlos"].sample_rate_hz
    # integer, fractional, edge-clipped and LOS positions
    cs = ClusterSet(
        (
            Cluster(0.0, 0.2, False),
            Cluster(3.25 * step, 0.2, False),
            Cluster(40 * step, 0.2, False),
            Cluster(350.5 * step, 0.1, False),
        ),
        0.3,
    )
    for seed in range(5):
        batched = gbsm.synthesize_cir(cs, PRESETS["urban-los"], seed)
        # the phases are drawn as the 0.1.0 generator drew them
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(cs.clusters))
        loop = loop_synthesize_cir(cs, PRESETS["urban-los"], phases)
        assert np.array_equal(batched.taps, loop.taps)
        assert batched.taps.shape == (1, PRESETS["urban-los"].cir_length_taps)


@st.composite
def path_positions(draw):
    """(CIR length, path position in taps): whole taps, the floats either
    side of one, positions below half a tap, where 1 - pos can round to 1,
    the last float before the span end, and anywhere in the span."""
    n_taps = draw(st.sampled_from([4, 17, 353]))
    beside = st.builds(math.nextafter, st.integers(0, n_taps).map(float),
                       st.sampled_from([-math.inf, math.inf]))
    pos = draw(st.one_of(
        st.integers(0, n_taps - 1).map(float),
        beside.filter(lambda p: 0.0 <= p < n_taps),
        st.floats(0.0, 0.5, exclude_max=True),
        st.just(math.nextafter(n_taps, 0.0)),
        st.floats(0.0, n_taps, exclude_max=True),
    ))
    return n_taps, pos


@settings(max_examples=300, derandomize=True, deadline=None)
@given(path_positions())
@example((353, 0.0))
@example((4, 1e-20))
@example((17, math.nextafter(3.0, math.inf)))
@example((17, math.nextafter(3.0, 0.0)))
@example((4, math.nextafter(4.0, 0.0)))
def test_kernel_at_any_position(path):
    n_taps, pos = path
    config = dataclasses.replace(PRESETS["urban-nlos"], sample_rate_hz=1.0, cir_length_taps=n_taps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [first], [kern] = gbsm._kernel(np.array([pos]))
        [row] = gbsm._render_block(np.array([[pos]]), np.ones((1, 1)), np.zeros((1, 1)),
                                   np.zeros(1), config)
    # unit energy before clipping
    assert abs(float(np.sum(kern**2)) - 1.0) <= 1e-14
    # the np.sinc formula, over the union of both kernels' taps
    idx, values = sinc_kernel(pos)
    ours, theirs = dict(zip(first + SLOTS, kern)), dict(zip(idx, values))
    peak = max(abs(v) for v in values)
    for tap in ours.keys() | theirs.keys():
        assert abs(ours.get(tap, 0.0) - theirs.get(tap, 0.0)) <= 1e-14 * peak, tap
    # the render keeps the slots on the CIR, each exactly, and drops the rest
    expected = np.zeros(n_taps)
    for tap, value in ours.items():
        if 0 <= tap < n_taps:
            expected[tap] = value
    assert np.array_equal(row.real, expected)
    assert not np.any(row.imag)


def test_span_overflow_redraws_only_that_snapshot(tmp_path):
    # snapshot 1474 of this command overflows the CIR span on its first
    # draw; it alone is redrawn, every other snapshot keeps its first draw
    out = tmp_path / "x.chds"
    cmd = ["dataset", "--config", "campus-los", "--seed", "1", "--count", "2000"]
    assert main([*cmd, "--out", str(out)]) == 0
    assert io.read_dataset(out).snapshot_count == 2000

    config = PRESETS["campus-los"]
    span = config.cir_length_taps / config.sample_rate_hz
    row = loop_row(config, 1, gbsm.DATASET_STREAM, 1474)
    ds, kf = loop_large_scale(config, row)
    assert np.max(loop_clusters(ds, kf, config, row).delays) >= span

    batched = gbsm.generate_dataset(config, 2000, 1).snapshots
    assert np.array_equal(batched, loop_generate_dataset(config, 2000, 1))


def test_span_overflow_gives_up_naming_snapshot_and_config():
    # a 20 us delay spread needs delays of at least 40 us: no draw fits
    config = dataclasses.replace(PRESETS["urban-nlos"], label="wide", ds_median_s=20e-6)
    message = rf"'wide', snapshot 0: .* in {gbsm.MAX_CLUSTER_DRAWS} draws"
    with pytest.raises(ValidationError, match=message):
        gbsm.generate_dataset(config, 3, 0)
    message = rf"^config 'wide', cluster set of simulate seed 5: .* in {gbsm.MAX_CLUSTER_DRAWS} "
    with pytest.raises(ValidationError, match=message):
        gbsm.simulate_pdp(config, 5, 4)
    with pytest.raises(ValidationError, match=r"^config 'wide': cluster delays overflow"):
        gbsm.generate_clusters(config.ds_median_s, None, config, 0)
