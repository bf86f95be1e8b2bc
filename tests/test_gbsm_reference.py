"""The batched generator against a loop that draws one snapshot at a time.

The functions prefixed ``loop_`` open one Philox stream per snapshot at that
snapshot's counter, turn its uniform words into normals one Box-Muller pair
at a time, and place one cluster at a time, as a per-snapshot generator
would. The chunked code must reproduce them bit for bit (``np.array_equal``),
so any change to a drawn or rendered value fails here. The word layout of a
row is written out here on its own, so a change to it fails here too.
``sinc_kernel`` keeps the 0.2.0 kernel formula (``np.sinc`` times the
raised-cosine window), which the render must match to rounding.
``loop_expected_power`` adds up the closed-form mean power of a simulated
cluster set path by path; ``monte_carlo_power`` estimates the same mean
from rendered phase realizations, with its standard error.
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_gbsm import read_back

from cirkit import __about__, gbsm, io
from cirkit.analysis import PowerDelayProfile, noise_threshold, normalize_pdp
from cirkit.cli import main
from cirkit.errors import ValidationError
from cirkit.gbsm import PRESETS


def loop_sigma(delays, powers):
    total = powers.sum()
    m1 = float(np.sum(powers * delays) / total)
    m2 = float(np.sum(powers * delays**2) / total)
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def row_layout(config):
    """(width, delay words, shadowing words, phase words) of one row: DS and
    K pair, a delay word per cluster, shadowing in whole Box-Muller pairs,
    a phase word per cluster, padded to 4 words."""
    delays = slice(2, 2 + config.num_clusters)
    shadowing = slice(delays.stop, delays.stop + 2 * math.ceil(config.num_clusters / 2))
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


def loop_clusters(ds_s, kf_db, config, row):
    """(delays, powers, LOS power) of one cluster set drawn from ``row``."""
    _, delay_words, shadowing_words, _ = row_layout(config)
    r_tau = config.delay_proportionality_r_tau
    raw = -r_tau * ds_s * np.log1p(-row[delay_words])
    raw.sort()
    delays = raw - raw[0]
    shadowing = config.per_cluster_shadowing_db * loop_normals(row[shadowing_words])
    weights = np.exp(-delays * (r_tau - 1.0) / (r_tau * ds_s)) * 10.0 ** (
        -shadowing[:config.num_clusters] / 10.0
    )
    if kf_db is not None:
        k_linear = 10.0 ** (kf_db / 10.0)
        los_power = k_linear / (k_linear + 1.0)
    else:
        los_power = 0.0
    powers = weights / weights.sum() * (1.0 - los_power)
    if config.num_clusters > 1:
        sigma = loop_sigma(np.append(delays, 0.0), np.append(powers, los_power))
        delays = delays * (ds_s / sigma)
    return delays, powers, float(los_power)


def loop_fitting_clusters(ds, kf, config, rows):
    """The first cluster draw that fits the CIR span; draw a reads ``rows(a)``."""
    span = config.cir_length_taps / config.sample_rate_hz
    for attempt in range(gbsm.MAX_CLUSTER_DRAWS):
        clusters = loop_clusters(ds, kf, config, rows(attempt))
        if np.max(clusters[0]) < span:
            return clusters
    raise ValidationError("no fitting draw")


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
    """One CIR of the (delays, powers, LOS power) ``clusters``, cluster k
    at phase ``phases[k]`` in radians."""
    delays, powers, los_power = clusters
    fs = config.sample_rate_hz
    n_taps = config.cir_length_taps
    taps = np.zeros(n_taps, dtype=np.complex128)

    def place(amplitude, delay_s):
        idx, kern = kernel(delay_s * fs)
        valid = (idx >= 0) & (idx < n_taps)
        taps[idx[valid]] += amplitude * kern[valid]

    for delay_s, power, phase in zip(delays, powers, phases):
        place(math.sqrt(power) * np.exp(1j * phase), delay_s)
    if los_power > 0.0:
        place(math.sqrt(los_power), 0.0)
    return taps


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
    return loop_synthesize_cir(clusters, config, phases, kernel)


def loop_generate_dataset(config, count, root, kernel=loop_kernel):
    return np.vstack([loop_snapshot(config, root, i, kernel) for i in range(count)])


def loop_expected_power(config, root):
    """The mean power over phases of row 0's cluster set of the simulate
    stream, path by path: each path adds p kernel^2 to the taps of its
    kernel that lie in the CIR, the LOS term last."""
    delays, powers, los_power = loop_stream_clusters(config, root, gbsm.SIMULATE_STREAM, 0)
    n_taps = config.cir_length_taps
    power = np.zeros(n_taps)
    for delay_s, p in zip([*delays, 0.0], [*powers, los_power]):
        idx, kern = loop_kernel(delay_s * config.sample_rate_hz)
        valid = (idx >= 0) & (idx < n_taps)
        power[idx[valid]] += p * kern[valid] ** 2
    return power


def loop_simulate_pdp(config, root):
    power = loop_expected_power(config, root)
    delays = np.arange(config.cir_length_taps) * (1.0 / config.sample_rate_hz)
    pdp = PowerDelayProfile(delays, power)
    return normalize_pdp(pdp, noise_threshold(pdp))


def monte_carlo_power(config, root, realizations, rows=1000):
    """Mean and standard error, per tap, of |h|^2 over ``realizations``
    CIRs of row 0's cluster set of the simulate stream, each cluster at an
    independent uniform phase and the LOS term at phase 0."""
    delays, powers, los_power = loop_stream_clusters(config, root, gbsm.SIMULATE_STREAM, 0)
    n_taps = config.cir_length_taps
    rng = np.random.default_rng(root)
    total, squares = np.zeros(n_taps), np.zeros(n_taps)
    for _ in range(realizations // rows):
        taps = np.zeros((rows, n_taps), dtype=np.complex128)
        amplitudes = [*(math.sqrt(p) * np.exp(2j * np.pi * rng.random(rows)) for p in powers),
                      np.full(rows, math.sqrt(los_power))]
        for delay_s, amplitude in zip([*delays, 0.0], amplitudes):
            idx, kern = loop_kernel(delay_s * config.sample_rate_hz)
            valid = (idx >= 0) & (idx < n_taps)
            taps[:, idx[valid]] += amplitude[:, None] * kern[valid]
        power = np.abs(taps) ** 2
        total += power.sum(axis=0)
        squares += (power**2).sum(axis=0)
    mean = total / realizations
    variance = np.maximum(squares / realizations - mean**2, 0.0) * realizations / (realizations - 1)
    return mean, np.sqrt(variance / realizations)


SINGLE = dataclasses.replace(PRESETS["urban-nlos"], num_clusters=1)
SINGLE_LOS = dataclasses.replace(PRESETS["urban-los"], num_clusters=1)
SPREAD = dataclasses.replace(PRESETS["campus-los"], ds_sigma_log10=0.15, kf_sigma_db=4.0)
CONFIGS = {**PRESETS, "single": SINGLE, "single-los": SINGLE_LOS, "spread": SPREAD}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dataset_equals_loop_reference(tmp_path, name):
    """The file holds the loop's CIRs rounded to complex64, bit for bit."""
    config = CONFIGS[name]
    # one short chunk, one full chunk and one row, two full chunks and 3 rows
    counts = (gbsm.CHUNK_ROWS - 1, gbsm.CHUNK_ROWS + 1, 2 * gbsm.CHUNK_ROWS + 3)
    loop = loop_generate_dataset(config, max(counts), 13)
    for count in counts:
        batched = read_back(tmp_path, config, count, 13).snapshots
        assert np.array_equal(batched, loop[:count].astype(np.complex64)), count


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dataset_payload_unchanged_by_version_bump(tmp_path, monkeypatch, name):
    """Generator 0.4.0 changed simulated PDPs only: a preset's dataset holds
    the loop's CIRs, as 0.3.0 wrote them, and its bytes differ from a file
    written as version 0.3.0 only in the blob's generator_version line."""
    config = PRESETS[name]
    count = gbsm.CHUNK_ROWS + 1
    new, old = tmp_path / "new.chds", tmp_path / "old.chds"
    gbsm.generate_dataset(config, count, 13, new)
    version = f"# generator_version={__about__.__version__}\n".encode()
    monkeypatch.setattr(__about__, "__version__", "0.3.0")
    gbsm.generate_dataset(config, count, 13, old)
    data = new.read_bytes()
    assert data.count(version) == 1
    assert data.replace(version, b"# generator_version=0.3.0\n") == old.read_bytes()
    loop = loop_generate_dataset(config, count, 13).astype(np.complex64)
    assert np.array_equal(io.read_dataset(new).snapshots, loop)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dataset_within_rounding_of_sinc_kernel(name):
    """The dataset stream's rows rendered at complex128, chunk by chunk as
    ``generate_dataset`` draws them."""
    config = CONFIGS[name]
    count = gbsm.CHUNK_ROWS + 1
    chunks = []
    for start in range(0, count, gbsm.CHUNK_ROWS):
        rows = min(gbsm.CHUNK_ROWS, count - start)
        phases, delays, powers = gbsm._stream_block(config, 13, gbsm.DATASET_STREAM, start, rows)
        out = np.empty((rows, config.cir_length_taps), np.complex128)
        chunks.append(gbsm._render_block(delays, powers, phases, config, out))
    batched = np.vstack(chunks)
    reference = loop_generate_dataset(config, count, 13, kernel=sinc_kernel)
    peak = np.max(np.abs(reference), axis=1, keepdims=True)
    assert np.all(np.abs(batched - reference) <= 1e-14 * peak)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_pdp_equals_loop_reference(name):
    config = CONFIGS[name]
    for seed in range(6):
        batched = gbsm.simulate_pdp(config, seed)
        loop = loop_simulate_pdp(config, seed)
        assert np.array_equal(batched.delays_s, loop.delays_s)
        assert np.array_equal(batched.powers_linear, loop.powers_linear)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stream_block_clusters_equal_loop_reference(name):
    config = CONFIGS[name]
    for stream in (gbsm.DATASET_STREAM, gbsm.SIMULATE_STREAM):
        rows = 2 * gbsm.CHUNK_ROWS + 3
        phases, all_delays, all_powers = gbsm._stream_block(config, 13, stream, 0, rows)
        for index in range(rows):
            delays, powers, los = loop_stream_clusters(config, 13, stream, index)
            assert np.array_equal(all_delays[index], np.append(delays, 0.0)), (stream, index)
            assert np.array_equal(all_powers[index], np.append(powers, los)), (stream, index)
            loop = loop_phases(config, 13, stream, index)
            assert np.array_equal(2.0 * np.pi * phases[index], loop), (stream, index)


def test_synthesize_cir_equals_loop_reference():
    config = PRESETS["urban-los"]
    step = 1.0 / config.sample_rate_hz
    # integer, fractional, edge-clipped and LOS positions
    delays = np.array([0.0, 3.25 * step, 40 * step, 350.5 * step])
    powers = np.array([0.2, 0.2, 0.2, 0.1])
    paths = np.append(delays, 0.0)[None], np.append(powers, 0.3)[None]
    for seed in range(5):
        words = np.random.default_rng(seed).random((1, delays.size))
        out = np.empty((1, config.cir_length_taps), np.complex128)
        batched = gbsm._render_block(*paths, words, config, out)
        loop = loop_synthesize_cir((delays, powers, 0.3), config, 2.0 * np.pi * words[0])
        assert np.array_equal(batched, loop[None])
        assert batched.shape == (1, config.cir_length_taps)


# a 2.5 us spread in a 13.8 us CIR: kernels clipped at tap 0 (the first
# cluster sits at delay 0) and, for some draws, at the last tap
WIDE = dataclasses.replace(PRESETS["urban-nlos"], label="wide", ds_median_s=2.5e-6, num_clusters=4)
# simulate seeds whose cluster set reaches past the last tap less 8
WIDE_CLIPPED_SEEDS = (66, 76, 98)
SUPPORT_CONFIGS = {**CONFIGS, "wide": WIDE}


def support_stop(delays, config):
    """The tap after the delay support of a render: the last kernel slot of
    the latest path, plus one."""
    return int(np.ceil(np.max(delays) * config.sample_rate_hz)) + gbsm.KERNEL_HALF_WIDTH


def test_support_clipped_at_both_ends_equals_loop_reference(tmp_path):
    """Renders whose support overhangs the CIR at tap 0 and at the last tap
    give the loop's bytes, in ``simulate_pdp`` and in a dataset."""
    for seed in WIDE_CLIPPED_SEEDS:
        _, delays, _ = gbsm._stream_block(WIDE, seed, gbsm.SIMULATE_STREAM, 0, 1)
        assert support_stop(delays, WIDE) > WIDE.cir_length_taps
        batched = gbsm.simulate_pdp(WIDE, seed)
        assert np.array_equal(batched.powers_linear, loop_simulate_pdp(WIDE, seed).powers_linear)
    count = gbsm.CHUNK_ROWS + 1
    _, delays, _ = gbsm._stream_block(WIDE, 13, gbsm.DATASET_STREAM, 0, count)
    stops = [support_stop(row, WIDE) for row in delays]
    assert max(stops) > WIDE.cir_length_taps
    batched = read_back(tmp_path, WIDE, count, 13).snapshots
    assert np.array_equal(batched, loop_generate_dataset(WIDE, count, 13).astype(np.complex64))


def test_los_only_set_equals_loop_reference():
    """No cluster, the LOS term alone: a support of taps 0 to 7, in which
    the kernel at a whole tap is sqrt(0.7) at tap 0 and 0 elsewhere."""
    config = PRESETS["urban-los"]
    args = (np.zeros((3, 1)), np.full((3, 1), 0.7), np.zeros((3, 0)), config)
    loop = loop_synthesize_cir((np.zeros(0), np.zeros(0), 0.7), config, [])
    assert np.flatnonzero(loop).tolist() == [0]
    taps = gbsm._render_block(*args, np.empty((3, config.cir_length_taps), np.complex128))
    assert np.array_equal(taps, np.broadcast_to(loop, taps.shape))
    out = np.full(taps.shape, np.nan, dtype=np.complex64)
    gbsm._render_block(*args, out)
    assert np.array_equal(out, taps.astype(np.complex64))


def test_simulate_pdp_agrees_with_monte_carlo():
    """10**4 phase realizations average to the closed form in every tap
    within 5 standard errors plus 1e-12 of the peak, in the raw powers that
    ``simulate_pdp`` aligns and scales: a tap that one path alone reaches
    has no phase variance, so there both sides agree to rounding."""
    for name, config in sorted(SUPPORT_CONFIGS.items()):
        for seed in (0, 1):
            pdp = gbsm.simulate_pdp(config, seed)
            peak = np.max(loop_expected_power(config, seed))
            mean, stderr = monte_carlo_power(config, seed, 10_000)
            # the bins before simulate_pdp's first bin above its threshold are dropped
            mean, stderr = mean[-len(pdp):], stderr[-len(pdp):]
            error = np.abs(pdp.powers_linear * peak - mean)
            assert np.all(error <= 5.0 * stderr + 1e-12 * peak), (name, seed)


@pytest.mark.parametrize("name", ["urban-los", "campus-nlos", "single", "wide"])
def test_simulated_power_outside_support_is_zero(name):
    config = SUPPORT_CONFIGS[name]
    for seed in range(6):
        _, delays, _ = gbsm._stream_block(config, seed, gbsm.SIMULATE_STREAM, 0, 1)
        stop = support_stop(delays, config)
        powers = gbsm.simulate_pdp(config, seed).powers_linear
        assert np.all(powers[stop:] == 0.0), seed
        assert not np.any(np.signbit(powers)), seed


@pytest.mark.parametrize("name", ["urban-los", "urban-nlos", "single-los", "wide"])
def test_render_into_dirty_buffer_zeroes_outside_support(name):
    """``out`` holds NaN and -0.0 before the render: every tap outside the
    support comes back +0.0, and the rows equal the loop's, rounded."""
    config = SUPPORT_CONFIGS[name]
    rows = 40
    phases, delays, powers = gbsm._stream_block(config, 13, gbsm.DATASET_STREAM, 0, rows)
    out = np.empty((rows, config.cir_length_taps), dtype=np.complex64)
    out[::2], out[1::2] = np.nan, complex(-0.0, -0.0)
    gbsm._render_block(delays, powers, phases, config, out)
    loop = loop_generate_dataset(config, rows, 13)
    assert np.array_equal(out, loop.astype(np.complex64))
    stop = min(support_stop(delays, config), config.cir_length_taps)
    assert stop < config.cir_length_taps or name == "wide"
    assert not np.any(out.view(np.uint32)[:, 2 * stop :])


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
        out = np.empty((1, n_taps), np.complex128)
        [row] = gbsm._render_block(np.array([[pos, 0.0]]), np.array([[1.0, 0.0]]),
                                   np.zeros((1, 1)), config, out)
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
    assert np.max(loop_clusters(ds, kf, config, row)[0]) >= span

    batched = io.read_dataset(out).snapshots
    assert np.array_equal(batched, loop_generate_dataset(config, 2000, 1).astype(np.complex64))


def test_span_overflow_gives_up_naming_snapshot_and_config(tmp_path):
    # a 20 us delay spread needs delays of at least 40 us: no draw fits
    config = dataclasses.replace(PRESETS["urban-nlos"], label="wide", ds_median_s=20e-6)
    message = rf"'wide', snapshot 0: .* in {gbsm.MAX_CLUSTER_DRAWS} draws"
    with pytest.raises(ValidationError, match=message):
        gbsm.generate_dataset(config, 3, 0, tmp_path / "x.chds")
    message = rf"^config 'wide', cluster set of simulate seed 5: .* in {gbsm.MAX_CLUSTER_DRAWS} "
    with pytest.raises(ValidationError, match=message):
        gbsm.simulate_pdp(config, 5)
