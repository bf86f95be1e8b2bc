"""Acceptance criteria for the whole pipeline.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass line when it holds. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from test_gbsm import read_back, stream_clusters
from test_io import read_range

from cirkit import analysis, gbsm, io, sounder
from cirkit.analysis import PowerDelayProfile, extract_parameters
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.cli import main
from cirkit.errors import (
    BadMagicError,
    BadVersionError,
    CorruptFileError,
    MissingSidecarError,
    SizeMismatchError,
)
from cirkit.gbsm import PRESETS, simulate_pdp
from cirkit.signal import IqSignal, circular_cross_correlate, zadoff_chu

NS = 1e-9


def report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS - {text}")


def summed_moments(pdp):
    """Mean and mean squared delay by direct summation."""
    total = sum(pdp.powers_linear)
    m1 = sum(p * t for p, t in zip(pdp.powers_linear, pdp.delays_s)) / total
    m2 = sum(p * t * t for p, t in zip(pdp.powers_linear, pdp.delays_s)) / total
    return m1, m2


def test_c01_moment_formula_oracle_equivalence():
    """1000 random profiles: delay moments match direct summation to 1e-12."""
    rng = np.random.default_rng(100)
    started = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(4, 513))
        step = float(rng.uniform(1.0, 100.0)) * NS
        powers = rng.uniform(0.0, 1.0, n)
        powers[int(rng.integers(0, n))] = 1.0  # guarantee nonzero total
        pdp = PowerDelayProfile(np.arange(n) * step, powers)

        m1, m2 = summed_moments(pdp)
        sigma = math.sqrt(max(m2 - m1 * m1, 0.0))
        spread = analysis.discrete_delay_spread(pdp.delays_s, pdp.powers_linear)
        assert spread == pytest.approx(sigma, rel=1e-12, abs=1e-30)

        # the moments extraction reports are those of the cleaned profile
        threshold = analysis.noise_threshold(pdp)
        kept = np.where(powers < threshold, 0.0, powers)
        m1, m2 = summed_moments(
            PowerDelayProfile(*analysis._aligned(pdp.delays_s, kept, threshold))
        )
        params = extract_parameters(pdp, los_flag=False)
        assert params.mean_excess_delay_s == pytest.approx(m1, rel=1e-12)
        assert params.second_moment_s2 == pytest.approx(m2, rel=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"1000 random profiles match the summation oracles (in {elapsed:.2f} s)")


@pytest.mark.parametrize("d", [1 * NS, 100 * NS, 1e-6])
def test_c02_two_point_analytic_delay_spread(d):
    """Equal powers at separation d give sigma = d/2 to 1e-15 relative."""
    spread = analysis.discrete_delay_spread(np.array([0.0, d]), np.array([1.0, 1.0]))
    assert spread == pytest.approx(d / 2.0, rel=1e-15)
    report(2, f"two-point profile at d={d:.0e} s gives sigma=d/2 exactly")


def test_c03_cazac_autocorrelation_floor():
    """Peak-to-max-sidelobe of the periodic autocorrelation exceeds 120 dB."""
    cases = [(5, range(1, 5)), (353, (1, 7)), (1021, (1, 7))]
    worst = math.inf
    for length, roots in cases:
        for root in roots:
            seq = zadoff_chu(root, length)
            corr = np.abs(circular_cross_correlate(seq, seq))
            ratio_db = 20.0 * math.log10(corr[0] / np.max(corr[1:]))
            worst = min(worst, ratio_db)
            assert ratio_db > 120.0, f"N={length} root={root}: {ratio_db:.1f} dB"
    report(3, f"Zadoff-Chu autocorrelation floor; worst case {worst:.0f} dB > 120 dB")


def _three_path_setup():
    sequence = zadoff_chu(sounder.DEFAULT_ROOT, sounder.DEFAULT_SEQUENCE_LENGTH)
    taps = np.zeros(9, dtype=complex)
    positions = (0, 3, 8)
    amplitudes = (1.0, 0.6, 0.3)
    for pos, amp in zip(positions, amplitudes):
        taps[pos] = amp
    tx = sounder.build_sounding_signal(
        sequence, sounder.DEFAULT_REPETITIONS, sounder.DEFAULT_SAMPLE_RATE_HZ
    )
    clean = apply_channel(tx, SyntheticChannel(taps))
    return sequence, clean, positions, amplitudes


def test_c04_estimator_fidelity():
    """Noiseless 3-path recovery to 1e-6; 20 dB median error < 10%, 100 seeds."""
    started = time.monotonic()
    sequence, clean, positions, amplitudes = _three_path_setup()

    # the 3 periods are identical, so their averaged profile carries each
    # period's path amplitudes
    pdp = sounder.estimate_pdp(clean, sequence, taper_fraction=0.0)
    mags = np.sqrt(pdp.powers_linear)
    assert set(np.argsort(mags)[-3:]) == set(positions)
    for pos, amp in zip(positions, amplitudes):
        assert abs(mags[pos] - amp) / amp < 1e-6

    median_errors = []
    for seed in range(100):
        noisy = add_awgn(clean, 20.0, seed)
        pdp = sounder.estimate_pdp(noisy, sequence, taper_fraction=0.0)
        mags = np.sqrt(pdp.powers_linear)
        assert set(np.argsort(mags)[-3:]) == set(positions), f"positions wrong at seed {seed}"
        errs = [abs(mags[p] - a) / a for p, a in zip(positions, amplitudes)]
        median_errors.append(max(errs))
    median = float(np.median(median_errors))
    elapsed = time.monotonic() - started
    assert median < 0.10
    assert elapsed < 10.0
    report(4, f"3-path fidelity: exact noiseless, 20 dB median error {median:.1%} (in {elapsed:.2f} s)")


@pytest.mark.parametrize("name", ["urban-los", "urban-nlos", "campus-los", "campus-nlos"])
def test_c05_closed_loop_delay_spread_recovery(name):
    """Per preset: cluster-set DS exact to 1e-9; extracted DS within 15%."""
    preset = PRESETS[name]
    started = time.monotonic()

    ds, _, delays, powers = stream_clusters(preset, 1000)
    assert not np.any(delays[:, -1])
    sigma = analysis.discrete_delay_spread(delays, powers)
    assert np.all(np.abs(sigma - ds) / ds < 1e-9)

    pdp = simulate_pdp(preset, 11)
    params = extract_parameters(pdp, los_flag=preset.los)
    rel = abs(params.rms_delay_spread_s - preset.ds_median_s) / preset.ds_median_s
    elapsed = time.monotonic() - started
    assert rel < 0.15
    assert elapsed < 30.0
    report(
        5,
        f"{name}: generator DS exact, recovered {params.rms_delay_spread_s / NS:.1f} ns "
        f"vs {preset.ds_median_s / NS:.0f} ns ({rel:+.1%}) (in {elapsed:.2f} s)",
    )


def test_c06_closed_loop_k_factor_recovery():
    """LOS presets: median extracted KF within +-2 dB over 200 seeds; NLOS absent."""
    for name in ("urban-los", "campus-los"):
        preset = PRESETS[name]
        values = []
        for seed in range(200):
            pdp = simulate_pdp(preset, seed)
            params = extract_parameters(pdp, los_flag=True)
            assert params.k_factor_db is not None
            values.append(params.k_factor_db)
        median = float(np.median(values))
        assert abs(median - preset.kf_median_db) <= 2.0, name
        report(6, f"{name}: median KF {median:.2f} dB vs configured {preset.kf_median_db} dB")

    for name in ("urban-nlos", "campus-nlos"):
        preset = PRESETS[name]
        _, kf, _, powers = stream_clusters(preset, 50)
        assert kf is None and not np.any(powers[:, -1])
        params = extract_parameters(simulate_pdp(preset, 1), los_flag=False)
        assert params.k_factor_db is None
    report(6, "NLOS presets never produce a K-factor")


@pytest.mark.parametrize("name", ["urban-los", "urban-nlos", "campus-los", "campus-nlos"])
def test_c07_cluster_set_construction_identities(name):
    """1000 snapshots: power sum, LOS ratio identity, shadowing-free monotonicity."""
    preset = PRESETS[name]
    _, kf, _, paths = stream_clusters(preset, 1000)
    for row, (*powers, los) in enumerate(paths):
        total = sum(powers) + los
        assert abs(total - 1.0) < 1e-12
        if preset.los:
            scattered = sum(powers)
            k_linear = 10.0 ** (kf[row] / 10.0)
            assert abs(los / scattered - k_linear) < 1e-12 * k_linear

    if not preset.los:
        plain = dataclasses.replace(preset, per_cluster_shadowing_db=0.0)
        for powers in stream_clusters(plain, 200)[3][:, :-1]:
            assert all(a >= b for a, b in zip(powers, powers[1:]))
    report(7, f"{name}: 1000-snapshot construction identities hold")


def test_c08_format_round_trips(tmp_path):
    """100 randomized round trips per format; corrupted headers raise named errors."""
    rng = np.random.default_rng(200)

    for i in range(100):
        n = int(rng.integers(1, 300))
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
        sig = IqSignal(samples.astype(np.complex128), float(rng.uniform(1e6, 1e8)), 2.48e9)
        path = tmp_path / f"iq_{i}.iq"
        io.write_iq(path, sig)
        reader = io.IqReader(path)
        np.testing.assert_array_equal(read_range(reader, 0, len(reader)), sig.samples)

    for i in range(100):
        los = bool(rng.integers(0, 2))
        config = gbsm.ScenarioConfig(
            label=f"random-{i}",
            ds_median_s=float(rng.uniform(10, 500)) * NS,
            ds_sigma_log10=float(rng.uniform(0, 0.3)),
            kf_median_db=float(rng.uniform(0, 25)) if los else None,
            kf_sigma_db=float(rng.uniform(0, 3)),
            num_clusters=int(rng.integers(1, 30)),
            delay_proportionality_r_tau=float(rng.uniform(1.1, 4.0)),
            per_cluster_shadowing_db=float(rng.uniform(0, 6)),
            los=los,
            sample_rate_hz=25.6e6,
            cir_length_taps=353,
        )
        path = tmp_path / f"cfg_{i}.cfg"
        io.write_config(path, config)
        assert io.read_config(path) == config

    for i in range(100):
        count = int(rng.integers(1, 6))
        taps = int(rng.integers(1, 64))
        snaps = (rng.standard_normal((count, taps)) + 1j * rng.standard_normal((count, taps)))
        dataset = io.Dataset(
            snaps.astype(np.complex64).astype(np.complex128), 25.6e6, f"# blob {i}\n"
        )
        path = tmp_path / f"ds_{i}.chds"
        io._write_chds(path, count, taps, dataset.sample_rate_hz, dataset.config_text, [snaps])
        back = io.read_dataset(path)
        np.testing.assert_array_equal(back.snapshots, dataset.snapshots)
        assert back.config_text == dataset.config_text

    for i in range(100):
        n = int(rng.integers(1, 200))
        powers = rng.uniform(1e-6, 1.0, n)
        powers[int(rng.integers(0, n))] = 1.0
        pdp = PowerDelayProfile(np.arange(n) / 25.6e6, powers)
        path = tmp_path / f"pdp_{i}.csv"
        io.write_pdp_csv(path, pdp)
        back = io.read_pdp_csv(path)
        db_err = np.abs(
            10 * np.log10(back.powers_linear) - 10 * np.log10(pdp.powers_linear)
        )
        assert np.max(db_err) < 1e-5

    good = tmp_path / "good.chds"
    io._write_chds(good, 1, 4, 25.6e6, "label=x\n", [np.ones((1, 4), dtype=complex)])
    raw = bytearray(good.read_bytes())
    flipped = tmp_path / "flipped.chds"
    flipped.write_bytes(bytes([raw[0] ^ 0xFF]) + bytes(raw[1:]))
    with pytest.raises(BadMagicError):
        io.read_dataset(flipped)
    badver = tmp_path / "badver.chds"
    badver.write_bytes(bytes(raw[:4]) + b"\x07\x00" + bytes(raw[6:]))
    with pytest.raises(BadVersionError):
        io.read_dataset(badver)
    short = tmp_path / "short.chds"
    short.write_bytes(bytes(raw[:-3]))
    with pytest.raises(SizeMismatchError):
        io.read_dataset(short)
    odd = tmp_path / "odd.iq"
    odd.write_bytes(b"\x00\x00\x80\x3f" * 3)
    (tmp_path / "odd.iq.meta").write_text("sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n")
    with pytest.raises(CorruptFileError):
        io.IqReader(odd)
    alone = tmp_path / "alone.iq"
    alone.write_bytes(b"\x00\x00\x80\x3f" * 2)
    with pytest.raises(MissingSidecarError):
        io.IqReader(alone)
    report(8, "IQ/config/dataset/PDP round trips bit-exact; corrupt fixtures raise named errors")


def test_c09_determinism(tmp_path):
    """Seeded operations produce byte-identical outputs, however they are chunked."""
    preset = PRESETS["urban-nlos"]

    a = simulate_pdp(preset, 42)
    b = simulate_pdp(preset, 42)
    assert a.delays_s.tobytes() == b.delays_s.tobytes()
    assert a.powers_linear.tobytes() == b.powers_linear.tobytes()

    long = read_back(tmp_path, preset, gbsm.CHUNK_ROWS + 1, 7, "long.chds").snapshots
    short = read_back(tmp_path, preset, 16, 7, "short.chds").snapshots
    assert long[:16].tobytes() == short.tobytes()

    sig = IqSignal(np.ones(4096), 25.6e6)
    assert add_awgn(sig, 10.0, 3).samples.tobytes() == add_awgn(sig, 10.0, 3).samples.tobytes()

    first, second = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["simulate", "--config", "campus-nlos", "--seed", "9", "--pdp-out", str(first)]) == 0
    assert main(["simulate", "--config", "campus-nlos", "--seed", "9", "--pdp-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report(9, "simulate/dataset/AWGN/CLI outputs byte-identical across reruns and chunkings")


def test_c10_end_to_end_pipeline(tmp_path):
    """Full chain: sounding, synthetic channel, estimate, extract, simulate, compare."""
    started = time.monotonic()
    reps = ["--repetitions", "20"]

    tx_path = tmp_path / "tx.iq"
    assert main(["generate-sounding", "--out", str(tx_path)] + reps) == 0

    reader = io.IqReader(tx_path)
    tx = IqSignal(
        read_range(reader, 0, len(reader)), reader.sample_rate_hz, reader.center_frequency_hz
    )
    taps = np.zeros(9, dtype=complex)
    taps[0], taps[3], taps[8] = 1.0, 0.6, 0.3
    rx = add_awgn(apply_channel(tx, SyntheticChannel(taps)), 30.0, 5)
    rx_path = tmp_path / "rx.iq"
    io.write_iq(rx_path, rx)

    measured_csv = tmp_path / "measured.csv"
    assert main(["estimate", "--rx", str(rx_path), "--pdp-out", str(measured_csv)] + reps) == 0

    config_path = tmp_path / "scenario.cfg"
    assert (
        main(
            ["extract", "--pdp", str(measured_csv), "--los",
             "--out-config", str(config_path), "--defaults", "urban-los"]
        )
        == 0
    )

    simulated_csv = tmp_path / "simulated.csv"
    assert (
        main(
            ["simulate", "--config", str(config_path), "--seed", "1",
             "--pdp-out", str(simulated_csv)]
        )
        == 0
    )

    report_path = tmp_path / "report.txt"
    plot_path = tmp_path / "comparison.svg"
    assert (
        main(
            ["compare", "--measured", str(measured_csv), "--simulated", str(simulated_csv),
             "--report-out", str(report_path), "--plot-out", str(plot_path)]
        )
        == 0
    )

    values = io.read_report(report_path)
    elapsed = time.monotonic() - started
    assert values["ds_relative_error"] < 0.2
    assert plot_path.read_text().startswith("<svg")
    assert elapsed < 60.0
    report(
        10,
        f"pipeline smoke: ds_relative_error {values['ds_relative_error']:.3f} < 0.2 "
        f"(in {elapsed:.1f} s)",
    )
