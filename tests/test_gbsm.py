import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cirkit import __about__, gbsm
from cirkit.analysis import PowerDelayProfile, extract_parameters
from cirkit.cli import main
from cirkit.errors import ValidationError
from cirkit.gbsm import (
    PRESETS,
    ScenarioConfig,
    config_from_parameters,
    generate_dataset,
    simulate_pdp,
)
from cirkit.io import read_dataset

NS = 1e-9
URBAN_NLOS = PRESETS["urban-nlos"]
URBAN_LOS = PRESETS["urban-los"]


def cluster_sigma(delays, powers):
    """Direct Eq.-style reference on a discrete (delay, power) set."""
    total = sum(powers)
    m1 = sum(p * t for p, t in zip(powers, delays)) / total
    m2 = sum(p * t * t for p, t in zip(powers, delays)) / total
    return np.sqrt(max(m2 - m1 * m1, 0.0))


def large_scale(config, rows, seed=0):
    """(DS, K-factor in dB or None) of the first ``rows`` rows of the
    dataset stream of ``seed``."""
    width, _, _ = gbsm._layout(config)
    words = gbsm._stream_words(seed, gbsm.DATASET_STREAM, 0, rows, width)
    return gbsm._large_scale(words[:, gbsm.LARGE_SCALE], config)


def stream_clusters(config, rows, seed=0):
    """(DS, K-factor in dB or None, path delays, path powers) of the first
    ``rows`` rows of the dataset stream of ``seed``, as ``generate_dataset``
    draws them: columns 0 to K - 1 are the clusters, column K the LOS path."""
    _, delays, powers = gbsm._stream_block(config, seed, gbsm.DATASET_STREAM, 0, rows)
    return *large_scale(config, rows, seed), delays, powers


def read_back(tmp_path, config, count, seed, name="dataset.chds"):
    """The dataset file ``generate_dataset`` writes, read by ``read_dataset``."""
    path = tmp_path / name
    generate_dataset(config, count, seed, path)
    return read_dataset(path)


def render(pairs, phase_words):
    """One ``URBAN_NLOS`` CIR of the (delay_s, power) ``pairs`` and their
    phase words, without a LOS term."""
    delays, powers = np.array([*pairs, (0.0, 0.0)], dtype=float).T
    out = np.empty((1, URBAN_NLOS.cir_length_taps), np.complex128)
    return gbsm._render_block(delays[None], powers[None], np.reshape(phase_words, (1, -1)),
                              URBAN_NLOS, out)[0]


class TestScenarioConfig:
    def test_presets_match_measured_table(self):
        rows = {
            "urban-los": (45 * NS, 13.0, 15),
            "urban-nlos": (125 * NS, None, 19),
            "campus-los": (50 * NS, 21.0, 17),
            "campus-nlos": (175 * NS, None, 22),
        }
        for name, (ds, kf, clusters) in rows.items():
            preset = PRESETS[name]
            assert preset.ds_median_s == pytest.approx(ds)
            assert preset.kf_median_db == kf
            assert preset.num_clusters == clusters
            assert preset.los is (kf is not None)
            assert preset.sample_rate_hz == 25.6e6

    def test_los_requires_kf(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(URBAN_LOS, kf_median_db=None)

    def test_nlos_forbids_kf(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(URBAN_NLOS, kf_median_db=5.0)

    @pytest.mark.parametrize("field", ["num_clusters", "cir_length_taps"])
    def test_counts_bounded_by_a_dataset_header(self, field):
        largest = dataclasses.replace(URBAN_NLOS, **{field: 2**32 - 1})
        assert getattr(largest, field) == 2**32 - 1
        for value in (0, 2**32, int("9" * 30)):
            message = rf"^{field} must be in \[1, 4294967295\], got {value}$"
            with pytest.raises(ValidationError, match=message):
                dataclasses.replace(URBAN_NLOS, **{field: value})

    def test_r_tau_must_exceed_one(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(URBAN_NLOS, delay_proportionality_r_tau=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "ds_median_s",
            "ds_sigma_log10",
            "kf_median_db",
            "kf_sigma_db",
            "delay_proportionality_r_tau",
            "per_cluster_shadowing_db",
            "sample_rate_hz",
        ],
    )
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValidationError, match="must"):
            dataclasses.replace(URBAN_LOS, **{field: value})


class TestConfigFromParameters:
    def test_urban_nlos_row(self):
        from cirkit.analysis import ChannelParameters

        params = ChannelParameters(125 * NS, 100 * NS, 125e-9**2 + (100e-9) ** 2, None, 19)
        config = config_from_parameters(params, URBAN_NLOS)
        assert config.ds_median_s == pytest.approx(125 * NS)
        assert config.kf_median_db is None
        assert config.num_clusters == 19
        assert config.los is False

    def test_campus_los_row(self):
        from cirkit.analysis import ChannelParameters

        params = ChannelParameters(50 * NS, 80 * NS, 50e-9**2 + (80e-9) ** 2, 21.0, 17)
        config = config_from_parameters(params, PRESETS["campus-nlos"])
        assert config.ds_median_s == pytest.approx(50 * NS)
        assert config.kf_median_db == pytest.approx(21.0)
        assert config.num_clusters == 17
        assert config.los is True

    def test_idempotent_when_params_equal_defaults(self):
        from cirkit.analysis import ChannelParameters

        defaults = URBAN_NLOS
        params = ChannelParameters(
            defaults.ds_median_s,
            200 * NS,
            defaults.ds_median_s**2 + (200 * NS) ** 2,
            None,
            defaults.num_clusters,
        )
        assert config_from_parameters(params, defaults) == defaults

    def test_zero_clusters_rejected(self):
        from cirkit.analysis import ChannelParameters

        params = ChannelParameters(125 * NS, 0.0, 125e-9**2, None, 0)
        with pytest.raises(ValidationError, match="cluster_count"):
            config_from_parameters(params, URBAN_NLOS)


class TestDrawLargeScale:
    """The DS and K-factor of each dataset-stream row (``gbsm._large_scale``)."""

    def test_degenerate_spread_returns_medians(self):
        ds, kf = large_scale(URBAN_LOS, 20)
        np.testing.assert_allclose(ds, URBAN_LOS.ds_median_s, rtol=1e-12)
        np.testing.assert_allclose(kf, 13.0, rtol=0.0, atol=1e-12)

    def test_nlos_kf_always_absent(self):
        for seed in range(20):
            _, kf = large_scale(URBAN_NLOS, 1, seed)
            assert kf is None
        _, _, _, powers = stream_clusters(URBAN_NLOS, 20)
        assert not np.any(powers[:, -1])

    def test_median_of_lognormal_draws(self):
        config = dataclasses.replace(URBAN_NLOS, ds_sigma_log10=0.2)
        median = float(np.median(large_scale(config, 10_000)[0]))
        assert abs(median - 125 * NS) / (125 * NS) < 0.05

    @pytest.mark.parametrize(
        "preset, spread, value, seeds, snapshot",
        [
            # simulate seed 3 draws a DS that overflows, seed 4 one that underflows
            ("urban-nlos", "ds_sigma_log10", 400.0, (3, 4), 0),
            ("urban-los", "kf_sigma_db", 1e4, (4,), 1),
        ],
    )
    def test_extreme_spread_fails_by_name(self, tmp_path, preset, spread, value, seeds, snapshot):
        """A draw the cluster arithmetic cannot take fails before it is used,
        naming config, row and parameter; the suite's warning filter turns a
        RuntimeWarning on the way into an error."""
        config = dataclasses.replace(PRESETS[preset], **{spread: value})
        for seed in seeds:
            message = rf"^config '{preset}', cluster set of simulate seed {seed}: drawn .*{spread}="
            with pytest.raises(ValidationError, match=message):
                simulate_pdp(config, seed)
        message = rf"^config '{preset}', snapshot {snapshot}: drawn .*{spread}="
        with pytest.raises(ValidationError, match=message):
            generate_dataset(config, 300, 1, tmp_path / "x.chds")


class TestGenerateClusters:
    """The cluster sets of dataset-stream rows (``gbsm._stream_block``)."""

    def test_power_sums_to_one(self):
        _, _, _, powers = stream_clusters(URBAN_NLOS, 50)
        assert np.all(np.abs(powers[:, :-1].sum(axis=1) + powers[:, -1] - 1.0) < 1e-12)

    def test_ds_enforced_exactly(self):
        ds, _, all_delays, all_powers = stream_clusters(URBAN_NLOS, 50)
        for target, delays, powers in zip(ds, all_delays, all_powers):
            assert delays[-1] == 0.0
            sigma = cluster_sigma(list(delays), list(powers))
            assert abs(sigma - target) / target < 1e-9
            assert abs(sigma - 125 * NS) / (125 * NS) < 1e-9

    def test_los_ratio_identity(self):
        _, _, _, powers = stream_clusters(URBAN_LOS, 20, seed=7)
        scattered = powers[:, :-1].sum(axis=1)
        np.testing.assert_allclose(powers[:, -1] / scattered, 10**1.3, rtol=1e-12)

    def test_single_cluster_marker(self):
        # a single-cluster set has no spread to rescale: its one cluster
        # sits at delay 0 with all the power
        config = dataclasses.replace(URBAN_NLOS, num_clusters=1)
        _, _, delays, powers = stream_clusters(config, 20, seed=3)
        assert delays.shape == (20, 2)
        assert not np.any(delays)
        np.testing.assert_allclose(powers[:, 0], 1.0, rtol=1e-15)
        assert not np.any(powers[:, 1])

    def test_minimum_delay_is_zero(self):
        _, _, delays, _ = stream_clusters(URBAN_NLOS, 50, seed=11)
        assert np.all(delays[:, :-1].min(axis=1) == 0.0)

    def test_monotone_powers_without_shadowing(self):
        config = dataclasses.replace(URBAN_NLOS, per_cluster_shadowing_db=0.0)
        _, _, _, powers = stream_clusters(config, 20)
        assert np.all(np.diff(powers[:, :-1], axis=1) <= 0.0)

    def test_all_zero_delays_rejected(self, tmp_path):
        """A set that cannot spread fails naming config and row, from either
        entry point: 400 dB shadowing leaves all of a row's power on one of
        its two clusters."""
        config = dataclasses.replace(URBAN_NLOS, num_clusters=2, per_cluster_shadowing_db=400)
        degenerate = r": cluster set has no delay spread \(all power at one delay\); cannot scale$"
        with pytest.raises(ValidationError, match=r"^config 'urban-nlos', snapshot 0" + degenerate):
            generate_dataset(config, 10, 1, tmp_path / "x.chds")
        message = r"^config 'urban-nlos', cluster set of simulate seed 1" + degenerate
        with pytest.raises(ValidationError, match=message):
            simulate_pdp(config, 1)


class TestSynthesizeCir:
    """Hand-made cluster sets rendered by ``gbsm._render_block``."""

    def test_integer_delay_is_kernel_identity(self):
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        taps = render([(40 * step, 1.0)], [0.0])
        assert abs(abs(taps[40]) - 1.0) < 1e-6
        assert np.max(np.abs(np.delete(taps, 40))) < 1e-3

    def test_energy_bound_for_separated_clusters(self):
        # clusters at least 3 bins apart: energy deviations come from kernel
        # truncation, boundary clipping and residual tail interference
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        energies = []
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            bins = np.cumsum(rng.integers(3, 7, 8))
            frac = rng.uniform(0.0, 1.0, 8)
            delays = (bins - bins[0] + frac - frac[0]) * step
            raw = rng.uniform(0.2, 1.0, 8)
            powers = raw / raw.sum()
            phases = np.random.default_rng(np.random.SeedSequence([seed, 2])).random(8)
            taps = render(list(zip(delays, powers)), phases)
            energies.append(float(np.sum(np.abs(taps) ** 2)))
        assert min(energies) >= 0.89
        assert max(energies) <= 1.12

    def test_two_cluster_sigma_on_grid(self):
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        taps = render([(0.0, 0.5), (100 * NS, 0.5)], np.random.default_rng(1).random(2))
        pdp = PowerDelayProfile(np.arange(taps.size) * step, np.abs(taps) ** 2)
        sigma = cluster_sigma(pdp.delays_s, pdp.powers_linear)
        assert abs(sigma - 50 * NS) < 20 * NS
        assert step == pytest.approx(39.0625 * NS)

    def test_delay_overflow_rejected(self, tmp_path):
        # two clusters d apart have a DS of at most d / 2, so rescaled to a
        # 10 us DS they sit 20 us or more apart, past the 13.8 us CIR span,
        # in every draw
        config = dataclasses.replace(URBAN_NLOS, ds_median_s=10e-6, num_clusters=2)
        with pytest.raises(ValidationError, match="overflow"):
            generate_dataset(config, 1, 0, tmp_path / "x.chds")

    def test_phase_averaging_converges_to_cluster_power(self):
        # two clusters sharing the same bin neighbourhood interfere per
        # realization; the average over phases recovers the power sum
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        n = 10_000
        phases = np.array([
            np.random.default_rng(np.random.SeedSequence([3, 2, i])).random(2) for i in range(n)
        ])
        delays = np.broadcast_to([20 * step, 20.5 * step, 0.0], (n, 3))
        powers = np.broadcast_to([0.6, 0.4, 0.0], (n, 3))
        out = np.empty((n, URBAN_NLOS.cir_length_taps), np.complex128)
        taps = gbsm._render_block(delays, powers, phases, URBAN_NLOS, out)
        acc = np.mean(np.abs(taps) ** 2, axis=0)
        # per-cluster contributions rendered in isolation (magnitudes are
        # phase independent for a lone cluster)
        solo_a = render([(20 * step, 1.0)], [0.0])
        solo_b = render([(20.5 * step, 1.0)], [0.0])
        expected_bin20 = 0.6 * abs(solo_a[20]) ** 2 + 0.4 * abs(solo_b[20]) ** 2
        assert abs(acc[20] - expected_bin20) / expected_bin20 < 0.05


class TestSimulatePdp:
    def test_deterministic(self):
        a = simulate_pdp(URBAN_NLOS, 5)
        b = simulate_pdp(URBAN_NLOS, 5)
        np.testing.assert_array_equal(a.powers_linear, b.powers_linear)
        np.testing.assert_array_equal(a.delays_s, b.delays_s)

    def test_single_cluster_single_peak(self):
        config = dataclasses.replace(URBAN_NLOS, num_clusters=1)
        pdp = simulate_pdp(config, 0)
        assert int(np.argmax(pdp.powers_linear)) == 0
        assert pdp.powers_linear[0] == 1.0

    def test_zero_realizations_rejected(self, tmp_path, capsys):
        """``simulate --realizations`` is only checked; 0 still fails by name."""
        out = tmp_path / "x.csv"
        argv = ["simulate", "--config", "urban-nlos", "--realizations", "0", "--pdp-out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "cirkit simulate: simulate: --realizations must be >= 1\n"
        assert not out.exists()

    def test_closed_loop_ds_recovery(self):
        pdp = simulate_pdp(URBAN_NLOS, 7)
        params = extract_parameters(pdp, los_flag=False)
        assert abs(params.rms_delay_spread_s - 125 * NS) / (125 * NS) < 0.15


class TestGenerateDataset:
    def test_single_snapshot_shape(self, tmp_path):
        path = tmp_path / "one.chds"
        generate_dataset(URBAN_NLOS, 1, 0, path=path)
        ds = read_dataset(path)
        assert ds.snapshot_count == 1
        assert ds.cir_length_taps == URBAN_NLOS.cir_length_taps
        blob_len = len(ds.config_text.encode())
        assert path.stat().st_size == 26 + blob_len + 353 * 8

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.chds"
        b = tmp_path / "b.chds"
        generate_dataset(URBAN_NLOS, 5, 9, path=a)
        generate_dataset(URBAN_NLOS, 5, 9, path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_chunk_partition_does_not_change_output(self, tmp_path):
        long = tmp_path / "long.chds"
        short = tmp_path / "short.chds"
        generate_dataset(URBAN_NLOS, gbsm.CHUNK_ROWS + 1, 4, path=long)
        generate_dataset(URBAN_NLOS, 16, 4, path=short)
        prefix = read_dataset(long).snapshots[:16]
        assert prefix.tobytes() == read_dataset(short).snapshots.tobytes()

    def test_metadata_records_seed_and_version(self, tmp_path):
        ds = read_back(tmp_path, URBAN_NLOS, 1, 77)
        assert "# seed=77" in ds.config_text
        assert f"# generator_version={__about__.__version__}\n" in ds.config_text

    def test_package_version_matches_pyproject(self):
        # a regex, not tomllib: Python 3.10 has no TOML parser
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        [version] = re.findall(r'^version = "([^"]*)"$', text, flags=re.MULTILINE)
        assert version == __about__.__version__

    def test_snapshot_ds_distribution(self, tmp_path):
        # per-snapshot profiles are single realizations; the extracted DS
        # median over many snapshots stays near the configured median
        ds = read_back(tmp_path, URBAN_NLOS, 1000, 21)
        values = []
        delays = np.arange(URBAN_NLOS.cir_length_taps) * (1.0 / URBAN_NLOS.sample_rate_hz)
        for taps in ds.snapshots:
            pdp = PowerDelayProfile(delays, np.abs(taps) ** 2)
            params = extract_parameters(pdp, los_flag=False)
            values.append(params.rms_delay_spread_s)
        median = float(np.median(values))
        assert abs(median - 125 * NS) / (125 * NS) < 0.15

    def test_invalid_count_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_dataset(URBAN_NLOS, 0, 0, tmp_path / "x.chds")

    def test_count_beyond_file_header_rejected_before_allocating(self, tmp_path):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="count 4294967296"):
                generate_dataset(URBAN_NLOS, 2**32, 0, tmp_path / "x.chds")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_taps_beyond_file_header_rejected_before_allocating(self, tmp_path):
        # the config itself holds no more taps than a dataset header can
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^cir_length_taps must be in "
                               r"\[1, 4294967295\], got 5000000000$"):
                dataclasses.replace(URBAN_NLOS, cir_length_taps=5_000_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# two-sided Kolmogorov-Smirnov critical value at alpha = 0.01 is
# KS_C_ALPHA / sqrt(n) for large n, with KS_C_ALPHA = sqrt(ln(2 / alpha) / 2)
KS_ALPHA = 0.01
KS_C_ALPHA = math.sqrt(math.log(2.0 / KS_ALPHA) / 2.0)


def ks_distance_to_normal(values):
    x = np.sort(np.ravel(values))
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))


class TestSnapshotStreams:
    """The Box-Muller normals of 10^4 dataset rows against the normal CDF."""

    N = 10_000
    CONFIG = dataclasses.replace(URBAN_LOS, ds_sigma_log10=0.2, kf_sigma_db=3.0)

    def _rows(self):
        width, _, _ = gbsm._layout(self.CONFIG)
        return gbsm._stream_words(5, gbsm.DATASET_STREAM, 0, self.N, width)

    def test_ds_and_k_factor_normals(self):
        ds, kf = gbsm._large_scale(self._rows()[:, gbsm.LARGE_SCALE], self.CONFIG)
        z_ds = (np.log10(ds) - math.log10(self.CONFIG.ds_median_s)) / 0.2
        z_kf = (kf - self.CONFIG.kf_median_db) / 3.0
        bound = KS_C_ALPHA / math.sqrt(self.N)
        assert ks_distance_to_normal(z_ds) < bound
        assert ks_distance_to_normal(z_kf) < bound
        # DS and K of a row share one pair, as cos and sin: uncorrelated
        assert abs(np.corrcoef(z_ds, z_kf)[0, 1]) < 4.0 / math.sqrt(self.N)

    def test_shadowing_normals(self):
        _, clusters, _ = gbsm._layout(self.CONFIG)
        n_stoch = self.CONFIG.num_clusters
        z = gbsm._box_muller(self._rows()[:, clusters][:, n_stoch:])[:, :n_stoch]
        assert ks_distance_to_normal(z) < KS_C_ALPHA / math.sqrt(z.size)

    def test_snapshot_words_are_disjoint(self):
        width, clusters, phases = gbsm._layout(self.CONFIG)
        used = np.zeros(width, dtype=int)
        for words in (gbsm.LARGE_SCALE, clusters, phases):
            used[words] += 1
        assert used.max() == 1 and width % 4 == 0
        assert used.sum() == 2 + 15 + 16 + 15

    def test_prefix_for_any_count(self, tmp_path):
        full = read_back(tmp_path, URBAN_LOS, 3 * gbsm.CHUNK_ROWS + 5, 8, "full.chds").snapshots
        rng = np.random.default_rng(0)
        counts = {1, gbsm.CHUNK_ROWS, gbsm.CHUNK_ROWS + 1, *rng.integers(1, full.shape[0], 6)}
        for count in counts:
            short = read_back(tmp_path, URBAN_LOS, int(count), 8).snapshots
            assert short.tobytes() == full[:count].tobytes(), count


def test_check_seed_rejects_out_of_range(tmp_path):
    assert gbsm.check_seed(0) == 0
    assert gbsm.check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    for bad in (-1, 2**64, 1.0, True, "3"):
        with pytest.raises(ValidationError, match=r"\[0, 2\*\*64\)"):
            gbsm.check_seed(bad)
    with pytest.raises(ValidationError, match="seed"):
        generate_dataset(URBAN_NLOS, 1, -1, tmp_path / "x.chds")
    with pytest.raises(ValidationError, match="seed"):
        simulate_pdp(URBAN_NLOS, 2**64)
