import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cirkit import gbsm
from cirkit.analysis import extract_parameters
from cirkit.errors import ValidationError
from cirkit.gbsm import (
    PRESETS,
    Cluster,
    ClusterSet,
    ScenarioConfig,
    config_from_parameters,
    draw_large_scale,
    generate_clusters,
    generate_dataset,
    simulate_pdp,
    synthesize_cir,
)
from cirkit.io import read_dataset
from cirkit.sounder import ChannelImpulseResponse, average_pdp

NS = 1e-9
URBAN_NLOS = PRESETS["urban-nlos"]
URBAN_LOS = PRESETS["urban-los"]


def cluster_sigma(delays, powers):
    """Direct Eq.-style reference on a discrete (delay, power) set."""
    total = sum(powers)
    m1 = sum(p * t for p, t in zip(powers, delays)) / total
    m2 = sum(p * t * t for p, t in zip(powers, delays)) / total
    return np.sqrt(max(m2 - m1 * m1, 0.0))


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

    def test_r_tau_must_exceed_one(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(URBAN_NLOS, delay_proportionality_r_tau=1.0)

    def test_fixed_cluster_must_fit_span(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(URBAN_NLOS, fixed_clusters=((20e-6, 1.0),))

    def test_num_clusters_covers_fixed(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(
                URBAN_NLOS, num_clusters=1, fixed_clusters=((0.0, 1.0), (1e-7, 1.0))
            )

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

    @pytest.mark.parametrize(
        "pair", [(math.nan, 1.0), (math.inf, 1.0), (1e-7, math.nan), (1e-7, math.inf)]
    )
    def test_non_finite_fixed_cluster_rejected(self, pair):
        with pytest.raises(ValidationError, match="fixed cluster"):
            dataclasses.replace(URBAN_NLOS, fixed_clusters=(pair,))


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
    def test_degenerate_spread_returns_medians(self):
        ds, kf = draw_large_scale(URBAN_LOS, 0)
        assert ds == pytest.approx(URBAN_LOS.ds_median_s, rel=1e-12)
        assert kf == pytest.approx(13.0, abs=1e-12)

    def test_nlos_kf_always_absent(self):
        for seed in range(20):
            _, kf = draw_large_scale(URBAN_NLOS, seed)
            assert kf is None

    def test_median_of_lognormal_draws(self):
        config = dataclasses.replace(URBAN_NLOS, ds_sigma_log10=0.2)
        rng_draws = [
            draw_large_scale(config, np.random.SeedSequence([0, i]))[0] for i in range(10_000)
        ]
        median = float(np.median(rng_draws))
        assert abs(median - 125 * NS) / (125 * NS) < 0.05


class TestGenerateClusters:
    def test_power_sums_to_one(self):
        for seed in range(50):
            cs = generate_clusters(125 * NS, None, URBAN_NLOS, seed)
            total = sum(c.power_linear for c in cs.clusters) + cs.los_power_linear
            assert abs(total - 1.0) < 1e-12

    def test_ds_enforced_exactly(self):
        for seed in range(50):
            cs = generate_clusters(125 * NS, None, URBAN_NLOS, seed)
            sigma = cluster_sigma(
                list(cs.delays) + [0.0], list(cs.powers) + [cs.los_power_linear]
            )
            assert abs(sigma - 125 * NS) / (125 * NS) < 1e-9
            assert cs.ds_enforcement == gbsm.ENFORCEMENT_EXACT

    def test_los_ratio_identity(self):
        cs = generate_clusters(45 * NS, 13.0, URBAN_LOS, 7)
        scattered = sum(c.power_linear for c in cs.clusters)
        assert cs.los_power_linear / scattered == pytest.approx(10 ** 1.3, rel=1e-12)

    def test_single_cluster_marker(self):
        config = dataclasses.replace(URBAN_NLOS, num_clusters=1)
        cs = generate_clusters(125 * NS, None, config, 3)
        assert cs.ds_enforcement == gbsm.ENFORCEMENT_SINGLE_CLUSTER
        assert len(cs.clusters) == 1
        assert cs.clusters[0].delay_s == 0.0
        assert cs.clusters[0].power_linear == pytest.approx(1.0)
        assert cs.rms_delay_spread() == 0.0

    def test_minimum_delay_is_zero(self):
        cs = generate_clusters(125 * NS, None, URBAN_NLOS, 11)
        assert min(c.delay_s for c in cs.clusters) == 0.0

    def test_monotone_powers_without_shadowing(self):
        config = dataclasses.replace(URBAN_NLOS, per_cluster_shadowing_db=0.0)
        for seed in range(20):
            cs = generate_clusters(125 * NS, None, config, seed)
            powers = [c.power_linear for c in cs.clusters]
            assert all(a >= b for a, b in zip(powers, powers[1:]))

    def test_fixed_clusters_scale_in_exact_mode(self):
        config = dataclasses.replace(
            URBAN_NLOS, fixed_clusters=((200 * NS, 0.3), (90 * NS, 0.1))
        )
        cs = generate_clusters(125 * NS, None, config, 5)
        assert cs.ds_enforcement == gbsm.ENFORCEMENT_EXACT
        assert abs(cs.rms_delay_spread() - 125 * NS) / (125 * NS) < 1e-9

    def test_preserve_fixed_delays(self):
        config = dataclasses.replace(
            URBAN_NLOS, fixed_clusters=((200 * NS, 0.3), (90 * NS, 0.1))
        )
        for seed in range(20):
            cs = generate_clusters(125 * NS, None, config, seed, preserve_fixed_delays=True)
            assert cs.ds_enforcement == gbsm.ENFORCEMENT_RELAXED_FIXED
            fixed = sorted(c.delay_s for c in cs.clusters if c.fixed)
            assert fixed == pytest.approx([90 * NS, 200 * NS], rel=1e-12)
            assert abs(cs.rms_delay_spread() - 125 * NS) / (125 * NS) < 0.05

    def test_fixed_power_ratio_preserved(self):
        config = dataclasses.replace(
            URBAN_NLOS, fixed_clusters=((200 * NS, 0.3), (90 * NS, 0.1))
        )
        cs = generate_clusters(125 * NS, None, config, 5)
        fixed = sorted(
            ((c.delay_s, c.power_linear) for c in cs.clusters if c.fixed),
            key=lambda item: item[0],
        )
        assert fixed[1][1] / fixed[0][1] == pytest.approx(3.0, rel=1e-12)

    def test_all_zero_delays_rejected(self):
        config = dataclasses.replace(
            URBAN_NLOS, num_clusters=2, fixed_clusters=((0.0, 1.0), (0.0, 2.0))
        )
        with pytest.raises(ValidationError, match="degenerate"):
            generate_clusters(125 * NS, None, config, 0)


class TestSynthesizeCir:
    def _manual_set(self, pairs, los=0.0):
        clusters = tuple(Cluster(d, p, False) for d, p in pairs)
        return ClusterSet(clusters, los, gbsm.ENFORCEMENT_EXACT)

    def test_integer_delay_is_kernel_identity(self):
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        cs = self._manual_set([(40 * step, 1.0)])
        [taps] = synthesize_cir(cs, URBAN_NLOS, 0).taps
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
            cs = self._manual_set(list(zip(delays, powers)))
            cir = synthesize_cir(cs, URBAN_NLOS, np.random.SeedSequence([seed, 2]))
            energies.append(float(np.sum(np.abs(cir.taps) ** 2)))
        assert min(energies) >= 0.89
        assert max(energies) <= 1.12

    def test_two_cluster_sigma_on_grid(self):
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        cs = self._manual_set([(0.0, 0.5), (100 * NS, 0.5)])
        cir = synthesize_cir(cs, URBAN_NLOS, 1)
        pdp = average_pdp(cir)
        sigma = cluster_sigma(pdp.delays_s, pdp.powers_linear)
        assert abs(sigma - 50 * NS) < 20 * NS
        assert step == pytest.approx(39.0625 * NS)

    def test_delay_overflow_rejected(self):
        cs = self._manual_set([(13.9e-6, 1.0)])
        with pytest.raises(ValidationError, match="overflow"):
            synthesize_cir(cs, URBAN_NLOS, 0)

    def test_phase_averaging_converges_to_cluster_power(self):
        # two clusters sharing the same bin neighbourhood interfere per
        # realization; the average over phases recovers the power sum
        step = 1.0 / URBAN_NLOS.sample_rate_hz
        cs = self._manual_set([(20 * step, 0.6), (20.5 * step, 0.4)])
        acc = np.zeros(URBAN_NLOS.cir_length_taps)
        n = 10_000
        for i in range(n):
            cir = synthesize_cir(cs, URBAN_NLOS, np.random.SeedSequence([3, 2, i]))
            acc += np.abs(cir.taps[0]) ** 2
        acc /= n
        # per-cluster contributions rendered in isolation (magnitudes are
        # phase independent for a lone cluster)
        solo_a = synthesize_cir(self._manual_set([(20 * step, 1.0)]), URBAN_NLOS, 0)
        solo_b = synthesize_cir(self._manual_set([(20.5 * step, 1.0)]), URBAN_NLOS, 0)
        expected_bin20 = 0.6 * abs(solo_a.taps[0, 20]) ** 2 + 0.4 * abs(solo_b.taps[0, 20]) ** 2
        assert abs(acc[20] - expected_bin20) / expected_bin20 < 0.05


class TestSimulatePdp:
    def test_deterministic(self):
        a = simulate_pdp(URBAN_NLOS, 5, 16)
        b = simulate_pdp(URBAN_NLOS, 5, 16)
        np.testing.assert_array_equal(a.powers_linear, b.powers_linear)
        np.testing.assert_array_equal(a.delays_s, b.delays_s)

    def test_single_cluster_single_peak(self):
        config = dataclasses.replace(URBAN_NLOS, num_clusters=1)
        pdp = simulate_pdp(config, 0, 1)
        assert int(np.argmax(pdp.powers_linear)) == 0
        assert pdp.powers_linear[0] == 1.0

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValidationError):
            simulate_pdp(URBAN_NLOS, 0, 0)

    def test_closed_loop_ds_recovery(self):
        pdp = simulate_pdp(URBAN_NLOS, 7, 100)
        params = extract_parameters(pdp, los_flag=False)
        assert abs(params.rms_delay_spread_s - 125 * NS) / (125 * NS) < 0.15


class TestGenerateDataset:
    def test_single_snapshot_shape(self, tmp_path):
        path = tmp_path / "one.chds"
        ds = generate_dataset(URBAN_NLOS, 1, 0, path=path)
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
        ds = generate_dataset(URBAN_NLOS, 1, 77)
        assert "# seed=77" in ds.config_text
        assert "# generator_version=" in ds.config_text

    def test_snapshot_ds_distribution(self):
        # per-snapshot profiles are single realizations; the extracted DS
        # median over many snapshots stays near the configured median
        ds = generate_dataset(URBAN_NLOS, 1000, 21)
        values = []
        for taps in ds.snapshots:
            pdp = average_pdp(ChannelImpulseResponse([taps], 1.0 / URBAN_NLOS.sample_rate_hz))
            params = extract_parameters(pdp, los_flag=False)
            values.append(params.rms_delay_spread_s)
        median = float(np.median(values))
        assert abs(median - 125 * NS) / (125 * NS) < 0.15

    def test_invalid_count_rejected(self):
        with pytest.raises(ValidationError):
            generate_dataset(URBAN_NLOS, 0, 0)

    def test_count_beyond_file_header_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="count 4294967296"):
                generate_dataset(URBAN_NLOS, 2**32, 0)
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

    def test_prefix_for_any_count(self):
        full = generate_dataset(URBAN_LOS, 3 * gbsm.CHUNK_ROWS + 5, 8).snapshots
        rng = np.random.default_rng(0)
        counts = {1, gbsm.CHUNK_ROWS, gbsm.CHUNK_ROWS + 1, *rng.integers(1, full.shape[0], 6)}
        for count in counts:
            short = generate_dataset(URBAN_LOS, int(count), 8).snapshots
            assert short.tobytes() == full[:count].tobytes(), count


def test_check_seed_rejects_out_of_range():
    assert gbsm.check_seed(0) == 0
    assert gbsm.check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    for bad in (-1, 2**64, 1.0, True, "3"):
        with pytest.raises(ValidationError, match=r"\[0, 2\*\*64\)"):
            gbsm.check_seed(bad)
    with pytest.raises(ValidationError, match="seed"):
        generate_dataset(URBAN_NLOS, 1, -1)
    with pytest.raises(ValidationError, match="seed"):
        simulate_pdp(URBAN_NLOS, 2**64, 1)


def test_single_row_functions_check_integer_seeds():
    clusters = generate_clusters(50 * NS, None, URBAN_NLOS, 1)
    calls = {
        "draw_large_scale": lambda seed: draw_large_scale(URBAN_LOS, seed),
        "generate_clusters": lambda seed: generate_clusters(50 * NS, None, URBAN_NLOS, seed),
        "synthesize_cir": lambda seed: synthesize_cir(clusters, URBAN_NLOS, seed),
    }
    for name, call in calls.items():
        for bad in (-1, 2**64):
            with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                call(bad)
        call(np.random.SeedSequence([4, 2]))  # taken as it is
        call(np.uint64(2**64 - 1))
    spread = dataclasses.replace(URBAN_LOS, ds_sigma_log10=0.2, kf_sigma_db=3.0)
    assert draw_large_scale(spread, 7) == draw_large_scale(spread, np.random.SeedSequence(7))
    assert draw_large_scale(spread, 7) != draw_large_scale(spread, 8)
