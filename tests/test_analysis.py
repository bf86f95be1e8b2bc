import numpy as np
import pytest

from cirkit import gbsm
from cirkit.analysis import (
    ChannelParameters,
    PowerDelayProfile,
    compare_pdps,
    count_clusters,
    estimate_noise_floor,
    extract_parameters,
    k_factor,
    mean_excess_delay,
    normalize_pdp,
    rms_delay_spread,
    second_moment,
    threshold_pdp,
)
from cirkit.errors import EmptyProfileError, InternalConsistencyError, ValidationError

NS = 1e-9


def make_pdp(powers, step_s=39.0625 * NS, floor=None, start_s=0.0):
    powers = np.asarray(powers, dtype=float)
    delays = start_s + np.arange(powers.size) * step_s
    return PowerDelayProfile(delays, powers, floor)


def oracle_moments(pdp):
    """Direct-summation reference for the delay moments."""
    total = sum(pdp.powers_linear)
    m1 = sum(p * t for p, t in zip(pdp.powers_linear, pdp.delays_s)) / total
    m2 = sum(p * t * t for p, t in zip(pdp.powers_linear, pdp.delays_s)) / total
    return m1, m2


class TestPowerDelayProfile:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PowerDelayProfile([0.0, 1e-9], [1.0])

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            make_pdp([1.0, -0.1])

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValidationError):
            PowerDelayProfile([0.0, 1e-9, 3e-9], [1.0, 1.0, 1.0])

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValidationError):
            PowerDelayProfile([1e-9, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_delay_rejected(self, index, value):
        delays = [0.0, 1e-9, 2e-9]
        delays[index] = value
        with pytest.raises(ValidationError, match="PDP delay"):
            PowerDelayProfile(delays, [1.0, 1.0, 1.0])
        if index == 0:
            with pytest.raises(ValidationError, match="PDP delay"):
                PowerDelayProfile([value], [1.0])


class TestNoiseFloor:
    def test_constant_profile(self):
        pdp = make_pdp(np.full(32, 0.125))
        assert estimate_noise_floor(pdp) == pytest.approx(0.125, abs=0)

    def test_strong_tap_over_flat_floor(self):
        powers = np.full(100, 1e-4)
        powers[40] = 1.0
        assert estimate_noise_floor(make_pdp(powers)) == pytest.approx(1e-4, abs=1e-12)

    def test_exponential_profile_plus_floor(self):
        delays = np.arange(256) * 10 * NS
        powers = np.exp(-delays / (100 * NS)) + 1e-5
        pdp = PowerDelayProfile(delays, powers)
        floor = estimate_noise_floor(pdp)
        assert 0.5e-5 < floor < 2e-5

    def test_short_profile_rejected(self):
        with pytest.raises(ValidationError):
            estimate_noise_floor(make_pdp(np.ones(15)))


class TestThreshold:
    def test_all_above_unchanged(self):
        pdp = make_pdp(np.full(8, 1.0), floor=0.025)  # threshold ~0.1 at 6 dB
        out = threshold_pdp(pdp, 6.0)
        np.testing.assert_array_equal(out.powers_linear, pdp.powers_linear)

    def test_all_below_zeroed(self):
        pdp = make_pdp(np.full(8, 0.01), floor=1.0)
        out = threshold_pdp(pdp, 6.0)
        assert np.all(out.powers_linear == 0.0)
        assert len(out) == 8

    def test_exact_mask_oracle(self):
        rng = np.random.default_rng(0)
        powers = rng.uniform(0.0, 1.0, 64)
        pdp = make_pdp(powers, floor=0.1)
        out = threshold_pdp(pdp, 6.0)
        cut = 0.1 * 10 ** 0.6
        for original, now in zip(powers, out.powers_linear):
            assert now == (original if original >= cut else 0.0)

    def test_missing_floor_rejected(self):
        with pytest.raises(ValidationError):
            threshold_pdp(make_pdp([1.0, 1.0]))


class TestNormalize:
    def test_single_tap_shift_and_scale(self):
        pdp = PowerDelayProfile([3e-6], [4.0], noise_floor_linear=1e-6)
        out = normalize_pdp(pdp)
        assert out.delays_s[0] == 0.0
        assert out.powers_linear[0] == 1.0

    def test_first_peak_alignment(self):
        pdp = PowerDelayProfile([1e-6, 2e-6], [0.5, 1.0], noise_floor_linear=1e-6)
        out = normalize_pdp(pdp, 6.0)
        np.testing.assert_allclose(out.delays_s, [0.0, 1e-6])
        np.testing.assert_allclose(out.powers_linear, [0.5, 1.0])

    def test_all_below_threshold_rejected(self):
        pdp = make_pdp(np.full(4, 0.01), floor=1.0)
        with pytest.raises(EmptyProfileError):
            normalize_pdp(pdp)

    def test_floor_rescaled(self):
        pdp = PowerDelayProfile([0.0, 1e-6], [0.5, 4.0], noise_floor_linear=1e-3)
        out = normalize_pdp(pdp)
        assert out.noise_floor_linear == pytest.approx(1e-3 / 4.0)


class TestMoments:
    def test_single_tap_at_zero(self):
        pdp = PowerDelayProfile([0.0], [1.0])
        assert mean_excess_delay(pdp) == 0.0
        assert second_moment(pdp) == 0.0
        assert rms_delay_spread(pdp) == 0.0

    def test_equal_taps_symmetry(self):
        pdp = PowerDelayProfile([0.0, 100 * NS], [1.0, 1.0])
        assert mean_excess_delay(pdp) == pytest.approx(50 * NS, rel=1e-15)
        assert second_moment(pdp) == pytest.approx(5000 * NS**2, rel=1e-15)
        assert rms_delay_spread(pdp) == pytest.approx(50 * NS, rel=1e-15)

    def test_random_profile_against_oracle(self):
        rng = np.random.default_rng(1)
        pdp = make_pdp(rng.uniform(0.0, 1.0, 64))
        m1, m2 = oracle_moments(pdp)
        assert mean_excess_delay(pdp) == pytest.approx(m1, rel=1e-12)
        assert second_moment(pdp) == pytest.approx(m2, rel=1e-12)
        assert rms_delay_spread(pdp) == pytest.approx(np.sqrt(m2 - m1 * m1), rel=1e-12)

    def test_truncated_exponential_against_quadrature(self):
        # fine 1 ns grid; reference from 1000x denser trapezoid quadrature
        gamma = 125 * NS
        span = 2000 * NS
        delays = np.arange(0.0, span, 1 * NS)
        pdp = PowerDelayProfile(delays, np.exp(-delays / gamma))
        t = np.linspace(0.0, delays[-1], delays.size * 1000)
        w = np.exp(-t / gamma)
        m1 = np.trapezoid(w * t, t) / np.trapezoid(w, t)
        m2 = np.trapezoid(w * t * t, t) / np.trapezoid(w, t)
        sigma_ref = np.sqrt(m2 - m1 * m1)
        assert rms_delay_spread(pdp) == pytest.approx(sigma_ref, rel=5e-3)

    def test_zero_power_rejected(self):
        pdp = make_pdp([0.0, 0.0])
        for fn in (mean_excess_delay, second_moment, rms_delay_spread):
            with pytest.raises(ValidationError):
                fn(pdp)

    def test_extraction_moments_equal_the_public_functions(self):
        rng = np.random.default_rng(4)
        pdp = make_pdp(rng.uniform(0.0, 1.0, 64) ** 4, floor=1e-3)
        params = extract_parameters(pdp, los_flag=False)
        cleaned = normalize_pdp(threshold_pdp(pdp))
        assert params.mean_excess_delay_s == mean_excess_delay(cleaned)
        assert params.second_moment_s2 == second_moment(cleaned)
        assert params.rms_delay_spread_s == rms_delay_spread(cleaned)


class TestKFactor:
    def test_two_bin_definition(self):
        pdp = make_pdp([1.0, 0.05])
        assert k_factor(pdp) == pytest.approx(10 * np.log10(1 / 0.05), rel=1e-12)

    def test_equal_taps_strongest_vs_rest(self):
        # 20 equal bins: strongest path over the aggregate of the 19 others
        pdp = make_pdp(np.ones(20))
        assert k_factor(pdp) == pytest.approx(10 * np.log10(1 / 19), rel=1e-12)

    def test_single_survivor_absent(self):
        powers = np.zeros(8)
        powers[2] = 1.0
        assert k_factor(make_pdp(powers)) is None

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyProfileError):
            k_factor(make_pdp(np.zeros(4)))


class TestCountClusters:
    def test_single_tap(self):
        powers = np.full(32, 1e-6)
        powers[10] = 1.0
        pdp = make_pdp(powers, floor=1e-6)
        assert count_clusters(pdp) == 1

    def test_all_noise(self):
        rng = np.random.default_rng(2)
        pdp = make_pdp(rng.uniform(0.9e-6, 1.1e-6, 64), floor=1e-6)
        assert count_clusters(pdp, 6.0) == 0

    def test_synthetic_19_peaks(self):
        powers = np.full(80, 1e-3)
        positions = np.arange(2, 2 + 19 * 4, 4)
        powers[positions] = 1.0  # 10 dB above floor estimate would be fine; floor given
        pdp = make_pdp(powers, floor=1e-3)
        assert count_clusters(pdp, 6.0) == 19

    def test_boundary_peak_counted(self):
        powers = np.full(16, 1e-6)
        powers[0] = 1.0
        pdp = make_pdp(powers, floor=1e-6)
        assert count_clusters(pdp) == 1

    def test_separation_keeps_stronger(self):
        powers = np.full(32, 1e-6)
        powers[10] = 1.0
        powers[12] = 0.5
        pdp = make_pdp(powers, floor=1e-6)
        assert count_clusters(pdp, min_separation_bins=2) == 2
        assert count_clusters(pdp, min_separation_bins=3) == 1

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        powers = rng.uniform(0.0, 1.0, 64)
        a = make_pdp(powers, floor=0.05)
        b = make_pdp(powers * 123.0, floor=0.05 * 123.0)
        assert count_clusters(a) == count_clusters(b)

    def test_monotone_in_margin(self):
        rng = np.random.default_rng(4)
        pdp = make_pdp(rng.uniform(0.0, 1.0, 128), floor=0.02)
        counts = [count_clusters(pdp, margin) for margin in np.arange(0.0, 18.0, 1.5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestExtractParameters:
    def test_single_tap_profile(self):
        powers = np.zeros(32)
        powers[5] = 1.0
        params = extract_parameters(make_pdp(powers), los_flag=True)
        assert params.rms_delay_spread_s == 0.0
        assert params.cluster_count == 1
        assert params.k_factor_db is None

    def test_composition_oracle(self):
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.0, 1.0, 64) ** 4
        pdp = make_pdp(powers)
        params = extract_parameters(pdp, los_flag=True)
        manual = pdp.with_noise_floor(estimate_noise_floor(pdp))
        manual = normalize_pdp(threshold_pdp(manual, 6.0), 6.0)
        assert params.mean_excess_delay_s == mean_excess_delay(manual)
        assert params.second_moment_s2 == second_moment(manual)
        assert params.rms_delay_spread_s == rms_delay_spread(manual)
        assert params.k_factor_db == k_factor(manual)
        assert params.cluster_count == count_clusters(manual, 6.0)

    def test_nlos_never_reports_k_factor(self):
        rng = np.random.default_rng(6)
        params = extract_parameters(make_pdp(rng.uniform(0, 1, 64)), los_flag=False)
        assert params.k_factor_db is None


class TestInvarianceProperties:
    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        powers = rng.uniform(0.0, 1.0, 64)
        a = make_pdp(powers, floor=0.01)
        b = make_pdp(powers * 7.5, floor=0.075)
        assert mean_excess_delay(a) == pytest.approx(mean_excess_delay(b), rel=1e-12)
        assert second_moment(a) == pytest.approx(second_moment(b), rel=1e-12)
        assert rms_delay_spread(a) == pytest.approx(rms_delay_spread(b), rel=1e-12)
        assert k_factor(a) == pytest.approx(k_factor(b), rel=1e-12)
        assert count_clusters(a) == count_clusters(b)

    def test_delay_shift_covariance(self):
        rng = np.random.default_rng(8)
        powers = rng.uniform(0.0, 1.0, 64)
        shift = 500 * NS
        a = make_pdp(powers)
        b = make_pdp(powers, start_s=shift)
        assert mean_excess_delay(b) == pytest.approx(mean_excess_delay(a) + shift, rel=1e-12)
        assert rms_delay_spread(b) == pytest.approx(rms_delay_spread(a), rel=1e-9)


class TestChannelParameters:
    def test_inconsistent_moments_rejected(self):
        # sigma^2 should be 1e-14 here, not 2.5e-15
        with pytest.raises(InternalConsistencyError):
            ChannelParameters(
                rms_delay_spread_s=5e-8,
                mean_excess_delay_s=1e-7,
                second_moment_s2=2e-14,
                k_factor_db=None,
                cluster_count=1,
            )


class TestComparePdps:
    def _normalized(self, powers, floor=None):
        pdp = make_pdp(powers, floor=floor)
        if pdp.noise_floor_linear is None:
            pdp = pdp.with_noise_floor(estimate_noise_floor(pdp))
        return normalize_pdp(pdp)

    def test_identical_profiles(self):
        rng = np.random.default_rng(9)
        powers = rng.uniform(0.01, 1.0, 64)
        a = self._normalized(powers)
        b = self._normalized(powers)
        report = compare_pdps(a, b)
        assert report.ds_error_s == 0.0
        assert report.ds_relative_error == 0.0
        assert report.cluster_count_diff == 0
        assert report.mean_abs_db_deviation == 0.0

    def test_shift_removed_by_normalization(self):
        rng = np.random.default_rng(10)
        body = rng.uniform(0.2, 1.0, 48)
        floor_bins = np.full(16, 1e-6)
        plain = np.concatenate([body, floor_bins])
        shifted = np.concatenate([floor_bins, body, floor_bins])
        report = compare_pdps(self._normalized(plain), self._normalized(shifted))
        assert report.ds_error_s == pytest.approx(0.0, abs=1e-20)
        assert report.cluster_count_diff == 0
        assert report.mean_abs_db_deviation == pytest.approx(0.0, abs=1e-9)

    def test_mixed_grids_resampled_nearest_bin(self):
        # same two-peak shape on a fine and a half-rate grid
        fine_powers = np.full(64, 1e-6)
        fine_powers[0] = 1.0
        fine_powers[8] = 0.5
        coarse_powers = np.full(32, 1e-6)
        coarse_powers[0] = 1.0
        coarse_powers[4] = 0.5
        step = 39.0625 * NS
        fine = normalize_pdp(
            PowerDelayProfile(np.arange(64) * step, fine_powers, 1e-6)
        )
        coarse = normalize_pdp(
            PowerDelayProfile(np.arange(32) * 2 * step, coarse_powers, 1e-6)
        )
        report = compare_pdps(fine, coarse)
        assert report.ds_error_s == pytest.approx(0.0, abs=1e-20)
        assert report.cluster_count_diff == 0
        # nearest-bin duplication of the coarse peak makes a nonzero but
        # finite dB deviation; the grid halves so it cannot be zero
        assert np.isfinite(report.mean_abs_db_deviation)

    def test_two_generator_draws_agree_on_ds(self):
        preset = gbsm.PRESETS["urban-nlos"]
        a = gbsm.simulate_pdp(preset, 1, 100)
        b = gbsm.simulate_pdp(preset, 2, 100)
        report = compare_pdps(a, b)
        assert report.ds_relative_error < 0.1

    def test_unnormalized_rejected(self):
        pdp = make_pdp([4.0, 1.0], floor=0.1)
        with pytest.raises(ValidationError, match="normalized"):
            compare_pdps(pdp, pdp)
