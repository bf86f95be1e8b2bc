import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cirkit import gbsm
from cirkit.analysis import (
    ChannelParameters,
    PowerDelayProfile,
    _k_factor,
    _kept,
    _statistics,
    compare_pdps,
    discrete_delay_spread,
    estimate_noise_floor,
    extract_parameters,
    noise_threshold,
    normalize_pdp,
)
from cirkit.errors import EmptyProfileError, InternalConsistencyError, ValidationError
from cirkit.sounder import CHUNK_ROWS, add_rows

NS = 1e-9


def make_pdp(powers, step_s=39.0625 * NS, start_s=0.0):
    powers = np.asarray(powers, dtype=float)
    delays = start_s + np.arange(powers.size) * step_s
    return PowerDelayProfile(delays, powers)


def above(floor, margin_db=6.0):
    """The threshold ``margin_db`` above a known noise floor."""
    return floor * 10.0 ** (margin_db / 10.0)


def cleaned_profile(pdp):
    """``pdp`` thresholded and normalized as ``extract_parameters`` does."""
    threshold = noise_threshold(pdp)
    kept = PowerDelayProfile(pdp.delays_s, _kept(pdp.powers_linear, threshold))
    return normalize_pdp(kept, threshold)


def spread(pdp):
    """The RMS delay spread of every bin of ``pdp``, by the one formula."""
    return float(discrete_delay_spread(pdp.delays_s, pdp.powers_linear))


def statistics(pdp, threshold):
    """(m1, m2, DS, count) of ``pdp`` above ``threshold``: the step that
    ``extract_parameters`` and ``compare_pdps`` share."""
    return _statistics(pdp.delays_s, _kept(pdp.powers_linear, threshold), threshold)


def count(pdp, threshold):
    return statistics(pdp, threshold)[3]


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

    @pytest.mark.parametrize("bins", [2, 4096, 8192, 65536])
    @pytest.mark.parametrize("rate_hz", [25.6e6, 100e6, 3e6])
    def test_long_uniform_grid_accepted(self, bins, rate_hz):
        # float64 rounding of n / fs grows with n; 8192 bins at 25.6 MS/s
        # was once rejected as not uniform
        pdp = PowerDelayProfile(np.arange(bins) / rate_hz, np.ones(bins))
        assert len(pdp) == bins
        powers = np.r_[np.zeros(5000), np.ones(3192)]
        normalized = normalize_pdp(make_pdp(powers, 1 / rate_hz), above(0.1))
        assert len(normalized) == 3192

    def test_long_grid_with_one_bad_step_rejected(self):
        delays = np.arange(8192) / 25.6e6
        delays[4000] += 1e-6 * delays[1]
        with pytest.raises(ValidationError, match="not uniform"):
            PowerDelayProfile(delays, np.ones(8192))

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

    def test_frozen_float64_adopted_writable_copied(self):
        delays = np.arange(4) * 1e-9
        powers = np.ones(4)
        delays.setflags(write=False)
        pdp = PowerDelayProfile(delays, powers)
        assert np.shares_memory(pdp.delays_s, delays)
        assert not np.shares_memory(pdp.powers_linear, powers)
        assert not pdp.powers_linear.flags.writeable
        powers[0] = 0.0
        assert pdp.powers_linear[0] == 1.0


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

    def test_short_profile_has_zero_floor(self):
        pdp = make_pdp(np.ones(15))
        assert estimate_noise_floor(pdp) == 0.0
        assert noise_threshold(pdp) == 0.0

    def test_threshold_is_margin_above_floor(self):
        pdp = make_pdp(np.full(32, 0.125))
        assert noise_threshold(pdp) == 0.125 * 10**0.6 == above(0.125)


class TestThreshold:
    def test_all_above_unchanged(self):
        pdp = make_pdp(np.full(8, 1.0))
        out = _kept(pdp.powers_linear, above(0.025))  # ~0.1
        np.testing.assert_array_equal(out, pdp.powers_linear)

    def test_all_below_zeroed(self):
        pdp = make_pdp(np.full(8, 0.01))
        out = _kept(pdp.powers_linear, above(1.0))
        assert np.all(out == 0.0)
        assert len(out) == 8

    def test_exact_mask_oracle(self):
        rng = np.random.default_rng(0)
        powers = rng.uniform(0.0, 1.0, 64)
        pdp = make_pdp(powers)
        out = _kept(pdp.powers_linear, above(0.1))
        cut = 0.1 * 10 ** 0.6
        for original, now in zip(powers, out):
            assert now == (original if original >= cut else 0.0)

    def test_short_profile_keeps_every_bin(self):
        pdp = make_pdp([1.0, 0.0, 1e-300])
        out = _kept(pdp.powers_linear, noise_threshold(pdp))
        np.testing.assert_array_equal(out, pdp.powers_linear)


class TestNormalize:
    def test_single_tap_shift_and_scale(self):
        pdp = PowerDelayProfile([3e-6], [4.0])
        out = normalize_pdp(pdp, above(1e-6))
        assert out.delays_s[0] == 0.0
        assert out.powers_linear[0] == 1.0

    def test_first_peak_alignment(self):
        pdp = PowerDelayProfile([1e-6, 2e-6], [0.5, 1.0])
        out = normalize_pdp(pdp, above(1e-6))
        np.testing.assert_allclose(out.delays_s, [0.0, 1e-6])
        np.testing.assert_allclose(out.powers_linear, [0.5, 1.0])

    def test_all_below_threshold_rejected(self):
        pdp = make_pdp(np.full(4, 0.01))
        with pytest.raises(EmptyProfileError):
            normalize_pdp(pdp, above(1.0))

    def test_floor_rescaled(self):
        # no bin dropped and a peak of 4: the floor of the normalized
        # profile is the raw floor over the peak, exactly
        powers = np.random.default_rng(11).uniform(1e-3, 4.0, 64)
        powers[0] = 4.0
        pdp = make_pdp(powers)
        out = normalize_pdp(pdp, noise_threshold(pdp))
        assert len(out) == len(pdp)
        assert estimate_noise_floor(out) == estimate_noise_floor(pdp) / 4.0


class TestMoments:
    def test_single_tap_at_zero(self):
        pdp = PowerDelayProfile([0.0], [1.0])
        params = extract_parameters(pdp, los_flag=False)
        assert params.mean_excess_delay_s == 0.0
        assert params.second_moment_s2 == 0.0
        assert params.rms_delay_spread_s == 0.0
        assert spread(pdp) == 0.0

    def test_equal_taps_symmetry(self):
        pdp = PowerDelayProfile([0.0, 100 * NS], [1.0, 1.0])
        params = extract_parameters(pdp, los_flag=False)
        assert params.mean_excess_delay_s == pytest.approx(50 * NS, rel=1e-15)
        assert params.second_moment_s2 == pytest.approx(5000 * NS**2, rel=1e-15)
        assert params.rms_delay_spread_s == pytest.approx(50 * NS, rel=1e-15)
        assert spread(pdp) == pytest.approx(50 * NS, rel=1e-15)

    def test_random_profile_against_oracle(self):
        rng = np.random.default_rng(1)
        pdp = make_pdp(rng.uniform(0.0, 1.0, 64))
        m1, m2 = oracle_moments(pdp)
        assert spread(pdp) == pytest.approx(np.sqrt(m2 - m1 * m1), rel=1e-12)
        params = extract_parameters(pdp, los_flag=False)
        m1, m2 = oracle_moments(cleaned_profile(pdp))
        assert params.mean_excess_delay_s == pytest.approx(m1, rel=1e-12)
        assert params.second_moment_s2 == pytest.approx(m2, rel=1e-12)
        assert params.rms_delay_spread_s == pytest.approx(np.sqrt(m2 - m1 * m1), rel=1e-12)

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
        assert spread(pdp) == pytest.approx(sigma_ref, rel=5e-3)

    def test_zero_power_rejected(self):
        pdp = make_pdp([0.0, 0.0])
        with pytest.raises(ValidationError, match="zero total power"):
            statistics(pdp, 0.0)
        with pytest.raises(ValidationError):
            extract_parameters(pdp, los_flag=False)

    def test_extraction_moments_equal_the_public_functions(self):
        rng = np.random.default_rng(4)
        pdp = make_pdp(rng.uniform(0.0, 1.0, 64) ** 4)
        params = extract_parameters(pdp, los_flag=False)
        cleaned = cleaned_profile(pdp)
        m1, m2 = oracle_moments(cleaned)
        assert params.mean_excess_delay_s == pytest.approx(m1, rel=1e-12)
        assert params.second_moment_s2 == pytest.approx(m2, rel=1e-12)
        assert params.rms_delay_spread_s == spread(cleaned)

    # equal delays: m2 - m1^2 is 0 in exact arithmetic and rounds below it,
    # at 300 ns by 1.3e-29 s^2 and at 10 s by 1.4e-14 s^2
    RADICAND_BELOW_ZERO = [
        (3e-7, [0.13687617154257523, 0.1148748719756762]),
        (10.0, [1 / 3, 2 / 3]),
    ]

    def test_radicand_below_zero_spreads_zero(self):
        block_delays, block_powers = [], []
        for delay, powers in self.RADICAND_BELOW_ZERO:
            delays, powers = np.full(2, delay), np.array(powers)
            m1 = np.sum(powers * delays) / powers.sum()
            assert np.sum(powers * delays**2) / powers.sum() - m1 * m1 < 0.0
            assert discrete_delay_spread(delays, powers) == 0.0
            assert _statistics(delays, powers, 0.0)[2] == 0.0
            block_delays.append(delays)
            block_powers.append(powers)
        spreads = discrete_delay_spread(np.array(block_delays), np.array(block_powers))
        assert spreads.tolist() == [0.0, 0.0]


class TestKFactor:
    def test_two_bin_definition(self):
        kf = _k_factor(np.array([1.0, 0.05]))
        assert kf == pytest.approx(10 * np.log10(1 / 0.05), rel=1e-12)
        # under 16 bins nothing is thresholded away
        params = extract_parameters(make_pdp([1.0, 0.05]), los_flag=True)
        assert params.k_factor_db == kf

    def test_equal_taps_strongest_vs_rest(self):
        # 20 equal bins: strongest path over the aggregate of the 19 others
        assert _k_factor(np.ones(20)) == pytest.approx(10 * np.log10(1 / 19), rel=1e-12)

    def test_single_survivor_unbounded(self):
        powers = np.zeros(8)
        powers[2] = 1.0
        assert _k_factor(powers) == np.inf

    def test_rest_below_rounding_unbounded(self):
        # 1 + 1e-20 rounds to 1: the other survivor leaves no scattered power
        assert _k_factor(np.array([1.0, 1e-20])) == np.inf
        assert extract_parameters(make_pdp([1.0, 1e-20]), los_flag=True).k_factor_db == np.inf

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyProfileError):
            _k_factor(np.zeros(4))


class TestCountClusters:
    def test_single_tap(self):
        powers = np.full(32, 1e-6)
        powers[10] = 1.0
        pdp = make_pdp(powers)
        assert count(pdp, above(1e-6)) == 1

    def test_all_noise(self):
        rng = np.random.default_rng(2)
        pdp = make_pdp(rng.uniform(0.9e-6, 1.1e-6, 64))
        # noise alone leaves nothing to count: no bin reaches the statistics
        assert not np.any(_kept(pdp.powers_linear, above(1e-6)))
        with pytest.raises(ValidationError, match="zero total power"):
            statistics(pdp, above(1e-6))
        with pytest.raises(EmptyProfileError):
            extract_parameters(pdp, los_flag=False)

    def test_synthetic_19_peaks(self):
        powers = np.full(80, 1e-3)
        positions = np.arange(2, 2 + 19 * 4, 4)
        powers[positions] = 1.0  # 10 dB above floor estimate would be fine; floor given
        pdp = make_pdp(powers)
        assert count(pdp, above(1e-3)) == 19

    def test_boundary_peak_counted(self):
        powers = np.full(16, 1e-6)
        powers[0] = 1.0
        pdp = make_pdp(powers)
        assert count(pdp, above(1e-6)) == 1

    def test_peaks_two_bins_apart_both_counted(self):
        powers = np.full(32, 1e-6)
        powers[10] = 1.0
        powers[12] = 0.5
        pdp = make_pdp(powers)
        assert count(pdp, above(1e-6)) == 2

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        powers = rng.uniform(0.0, 1.0, 64)
        a = make_pdp(powers)
        b = make_pdp(powers * 123.0)
        assert count(a, above(0.05)) == count(b, above(0.05 * 123.0))

    def test_monotone_in_margin(self):
        rng = np.random.default_rng(4)
        pdp = make_pdp(rng.uniform(0.0, 1.0, 128))
        counts = [count(pdp, above(0.02, margin)) for margin in np.arange(0.0, 18.0, 1.5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestExtractParameters:
    def test_single_tap_profile(self):
        powers = np.zeros(32)
        powers[5] = 1.0
        params = extract_parameters(make_pdp(powers), los_flag=True)
        assert params.rms_delay_spread_s == 0.0
        assert params.cluster_count == 1
        assert params.k_factor_db == np.inf

    def test_composition_oracle(self):
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.0, 1.0, 64) ** 4
        pdp = make_pdp(powers)
        params = extract_parameters(pdp, los_flag=True)
        manual = cleaned_profile(pdp)
        m1, m2 = oracle_moments(manual)
        assert params.mean_excess_delay_s == pytest.approx(m1, rel=1e-12)
        assert params.second_moment_s2 == pytest.approx(m2, rel=1e-12)
        assert params.rms_delay_spread_s == spread(manual)
        surviving = manual.powers_linear[manual.powers_linear > 0]
        kf = 10 * np.log10(surviving.max() / (surviving.sum() - surviving.max()))
        assert params.k_factor_db == pytest.approx(kf, rel=1e-12)
        p = manual.powers_linear
        threshold = noise_threshold(pdp) / np.max(powers)
        peaks = [
            i for i in range(len(p))
            if p[i] > threshold and (i == 0 or p[i] > p[i - 1])
            and (i == len(p) - 1 or p[i] > p[i + 1])
        ]
        assert params.cluster_count == len(peaks)

    def test_nlos_never_reports_k_factor(self):
        rng = np.random.default_rng(6)
        params = extract_parameters(make_pdp(rng.uniform(0, 1, 64)), los_flag=False)
        assert params.k_factor_db is None


class TestInvarianceProperties:
    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        powers = rng.uniform(0.0, 1.0, 64)
        a = make_pdp(powers)
        b = make_pdp(powers * 7.5)
        pa = extract_parameters(a, los_flag=True)
        pb = extract_parameters(b, los_flag=True)
        assert pa.mean_excess_delay_s == pytest.approx(pb.mean_excess_delay_s, rel=1e-12)
        assert pa.second_moment_s2 == pytest.approx(pb.second_moment_s2, rel=1e-12)
        assert pa.k_factor_db == pytest.approx(pb.k_factor_db, rel=1e-12)
        assert pa.cluster_count == pb.cluster_count
        assert spread(a) == pytest.approx(spread(b), rel=1e-12)
        assert _k_factor(powers) == pytest.approx(_k_factor(powers * 7.5), rel=1e-12)
        assert count(a, above(0.01)) == count(b, above(0.075))

    def test_delay_shift_covariance(self):
        rng = np.random.default_rng(8)
        powers = rng.uniform(0.0, 1.0, 64)
        shift = 500 * NS
        a = make_pdp(powers)
        b = make_pdp(powers, start_s=shift)
        assert spread(b) == pytest.approx(spread(a), rel=1e-9)
        # extraction measures delays from the first bin above the threshold
        pa = extract_parameters(a, los_flag=False)
        pb = extract_parameters(b, los_flag=False)
        assert pb.mean_excess_delay_s == pytest.approx(pa.mean_excess_delay_s, rel=1e-9)


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
    def _normalized(self, powers):
        pdp = make_pdp(powers)
        return normalize_pdp(pdp, noise_threshold(pdp))

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

    def test_bin_zero_on_one_side_adds_its_distance_to_the_floor(self):
        # under 16 bins the floor, and so the threshold, is 0: every bin that
        # is not 0 on either side is in the union
        measured = make_pdp([1.0, 0.5, 0.1, 1e-7])
        simulated = make_pdp([1.0, 0.5, 0.0, 0.0])
        report = compare_pdps(measured, simulated)
        # 0.1 against 0 is -10 dB against the -60 dB floor; 1e-7 (-70 dB)
        # and 0 both read as the floor
        assert report.mean_abs_db_deviation == (10.0 * np.log10(0.1) + 60.0) / 4
        swapped = compare_pdps(simulated, measured)
        assert swapped.mean_abs_db_deviation == report.mean_abs_db_deviation

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
        fine = normalize_pdp(make_pdp(fine_powers, step), above(1e-6))
        coarse = normalize_pdp(make_pdp(coarse_powers, 2 * step), above(1e-6))
        report = compare_pdps(fine, coarse)
        assert report.ds_error_s == pytest.approx(0.0, abs=1e-20)
        assert report.cluster_count_diff == 0
        # nearest-bin duplication of the coarse peak makes a nonzero but
        # finite dB deviation; the grid halves so it cannot be zero
        assert np.isfinite(report.mean_abs_db_deviation)

    def test_two_generator_draws_agree_on_ds(self):
        preset = gbsm.PRESETS["urban-nlos"]
        a = gbsm.simulate_pdp(preset, 1)
        b = gbsm.simulate_pdp(preset, 2)
        report = compare_pdps(a, b)
        assert report.ds_relative_error < 0.1

    def test_unnormalized_rejected(self):
        pdp = make_pdp([4.0, 1.0])
        with pytest.raises(ValidationError, match="normalized"):
            compare_pdps(pdp, pdp)

    def test_zero_measured_delay_spread_rejected(self):
        single = make_pdp([1.0])
        with pytest.raises(ValidationError, match="measured delay spread is 0; relative error"):
            compare_pdps(single, make_pdp([1.0, 0.5]))
        assert compare_pdps(single, single).ds_relative_error == 0.0

    # fourth powers of uniform draws: a floor of weak bins, some of them
    # between it and the threshold, under a few strong ones
    PROFILE = st.integers(1, 64).flatmap(
        lambda n: st.lists(st.floats(0.0, 1.0).map(lambda x: x**4), min_size=n, max_size=n)
    )
    STEP = st.sampled_from([10 * NS, 39.0625 * NS, 78.125 * NS])

    @settings(max_examples=150, deadline=None)
    @given(PROFILE, STEP, PROFILE, STEP)
    def test_ds_and_count_are_the_extraction_differences(self, measured, step_m,
                                                         simulated, step_s):
        """On normalized profiles whose first bin survives its own threshold,
        extraction aligns nothing away, so both read the same statistics."""
        sides = []
        for powers, step in ((measured, step_m), (simulated, step_s)):
            powers = np.array(powers)
            assume(powers.max() > 0.0)
            pdp = make_pdp(powers / powers.max(), step)
            assume(pdp.powers_linear[0] > noise_threshold(pdp))
            sides.append(pdp)
        m, s = (extract_parameters(pdp, los_flag=False) for pdp in sides)
        if m.rms_delay_spread_s == 0.0 and s.rms_delay_spread_s > 0.0:
            with pytest.raises(ValidationError, match="measured delay spread is 0"):
                compare_pdps(*sides)
            return
        report = compare_pdps(*sides)
        assert report.ds_error_s == abs(s.rms_delay_spread_s - m.rms_delay_spread_s)
        assert report.cluster_count_diff == s.cluster_count - m.cluster_count


class TestRowPowers:
    """``add_rows`` against the row loop it replaced."""

    @pytest.mark.parametrize("columns", [1, 2, 17, 353])
    @pytest.mark.parametrize("rows", [1, 2, 8, 128, CHUNK_ROWS, CHUNK_ROWS + 1, 1000])
    def test_equal_to_the_row_loop(self, columns, rows):
        rng = np.random.default_rng(rows * 1000 + columns)
        taps = rng.standard_normal((rows, columns)) * np.exp(rng.uniform(-20, 20, (rows, 1)))
        taps = taps + 1j * rng.standard_normal((rows, columns))
        start = rng.uniform(0.0, 1e3, columns)
        looped = start.copy()
        for row in np.abs(taps) ** 2:
            looped += row
        power = start.copy()
        add_rows(power, np.abs(taps) ** 2)
        assert power.tobytes() == looped.tobytes()

    def test_mean_of_chunks_equals_numpy_mean(self):
        rng = np.random.default_rng(5)
        taps = rng.standard_normal((2 * CHUNK_ROWS + 3, 7)) + 1j * rng.standard_normal((2 * CHUNK_ROWS + 3, 7))
        power = np.zeros(7)
        for first in range(0, len(taps), CHUNK_ROWS):
            add_rows(power, np.abs(taps[first : first + CHUNK_ROWS]) ** 2)
        expected = np.mean(np.abs(taps) ** 2, axis=0)
        assert (power / len(taps)).tobytes() == expected.tobytes()
