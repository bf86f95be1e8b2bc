import numpy as np
import pytest
from test_io import read_range

from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.errors import ValidationError
from cirkit.signal import IqSignal, zadoff_chu
from cirkit.sounder import build_sounding_signal, estimate_pdp, mitigate_artifacts, synchronize

RATE = 25.6e6
SEQ = zadoff_chu(1, 53)
N = SEQ.size


def sounding(repetitions=3, sequence=SEQ):
    return build_sounding_signal(sequence, repetitions, RATE)


class TestSoundingWaveform:
    """The tiled sounding waveform that ``build_sounding_signal`` builds."""

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValidationError, match="repetitions must be >= 1"):
            build_sounding_signal(zadoff_chu(1, 5), 0, RATE)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_rate_rejected_by_name(self, rate):
        message = f"^sample_rate_hz must be finite and positive, got {rate}$"
        with pytest.raises(ValidationError, match=message):
            build_sounding_signal(zadoff_chu(1, 5), 3, rate)

    @pytest.mark.parametrize("sequence", [np.zeros(0), np.ones((2, 5))])
    def test_sequence_that_is_not_one_period_rejected(self, sequence):
        with pytest.raises(ValidationError, match="base sequence must be a non-empty 1-D array"):
            build_sounding_signal(sequence, 3, RATE)

    def test_build_tiles_sequence(self):
        seq = zadoff_chu(1, 5)
        sig = build_sounding_signal(seq, 3, RATE, 2.4e9)
        assert len(sig) == 15
        assert (sig.sample_rate_hz, sig.center_frequency_hz) == (RATE, 2.4e9)
        np.testing.assert_array_equal(sig.samples, np.tile(seq, 3))
        np.testing.assert_array_equal(sig.samples[:5], seq)

    def test_build_energy(self):
        sig = sounding()
        energy = sum(abs(v) ** 2 for v in sig.samples)
        assert abs(energy - 3 * N) < 1e-10


class TestMitigateArtifacts:
    def test_removes_dc_offset(self):
        rng = np.random.default_rng(0)
        clean = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        clean -= np.mean(clean)
        rx = IqSignal(clean + (0.7 - 0.3j), RATE)
        out = mitigate_artifacts(rx)
        assert abs(np.mean(read_range(out, 0, len(rx)))) < 1e-12

    def test_clean_signal_untouched(self):
        n = np.arange(512)
        tone = np.exp(2j * np.pi * 16 * n / 512)  # zero mean over full periods
        out = mitigate_artifacts(IqSignal(tone, RATE))
        assert np.max(np.abs(read_range(out, 0, tone.size) - tone)) < 1e-12

    def test_spike_suppressed(self):
        sig = sounding(repetitions=9)
        corrupted = sig.samples.copy()
        corrupted[100] = 100.0 + 0.0j
        out = mitigate_artifacts(IqSignal(corrupted, RATE))
        assert abs(read_range(out, 100, 101)[0]) < 2.0

    def test_all_zero_returned_unchanged(self):
        rx = IqSignal(np.zeros(32), RATE)
        out = mitigate_artifacts(rx)
        np.testing.assert_array_equal(read_range(out, 0, len(rx)), rx.samples)


class TestSynchronize:
    def test_ideal_capture_offset_zero(self):
        assert synchronize(sounding(), SEQ) == 0

    def test_delayed_capture(self):
        tx = sounding()
        rx = IqSignal(np.concatenate([np.zeros(7), tx.samples]), RATE)
        assert synchronize(rx, SEQ) == 7

    def test_delayed_capture_with_noise(self):
        tx = sounding()
        rx = IqSignal(np.concatenate([np.zeros(7), tx.samples]), RATE)
        noisy = add_awgn(rx, 20.0, 123)
        assert synchronize(noisy, SEQ) == 7

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="short"):
            synchronize(IqSignal(np.ones(N), RATE), SEQ)


class TestEstimateCirs:
    """Per-period deconvolution, seen through ``estimate_pdp``'s average."""

    def test_identity_channel(self):
        rx = sounding()
        powers = estimate_pdp(rx, SEQ, taper_fraction=0.0).powers_linear
        assert abs(powers[0] - 1.0) < 1e-9
        assert np.max(powers[1:]) < 1e-18

    def test_two_tap_channel_recovered(self):
        tx = sounding()
        rx = apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5]))
        powers = estimate_pdp(rx, SEQ, taper_fraction=0.0).powers_linear
        assert abs(np.sqrt(powers[0]) - 1.0) < 1e-6
        assert abs(np.sqrt(powers[2]) - 0.5) < 1e-6
        others = np.delete(powers, [0, 2])
        assert np.max(np.sqrt(others)) < 1e-6

    def test_matches_spectral_division_formula(self):
        rng = np.random.default_rng(5)
        rx = IqSignal(rng.standard_normal(N) + 1j * rng.standard_normal(N), RATE)
        powers = estimate_pdp(rx, SEQ, taper_fraction=0.0).powers_linear
        x = np.fft.fft(SEQ)
        expected = np.fft.ifft(np.fft.fft(rx.samples) * np.conj(x) / np.abs(x) ** 2)
        # h within 1e-12 of the formula's e puts |h|^2 within
        # (|e| + 1e-12)^2 - |e|^2 of |e|^2
        bound = 2e-12 * np.abs(expected) + 1e-24
        assert np.all(np.abs(powers - np.abs(expected) ** 2) <= bound)

    def test_partial_capture_returns_explicit_count(self):
        # the partial third period is left out: the profile is the mean of
        # the first two periods' own profiles
        tx = sounding(repetitions=3)
        rx = IqSignal(tx.samples[: 2 * N + 10], RATE)
        periods = [
            estimate_pdp(IqSignal(tx.samples[p * N : (p + 1) * N], RATE), SEQ)
            for p in range(2)
        ]
        expected = (periods[0].powers_linear + periods[1].powers_linear) / 2
        assert np.array_equal(estimate_pdp(rx, SEQ).powers_linear, expected)

    def test_sequence_of_any_length_without_a_zero_bin(self):
        """Deconvolution needs a sequence with no zero DFT bin, not a prime
        length: a random one of 12 samples recovers the channel exactly."""
        rng = np.random.default_rng(1)
        seq = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert np.abs(np.fft.fft(seq)).min() > 1.0
        taps = np.array([1.0, 0.0, 0.4j, 0.2, 0.0, -0.1])
        rx = apply_channel(build_sounding_signal(seq, 4, RATE), SyntheticChannel(taps))
        assert synchronize(rx, seq) == 0
        pdp = estimate_pdp(rx, seq, taper_fraction=0.0)
        expected = np.zeros(12)
        expected[: taps.size] = np.abs(taps) ** 2
        assert np.array_equal(pdp.delays_s, np.arange(12) * (1.0 / RATE))
        assert np.max(np.abs(pdp.powers_linear - expected)) <= 1e-12 * expected.max()

    def test_zero_energy_reference_rejected(self):
        rx = IqSignal(np.ones(15), RATE)
        with pytest.raises(ValidationError, match="zero energy in DFT bin 0$"):
            estimate_pdp(rx, np.zeros(5))

    def test_zero_reference_bin_rejected_by_index(self):
        # all ones: the whole energy in bin 0, bins 1 to 4 exactly zero
        rx = IqSignal(np.ones(15), RATE)
        with pytest.raises(ValidationError, match="zero energy in DFT bin 1$"):
            estimate_pdp(rx, np.ones(5))

    @pytest.mark.parametrize("sequence", [np.zeros(0), np.ones((3, 5)), [[]]])
    def test_sequence_that_is_not_one_period_rejected(self, sequence):
        rx = IqSignal(np.ones(15), RATE)
        for call in (synchronize, estimate_pdp):
            with pytest.raises(ValidationError, match="base sequence must be a non-empty 1-D"):
                call(rx, sequence)

    def test_no_complete_period_rejected(self):
        with pytest.raises(ValidationError, match="period"):
            estimate_pdp(IqSignal(np.ones(10), RATE), SEQ)

    # only exactly 0 turns the taper off
    @pytest.mark.parametrize("taper", [-0.2, -1e-9])
    def test_negative_taper_rejected(self, taper):
        with pytest.raises(ValidationError, match="taper fraction must be 0 or lie in"):
            estimate_pdp(sounding(), SEQ, taper_fraction=taper)

    def test_linearity_in_capture(self):
        tx = sounding()
        rx = apply_channel(tx, SyntheticChannel([1.0, 0.2j]))
        c = 0.8 - 1.3j
        scaled = IqSignal(c * rx.samples, RATE)
        base = estimate_pdp(rx, SEQ, taper_fraction=0.0).powers_linear
        lhs = estimate_pdp(scaled, SEQ, taper_fraction=0.0).powers_linear
        np.testing.assert_allclose(lhs, abs(c) ** 2 * base, atol=1e-10)

    def test_taper_bounds_checked(self):
        rx = sounding()
        with pytest.raises(ValidationError):
            estimate_pdp(rx, SEQ, taper_fraction=0.9)


def one_tap_periods(delays, gains, sequence):
    """A capture whose period p carries the single path ``gains[p]`` at
    ``delays[p]`` taps: the base sequence rotated and scaled period by period."""
    periods = [g * np.roll(sequence, d) for d, g in zip(delays, gains)]
    return IqSignal(np.concatenate(periods), RATE)


class TestAveragePdp:
    """The mean of the periods' squared magnitudes in ``estimate_pdp``."""

    def test_single_cir_squared_magnitude(self):
        rx = IqSignal(SEQ + 0.5j * np.roll(SEQ, 1), RATE)
        pdp = estimate_pdp(rx, SEQ, taper_fraction=0.0)
        np.testing.assert_allclose(pdp.powers_linear[:2], [1.0, 0.25], atol=1e-15)
        assert np.max(pdp.powers_linear[2:]) < 1e-15

    def test_two_cir_mean(self):
        rx = one_tap_periods([0, 1], [1.0, 1.0], SEQ)
        pdp = estimate_pdp(rx, SEQ, taper_fraction=0.0)
        np.testing.assert_allclose(pdp.powers_linear[:2], [0.5, 0.5], atol=1e-15)
        assert np.max(pdp.powers_linear[2:]) < 1e-15

    def test_matches_direct_mean_oracle(self):
        tx = sounding()
        rx = add_awgn(apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5])), 20.0, 9)
        pdp = estimate_pdp(rx, SEQ)
        periods = [
            estimate_pdp(IqSignal(rx.samples[p * N : (p + 1) * N], RATE), SEQ)
            for p in range(3)
        ]
        expected = [
            sum(period.powers_linear[k] for period in periods) / len(periods)
            for k in range(N)
        ]
        np.testing.assert_allclose(pdp.powers_linear, expected, rtol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        rows = [rng.standard_normal(N) + 1j * rng.standard_normal(N)
                for _ in range(4)]
        forward = estimate_pdp(IqSignal(np.concatenate(rows), RATE), SEQ)
        reverse = estimate_pdp(IqSignal(np.concatenate(rows[::-1]), RATE), SEQ)
        scale = np.max(forward.powers_linear)
        np.testing.assert_allclose(
            forward.powers_linear, reverse.powers_linear, atol=1e-14 * scale
        )


class TestEndToEnd:
    def test_identity_concentrates_power(self):
        seq = zadoff_chu(1, 353)
        rx = build_sounding_signal(seq, 3, RATE)
        pdp = estimate_pdp(rx, seq, taper_fraction=0.0)
        assert np.max(pdp.powers_linear) / np.sum(pdp.powers_linear) >= 0.999999

    def test_pdp_scales_with_capture_power(self):
        tx = sounding()
        rx = apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5]))
        c = 2.0 - 1.0j
        pdp = estimate_pdp(rx, SEQ, taper_fraction=0.0)
        scaled = estimate_pdp(IqSignal(c * rx.samples, RATE), SEQ, taper_fraction=0.0)
        expected = abs(c) ** 2 * pdp.powers_linear
        np.testing.assert_allclose(
            scaled.powers_linear, expected, atol=1e-12 * np.max(expected)
        )
