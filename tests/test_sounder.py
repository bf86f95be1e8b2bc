import numpy as np
import pytest

from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.errors import ValidationError
from cirkit.signal import IqSignal, zadoff_chu
from cirkit.sounder import (
    ChannelImpulseResponse,
    SoundingWaveform,
    average_pdp,
    build_sounding_signal,
    estimate_cirs,
    mitigate_artifacts,
    synchronize,
    zadoff_chu_waveform,
)

RATE = 25.6e6


def small_waveform(repetitions=3):
    return zadoff_chu_waveform(root=1, length=53, repetitions=repetitions, sample_rate_hz=RATE)


class TestSoundingWaveform:
    def test_non_prime_length_rejected(self):
        with pytest.raises(ValidationError, match="prime"):
            SoundingWaveform(np.ones(12), 3, RATE)

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValidationError):
            SoundingWaveform(zadoff_chu(1, 5), 0, RATE)

    def test_build_tiles_sequence(self):
        wf = SoundingWaveform(zadoff_chu(1, 5), 3, RATE)
        sig = build_sounding_signal(wf)
        assert len(sig) == 15
        np.testing.assert_array_equal(sig.samples, np.tile(wf.base_sequence, 3))
        np.testing.assert_array_equal(sig.samples[:5], wf.base_sequence)

    def test_build_energy(self):
        wf = small_waveform()
        sig = build_sounding_signal(wf)
        energy = sum(abs(v) ** 2 for v in sig.samples)
        assert abs(energy - wf.repetitions * wf.period) < 1e-10


class TestMitigateArtifacts:
    def test_removes_dc_offset(self):
        rng = np.random.default_rng(0)
        clean = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        clean -= np.mean(clean)
        rx = IqSignal(clean + (0.7 - 0.3j), RATE)
        out = mitigate_artifacts(rx)
        assert abs(np.mean(out.samples)) < 1e-12

    def test_clean_signal_untouched(self):
        n = np.arange(512)
        tone = np.exp(2j * np.pi * 16 * n / 512)  # zero mean over full periods
        out = mitigate_artifacts(IqSignal(tone, RATE))
        assert np.max(np.abs(out.samples - tone)) < 1e-12

    def test_spike_suppressed(self):
        sig = build_sounding_signal(small_waveform(repetitions=9))
        corrupted = sig.samples.copy()
        corrupted[100] = 100.0 + 0.0j
        out = mitigate_artifacts(IqSignal(corrupted, RATE))
        assert abs(out.samples[100]) < 2.0

    def test_all_zero_returned_unchanged(self):
        rx = IqSignal(np.zeros(32), RATE)
        out = mitigate_artifacts(rx)
        np.testing.assert_array_equal(out.samples, rx.samples)


class TestSynchronize:
    def test_ideal_capture_offset_zero(self):
        wf = small_waveform()
        assert synchronize(build_sounding_signal(wf), wf) == 0

    def test_delayed_capture(self):
        wf = small_waveform()
        tx = build_sounding_signal(wf)
        rx = IqSignal(np.concatenate([np.zeros(7), tx.samples]), RATE)
        assert synchronize(rx, wf) == 7

    def test_delayed_capture_with_noise(self):
        wf = small_waveform()
        tx = build_sounding_signal(wf)
        rx = IqSignal(np.concatenate([np.zeros(7), tx.samples]), RATE)
        noisy = add_awgn(rx, 20.0, 123)
        assert synchronize(noisy, wf) == 7

    def test_too_short_rejected(self):
        wf = small_waveform()
        with pytest.raises(ValidationError, match="short"):
            synchronize(IqSignal(np.ones(wf.period), RATE), wf)


class TestEstimateCirs:
    def test_identity_channel(self):
        wf = small_waveform()
        rx = build_sounding_signal(wf)
        cirs = estimate_cirs(rx, wf, regularization=0.0, taper_fraction=0.0)
        assert len(cirs.taps) == 3
        for taps in cirs.taps:
            assert abs(taps[0] - 1.0) < 1e-9
            assert np.max(np.abs(taps[1:])) < 1e-9

    def test_two_tap_channel_recovered(self):
        wf = small_waveform()
        tx = build_sounding_signal(wf)
        rx = apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5]))
        cirs = estimate_cirs(rx, wf, regularization=0.0, taper_fraction=0.0)
        for taps in cirs.taps:
            assert abs(taps[0] - 1.0) < 1e-6
            assert abs(taps[2] - 0.5) < 1e-6
            others = np.delete(taps, [0, 2])
            assert np.max(np.abs(others)) < 1e-6

    def test_matches_spectral_division_formula(self):
        wf = small_waveform(repetitions=1)
        rng = np.random.default_rng(5)
        rx = IqSignal(rng.standard_normal(wf.period) + 1j * rng.standard_normal(wf.period), RATE)
        reg = 0.3
        [taps] = estimate_cirs(rx, wf, regularization=reg, taper_fraction=0.0).taps
        x = np.fft.fft(wf.base_sequence)
        expected = np.fft.ifft(np.fft.fft(rx.samples) * np.conj(x) / (np.abs(x) ** 2 + reg))
        np.testing.assert_allclose(taps, expected, atol=1e-12)

    def test_partial_capture_returns_explicit_count(self):
        wf = small_waveform(repetitions=3)
        tx = build_sounding_signal(wf)
        rx = IqSignal(tx.samples[: 2 * wf.period + 10], RATE)
        cirs = estimate_cirs(rx, wf)
        assert len(cirs.taps) == 2
        # row p is period p
        for p in range(2):
            period = IqSignal(tx.samples[p * wf.period : (p + 1) * wf.period], RATE)
            np.testing.assert_array_equal(cirs.taps[p], estimate_cirs(period, wf).taps[0])

    def test_zero_energy_reference_rejected(self):
        wf = SoundingWaveform(np.zeros(5), 3, RATE)
        rx = IqSignal(np.ones(15), RATE)
        with pytest.raises(ValidationError, match="zero energy"):
            estimate_cirs(rx, wf)

    def test_no_complete_period_rejected(self):
        wf = small_waveform()
        with pytest.raises(ValidationError, match="period"):
            estimate_cirs(IqSignal(np.ones(10), RATE), wf)

    def test_negative_regularization_rejected(self):
        wf = small_waveform()
        rx = build_sounding_signal(wf)
        with pytest.raises(ValidationError):
            estimate_cirs(rx, wf, regularization=-1.0)

    def test_nan_regularization_rejected(self):
        wf = small_waveform()
        with pytest.raises(ValidationError, match="regularization must be"):
            estimate_cirs(build_sounding_signal(wf), wf, regularization=float("nan"))

    def test_infinite_regularization_rejected(self):
        wf = small_waveform()
        with pytest.raises(ValidationError, match="regularization must be finite"):
            estimate_cirs(build_sounding_signal(wf), wf, regularization=float("inf"))

    # only exactly 0 turns the taper off
    @pytest.mark.parametrize("taper", [-0.2, -1e-9])
    def test_negative_taper_rejected(self, taper):
        wf = small_waveform()
        with pytest.raises(ValidationError, match="taper fraction must be 0 or lie in"):
            estimate_cirs(build_sounding_signal(wf), wf, taper_fraction=taper)

    def test_linearity_in_capture(self):
        wf = small_waveform()
        tx = build_sounding_signal(wf)
        rx = apply_channel(tx, SyntheticChannel([1.0, 0.2j]))
        c = 0.8 - 1.3j
        scaled = IqSignal(c * rx.samples, RATE)
        base = estimate_cirs(rx, wf, regularization=0.0, taper_fraction=0.0)
        scaled_cirs = estimate_cirs(scaled, wf, regularization=0.0, taper_fraction=0.0)
        for lhs, rhs in zip(scaled_cirs.taps, base.taps):
            np.testing.assert_allclose(lhs, c * rhs, atol=1e-10)

    def test_taper_bounds_checked(self):
        wf = small_waveform()
        rx = build_sounding_signal(wf)
        with pytest.raises(ValidationError):
            estimate_cirs(rx, wf, taper_fraction=0.9)


class TestChannelImpulseResponse:
    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValidationError):
            ChannelImpulseResponse([np.ones(4), np.ones(5)], 1 / RATE)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ChannelImpulseResponse(np.ones((0, 4)), 1 / RATE)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            ChannelImpulseResponse(np.ones(4), 1 / RATE)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            ChannelImpulseResponse(np.ones((1, 4)), 0.0)

    def test_taps_are_a_read_only_copy(self):
        taps = np.ones((2, 4), dtype=np.complex128)
        cir = ChannelImpulseResponse(taps, 1 / RATE)
        taps[0, 0] = 5.0
        assert cir.taps[0, 0] == 1.0
        assert not cir.taps.flags.writeable


class TestAveragePdp:
    def test_single_cir_squared_magnitude(self):
        cir = ChannelImpulseResponse([[1.0, 0.5j]], 1 / RATE)
        pdp = average_pdp(cir)
        np.testing.assert_allclose(pdp.powers_linear, [1.0, 0.25], atol=1e-15)

    def test_two_cir_mean(self):
        pdp = average_pdp(ChannelImpulseResponse([[1.0, 0.0], [0.0, 1.0]], 1 / RATE))
        np.testing.assert_allclose(pdp.powers_linear, [0.5, 0.5], atol=1e-15)

    def test_matches_direct_mean_oracle(self):
        wf = small_waveform()
        tx = build_sounding_signal(wf)
        rx = add_awgn(apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5])), 20.0, 9)
        cirs = estimate_cirs(rx, wf)
        pdp = average_pdp(cirs)
        expected = [
            sum(abs(taps[k]) ** 2 for taps in cirs.taps) / len(cirs.taps)
            for k in range(wf.period)
        ]
        np.testing.assert_allclose(pdp.powers_linear, expected, rtol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        rows = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(4)]
        forward = average_pdp(ChannelImpulseResponse(rows, 1 / RATE))
        reverse = average_pdp(ChannelImpulseResponse(rows[::-1], 1 / RATE))
        scale = np.max(forward.powers_linear)
        np.testing.assert_allclose(
            forward.powers_linear, reverse.powers_linear, atol=1e-14 * scale
        )


class TestEndToEnd:
    def test_identity_concentrates_power(self):
        wf = zadoff_chu_waveform()
        rx = build_sounding_signal(wf)
        cirs = estimate_cirs(rx, wf, regularization=0.0, taper_fraction=0.0)
        pdp = average_pdp(cirs)
        assert np.max(pdp.powers_linear) / np.sum(pdp.powers_linear) >= 0.999999

    def test_pdp_scales_with_capture_power(self):
        wf = small_waveform()
        tx = build_sounding_signal(wf)
        rx = apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5]))
        c = 2.0 - 1.0j
        pdp = average_pdp(estimate_cirs(rx, wf, regularization=0.0, taper_fraction=0.0))
        scaled = average_pdp(
            estimate_cirs(IqSignal(c * rx.samples, RATE), wf, regularization=0.0, taper_fraction=0.0)
        )
        expected = abs(c) ** 2 * pdp.powers_linear
        np.testing.assert_allclose(
            scaled.powers_linear, expected, atol=1e-12 * np.max(expected)
        )
