import math
import re
import tracemalloc

import numpy as np
import pytest

from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.cli import main
from cirkit.errors import ValidationError
from cirkit.signal import IqSignal


def direct_circular_convolve(x, h):
    """O(N*L) reference: y[n] = sum_l h[l] * x[(n-l) mod N]."""
    n = len(x)
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        for l, tap in enumerate(h):
            y[i] += tap * x[(i - l) % n]
    return y


def random_signal(rng, n=64, rate=1e6):
    return IqSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), rate)


class TestApplyChannel:
    def test_identity(self):
        sig = random_signal(np.random.default_rng(0))
        out = apply_channel(sig, SyntheticChannel([1.0]))
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-12)

    def test_one_sample_rotation(self):
        sig = random_signal(np.random.default_rng(1))
        out = apply_channel(sig, SyntheticChannel([0.0, 1.0]))
        np.testing.assert_allclose(out.samples, np.roll(sig.samples, 1), atol=1e-12)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(2)
        sig = random_signal(rng)
        taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = apply_channel(sig, SyntheticChannel(taps))
        np.testing.assert_allclose(
            out.samples, direct_circular_convolve(sig.samples, taps), atol=1e-10
        )

    def test_channel_longer_than_signal_rejected(self):
        sig = IqSignal(np.ones(4), 1e6)
        with pytest.raises(ValidationError):
            apply_channel(sig, SyntheticChannel(np.ones(5)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        sig_a = random_signal(rng)
        sig_b = random_signal(rng)
        channel = SyntheticChannel(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        combined = IqSignal(2.0 * sig_a.samples + 3j * sig_b.samples, 1e6)
        lhs = apply_channel(combined, channel).samples
        rhs = (
            2.0 * apply_channel(sig_a, channel).samples
            + 3j * apply_channel(sig_b, channel).samples
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_parseval_energy(self):
        rng = np.random.default_rng(4)
        sig = random_signal(rng, n=128)
        taps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = apply_channel(sig, SyntheticChannel(taps))
        h = np.zeros(128, dtype=complex)
        h[:6] = taps
        spectral = np.sum(np.abs(np.fft.fft(sig.samples) * np.fft.fft(h)) ** 2) / 128
        time = np.sum(np.abs(out.samples) ** 2)
        assert abs(time - spectral) / spectral < 1e-9


class TestAddAwgn:
    def test_infinite_snr_is_noiseless(self):
        sig = random_signal(np.random.default_rng(5))
        out = add_awgn(sig, float("inf"), 0)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_noise_power_calibration(self):
        sig = IqSignal(np.ones(10**6), 1e6)
        out = add_awgn(sig, 0.0, 42)
        noise_power = np.mean(np.abs(out.samples - sig.samples) ** 2)
        assert abs(noise_power - 1.0) < 0.01

    def test_deterministic_per_seed(self):
        sig = random_signal(np.random.default_rng(6), n=256)
        a = add_awgn(sig, 10.0, 7)
        b = add_awgn(sig, 10.0, 7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seeds_are_independent(self):
        sig = IqSignal(np.ones(10**5), 1e6)
        n1 = add_awgn(sig, 0.0, 1).samples - sig.samples
        n2 = add_awgn(sig, 0.0, 2).samples - sig.samples
        rho = abs(np.vdot(n1, n2)) / np.sqrt(np.sum(np.abs(n1) ** 2) * np.sum(np.abs(n2) ** 2))
        assert rho < 0.01

    def test_zero_energy_rejected(self):
        with pytest.raises(ValidationError):
            add_awgn(IqSignal(np.zeros(8), 1e6), 10.0, 0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            add_awgn(random_signal(np.random.default_rng(9)), 10.0, -1)

    def test_seed_contract(self):
        # a seed is an integer in [0, 2**64), and draws what numpy's default
        # generator of it draws: n real parts, then n imaginary parts
        sig = random_signal(np.random.default_rng(10))
        for bad in (-1, 2**64):
            with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                add_awgn(sig, 10.0, bad)
        add_awgn(sig, 10.0, np.uint64(2**64 - 1))
        rng = np.random.default_rng(7)
        noise = np.empty(len(sig), dtype=complex)
        noise.real = rng.standard_normal(len(sig))
        noise.imag = rng.standard_normal(len(sig))
        noise *= math.sqrt(float(np.mean(np.abs(sig.samples) ** 2)) / 10.0 / 2.0)
        same = add_awgn(sig, 10.0, 7).samples
        assert same.tobytes() == (noise + sig.samples).tobytes()
        assert add_awgn(sig, 10.0, 8).samples.tobytes() != same.tobytes()

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_nan_and_negative_infinite_snr_rejected(self, snr_db):
        with pytest.raises(ValidationError, match="snr_db"):
            add_awgn(random_signal(np.random.default_rng(9)), snr_db, 0)

    @pytest.mark.parametrize("snr_db", [4000.0, 3090.0, -4000.0, -3240.0, 1e308, -1e308])
    def test_snr_without_a_finite_non_zero_ratio_rejected(self, snr_db):
        # 10^(snr_db / 10) overflows above about 3082 dB and is 0 below
        # about -3233 dB
        message = rf"snr_db {re.escape(str(snr_db))} is out of range: 10\^"
        with pytest.raises(ValidationError, match=message):
            add_awgn(random_signal(np.random.default_rng(9)), snr_db, 0)

    def test_snr_whose_noise_variance_overflows_rejected(self):
        # a subnormal ratio, 1e-320, divides the signal power past the
        # largest double
        with pytest.raises(ValidationError, match="noise variance overflows"):
            add_awgn(random_signal(np.random.default_rng(9)), -3200.0, 0)

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_extreme_snr_fails_by_name_in_loopback(self, snr_db, capsys):
        argv = ["loopback", "--channel-spec", "0,1", "--repetitions", "5", f"--snr-db={snr_db}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"apply-channel: snr_db {float(snr_db)} is out of range" in err


def old_apply_channel(tx, taps):
    """The zero-padded product of spectra that ``apply_channel`` replaced."""
    h = np.zeros(len(tx), dtype=np.complex128)
    h[: len(taps)] = taps
    return np.fft.ifft(np.fft.fft(tx.samples) * np.fft.fft(h))


def old_add_awgn(signal, snr_db, seed):
    """The separately drawn and summed noise that ``add_awgn`` replaced."""
    power = float(np.mean(np.abs(signal.samples) ** 2))
    rng = np.random.default_rng(seed)
    scale = math.sqrt(power / 10.0 ** (snr_db / 10.0) / 2.0)
    noise = scale * (rng.standard_normal(len(signal)) + 1j * rng.standard_normal(len(signal)))
    return signal.samples + noise


def test_in_place_spectra_and_noise_keep_the_bytes():
    rng = np.random.default_rng(11)
    for n, n_taps in ((64, 1), (353 * 3, 40), (4096, 353)):
        sig = random_signal(rng, n=n)
        taps = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
        out = apply_channel(sig, SyntheticChannel(taps)).samples
        assert out.tobytes() == old_apply_channel(sig, taps).tobytes()
        for snr_db, seed in ((20.0, 3), (-5.0, 2**63), (3080.0, 1), (-3000.0, 5)):
            noisy = add_awgn(sig, snr_db, seed).samples
            assert noisy.tobytes() == old_add_awgn(sig, snr_db, seed).tobytes()


@pytest.mark.parametrize("stage", ["apply_channel", "add_awgn"])
def test_peak_memory_within_2_2_outputs(stage):
    # the replaced code peaked near 3x its output: spectra, padded taps and
    # product for apply_channel; two normal draws, their sum and the noisy
    # copy for add_awgn
    n = 2**18
    sig = random_signal(np.random.default_rng(12), n=n)
    channel = SyntheticChannel(np.array([1.0, 0.5j, 0.25]))
    run = {
        "apply_channel": lambda: apply_channel(sig, channel),
        "add_awgn": lambda: add_awgn(sig, 10.0, 4),
    }[stage]
    tracemalloc.start()
    try:
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not out.samples.flags.writeable
    assert peak <= 2.2 * out.samples.nbytes, peak / out.samples.nbytes
