import numpy as np
import pytest

from cirkit.errors import ValidationError
from cirkit.io import Dataset
from cirkit.signal import IqSignal, circular_cross_correlate, dft, idft, is_prime, zadoff_chu
from cirkit.sounder import ChannelImpulseResponse


def direct_cross_correlate(a, b):
    """O(N^2) reference: r[k] = sum_n a[n] * conj(b[(n-k) mod N])."""
    n = len(a)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        out[k] = sum(a[i] * np.conj(b[(i - k) % n]) for i in range(n))
    return out


class TestIqSignal:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            IqSignal([], 1e6)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            IqSignal([1.0], 0.0)
        with pytest.raises(ValidationError):
            IqSignal([1.0], float("nan"))

    def test_nan_carrier_rejected(self):
        with pytest.raises(ValidationError, match="center_frequency_hz must be"):
            IqSignal([1.0], 1e6, float("nan"))

    def test_samples_are_immutable(self):
        sig = IqSignal([1.0, 2.0], 1e6)
        with pytest.raises(ValueError):
            sig.samples[0] = 0.0

    def test_duration(self):
        sig = IqSignal(np.ones(256), 25.6e6)
        assert sig.duration_s == pytest.approx(1e-5)


# each domain type that takes a complex array, and the array it then holds
HOLDERS = {
    "IqSignal": lambda values: IqSignal(values.ravel(), 1e6).samples,
    "ChannelImpulseResponse": lambda values: ChannelImpulseResponse(values, 1e-6).taps,
    "Dataset": lambda values: Dataset(values, 1e6, "label=test\n").snapshots,
}


def complex_block(seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))


@pytest.mark.parametrize("holder", sorted(HOLDERS))
class TestArrayAdoption:
    def test_frozen_owned_array_adopted(self, holder):
        values = complex_block()
        values.setflags(write=False)
        held = HOLDERS[holder](values)
        assert np.shares_memory(held, values)
        assert not held.flags.writeable

    def test_frozen_view_of_bytes_adopted(self, holder):
        values = np.frombuffer(complex_block().tobytes(), dtype=np.complex128).reshape(3, 4)
        assert np.shares_memory(HOLDERS[holder](values), values)

    def test_read_only_view_of_writable_array_copied(self, holder):
        base = complex_block()
        view = base[:]
        view.setflags(write=False)
        held = HOLDERS[holder](view)
        expected = base.copy()
        assert not np.shares_memory(held, base)
        base[...] = 0.0
        assert np.array_equal(held.reshape(expected.shape), expected)

    def test_writable_array_copied(self, holder):
        values = complex_block()
        held = HOLDERS[holder](values)
        assert not np.shares_memory(held, values)
        assert not held.flags.writeable

    def test_other_dtype_copied(self, holder):
        values = complex_block().astype(np.complex64)
        values.setflags(write=False)
        held = HOLDERS[holder](values)
        assert held.dtype == np.complex128
        assert not np.shares_memory(held, values)


class TestZadoffChu:
    def test_first_sample_is_one(self):
        assert zadoff_chu(1, 5)[0] == pytest.approx(1.0 + 0.0j)

    def test_unit_magnitude(self):
        zc = zadoff_chu(1, 353)
        assert np.max(np.abs(np.abs(zc) - 1.0)) < 1e-12

    def test_non_prime_length_rejected(self):
        with pytest.raises(ValidationError, match="prime"):
            zadoff_chu(1, 354)

    @pytest.mark.parametrize("root", [0, 5, 6, -1])
    def test_root_out_of_range_rejected(self, root):
        with pytest.raises(ValidationError):
            zadoff_chu(root, 5)

    def test_cazac_against_direct_oracle(self):
        zc = zadoff_chu(1, 353)
        r = direct_cross_correlate(zc, zc)
        assert abs(r[0]) == pytest.approx(353.0, rel=1e-12)
        assert np.max(np.abs(r[1:])) < 1e-9 * 353

    @pytest.mark.parametrize("length,root", [(5, 2), (13, 5), (353, 7)])
    def test_cazac_all_lags_fft(self, length, root):
        zc = zadoff_chu(root, length)
        r = circular_cross_correlate(zc, zc)
        assert np.max(np.abs(r[1:])) / abs(r[0]) < 1e-9


class TestTransforms:
    def test_dc_only(self):
        np.testing.assert_allclose(dft(np.ones(4)), [4, 0, 0, 0], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dft([])
        with pytest.raises(ValidationError):
            idft([])

    def test_round_trip_prime_length(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(353) + 1j * rng.standard_normal(353)
        back = idft(dft(x))
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-10

    def test_round_trip_all_lengths(self):
        # prime and mixed-radix lengths must all invert exactly
        rng = np.random.default_rng(2)
        lengths = list(range(1, 130)) + [353, 601, 1021, 2048, 4093, 4096]
        for n in lengths:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            err = np.max(np.abs(idft(dft(x)) - x)) / max(np.max(np.abs(x)), 1e-30)
            assert err < 1e-10, f"round trip failed at length {n}"

    def test_parseval_direct_summation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        time_energy = sum(abs(v) ** 2 for v in x)
        spec_energy = sum(abs(v) ** 2 for v in dft(x)) / len(x)
        assert abs(time_energy - spec_energy) / time_energy < 1e-10


class TestCircularCrossCorrelate:
    def test_zc_self_correlation(self):
        zc = zadoff_chu(1, 353)
        r = circular_cross_correlate(zc, zc)
        assert abs(r[0]) == pytest.approx(353.0, rel=1e-12)
        assert np.max(np.abs(r[1:])) < 1e-9 * 353

    def test_delta_shift_property(self):
        a = np.zeros(8, dtype=complex)
        b = np.zeros(8, dtype=complex)
        a[0] = 1.0
        b[3] = 1.0
        r = circular_cross_correlate(a, b)
        assert int(np.argmax(np.abs(r))) == 5  # -3 mod 8

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(
            circular_cross_correlate(a, b), direct_cross_correlate(a, b), atol=1e-10
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            circular_cross_correlate(np.ones(4), np.ones(5))


@pytest.mark.parametrize(
    "n,expected",
    [(1, False), (2, True), (3, True), (4, False), (353, True), (354, False), (1021, True)],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected
