import numpy as np
import pytest

from cirkit.channel_apply import SyntheticChannel
from cirkit.errors import ValidationError
from cirkit.io import Dataset
from cirkit.signal import IqSignal, circular_cross_correlate, is_prime, zadoff_chu


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


# each domain type that takes a complex array, the complex dtype it stores,
# and the array it then holds
HOLDERS = {
    "IqSignal": (np.complex128, lambda values: IqSignal(values.ravel(), 1e6).samples),
    "Dataset": (np.complex64, lambda values: Dataset(values, 1e6, "label=test\n").snapshots),
    "SyntheticChannel": (np.complex128, lambda values: SyntheticChannel(values.ravel()).taps),
}
OTHER_DTYPE = {np.complex128: np.complex64, np.complex64: np.complex128}


def complex_block(seed=0, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))).astype(dtype)


@pytest.mark.parametrize("holder", sorted(HOLDERS))
class TestArrayAdoption:
    def test_frozen_owned_array_adopted(self, holder):
        dtype, hold = HOLDERS[holder]
        values = complex_block(dtype=dtype)
        values.setflags(write=False)
        held = hold(values)
        assert np.shares_memory(held, values)
        assert not held.flags.writeable

    def test_frozen_view_of_bytes_adopted(self, holder):
        dtype, hold = HOLDERS[holder]
        values = np.frombuffer(complex_block(dtype=dtype).tobytes(), dtype=dtype).reshape(3, 4)
        assert np.shares_memory(hold(values), values)

    def test_read_only_view_of_writable_array_copied(self, holder):
        dtype, hold = HOLDERS[holder]
        base = complex_block(dtype=dtype)
        view = base[:]
        view.setflags(write=False)
        held = hold(view)
        expected = base.copy()
        assert not np.shares_memory(held, base)
        base[...] = 0.0
        assert np.array_equal(held.reshape(expected.shape), expected)

    def test_writable_array_copied(self, holder):
        dtype, hold = HOLDERS[holder]
        values = complex_block(dtype=dtype)
        held = hold(values)
        assert not np.shares_memory(held, values)
        assert not held.flags.writeable

    def test_other_dtype_copied(self, holder):
        dtype, hold = HOLDERS[holder]
        values = complex_block(dtype=OTHER_DTYPE[dtype])
        values.setflags(write=False)
        held = hold(values)
        assert held.dtype == dtype
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
