"""The streamed receive chain against the whole-array chain.

``cirkit estimate`` reads its capture through ``io.IqReader`` a chunk at a
time. Its raw averaged powers and its PDP CSV must equal, byte for byte,
the chain that holds the whole capture: one whole read, the reference
mitigation (``np.mean``, ``np.median``, ``np.interp`` over every good
sample), ``np.argmax`` synchronisation and the per-period loop estimate of
``test_sounder_reference``, whose CIRs lie within ``DFT_TOLERANCE`` of the
textbook per-period DFT formula's.
"""

import tracemalloc

import numpy as np
import pytest
from test_io import read_whole
from test_sounder_reference import (
    assert_near_dft,
    dft_estimate_cirs,
    loop_average_powers,
    loop_estimate_cirs,
    reference_mitigate,
)

from cirkit import analysis, io, sounder
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.cli import main
from cirkit.errors import ValidationError
from cirkit.signal import IqSignal, circular_cross_correlate
from cirkit.sounder import build_sounding_signal, mitigate_artifacts, zadoff_chu_waveform

N = sounder.DEFAULT_SEQUENCE_LENGTH
CHUNK = sounder._CHUNK_SAMPLES


def noisy_samples(periods, offset=0, extra=0, seed=0):
    """A 20 dB 3-path capture starting ``offset`` samples into a period,
    ``periods`` whole periods plus ``extra`` samples long, float32 exact."""
    waveform = zadoff_chu_waveform(repetitions=periods + 2)
    rx = add_awgn(
        apply_channel(build_sounding_signal(waveform), SyntheticChannel([1.0, 0.0, 0.4j, 0.2])),
        20.0,
        seed,
    )
    samples = rx.samples[offset : offset + periods * N + extra] + (0.3 - 0.1j)
    return samples.astype(np.complex64).astype(np.complex128)


def with_spikes(samples, positions, seed=1):
    samples = samples.copy()
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(positions))
    samples[positions] = 50.0 * np.exp(1j * phases)
    return samples.astype(np.complex64).astype(np.complex128)


def whole_chain_powers(path, taper):
    """Raw averaged powers of the capture held whole, by the reference formulas."""
    cleaned = reference_mitigate(read_whole(path))
    corr = circular_cross_correlate(cleaned.samples[:N], zadoff_chu_waveform().base_sequence)
    offset = int(np.argmax(np.abs(corr)))
    aligned = IqSignal(cleaned.samples[offset:], cleaned.sample_rate_hz)
    rows = loop_estimate_cirs(aligned, zadoff_chu_waveform(), None, taper)
    assert_near_dft(rows, dft_estimate_cirs(aligned, zadoff_chu_waveform(), None, taper))
    return loop_average_powers(rows)


def streamed_powers(path, taper):
    waveform = zadoff_chu_waveform()
    cleaned = mitigate_artifacts(io.IqReader(path))
    offset = sounder.synchronize(cleaned, waveform)
    return sounder.estimate_pdp(cleaned, waveform, None, taper, start=offset).powers_linear


def csv_bytes(tmp_path, powers):
    raw = analysis.PowerDelayProfile(np.arange(N) / sounder.DEFAULT_SAMPLE_RATE_HZ, powers)
    pdp = analysis.normalize_pdp(raw.with_noise_floor(analysis.default_noise_floor(raw)))
    path = tmp_path / "whole.csv"
    io.write_pdp_csv(path, pdp)
    return path.read_bytes()


def write_capture(tmp_path, samples, name="rx.iq"):
    path = tmp_path / name
    io.write_iq(path, IqSignal(samples, sounder.DEFAULT_SAMPLE_RATE_HZ, 2.48e9))
    return path


LONG_RUN = np.arange(CHUNK - 1000, 2 * CHUNK + 500)  # crosses two chunk edges
CASES = {
    # 700 periods: 247 100 samples, an even count spread over three chunks
    "first-and-last-sample": (700, 0, 0, [0, -1]),
    "run-across-chunk-edge": (700, 0, 0, np.arange(CHUNK - 3, CHUNK + 4)),
    "run-longer-than-a-chunk": (700, 0, 0, LONG_RUN),
    # odd count, partial last period and a non-zero sync offset
    "odd-count-partial-period-offset": (700, 211, 101, [5, CHUNK, 2 * CHUNK - 1]),
    "no-spikes-even": (300, 17, 0, []),
    "no-spikes-odd": (300, 17, 1, []),
}


@pytest.mark.parametrize("taper", [0.0, sounder.DEFAULT_TAPER_FRACTION])
@pytest.mark.parametrize("case", sorted(CASES))
def test_estimate_equals_whole_chain(tmp_path, case, taper):
    periods, offset, extra, spikes = CASES[case]
    samples = with_spikes(noisy_samples(periods, offset, extra, seed=len(case)), spikes)
    path = write_capture(tmp_path, samples)
    expected = whole_chain_powers(path, taper)
    assert np.array_equal(streamed_powers(path, taper), expected)
    out = tmp_path / "pdp.csv"
    assert main(["estimate", "--rx", str(path), "--taper", str(taper), "--pdp-out", str(out)]) == 0
    assert out.read_bytes() == csv_bytes(tmp_path, expected)


def test_all_zero_capture_equals_whole_chain(tmp_path, capsys):
    path = write_capture(tmp_path, np.zeros(5 * N, dtype=np.complex128))
    assert np.array_equal(streamed_powers(path, 0.1), whole_chain_powers(path, 0.1))
    rc = main(["estimate", "--rx", str(path), "--pdp-out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "normalize: no PDP bin exceeds the noise threshold" in capsys.readouterr().err


def test_nan_in_last_chunk_fails_at_read_iq(tmp_path, capsys):
    samples = noisy_samples(300)
    samples[-2] = np.nan
    path = write_capture(tmp_path, samples)
    rc = main(["estimate", "--rx", str(path), "--pdp-out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "read-iq" in err
    assert f"sample {samples.size - 2} is not finite" in err


def test_negative_spike_threshold_rejected():
    with pytest.raises(ValidationError, match="spike_threshold must be >= 0"):
        mitigate_artifacts(IqSignal(np.ones(10), 1.0), -1.0)


class TestSmallChunks:
    """The pass code at chunk sizes that put many edges in a short capture."""

    @pytest.fixture(params=[64, 100, 1031])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(sounder, "_CHUNK_SAMPLES", request.param)
        return request.param

    def test_pairwise_sum_equals_numpy(self, chunk):
        rng = np.random.default_rng(chunk)
        for n in [1, 2, 63, 64, 65, 129, 1000, 4097, 20011]:
            x = rng.standard_normal(n) * 1e3 + 1j * rng.standard_normal(n)
            total = sounder._pairwise_sum(IqSignal(x, 1.0), 0, n)
            assert total.tobytes() == np.add.reduce(x).tobytes()

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_mitigate_equals_reference(self, chunk, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bad = np.r_[0, n - 1, chunk - 2 : chunk + 3, 2 * chunk : 2 * chunk + chunk + 5]
        x[bad] = 40.0
        rx = IqSignal(x, 1.0)
        assert np.array_equal(mitigate_artifacts(rx).samples, reference_mitigate(rx).samples)

    def test_many_equal_magnitudes_narrow_to_the_last_bit(self, chunk):
        # more than a chunk of equal magnitudes in the median's bin at
        # every depth of the histogram
        x = np.full(9001, 1.0 + 0.5j)
        x[::7] = 2.0
        x[100:104] = 90.0
        rx = IqSignal(x, 1.0)
        assert np.array_equal(mitigate_artifacts(rx).samples, reference_mitigate(rx).samples)

    # equal magnitudes narrow to the last bit; distinct ones to their rank
    @pytest.mark.parametrize("step", [0.0, 2.0**-30])
    def test_threshold_uses_the_exact_median(self, chunk, step):
        # real samples as a half and its negation, 500 each, so numpy's
        # pairwise mean is exactly 0 and each magnitude is its sample's
        # absolute value; 600 magnitudes within 2**-20 of each other hold
        # the median, with bits down to the last 12
        body = 1.0 + 2.0**-20 + 2.0**-50 + step * np.arange(300)
        body = np.concatenate([body, np.full(198, 0.125), [1e3, 1e3]])  # the last two become spikes
        m = np.median(np.abs(np.concatenate([body, -body])))
        at_threshold, above = 6.0 * m, np.nextafter(6.0 * m, np.inf)
        x = np.concatenate([body[:-2], [at_threshold, above]])
        x = np.concatenate([x, -x])
        rx = IqSignal(x, 1.0)
        cleaned = mitigate_artifacts(rx).samples
        assert np.array_equal(cleaned, reference_mitigate(rx).samples)
        assert cleaned[498] == at_threshold  # on the threshold: kept
        assert cleaned[499] != above  # past it: repaired

    def test_nan_sample_cleans_like_the_reference(self, chunk):
        x = np.ones(3000, dtype=complex)
        x[2500] = np.nan
        rx = IqSignal(x, 1.0)
        assert np.array_equal(
            mitigate_artifacts(rx).samples, reference_mitigate(rx).samples, equal_nan=True
        )

    def test_even_count_takes_the_mean_of_the_middle_pair(self, chunk):
        # middle magnitudes 1.0 and 1.5: the threshold is 6 x 1.25 = 7.5
        x = np.array([0.5, 1.0, 1.5, 7.0, -0.5, -1.0, -1.5, -7.0], dtype=complex)
        rx = IqSignal(x, 1.0)
        assert np.array_equal(mitigate_artifacts(rx).samples, x)
        assert np.array_equal(reference_mitigate(rx).samples, x)

    def test_streamed_reads_equal_whole(self, chunk, tmp_path):
        samples = with_spikes(noisy_samples(30, 5, 7), [0, chunk, chunk + 1, 3 * chunk])
        path = write_capture(tmp_path, samples)
        streamed = mitigate_artifacts(io.IqReader(path))
        whole = reference_mitigate(read_whole(path))
        assert np.array_equal(streamed.read(0, len(streamed)), whole.samples)
        edge = slice(chunk - 1, chunk + 2)
        assert np.array_equal(streamed.read(edge.start, edge.stop), whole.samples[edge])


def estimate_peak(tmp_path, periods):
    waveform = zadoff_chu_waveform(repetitions=periods)
    rx = add_awgn(
        apply_channel(build_sounding_signal(waveform), SyntheticChannel([1.0, 0.0, 0.5])), 20.0, 1
    )
    samples = rx.samples.copy()
    samples[[0, 5000, 5001, 123456]] = 50.0
    path = write_capture(tmp_path, samples, f"rx{periods}.iq")
    capture_bytes = samples.nbytes
    del rx, samples
    tracemalloc.start()
    try:
        rc = main(["estimate", "--rx", str(path), "--repetitions", str(periods),
                   "--pdp-out", str(tmp_path / "pdp.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak, capture_bytes


def test_peak_memory_does_not_grow_with_capture_length(tmp_path):
    """One chunk and the spike list, whatever the capture length."""
    short_peak, _ = estimate_peak(tmp_path, 1000)
    long_peak, long_bytes = estimate_peak(tmp_path, 4000)
    assert long_peak <= 1.1 * short_peak
    assert long_peak < long_bytes
