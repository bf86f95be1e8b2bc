"""The streamed receive chain against the whole-array chain.

``cirkit estimate`` reads its capture through ``io.IqReader`` a chunk at a
time. Its raw averaged powers and its PDP CSV must equal, byte for byte,
the chain that holds the whole capture: one whole read, the reference
mitigation of ``test_sounder_reference`` (the chunks' sums added in order,
``np.median`` per chunk, ``np.interp`` over every good sample),
``np.argmax`` synchronisation and the per-period loop estimate of
``test_sounder_reference``, whose CIRs lie within ``DFT_TOLERANCE`` of the
textbook per-period DFT formula's. Mitigation reads each sample twice, once
per pass, besides the one sample on either side of a chunk.
"""

import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_io import read_range, read_whole
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
from cirkit.signal import IqSignal, circular_cross_correlate, zadoff_chu
from cirkit.sounder import build_sounding_signal, mitigate_artifacts

N = sounder.DEFAULT_SEQUENCE_LENGTH
SEQUENCE = zadoff_chu(sounder.DEFAULT_ROOT, N)
CHUNK = sounder._CHUNK_SAMPLES


def noisy_samples(periods, offset=0, extra=0, seed=0):
    """A 20 dB 3-path capture starting ``offset`` samples into a period,
    ``periods`` whole periods plus ``extra`` samples long, float32 exact."""
    tx = build_sounding_signal(SEQUENCE, periods + 2, sounder.DEFAULT_SAMPLE_RATE_HZ)
    rx = add_awgn(
        apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.4j, 0.2])),
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
    corr = circular_cross_correlate(cleaned.samples[:N], SEQUENCE)
    offset = int(np.argmax(np.abs(corr)))
    aligned = IqSignal(cleaned.samples[offset:], cleaned.sample_rate_hz)
    rows = loop_estimate_cirs(aligned, SEQUENCE, taper)
    assert_near_dft(rows, dft_estimate_cirs(aligned, SEQUENCE, taper))
    return loop_average_powers(rows)


def streamed_powers(path, taper):
    cleaned = mitigate_artifacts(io.IqReader(path))
    offset = sounder.synchronize(cleaned, SEQUENCE)
    return sounder.estimate_pdp(cleaned, SEQUENCE, taper, start=offset).powers_linear


def csv_bytes(tmp_path, powers):
    raw = analysis.PowerDelayProfile(np.arange(N) / sounder.DEFAULT_SAMPLE_RATE_HZ, powers)
    pdp = analysis.normalize_pdp(raw)
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
    rc = main(["estimate", "--rx", str(path), "--taper", str(taper), "--pdp-out", str(out)])
    if case == "run-longer-than-a-chunk":
        # the run fills the second chunk and so sets its median: there it
        # stays, and swamps the profile, in the whole chain as well
        with pytest.raises(ValidationError, match="no PDP bin exceeds the noise threshold"):
            csv_bytes(tmp_path, expected)
        assert rc == 1
        return
    assert rc == 0
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


def test_late_transmitter_repairs_only_the_onset_chunk(tmp_path):
    """A capture whose first 60% is noise alone: each chunk's own median
    keeps the transmission after the chunk where it starts."""
    tx = apply_channel(
        build_sounding_signal(SEQUENCE, 2000, sounder.DEFAULT_SAMPLE_RATE_HZ),
        SyntheticChannel([1.0, 0.0, 0.4j, 0.2]),
    )
    samples = tx.samples.copy()
    onset = int(0.6 * samples.size)
    samples[:onset] = 0.0
    rx = add_awgn(IqSignal(samples, tx.sample_rate_hz), 20.0, 3)
    cleaned = mitigate_artifacts(io.IqReader(write_capture(tmp_path, rx.samples)))
    assert cleaned.spike_index.size > 0
    assert np.all(cleaned.spike_index // CHUNK == onset // CHUNK)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 700),
    chunk=st.integers(1, 300),
    spikes=st.lists(st.integers(0, 699), max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_length_and_chunk_equal_reference(n, chunk, spikes, seed):
    """Captures shorter than a chunk, a chunk and a sample, a last chunk of
    one sample, and spikes anywhere."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[[s for s in spikes if s < n]] = 40.0
    rx = IqSignal(x, 1.0)
    with mock.patch.object(sounder, "_CHUNK_SAMPLES", chunk):
        cleaned = read_range(mitigate_artifacts(rx), 0, len(rx))
        assert np.array_equal(cleaned, reference_mitigate(rx).samples)


class CountingCapture:
    """An in-memory capture that counts how often each sample is read."""

    def __init__(self, rx):
        self.rx, self.reads = rx, np.zeros(len(rx), dtype=int)
        self.sample_rate_hz = rx.sample_rate_hz
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.rx)

    def read_into(self, lo, out, scratch):
        with self.lock:
            self.reads[lo : lo + out.size] += 1
        self.rx.read_into(lo, out, scratch)


class ArrayCapture:
    """A capture with the three members the receive chain reads and no other."""

    __slots__ = ("_samples", "sample_rate_hz")

    def __init__(self, samples, sample_rate_hz):
        self._samples, self.sample_rate_hz = samples, sample_rate_hz

    def __len__(self):
        return self._samples.size

    def read_into(self, lo, out, scratch):
        out.reshape(-1)[...] = self._samples[lo : lo + out.size]


@pytest.mark.parametrize("taper", [0.0, 0.1])
def test_three_member_capture_equals_iq_signal(taper):
    x = with_spikes(
        noisy_samples(300, offset=117, extra=40), [5, 1000, 1001, CHUNK - 1, CHUNK, 100_000]
    )

    def chain(rx):
        cleaned = mitigate_artifacts(rx)
        offset = sounder.synchronize(cleaned, SEQUENCE)
        return offset, sounder.estimate_pdp(cleaned, SEQUENCE, taper, start=offset)

    offset, expected = chain(IqSignal(x, sounder.DEFAULT_SAMPLE_RATE_HZ))
    assert offset == N - 117
    got_offset, pdp = chain(ArrayCapture(x, sounder.DEFAULT_SAMPLE_RATE_HZ))
    assert got_offset == offset
    assert pdp.delays_s.tobytes() == expected.delays_s.tobytes()
    assert pdp.powers_linear.tobytes() == expected.powers_linear.tobytes()


class TestSmallChunks:
    """The pass code at chunk sizes that put many edges in a short capture."""

    @pytest.fixture(params=[64, 100, 1031])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(sounder, "_CHUNK_SAMPLES", request.param)
        return request.param

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_mitigate_equals_reference(self, chunk, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bad = np.r_[0, n - 1, chunk - 2 : chunk + 3, 2 * chunk : 2 * chunk + chunk + 5]
        x[bad] = 40.0
        rx = IqSignal(x, 1.0)
        cleaned = read_range(mitigate_artifacts(rx), 0, len(rx))
        assert np.array_equal(cleaned, reference_mitigate(rx).samples)

    def test_many_equal_magnitudes_narrow_to_the_last_bit(self, chunk):
        # ties: most chunks' middle magnitudes are equal
        x = np.full(9001, 1.0 + 0.5j)
        x[::7] = 2.0
        x[100:104] = 90.0
        rx = IqSignal(x, 1.0)
        cleaned = read_range(mitigate_artifacts(rx), 0, len(rx))
        assert np.array_equal(cleaned, reference_mitigate(rx).samples)

    # equal body magnitudes, or distinct ones
    @pytest.mark.parametrize("step", [0.0, 2.0**-30])
    def test_threshold_uses_the_exact_median(self, chunk, step):
        """A sample exactly at 6x its chunk's median is kept, the next float
        up repaired. Four chunks: a body and its negation with magnitudes
        near 2, then near 1, each chunk with one imaginary sample. The
        values have few bits, so every sum is exact and the mean is 0; a
        median over the whole capture would flag the first pair's samples
        and keep the second's."""
        body = 1.0 + 2.0**-20 + step * np.arange(chunk - 1)
        chunks, special = [], []
        for scale, kept in [(2.0, True), (1.0, False)]:
            threshold = 6.0 * np.median(np.r_[scale * body, 1e3])
            value = 1j * (threshold if kept else np.nextafter(threshold, np.inf))
            for sign in (1.0, -1.0):
                special.append(sign * value)
                chunks.append(np.r_[sign * scale * body[: chunk // 2], special[-1],
                                    sign * scale * body[chunk // 2 :]])
        rx = IqSignal(np.concatenate(chunks), 1.0)
        cleaned = read_range(mitigate_artifacts(rx), 0, len(rx))
        assert np.array_equal(cleaned, reference_mitigate(rx).samples)
        at = np.arange(4) * chunk + chunk // 2
        assert np.array_equal(cleaned[at[:2]], special[:2])  # on the threshold: kept
        assert np.all(cleaned[at[2:]] != special[2:])  # past it: repaired
        assert np.all(np.abs(cleaned[at[2:]]) < 3.0)

    def test_nan_sample_cleans_like_the_reference(self, chunk):
        x = np.ones(3000, dtype=complex)
        x[2500] = np.nan
        rx = IqSignal(x, 1.0)
        assert np.array_equal(
            read_range(mitigate_artifacts(rx), 0, len(rx)),
            reference_mitigate(rx).samples,
            equal_nan=True,
        )

    def test_even_count_takes_the_mean_of_the_middle_pair(self, chunk):
        # middle magnitudes 1.0 and 1.5: the threshold is 6 x 1.25 = 7.5
        x = np.array([0.5, 1.0, 1.5, 7.0, -0.5, -1.0, -1.5, -7.0], dtype=complex)
        rx = IqSignal(x, 1.0)
        assert np.array_equal(read_range(mitigate_artifacts(rx), 0, x.size), x)
        assert np.array_equal(reference_mitigate(rx).samples, x)

    def test_streamed_reads_equal_whole(self, chunk, tmp_path):
        samples = with_spikes(noisy_samples(30, 5, 7), [0, chunk, chunk + 1, 3 * chunk])
        path = write_capture(tmp_path, samples)
        streamed = mitigate_artifacts(io.IqReader(path))
        whole = reference_mitigate(read_whole(path))
        assert np.array_equal(read_range(streamed, 0, len(streamed)), whole.samples)
        edge = slice(chunk - 1, chunk + 2)
        assert np.array_equal(read_range(streamed, edge.start, edge.stop), whole.samples[edge])

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [4000, 4001])
    def test_pooled_and_inline_equal_reference(self, chunk, tmp_path, monkeypatch, cpus, n):
        """Streamed and in memory, on the pool and inline, with and without
        a short last chunk."""
        monkeypatch.setattr(sounder, "_usable_cpus", lambda: cpus)
        spikes = [0, chunk - 1, chunk, n // 2, n - chunk // 2, n - 1]
        samples = with_spikes(noisy_samples(12, 5)[:n], spikes)
        path = write_capture(tmp_path, samples)
        whole = reference_mitigate(read_whole(path)).samples
        streamed = mitigate_artifacts(io.IqReader(path))
        assert np.array_equal(read_range(streamed, 0, n), whole)
        assert np.array_equal(read_range(mitigate_artifacts(read_whole(path)), 0, n), whole)

    @pytest.mark.parametrize("n", [50, 4000, 4001])
    def test_each_sample_is_read_twice(self, chunk, n):
        """Once per pass, and a third time only as the neighbour of a chunk
        edge: the last sample of a chunk and the first of the next."""
        rx = CountingCapture(IqSignal(with_spikes(noisy_samples(12)[:n], [3]), 1.0))
        mitigate_artifacts(rx)
        edges = np.arange(chunk, n, chunk)
        allowed = np.full(n, 2)
        allowed[np.r_[edges - 1, edges]] = 3
        assert np.all(rx.reads >= 2)
        assert np.all(rx.reads <= allowed)


def estimate_peak(tmp_path, periods):
    tx = build_sounding_signal(SEQUENCE, periods, sounder.DEFAULT_SAMPLE_RATE_HZ)
    rx = add_awgn(apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.5])), 20.0, 1)
    samples = rx.samples.copy()
    samples[[0, 5000, 5001, 123456]] = 50.0
    path = write_capture(tmp_path, samples, f"rx{periods}.iq")
    capture_bytes = samples.nbytes
    del tx, rx, samples
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
