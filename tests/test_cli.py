import tracemalloc

import numpy as np
import pytest

from cirkit import io
from cirkit.analysis import PowerDelayProfile
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.cli import main
from cirkit.signal import IqSignal
from cirkit.sounder import build_sounding_signal, zadoff_chu_waveform


def make_capture(tmp_path, taps=(1.0, 0.0, 0.5), snr_db=None, seed=0):
    """Synthesize a received capture file through a known channel."""
    waveform = zadoff_chu_waveform()
    rx = apply_channel(build_sounding_signal(waveform), SyntheticChannel(list(taps)))
    if snr_db is not None:
        rx = add_awgn(rx, snr_db, seed)
    path = tmp_path / "rx.iq"
    io.write_iq(path, rx)
    return path


class TestGenerateSounding:
    def test_defaults_write_tiled_waveform(self, tmp_path, capsys):
        out = tmp_path / "tx.iq"
        assert main(["generate-sounding", "--out", str(out)]) == 0
        sig = io.read_iq(out)
        assert len(sig) == 3 * 353
        assert sig.sample_rate_hz == 25.6e6

    def test_non_prime_length_fails_with_message(self, tmp_path, capsys):
        rc = main(["generate-sounding", "--zc-length", "354", "--out", str(tmp_path / "x.iq")])
        assert rc == 1
        assert "prime" in capsys.readouterr().err

    def test_single_repetition_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "tx.iq"
        rc = main(["generate-sounding", "--repetitions", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "degenerate" in captured.err
        assert len(io.read_iq(out)) == 353


class TestEstimate:
    def test_writes_normalized_pdp(self, tmp_path):
        rx = make_capture(tmp_path)
        out = tmp_path / "pdp.csv"
        assert main(["estimate", "--rx", str(rx), "--pdp-out", str(out)]) == 0
        pdp = io.read_pdp_csv(out)
        assert len(pdp) > 300
        assert np.max(pdp.powers_linear) == pytest.approx(1.0, abs=1e-6)
        assert pdp.delays_s[0] == 0.0

    def test_missing_capture_is_io_error(self, tmp_path, capsys):
        rc = main(["estimate", "--rx", str(tmp_path / "nope.iq"), "--pdp-out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "read-iq" in capsys.readouterr().err

    def test_nan_sample_fails_at_read_iq(self, tmp_path, capsys):
        rx = make_capture(tmp_path)
        floats = np.fromfile(rx, dtype="<f4")
        floats[101] = np.nan
        floats.tofile(rx)
        rc = main(["estimate", "--rx", str(rx), "--pdp-out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "read-iq" in capsys.readouterr().err

    def test_peak_memory_stays_below_three_captures(self, tmp_path):
        """The streamed receive chain holds one chunk and the spike list;
        three captures, the raw one, the cleaned one and its magnitudes,
        was the most the whole-array chain held and stays the ceiling."""
        waveform = zadoff_chu_waveform(repetitions=1000)
        rx = add_awgn(
            apply_channel(build_sounding_signal(waveform), SyntheticChannel([1.0, 0.0, 0.5])),
            20.0,
            1,
        )
        samples = rx.samples.copy()
        samples[[0, 5000, 5001, 123456]] = 50.0
        path = tmp_path / "rx.iq"
        io.write_iq(path, IqSignal(samples, rx.sample_rate_hz))
        capture_bytes = samples.nbytes
        del rx, samples
        tracemalloc.start()
        try:
            rc = main(["estimate", "--rx", str(path), "--repetitions", "1000",
                       "--pdp-out", str(tmp_path / "pdp.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 3 * capture_bytes


class TestExtract:
    def test_prints_parameter_row_and_writes_config(self, tmp_path, capsys):
        rx = make_capture(tmp_path)
        pdp_path = tmp_path / "pdp.csv"
        main(["estimate", "--rx", str(rx), "--pdp-out", str(pdp_path)])
        cfg_path = tmp_path / "scenario.cfg"
        rc = main(
            ["extract", "--pdp", str(pdp_path), "--los", "--out-config", str(cfg_path),
             "--defaults", "urban-los"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "DS [ns]" in captured.out
        config = io.read_config(cfg_path)
        assert config.los is True
        assert config.num_clusters >= 2
        # two resolvable paths at 0 and 2 bins separated by <2 bins merge rules aside
        assert 0 < config.ds_median_s < 200e-9

    def test_nlos_extraction_has_no_kf(self, tmp_path, capsys):
        rx = make_capture(tmp_path)
        pdp_path = tmp_path / "pdp.csv"
        main(["estimate", "--rx", str(rx), "--pdp-out", str(pdp_path)])
        cfg_path = tmp_path / "scenario.cfg"
        rc = main(["extract", "--pdp", str(pdp_path), "--out-config", str(cfg_path)])
        assert rc == 0
        assert " x " in capsys.readouterr().out
        assert io.read_config(cfg_path).kf_median_db is None


class TestSimulateAndDataset:
    def test_simulate_preset(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--config", "urban-nlos", "--seed", "3", "--pdp-out", str(out)])
        assert rc == 0
        pdp = io.read_pdp_csv(out)
        assert np.max(pdp.powers_linear) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_config_fails(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "mars-los", "--pdp-out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "preset" in capsys.readouterr().err

    def test_simulate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", "campus-los", "--seed", "5", "--pdp-out", str(a)])
        main(["simulate", "--config", "campus-los", "--seed", "5", "--pdp-out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_roundtrip(self, tmp_path):
        out = tmp_path / "train.chds"
        rc = main(
            ["dataset", "--config", "urban-nlos", "--seed", "1", "--count", "4",
             "--out", str(out)]
        )
        assert rc == 0
        ds = io.read_dataset(out)
        assert ds.snapshot_count == 4
        assert ds.cir_length_taps == 353
        assert "# seed=1" in ds.config_text


class TestCompare:
    def test_report_plot_and_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", "urban-nlos", "--seed", "1", "--pdp-out", str(a)])
        main(["simulate", "--config", "urban-nlos", "--seed", "2", "--pdp-out", str(b)])
        report_path = tmp_path / "report.txt"
        plot_path = tmp_path / "cmp.svg"
        rc = main(
            ["compare", "--measured", str(a), "--simulated", str(b),
             "--report-out", str(report_path), "--plot-out", str(plot_path)]
        )
        assert rc == 0
        values = io.read_report(report_path)
        assert values["ds_relative_error"] < 0.2
        svg = plot_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        aligned = (tmp_path / "report.txt.aligned.csv").read_text().splitlines()
        assert aligned[0] == "delay_ns,measured_db,simulated_db"
        assert len(aligned) > 100

    def test_finer_simulated_grid_keeps_measured_column_first(self, tmp_path):
        measured, simulated = tmp_path / "m.csv", tmp_path / "s.csv"
        main(["simulate", "--config", "urban-nlos", "--seed", "1", "--pdp-out", str(measured)])
        coarse = io.read_pdp_csv(measured)
        # a different profile on a third of the measured delay step, so that
        # no fine bin ties between two coarse ones
        delays = np.arange(3 * len(coarse)) * (coarse.delay_step_s / 3)
        io.write_pdp_csv(simulated, PowerDelayProfile(delays, np.exp(-delays / 100e-9)))
        report_path = tmp_path / "r.txt"
        rc = main(
            ["compare", "--measured", str(measured), "--simulated", str(simulated),
             "--report-out", str(report_path), "--plot-out", str(tmp_path / "p.svg")]
        )
        assert rc == 0
        aligned_path = tmp_path / "r.txt.aligned.csv"
        assert aligned_path.read_text().splitlines()[0] == "delay_ns,measured_db,simulated_db"
        aligned = np.loadtxt(aligned_path, delimiter=",", skiprows=1)
        sim = np.loadtxt(simulated, delimiter=",", skiprows=1)
        meas = np.loadtxt(measured, delimiter=",", skiprows=1)
        np.testing.assert_allclose(aligned[:, 0], sim[:, 0], atol=1e-5)  # the finer grid
        np.testing.assert_allclose(aligned[:, 2], sim[:, 1], atol=1e-5)
        nearest = np.clip(np.rint(aligned[:, 0] / meas[1, 0]).astype(int), 0, len(meas) - 1)
        np.testing.assert_allclose(aligned[:, 1], meas[nearest, 1], atol=1e-5)

    def test_identical_inputs_all_zero(self, tmp_path):
        a = tmp_path / "a.csv"
        main(["simulate", "--config", "campus-nlos", "--seed", "4", "--pdp-out", str(a)])
        report_path = tmp_path / "r.txt"
        rc = main(
            ["compare", "--measured", str(a), "--simulated", str(a),
             "--report-out", str(report_path), "--plot-out", str(tmp_path / "p.svg")]
        )
        assert rc == 0
        values = io.read_report(report_path)
        assert values["ds_error_s"] == 0.0
        assert values["mean_abs_db_deviation"] == 0.0


class TestLoopback:
    def test_identity_channel_noiseless(self, capsys):
        rc = main(["loopback", "--channel-spec", "0,1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "PASS" in captured.out

    def test_two_equal_paths(self, capsys):
        rc = main(["loopback", "--channel-spec", "0,1;1e-7,1"])
        captured = capsys.readouterr()
        assert rc == 0
        # sigma of two equal paths at 0/100ns ~ 50 ns, quantized to ~39 ns bins
        assert "PASS" in captured.out

    def test_three_paths_with_noise(self, capsys):
        # more snapshot averaging keeps chi-squared noise bins below the
        # extraction threshold so they cannot poison the delay moments
        rc = main(
            ["loopback", "--channel-spec", "0,1;1.2e-7,0.6;3.1e-7,0.3",
             "--snr-db", "20", "--seed", "9", "--repetitions", "20"]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_channel_spec(self, capsys):
        rc = main(["loopback", "--channel-spec", "0"])
        assert rc == 1
        assert "channel" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--channel-spec=nan,1", "channel delays must be finite"),
            ("--channel-spec=0,1;inf,1", "channel delays must be finite"),
            ("--regularization=nan", "--regularization must be"),
        ],
    )
    def test_nan_flags_fail_by_name(self, capsys, flag, message):
        assert main(["loopback", flag]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_non_numeric_snr_fails_at_apply_channel(self, capsys, snr):
        rc = main(["loopback", f"--snr-db={snr}"])
        assert rc == 1
        assert "apply-channel: snr_db" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["loopback", "--seed", "-1", "--snr-db", "20"],
        ["loopback", "--seed", "-1"],
        ["simulate", "--config", "urban-nlos", "--seed", "-1", "--pdp-out", "{tmp}/p.csv"],
        ["dataset", "--config", "urban-nlos", "--seed", str(2**64), "--count", "1",
         "--out", "{tmp}/d.chds"],
    ],
)
def test_seed_outside_key_range_fails_at_seed_stage(tmp_path, capsys, argv):
    rc = main([arg.format(tmp=tmp_path) for arg in argv])
    assert rc == 1
    assert "seed: seed must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "353" in text  # default sequence length printed
        assert "default" in text
