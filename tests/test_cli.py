import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_io import replace_value

import cirkit
from cirkit import io
from cirkit.analysis import PowerDelayProfile
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.cli import _parse_channel_spec, main
from cirkit.gbsm import PRESETS
from cirkit.signal import IqSignal, zadoff_chu
from cirkit.sounder import DEFAULT_SAMPLE_RATE_HZ, build_sounding_signal

SEQUENCE = zadoff_chu(1, 353)


def sounding(repetitions=3):
    """The default sounding: the length-353 root-1 sequence at 25.6 MS/s."""
    return build_sounding_signal(SEQUENCE, repetitions, DEFAULT_SAMPLE_RATE_HZ)


def make_capture(tmp_path, taps=(1.0, 0.0, 0.5), snr_db=None, seed=0):
    """Synthesize a received capture file through a known channel."""
    rx = apply_channel(sounding(), SyntheticChannel(list(taps)))
    if snr_db is not None:
        rx = add_awgn(rx, snr_db, seed)
    path = tmp_path / "rx.iq"
    io.write_iq(path, rx)
    return path


class TestGenerateSounding:
    def test_defaults_write_tiled_waveform(self, tmp_path, capsys):
        out = tmp_path / "tx.iq"
        assert main(["generate-sounding", "--out", str(out)]) == 0
        capture = io.IqReader(out)
        assert len(capture) == 3 * 353
        assert capture.sample_rate_hz == 25.6e6

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
        assert len(io.IqReader(out)) == 353

    def test_zero_repetitions_fail_without_a_warning(self, tmp_path, capsys):
        """A count that is rejected is not also warned about; 2, which is
        accepted, still is."""
        out = tmp_path / "tx.iq"
        rc = main(["generate-sounding", "--repetitions", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        message = "generate-sounding: repetitions must be >= 1"
        assert captured.err == f"cirkit generate-sounding: {message}\n"
        assert not out.exists()
        assert main(["generate-sounding", "--repetitions", "2", "--out", str(out)]) == 0
        warning = "warning: repetitions=2 makes snapshot averaging degenerate"
        assert warning in capsys.readouterr().err


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
        rx = add_awgn(
            apply_channel(sounding(1000), SyntheticChannel([1.0, 0.0, 0.5])),
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

    def test_rate_comes_from_the_capture_and_every_period_is_averaged(self, tmp_path, capsys):
        """``--sample-rate`` is no flag of ``estimate``; ``--repetitions`` is
        accepted but changes no byte."""
        rx = make_capture(tmp_path, snr_db=20.0)
        out = tmp_path / "pdp.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--rx", str(rx), "--sample-rate", "1e6", "--pdp-out", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --sample-rate" in capsys.readouterr().err
        assert not out.exists()
        outputs = []
        for flags in ([], ["--repetitions", "999"]):
            assert main(["estimate", "--rx", str(rx), *flags, "--pdp-out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

    def test_config_comments_name_the_flags_and_no_separation_flag(self, tmp_path, capsys):
        """The config records the profile and ``--los``; there is no
        peak-separation flag to record."""
        rx = make_capture(tmp_path)
        pdp_path, cfg_path = tmp_path / "pdp.csv", tmp_path / "scenario.cfg"
        assert main(["estimate", "--rx", str(rx), "--pdp-out", str(pdp_path)]) == 0
        argv = ["extract", "--pdp", str(pdp_path), "--los", "--out-config", str(cfg_path)]
        assert main(argv) == 0
        comments = [line for line in cfg_path.read_text().splitlines() if line.startswith("#")]
        assert comments == [f"# extracted from {pdp_path}", "# los=true"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--min-separation-bins", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --min-separation-bins" in capsys.readouterr().err

    def test_nlos_extraction_has_no_kf(self, tmp_path, capsys):
        rx = make_capture(tmp_path)
        pdp_path = tmp_path / "pdp.csv"
        main(["estimate", "--rx", str(rx), "--pdp-out", str(pdp_path)])
        cfg_path = tmp_path / "scenario.cfg"
        rc = main(["extract", "--pdp", str(pdp_path), "--out-config", str(cfg_path)])
        assert rc == 0
        assert " x " in capsys.readouterr().out
        assert io.read_config(cfg_path).kf_median_db is None

    def test_simulated_cir_shorter_than_16_taps(self, tmp_path, capsys):
        """Too few bins to estimate a noise floor: the floor is 0, as in
        ``simulate`` and ``compare``, and ``extract`` takes the profile."""
        config = tmp_path / "short.cfg"
        io.write_config(config, dataclasses.replace(
            PRESETS["urban-nlos"], num_clusters=2, cir_length_taps=12, ds_median_s=40e-9
        ))
        sim, out = tmp_path / "sim.csv", tmp_path / "out.cfg"
        assert main(["simulate", "--config", str(config), "--pdp-out", str(sim)]) == 0
        assert main(["extract", "--pdp", str(sim), "--out-config", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[1:] == ["40.7", "x", "2"]
        assert io.read_config(out).num_clusters == 2

    def test_one_path_profile_fails_by_name_and_writes_no_config(self, tmp_path, capsys):
        """A clean one-path capture without a taper leaves one resolvable
        bin: no delay spread to draw clusters from, so no config."""
        tx, pdp, out = tmp_path / "tx.iq", tmp_path / "p.csv", tmp_path / "c.cfg"
        assert main(["generate-sounding", "--repetitions", "20", "--out", str(tx)]) == 0
        assert main(["estimate", "--rx", str(tx), "--taper", "0", "--pdp-out", str(pdp)]) == 0
        capsys.readouterr()
        assert main(["extract", "--pdp", str(pdp), "--los", "--out-config", str(out)]) == 1
        assert "extract: rms_delay_spread_s is 0" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_without_scattered_power_fails_by_name(self, tmp_path, capsys):
        """A second bin 200 dB down sums to nothing beside the peak: the
        K-factor is +inf, which no scenario config can hold."""
        pdp, out = tmp_path / "kz.csv", tmp_path / "kz.cfg"
        pdp.write_text("delay_ns,power_db\n0.000000,0.000000\n39.062500,-200.000000\n")
        assert main(["extract", "--pdp", str(pdp), "--los", "--out-config", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "cirkit extract: extract: scenario parameter kf_median_db must be finite, got inf\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_realizations_change_no_byte(self, tmp_path, capsys, preset):
        """The PDP is the exact mean over phases: ``--realizations`` is only
        checked, and 1 and 200 write the same file and print the same line."""
        outputs = []
        for count in ("1", "200"):
            out = tmp_path / "sim.csv"
            argv = ["simulate", "--config", preset, "--seed", "4", "--realizations", count]
            assert main([*argv, "--pdp-out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize(
        "command, flags", [("simulate", ["--pdp-out"]), ("dataset", ["--count", "10", "--out"])]
    )
    def test_fixed_cluster_line_fails_at_load_config(self, tmp_path, capsys, command, flags):
        """A ``fixed_cluster`` line is an unknown key, named with its file:line."""
        config = tmp_path / "old.cfg"
        text = io.config_to_text(PRESETS["urban-nlos"])
        config.write_text(text + "fixed_cluster=2e-6,0.5\n")
        line_no = len(text.splitlines()) + 1
        out = tmp_path / "out"
        assert main([command, "--config", str(config), *flags, str(out)]) == 1
        message = f"load-config: {config}:{line_no}: unknown key 'fixed_cluster'"
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("key", ["num_clusters", "cir_length_taps"])
    @pytest.mark.parametrize(
        "command, flags", [("simulate", ["--pdp-out"]), ("dataset", ["--count", "1", "--out"])]
    )
    def test_counts_beyond_a_dataset_header_fail_at_load_config(
        self, tmp_path, capsys, monkeypatch, command, flags, key
    ):
        """A count of thirty 9s fails at load-config, naming file, line and
        key, before any draw."""
        text, line_no = replace_value(io.config_to_text(PRESETS["urban-nlos"]), key, "9" * 30)
        config = tmp_path / "huge.cfg"
        config.write_text(text)

        def draw(*args):
            raise AssertionError("drew from a config that cannot be")

        monkeypatch.setattr("cirkit.gbsm._stream_block", draw)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), *flags, str(out)]) == 1
        assert capsys.readouterr().err == (
            f"cirkit {command}: load-config: {config}:{line_no}: {key} must be in "
            f"[1, 4294967295], got {'9' * 30}\n"
        )
        assert not out.exists()


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

    def test_report_comment_names_the_inputs_only(self, tmp_path):
        a = tmp_path / "a.csv"
        main(["simulate", "--config", "campus-nlos", "--seed", "4", "--pdp-out", str(a)])
        report_path = tmp_path / "r.txt"
        rc = main(
            ["compare", "--measured", str(a), "--simulated", str(a),
             "--report-out", str(report_path), "--plot-out", str(tmp_path / "p.svg")]
        )
        assert rc == 0
        comments = [line for line in report_path.read_text().splitlines() if line.startswith("#")]
        assert comments == [f"# measured={a} simulated={a}"]

    def test_zero_measured_delay_spread_fails_at_compare(self, tmp_path, capsys):
        measured, simulated = tmp_path / "m.csv", tmp_path / "s.csv"
        measured.write_text("delay_ns,power_db\n0.0,0.0\n")
        simulated.write_text("delay_ns,power_db\n0.0,0.0\n10.0,-3.0\n")
        rc = main(
            ["compare", "--measured", str(measured), "--simulated", str(simulated),
             "--report-out", str(tmp_path / "r.txt"), "--plot-out", str(tmp_path / "p.svg")]
        )
        assert rc == 1
        assert "compare: measured delay spread is 0" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.csv", "s.csv"]


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

    @pytest.mark.parametrize("taper", ["0.1", "0"])
    @pytest.mark.parametrize(
        "spec", ["0,1;1.2e-7,0.6;3.1e-7,0.3", "0,1;7.8125e-8,0.5", "0,0.5;1e-6,1"]
    )
    def test_agrees_with_estimate_and_extract(self, tmp_path, capsys, spec, taper):
        """Loopback's received signal, written as a capture, gives ``estimate``
        then ``extract`` the DS, KF and cluster count loopback prints: the
        signal in memory takes the file's path. 700 periods span three
        mitigation chunks. The last channel's strongest path comes second,
        so its first path wraps to the end of the delay axis; both paths
        recover the same wrong DS, and loopback exits 1."""
        flags = ["--repetitions", "700", "--snr-db", "20", "--seed", "4", "--taper", taper]
        main(["loopback", "--channel-spec", spec, *flags])
        printed = capsys.readouterr().out
        ds, clusters = re.search(r"recovered DS +([\d.]+) ns +\((\d+) clusters", printed).groups()
        kf = re.search(r"recovered KF +(\S+)", printed).group(1)

        channel, _, _ = _parse_channel_spec(spec, DEFAULT_SAMPLE_RATE_HZ, SEQUENCE.size)
        rx, pdp = tmp_path / "rx.iq", tmp_path / "pdp.csv"
        io.write_iq(rx, add_awgn(apply_channel(sounding(700), channel), 20.0, 4))
        assert main(["estimate", "--rx", str(rx), "--taper", taper, "--pdp-out", str(pdp)]) == 0
        assert main(["extract", "--pdp", str(pdp), "--los",
                     "--out-config", str(tmp_path / "c.cfg")]) == 0
        _, extracted_ds, extracted_kf, extracted_clusters = (
            capsys.readouterr().out.splitlines()[-1].split()
        )
        # extract prints the DS to 0.1 ns, loopback to 0.01 ns
        assert abs(float(extracted_ds) - float(ds)) <= 0.055
        assert (extracted_kf, extracted_clusters) == (kf, clusters)

    def test_bad_channel_spec(self, capsys):
        rc = main(["loopback", "--channel-spec", "0"])
        assert rc == 1
        assert "channel" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0.2,1", "1e300,1", "0,1;1.37890625e-5,1"])
    def test_delay_beyond_one_period_fails_before_any_tap_array(self, capsys, spec):
        """A delay at tap 353 or later fails at ``channel-spec``, naming the
        delay and the period, with no warning and no tap array allocated."""
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["loopback", "--channel-spec", spec])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        delay = spec.split(";")[-1].split(",")[0]
        err = capsys.readouterr().err
        assert f"channel-spec: channel delay {float(delay)} s lies beyond" in err
        assert "period of 353 samples" in err
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("snr", [[], ["--snr-db", "10"]], ids=["noiseless", "10dB"])
    @pytest.mark.parametrize("spec", ["0,1;1e-8,-1", "0,0.5;0,-0.5", "0,0"])
    def test_paths_that_cancel_on_the_tap_grid_fail_at_channel_spec(
        self, capsys, monkeypatch, spec, snr
    ):
        """0 and 10 ns both round to tap 0 at 25.6 MS/s, where amplitudes 1
        and -1 cancel: the spec is refused by name before the sounding is
        built, not at ``extract`` or ``apply-channel``."""
        monkeypatch.setattr("cirkit.sounder.build_sounding_signal", _no_work)
        rc = main(["loopback", "--channel-spec", spec, *snr])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            "cirkit loopback: channel-spec: "
            "channel must have at least one nonzero amplitude on the tap grid\n"
        )
        assert captured.out == ""

    def test_delay_at_the_last_tap_of_the_period_is_taken(self):
        channel, delays, _ = _parse_channel_spec("0,1;1.375e-5,1", 25.6e6, 353)
        assert channel.taps.size == 353
        assert delays[-1] == pytest.approx(1.375e-5)

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--channel-spec=nan,1", "channel delays must be finite"),
            ("--channel-spec=0,1;inf,1", "channel delays must be finite"),
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


BAD_NUMBER_FLAGS = [
    ("--taper=-0.2", "--taper must be 0 or lie in (0, 0.5], got -0.2"),
    ("--taper=nan", "--taper must be 0 or lie in (0, 0.5], got nan"),
    ("--taper=inf", "--taper must be 0 or lie in (0, 0.5], got inf"),
    ("--taper=0.7", "--taper must be 0 or lie in (0, 0.5], got 0.7"),
]
MISSING = {
    "estimate": ["--rx", "{tmp}/missing.iq", "--pdp-out", "{tmp}/p.csv"],
    "extract": ["--pdp", "{tmp}/missing.csv", "--out-config", "{tmp}/c.cfg"],
    "compare": ["--measured", "{tmp}/m.csv", "--simulated", "{tmp}/s.csv",
                "--report-out", "{tmp}/r.txt", "--plot-out", "{tmp}/p.svg"],
    "loopback": [],
}
# Bad values of the flags that the fixed 6 dB margin and the fixed one-bin
# loopback tolerance replaced: argparse refuses each one, naming it (exit 2).
GONE_FLAG_VALUES = [
    (command, f"--margin-db={value}", f"--margin-db={value}")
    for command in ["estimate", "extract", "compare", "loopback"]
    for value in ["nan", "inf", "-inf"]
] + [
    ("loopback", f"--ds-tolerance-bins={value}", f"--ds-tolerance-bins={value}")
    for value in ["nan", "inf", "-1"]
]


@pytest.mark.parametrize(
    "command, flag, message",
    [("estimate", *case) for case in BAD_NUMBER_FLAGS]
    + [("loopback", *case) for case in BAD_NUMBER_FLAGS]
    + GONE_FLAG_VALUES,
)
def test_bad_number_flag_fails_by_name_before_any_work(tmp_path, capsys, command, flag, message):
    """Named before the missing input files are opened or the loopback runs."""
    argv = [command, flag, *(arg.format(tmp=tmp_path) for arg in MISSING[command])]
    if (command, flag, message) in GONE_FLAG_VALUES:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.err.endswith(f"error: unrecognized arguments: {message}\n")
    else:
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"cirkit {command}: {message}\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag",
    [(command, "--margin-db=6") for command in ["estimate", "extract", "compare", "loopback"]]
    + [("loopback", "--ds-tolerance-bins=1")],
)
def test_threshold_flags_are_gone(tmp_path, capsys, command, flag):
    """The 6 dB margin and the one-bin loopback tolerance are fixed: no flag
    sets them, and the command line naming one is refused before any work."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, *(arg.format(tmp=tmp_path) for arg in MISSING[command])])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _no_work(*args):
    raise AssertionError("the capture was opened or the sounding built")


@pytest.mark.parametrize("command", ["estimate", "loopback"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--zc-length=12", "Zadoff-Chu length must be prime, got 12"),
        ("--zc-root=0", "Zadoff-Chu root must satisfy 0 < root < length, got root=0, length=353"),
        ("--repetitions=0", "repetitions must be >= 1"),
    ],
)
def test_bad_waveform_fails_at_the_waveform_stage(tmp_path, capsys, monkeypatch, command, flag, message):
    """Named before the capture is opened or the loopback's sounding is built."""
    monkeypatch.setattr("cirkit.cli._CaptureFile", _no_work)
    monkeypatch.setattr("cirkit.sounder.build_sounding_signal", _no_work)
    rc = main([command, flag, *(arg.format(tmp=tmp_path) for arg in MISSING[command])])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"cirkit {command}: waveform: {message}\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, stage", [("generate-sounding", "generate-sounding"), ("loopback", "waveform")]
)
@pytest.mark.parametrize("rate", ["nan", "inf", "0", "-1"])
def test_bad_sample_rate_fails_at_the_waveform_stage(
    tmp_path, capsys, monkeypatch, command, stage, rate
):
    """Named by the capture's rule, before the channel spec is parsed, the
    sounding built or a file written."""
    monkeypatch.setattr("cirkit.sounder.build_sounding_signal", _no_work)
    monkeypatch.setattr("cirkit.cli._parse_channel_spec", _no_work)
    out = ["--out", str(tmp_path / "tx.iq")] if command == "generate-sounding" else []
    rc = main([command, f"--sample-rate={rate}", *out])
    captured = capsys.readouterr()
    assert rc == 1
    message = f"sample_rate_hz must be finite and positive, got {float(rate)}"
    assert captured.err == f"cirkit {command}: {stage}: {message}\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_zero_taper_is_off_and_a_tiny_one_is_on(tmp_path):
    rx = make_capture(tmp_path, snr_db=20.0)
    outputs = {}
    for taper in ["0", "-0", "1e-9", "0.1"]:
        out = tmp_path / f"pdp{taper}.csv"
        assert main(["estimate", "--rx", str(rx), "--taper", taper, "--pdp-out", str(out)]) == 0
        outputs[taper] = out.read_bytes()
    assert outputs["-0"] == outputs["0"]
    assert outputs["1e-9"] != outputs["0"]  # the smallest edge, one bin, and the guard


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


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 526. GiB for an array")


@pytest.mark.parametrize(
    "argv, target, stage",
    [
        (["loopback", "--repetitions", "100000000"],
         "cirkit.sounder.build_sounding_signal", "build"),
        (["dataset", "--config", "campus-nlos", "--count", "1", "--out", "{tmp}/d.chds"],
         "cirkit.gbsm._map_chunks", "dataset"),
    ],
    ids=["loopback-build", "dataset-dataset"],
)
def test_out_of_memory_fails_at_its_stage(tmp_path, capsys, monkeypatch, argv, target, stage):
    """A stage that cannot allocate exits 1 and names itself, with no traceback."""
    monkeypatch.setattr(target, _out_of_memory)
    rc = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        f"cirkit {argv[0]}: {stage}: Unable to allocate 526. GiB for an array\n"
    )
    assert not list(tmp_path.iterdir())


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "353" in text  # default sequence length printed
        assert "default" in text


COMMANDS = ["generate-sounding", "estimate", "extract", "simulate", "dataset", "compare",
            "loopback"]
SRC = Path(cirkit.__file__).resolve().parents[1]


def run_fresh(argv, cwd):
    """``cirkit argv`` in a fresh interpreter: exit code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "cirkit.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def run_in_process(argv, capsys):
    """``main(argv)`` in this process: exit code (argparse's too), stdout, stderr."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParserReuse:
    def test_import_builds_no_parser_and_main_builds_one(self):
        """Counts the argparse parsers made by an import and by two calls."""
        script = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import cirkit.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cirkit.cli.main(['loopback']) == 0\n"
            "    counts.append(len(built))\n"
            "print(counts)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120, check=True,
        )
        # the top-level parser and one per subcommand, once
        assert done.stdout.strip() == f"[0, {1 + len(COMMANDS)}, {1 + len(COMMANDS)}]"

    def test_in_process_sequence_matches_fresh_processes(self, tmp_path, monkeypatch, capsys):
        """One process running a sequence of commands, with an argparse error
        and a stage failure among them, writes the same bytes and prints the
        same text as a fresh process per command."""
        sequence = [
            ["estimate", "--rx", "rx.iq", "--pdp-out", "e.csv"],
            ["estimate", "--rx", "rx.iq", "--taper", "0", "--pdp-out", "e0.csv"],
            ["extract", "--pdp", "e.csv", "--los", "--out-config", "c.cfg",
             "--defaults", "urban-los"],
            ["simulate", "--config", "c.cfg", "--seed", "1", "--realizations", "20",
             "--pdp-out", "s1.csv"],
            ["simulate", "--config", "c.cfg", "--seed", "one", "--pdp-out", "x.csv"],
            ["simulate", "--config", "c.cfg", "--seed", "2", "--realizations", "20",
             "--pdp-out", "s2.csv"],
            ["simulate", "--config", "mars-los", "--pdp-out", "x.csv"],
            ["compare", "--measured", "e.csv", "--simulated", "s1.csv",
             "--report-out", "r.txt", "--plot-out", "p.svg"],
            ["dataset", "--config", "c.cfg", "--seed", "3", "--count", "5", "--out", "d.chds"],
            ["loopback", "--channel-spec", "0,1;1e-7,0.5", "--snr-db", "30"],
        ]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        for work in (fresh, reused):
            work.mkdir()
            make_capture(work, snr_db=25.0)
        expected = [run_fresh(argv, fresh) for argv in sequence]
        monkeypatch.chdir(reused)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage message to it
        got = [run_in_process(argv, capsys) for argv in sequence]
        assert [rc for rc, _, _ in got] == [0, 0, 0, 0, 2, 0, 1, 0, 0, 0]
        assert got == expected
        names = sorted(path.name for path in fresh.iterdir())
        assert names == sorted(path.name for path in reused.iterdir())
        assert "x.csv" not in names
        for name in names:
            assert (fresh / name).read_bytes() == (reused / name).read_bytes(), name

    def test_help_text_matches_a_fresh_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in [["--help"]] + [[command, "--help"] for command in COMMANDS]:
            expected = run_fresh(argv, tmp_path)
            assert expected[0] == 0 and expected[1].startswith("usage: cirkit")
            # twice, so that the second call reads the parser the first built
            assert run_in_process(argv, capsys) == expected
            assert run_in_process(argv, capsys) == expected
