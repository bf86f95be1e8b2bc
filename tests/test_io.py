import dataclasses
import struct

import numpy as np
import pytest

from cirkit import io
from cirkit.analysis import ComparisonReport, PowerDelayProfile, normalize_pdp
from cirkit.errors import (
    BadMagicError,
    BadVersionError,
    CorruptFileError,
    MissingSidecarError,
    SizeMismatchError,
    ValidationError,
)
from cirkit.gbsm import PRESETS
from cirkit.signal import IqSignal


def f32_signal(rng, n=1000, rate=25.6e6):
    """Random signal whose samples are exactly float32 representable."""
    samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
    return IqSignal(samples.astype(np.complex128), rate, 2.48e9)


class TestIq:
    def test_round_trip_bit_identical(self, tmp_path):
        sig = f32_signal(np.random.default_rng(0))
        path = tmp_path / "capture.iq"
        io.write_iq(path, sig)
        back = io.read_iq(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.sample_rate_hz == sig.sample_rate_hz
        assert back.center_frequency_hz == sig.center_frequency_hz

    def test_format_definition(self, tmp_path):
        path = tmp_path / "three.iq"
        np.array([1, 0, 0, 1, -1, 0], dtype="<f4").tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=25600000.0\ncenter_frequency_hz=0.0\n"
        )
        sig = io.read_iq(path)
        np.testing.assert_array_equal(sig.samples, [1.0, 1j, -1.0])

    def test_odd_float_count_rejected(self, tmp_path):
        path = tmp_path / "trunc.iq"
        np.array([1, 0, 0], dtype="<f4").tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        with pytest.raises(CorruptFileError, match="odd float count"):
            io.read_iq(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_named(self, tmp_path, value):
        path = tmp_path / "bad.iq"
        floats = np.ones(10, dtype="<f4")
        floats[7] = value  # the Q part of sample 3
        floats.tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        with pytest.raises(CorruptFileError, match="sample 3 is not finite"):
            io.read_iq(path)

    def test_missing_sidecar_names_path(self, tmp_path):
        path = tmp_path / "lonely.iq"
        np.array([1, 0], dtype="<f4").tofile(path)
        with pytest.raises(MissingSidecarError, match="lonely.iq.meta"):
            io.read_iq(path)

    def test_numpy_scalar_metadata_round_trips(self, tmp_path):
        path = tmp_path / "np.iq"
        io.write_iq(path, IqSignal([1.0], np.float64(25.6e6), np.float64(2.48e9)))
        assert path.with_name("np.iq.meta").read_text() == (
            "sample_rate_hz=25600000.0\ncenter_frequency_hz=2480000000.0\n"
        )
        assert io.read_iq(path).sample_rate_hz == 25.6e6

    def test_rewrites_are_deterministic(self, tmp_path):
        sig = f32_signal(np.random.default_rng(1))
        a, b = tmp_path / "a.iq", tmp_path / "b.iq"
        io.write_iq(a, sig)
        io.write_iq(b, sig)
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_round_trip(self, tmp_path, name):
        path = tmp_path / f"{name}.cfg"
        io.write_config(path, PRESETS[name])
        assert io.read_config(path) == PRESETS[name]
        if not PRESETS[name].los:
            assert "kf_median_db" not in path.read_text()

    def test_fixed_clusters_round_trip_in_order(self, tmp_path):
        config = dataclasses.replace(
            PRESETS["urban-nlos"], fixed_clusters=((2e-7, 0.25), (1e-7, 0.5))
        )
        path = tmp_path / "fixed.cfg"
        io.write_config(path, config)
        back = io.read_config(path)
        assert back.fixed_clusters == ((2e-7, 0.25), (1e-7, 0.5))

    def test_los_without_kf_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        text = io.config_to_text(PRESETS["urban-los"])
        text = "\n".join(l for l in text.splitlines() if not l.startswith("kf_median_db"))
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match="kf_median_db"):
            io.read_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "unknown.cfg"
        path.write_text(io.config_to_text(PRESETS["urban-nlos"]) + "mystery=1\n")
        with pytest.raises(ValidationError, match="mystery"):
            io.read_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(io.config_to_text(PRESETS["urban-nlos"]) + "label=again\n")
        with pytest.raises(ValidationError, match="duplicate"):
            io.read_config(path)

    def test_bad_number_names_key_and_line(self, tmp_path):
        path = tmp_path / "badnum.cfg"
        lines = [
            "ds_median_s=not-a-number" if l.startswith("ds_median_s") else l
            for l in io.config_to_text(PRESETS["urban-nlos"]).splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"badnum.cfg:\d+.*ds_median_s"):
            io.read_config(path)

    def test_missing_mandatory_key_rejected(self, tmp_path):
        path = tmp_path / "missing.cfg"
        text = "\n".join(
            l
            for l in io.config_to_text(PRESETS["urban-nlos"]).splitlines()
            if not l.startswith("num_clusters")
        )
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match="num_clusters"):
            io.read_config(path)

    def test_canonical_bytes(self, tmp_path):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        io.write_config(a, PRESETS["campus-los"])
        io.write_config(b, PRESETS["campus-los"])
        assert a.read_bytes() == b.read_bytes()

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "comments.cfg"
        io.write_config(path, PRESETS["urban-los"], comments=("provenance line", "two"))
        assert io.read_config(path) == PRESETS["urban-los"]


class TestPdpCsv:
    def test_single_tap_exact_bytes(self, tmp_path):
        path = tmp_path / "single.csv"
        io.write_pdp_csv(path, PowerDelayProfile([0.0], [1.0]))
        assert path.read_text() == "delay_ns,power_db\n0.000000,0.000000\n"

    def test_round_trip_within_db_tolerance(self, tmp_path):
        rng = np.random.default_rng(2)
        pdp = normalize_pdp(
            PowerDelayProfile(
                np.arange(64) / 25.6e6, rng.uniform(1e-6, 1.0, 64), noise_floor_linear=1e-7
            )
        )
        path = tmp_path / "pdp.csv"
        io.write_pdp_csv(path, pdp)
        back = io.read_pdp_csv(path)
        db_orig = 10 * np.log10(pdp.powers_linear)
        db_back = 10 * np.log10(back.powers_linear)
        assert np.max(np.abs(db_orig - db_back)) < 1e-5
        np.testing.assert_allclose(back.delays_s, pdp.delays_s, atol=1e-15)

    def test_deterministic_bytes(self, tmp_path):
        pdp = PowerDelayProfile([0.0, 1e-7], [0.25, 1.0])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_pdp_csv(a, pdp)
        io.write_pdp_csv(b, pdp)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("0.0,0.0\n")
        with pytest.raises(CorruptFileError, match="header"):
            io.read_pdp_csv(path)

    def test_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# made by hand\ndelay_ns,power_db\n\n0.0,0.0\n# note\n\n1.0,x\n")
        with pytest.raises(CorruptFileError, match="p.csv:7: bad number"):
            io.read_pdp_csv(path)

    def test_indented_comment_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("  # made by hand\ndelay_ns,power_db\n0.0,0.0\n\t# note\n1.0,-3.0\n")
        back = io.read_pdp_csv(path)
        np.testing.assert_array_equal(back.delays_s, [0.0, 1e-9])
        np.testing.assert_array_equal(back.powers_linear, [1.0, 10.0 ** -0.3])

    def test_zero_power_round_trips_as_minus_inf_db(self, tmp_path):
        path = tmp_path / "zero.csv"
        io.write_pdp_csv(path, PowerDelayProfile([0.0, 1e-8], [1.0, 0.0]))
        assert path.read_text() == "delay_ns,power_db\n0.000000,0.000000\n10.000000,-inf\n"
        np.testing.assert_array_equal(io.read_pdp_csv(path).powers_linear, [1.0, 0.0])


class TestAlignedCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "aligned.csv"
        delays, measured, simulated = np.array([[0.0, 2.5e-9], [1.0, 0.5], [0.0, 1.0]])
        io.write_aligned_csv(path, delays, measured, simulated)
        assert path.read_text() == (
            "delay_ns,measured_db,simulated_db\n"
            "0.000000,0.000000,-inf\n"
            "2.500000,-3.010300,0.000000\n"
        )


class TestReport:
    def test_round_trip(self, tmp_path):
        report = ComparisonReport(1.5e-9, 0.012, -2, 3.75)
        path = tmp_path / "report.txt"
        io.write_report(path, report, comments=("margin_db=6.0",))
        values = io.read_report(path)
        assert values["ds_error_s"] == 1.5e-9
        assert values["ds_relative_error"] == 0.012
        assert values["cluster_count_diff"] == -2
        assert values["mean_abs_db_deviation"] == 3.75


NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e999"]
CONFIG_FLOAT_KEYS = [
    "ds_median_s",
    "ds_sigma_log10",
    "kf_median_db",
    "kf_sigma_db",
    "r_tau",
    "per_cluster_shadowing_db",
    "sample_rate_hz",
]


def replace_value(text: str, key: str, value: str) -> tuple[str, int]:
    """``text`` with ``key``'s value replaced, and the file line of that key."""
    lines = text.splitlines()
    line_no = next(i for i, line in enumerate(lines, 1) if line.startswith(key + "="))
    lines[line_no - 1] = f"{key}={value}"
    return "\n".join(lines) + "\n", line_no


class TestNonFiniteNumbers:
    """Every text format rejects NaN and infinite numbers, naming file:line."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("key", CONFIG_FLOAT_KEYS)
    def test_config_float_keys(self, tmp_path, key, value):
        text = io.config_to_text(PRESETS["urban-los"], ("two", "comments"))
        text, line_no = replace_value(text, key, value)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match=rf"bad.cfg:{line_no}: cannot parse {key} value"):
            io.read_config(path)

    @pytest.mark.parametrize("pair", ["nan,0.5", "1e-7,nan", "inf,0.5", "1e-7,inf", "1e-7,-inf"])
    def test_config_fixed_cluster(self, tmp_path, pair):
        path = tmp_path / "bad.cfg"
        text = io.config_to_text(PRESETS["urban-nlos"])
        path.write_text(text + f"fixed_cluster={pair}\n")
        line_no = len(text.splitlines()) + 1
        message = rf"bad.cfg:{line_no}: cannot parse fixed_cluster"
        with pytest.raises(ValidationError, match=message):
            io.read_config(path)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("line_no, key", [(1, "sample_rate_hz"), (2, "center_frequency_hz")])
    def test_iq_sidecar(self, tmp_path, line_no, key, value):
        path = tmp_path / "bad.iq"
        io.write_iq(path, IqSignal([1.0, 1j], 25.6e6, 2.48e9))
        meta = path.with_name(path.name + ".meta")
        meta.write_text(replace_value(meta.read_text(), key, value)[0])
        message = rf"bad.iq.meta:{line_no}: bad number for {key}"
        for parse in (io.read_iq, io.IqReader):
            with pytest.raises(CorruptFileError, match=message):
                parse(path)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "key", ["ds_error_s", "ds_relative_error", "cluster_count_diff", "mean_abs_db_deviation"]
    )
    def test_report(self, tmp_path, key, value):
        path = tmp_path / "bad.txt"
        io.write_report(path, ComparisonReport(1.5e-9, 0.012, -2, 3.75), comments=("c",))
        text, line_no = replace_value(path.read_text(), key, value)
        path.write_text(text)
        with pytest.raises(CorruptFileError, match=rf"bad.txt:{line_no}: bad number for {key}"):
            io.read_report(path)

    @pytest.mark.parametrize(
        "row", ["nan,0.0", "inf,0.0", "-inf,0.0", "1e999,0.0", "10.0,nan", "10.0,inf", "10.0,1e999"]
    )
    def test_pdp_csv(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"delay_ns,power_db\n0.0,0.0\n{row}\n20.0,-3.0\n")
        with pytest.raises(CorruptFileError, match="bad.csv:3: bad number"):
            io.read_pdp_csv(path)


class TestDataset:
    def _dataset(self, rng, count=10, taps=16):
        snaps = (rng.standard_normal((count, taps)) + 1j * rng.standard_normal((count, taps)))
        snaps = snaps.astype(np.complex64).astype(np.complex128)
        return io.Dataset(snaps, 25.6e6, "label=test\n")

    def test_size_arithmetic(self, tmp_path):
        ds = self._dataset(np.random.default_rng(3), count=1, taps=4)
        path = tmp_path / "tiny.chds"
        io.write_dataset(path, ds)
        assert path.stat().st_size == 26 + len(ds.config_text.encode()) + 32

    def test_round_trip_bit_identical(self, tmp_path):
        ds = self._dataset(np.random.default_rng(4))
        path = tmp_path / "ds.chds"
        io.write_dataset(path, ds)
        back = io.read_dataset(path)
        np.testing.assert_array_equal(back.snapshots, ds.snapshots)
        assert back.sample_rate_hz == ds.sample_rate_hz
        assert back.config_text == ds.config_text
        second = tmp_path / "ds2.chds"
        io.write_dataset(second, back)
        assert second.read_bytes() == path.read_bytes()

    def test_bad_magic_named_error(self, tmp_path):
        ds = self._dataset(np.random.default_rng(5))
        path = tmp_path / "bad.chds"
        io.write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            io.read_dataset(path)

    def test_bad_version_named_error(self, tmp_path):
        ds = self._dataset(np.random.default_rng(6))
        path = tmp_path / "badv.chds"
        io.write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            io.read_dataset(path)

    def test_truncated_payload_named_error(self, tmp_path):
        ds = self._dataset(np.random.default_rng(7))
        path = tmp_path / "short.chds"
        io.write_dataset(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(SizeMismatchError):
            io.read_dataset(path)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_header_rate_rejected(self, tmp_path, rate):
        ds = self._dataset(np.random.default_rng(9), count=1, taps=4)
        path = tmp_path / "rate.chds"
        io.write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[14:22] = struct.pack("<d", rate)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="sample_rate_hz must be finite"):
            io.read_dataset(path)

    def test_header_smaller_than_minimum(self, tmp_path):
        path = tmp_path / "stub.chds"
        path.write_bytes(b"CHDS\x01")
        with pytest.raises(SizeMismatchError):
            io.read_dataset(path)

    def test_blob_length_beyond_file_never_overreads(self, tmp_path):
        ds = self._dataset(np.random.default_rng(8), count=1, taps=4)
        path = tmp_path / "lying.chds"
        io.write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[22:26] = struct.pack("<I", 10**6)  # declared blob far beyond EOF
        path.write_bytes(bytes(raw))
        with pytest.raises(SizeMismatchError):
            io.read_dataset(path)


class TestNonUtf8Text:
    """Undecodable text fails with a named error that names the file."""

    def test_config(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(io.config_to_text(PRESETS["urban-los"]).encode() + b"# \xff\n")
        with pytest.raises(ValidationError, match="bad.cfg: not UTF-8"):
            io.read_config(path)

    def test_pdp_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"delay_ns,power_db\n0.0,\xff\n")
        with pytest.raises(CorruptFileError, match="bad.csv: not UTF-8"):
            io.read_pdp_csv(path)

    def test_iq_sidecar(self, tmp_path):
        path = tmp_path / "bad.iq"
        np.array([1, 0], dtype="<f4").tofile(path)
        path.with_name(path.name + ".meta").write_bytes(b"sample_rate_hz=1.0\xff\n")
        with pytest.raises(CorruptFileError, match=r"bad.iq.meta: not UTF-8"):
            io.read_iq(path)

    def test_dataset_config_blob(self, tmp_path):
        path = tmp_path / "bad.chds"
        io.write_dataset(path, io.Dataset(np.ones((1, 2)), 1.0, "x"))
        raw = bytearray(path.read_bytes())
        raw[struct.calcsize("<4sHIIdI")] = 0xFF  # the one-byte config blob
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFileError, match="bad.chds: config blob is not UTF-8"):
            io.read_dataset(path)

    def test_report(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ds_error_s=1\xff\n")
        with pytest.raises(CorruptFileError, match="bad.txt: not UTF-8"):
            io.read_report(path)
        path.write_text("ds_error_s=abc\n")
        with pytest.raises(CorruptFileError, match="bad.txt:1: bad number for ds_error_s"):
            io.read_report(path)

    def test_pdp_csv_overflowing_power(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("delay_ns,power_db\n0.0,1e308\n")
        with pytest.raises(CorruptFileError, match="big.csv:2: bad number"):
            io.read_pdp_csv(path)


class TestIqReader:
    def test_ranges_equal_the_whole_read(self, tmp_path):
        sig = f32_signal(np.random.default_rng(3), n=1001)
        path = tmp_path / "capture.iq"
        io.write_iq(path, sig)
        reader = io.IqReader(path)
        assert len(reader) == 1001
        assert reader.sample_rate_hz == sig.sample_rate_hz
        assert reader.center_frequency_hz == sig.center_frequency_hz
        for lo, hi in [(0, 1001), (0, 0), (500, 501), (17, 999)]:
            assert np.array_equal(reader.read(lo, hi), sig.samples[lo:hi])
            assert np.array_equal(sig.read(lo, hi), sig.samples[lo:hi])
        for lo, hi in [(-1, 5), (5, 4), (0, 1002)]:
            with pytest.raises(ValidationError, match=r"no samples \["):
                reader.read(lo, hi)

    def test_open_checks_size_and_sidecar_but_not_samples(self, tmp_path):
        path = tmp_path / "late-nan.iq"
        floats = np.ones(10, dtype="<f4")
        floats[9] = np.nan
        floats.tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        reader = io.IqReader(path)
        assert np.array_equal(reader.read(0, 4), np.full(4, 1 + 1j))
        with pytest.raises(CorruptFileError, match="sample 4 is not finite"):
            reader.read(3, 5)

    @pytest.mark.parametrize(
        "meta, message",
        [
            ("sample_rate_hz=0.0\ncenter_frequency_hz=0.0\n", "sample_rate_hz must be"),
            ("sample_rate_hz=1.0\ncenter_frequency_hz=-1.0\n", "center_frequency_hz must be"),
        ],
    )
    def test_open_checks_metadata_like_iq_signal(self, tmp_path, meta, message):
        path = tmp_path / "meta.iq"
        np.array([1, 0], dtype="<f4").tofile(path)
        path.with_name(path.name + ".meta").write_text(meta)
        for parse in (io.IqReader, io.read_iq):
            with pytest.raises(ValidationError, match=message):
                parse(path)

    def test_empty_file_rejected_at_open(self, tmp_path):
        path = tmp_path / "empty.iq"
        path.write_bytes(b"")
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        with pytest.raises(ValidationError, match="non-empty"):
            io.IqReader(path)
