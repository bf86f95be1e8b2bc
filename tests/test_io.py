import dataclasses
import errno
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_fuzz_parsers import FUZZ, mutated, valid_pdp_csv

from cirkit import io, svgplot
from cirkit.analysis import ComparisonReport, PowerDelayProfile, normalize_pdp
from cirkit.errors import (
    BadMagicError,
    BadVersionError,
    CorruptFileError,
    FileFormatError,
    MissingSidecarError,
    SizeMismatchError,
    ValidationError,
)
from cirkit.gbsm import PRESETS, generate_dataset
from cirkit.signal import IqSignal


def write_chds(path, dataset):
    """Write ``dataset`` through the CHDS writer of ``cirkit dataset``."""
    io._write_chds(path, dataset.snapshot_count, dataset.cir_length_taps,
                   dataset.sample_rate_hz, dataset.config_text, [dataset.snapshots])


def read_range(capture, lo, hi):
    """Samples ``lo`` to ``hi`` of ``capture``, read through its
    ``read_into`` into a new array."""
    out = np.empty(hi - lo, dtype=np.complex128)
    capture.read_into(lo, out, np.empty(hi - lo))
    return out


def read_whole(path):
    """Every sample of a capture, read through ``io.IqReader``."""
    reader = io.IqReader(path)
    return IqSignal(read_range(reader, 0, len(reader)), reader.sample_rate_hz,
                    reader.center_frequency_hz)


def f32_signal(rng, n=1000, rate=25.6e6):
    """Random signal whose samples are exactly float32 representable."""
    samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
    return IqSignal(samples.astype(np.complex128), rate, 2.48e9)


class TestIq:
    def test_round_trip_bit_identical(self, tmp_path):
        sig = f32_signal(np.random.default_rng(0))
        path = tmp_path / "capture.iq"
        io.write_iq(path, sig)
        back = read_whole(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.sample_rate_hz == sig.sample_rate_hz
        assert back.center_frequency_hz == sig.center_frequency_hz

    def test_format_definition(self, tmp_path):
        path = tmp_path / "three.iq"
        np.array([1, 0, 0, 1, -1, 0], dtype="<f4").tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=25600000.0\ncenter_frequency_hz=0.0\n"
        )
        sig = read_whole(path)
        np.testing.assert_array_equal(sig.samples, [1.0, 1j, -1.0])

    def test_odd_float_count_rejected(self, tmp_path):
        path = tmp_path / "trunc.iq"
        np.array([1, 0, 0], dtype="<f4").tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        with pytest.raises(CorruptFileError, match="odd float count"):
            io.IqReader(path)

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
            read_whole(path)

    def test_missing_sidecar_names_path(self, tmp_path):
        path = tmp_path / "lonely.iq"
        np.array([1, 0], dtype="<f4").tofile(path)
        with pytest.raises(MissingSidecarError, match="lonely.iq.meta"):
            io.IqReader(path)

    def test_numpy_scalar_metadata_round_trips(self, tmp_path):
        path = tmp_path / "np.iq"
        io.write_iq(path, IqSignal([1.0], np.float64(25.6e6), np.float64(2.48e9)))
        assert path.with_name("np.iq.meta").read_text() == (
            "sample_rate_hz=25600000.0\ncenter_frequency_hz=2480000000.0\n"
        )
        assert io.IqReader(path).sample_rate_hz == 25.6e6

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

    def test_los_without_kf_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        text = io.config_to_text(PRESETS["urban-los"])
        text = "\n".join(l for l in text.splitlines() if not l.startswith("kf_median_db"))
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match="kf_median_db"):
            io.read_config(path)

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("num_clusters", "0", "num_clusters must be in [1, 4294967295], got 0"),
            ("cir_length_taps", "4294967296",
             "cir_length_taps must be in [1, 4294967295], got 4294967296"),
            ("r_tau", "1.0", "r_tau must be > 1"),
            ("kf_sigma_db", "-1.0", "kf_sigma_db must be >= 0"),
            ("sample_rate_hz", "0.0", "sample_rate_hz must be finite and positive, got 0.0"),
            ("sample_rate_hz", "-1", "sample_rate_hz must be finite and positive, got -1.0"),
        ],
    )
    def test_rejected_value_names_file_line_and_key(self, tmp_path, key, value, rule):
        text, line_no = replace_value(io.config_to_text(PRESETS["urban-los"]), key, value)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:{line_no}: {rule}')}$"):
            io.read_config(path)

    def test_rejected_pair_names_the_file(self, tmp_path):
        # two keys are at fault together, so no one line is named
        text, _ = replace_value(io.config_to_text(PRESETS["urban-los"]), "los", "false")
        path = tmp_path / "c.cfg"
        path.write_text(text)
        message = f"{path}: NLOS scenario must not carry kf_median_db"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
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
            PowerDelayProfile(np.arange(64) / 25.6e6, rng.uniform(1e-6, 1.0, 64)),
            1e-7 * 10**0.6,
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

    @pytest.mark.parametrize(
        "rows, line_no",
        [("0.0,0.0\n999.0,0.0\n20.0,0.0", 3), ("0.0,0.0\n10.0,0.0\n20.0,0.0\n21.0,0.0\n40.0,0.0", 5)],
    )
    def test_middle_delay_off_the_grid_rejected(self, tmp_path, rows, line_no):
        path = tmp_path / "bad.csv"
        path.write_text(f"delay_ns,power_db\n{rows}\n")
        with pytest.raises(CorruptFileError, match=f"bad.csv:{line_no}: delay off the uniform"):
            io.read_pdp_csv(path)

    @pytest.mark.parametrize("rate_hz", [25.6e6, 30.72e6, 61.44e6, 1e9, 3e5])
    @pytest.mark.parametrize("bins", [2, 353, 4096])
    def test_written_grids_read_back(self, tmp_path, rate_hz, bins):
        """The six-decimal rounding of a written grid stays inside the
        reader's grid tolerance."""
        delays = np.arange(bins) / rate_hz
        path = tmp_path / "pdp.csv"
        io.write_pdp_csv(path, PowerDelayProfile(delays, np.linspace(1.0, 0.0, bins)))
        np.testing.assert_allclose(io.read_pdp_csv(path).delays_s, delays, rtol=0, atol=1e-15)


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


def reference_read_pdp_csv(path) -> PowerDelayProfile:
    """The row-by-row PDP-CSV reader that ``io.read_pdp_csv``'s column pass
    replaced, kept as its reference: each row split and each cell parsed
    by ``io._finite`` in turn."""
    lines = iter(io._lines(io._read_text(path)))
    if next(lines, (0, ""))[1] != "delay_ns,power_db":
        raise CorruptFileError(f"{path}: missing 'delay_ns,power_db' header")
    line_nos = []
    delays_ns = []
    powers = []
    for line_no, line in lines:
        parts = line.split(",")
        if len(parts) != 2:
            raise CorruptFileError(f"{path}:{line_no}: expected two columns")
        line_nos.append(line_no)
        delays_ns.append(io._finite(parts[0], path, line_no))
        powers.append(io._finite(parts[1], path, line_no, kind=io._db_to_linear))
    if not delays_ns:
        raise CorruptFileError(f"{path}: no data rows")
    n = len(delays_ns)
    if n == 1:
        delays_s = np.array([delays_ns[0] * 1e-9])
    else:
        step_ns = (delays_ns[-1] - delays_ns[0]) / (n - 1)
        if step_ns <= 0:
            raise CorruptFileError(f"{path}: delays not increasing")
        grid_ns = delays_ns[0] + np.arange(n) * step_ns
        tolerance_ns = io._GRID_TOLERANCE_NS + io._GRID_TOLERANCE_REL * np.abs(grid_ns)
        off = np.abs(np.array(delays_ns) - grid_ns) > tolerance_ns
        if off.any():
            first = int(np.argmax(off))
            raise CorruptFileError(f"{path}:{line_nos[first]}: delay off the uniform delay grid")
        delays_s = grid_ns * 1e-9
    return PowerDelayProfile(delays_s, np.array(powers))


def read_outcome(read, path):
    """The bytes of both columns ``read`` returns, or its error's class and message."""
    try:
        pdp = read(path)
    except (FileFormatError, ValidationError) as err:
        return type(err), str(err)
    return pdp.delays_s.tobytes(), pdp.powers_linear.tobytes()


PADDING = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def pdp_csv_texts(draw) -> str:
    """PDP CSVs as people and ``write_pdp_csv`` make them: comments, blank
    lines, any line ending, padding around cells, ``-inf`` and ``-0.000000``
    powers, one row or many, and now and then a delay off the grid."""
    n = draw(st.integers(1, 40))
    step_ns = draw(st.sampled_from([39.0625, 32.552083, 1.0, 1e-3, 16.276042]))
    first_ns = draw(st.sampled_from([0.0, -0.0, 1e-6, 250.0]))
    delays = [first_ns + i * step_ns for i in range(n)]
    if n > 2 and draw(st.booleans()):
        delays[draw(st.integers(1, n - 2))] += draw(st.sampled_from([1e-7, 2e-6, 0.5]))
    power = st.one_of(
        st.floats(-400.0, 60.0),
        st.sampled_from(["-inf", "-0.000000", "0.000000", "-3.010300", "-0"]),
    )
    lines = [f"{draw(PADDING)}delay_ns,power_db{draw(PADDING)}"]
    for delay in delays:
        value = draw(power)
        cell = value if isinstance(value, str) else f"{value:.6f}"
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", "\t# a, b, c"]), max_size=2))
        pads = [draw(PADDING) for _ in range(4)]
        lines.append(f"{pads[0]}{delay:.6f}{pads[1]},{pads[2]}{cell}{pads[3]}")
    lines = draw(st.lists(st.sampled_from(["# made by hand", ""]), max_size=2)) + lines
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestColumnPass:
    """``read_pdp_csv`` converts whole columns; it must return the bytes,
    or raise the error, of the row-by-row reference."""

    @FUZZ
    @given(text=pdp_csv_texts())
    def test_equals_the_row_reader(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        assert read_outcome(io.read_pdp_csv, path) == read_outcome(reference_read_pdp_csv, path)

    @FUZZ
    @given(data=st.data())
    def test_mutated_files_fail_as_the_row_reader(self, tmp_path, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data.draw(mutated(valid_pdp_csv(tmp_path))))
        assert read_outcome(io.read_pdp_csv, path) == read_outcome(reference_read_pdp_csv, path)

    @pytest.mark.parametrize(
        "bad_column, bad_number, message",
        [
            (True, True, "9: expected two columns"),
            (False, True, "12: bad number"),
            (False, False, "5: delay off the uniform delay grid"),
        ],
    )
    def test_first_bad_line_is_named(self, tmp_path, bad_column, bad_number, message):
        """Rows are checked in file order, each for its columns and numbers,
        before the grid of all of them."""
        rows = [f"{10.0 * i:.6f},-3.000000" for i in range(12)]
        rows[3] = "999.000000,-3.000000"  # line 5: off the grid
        if bad_column:
            rows[7] += ",1.0"  # line 9
        if bad_number:
            rows[10] = "100.000000,x"  # line 12
        path = tmp_path / "bad.csv"
        path.write_text("delay_ns,power_db\n" + "\n".join(rows) + "\n")
        with pytest.raises(CorruptFileError, match=f"bad.csv:{message}"):
            io.read_pdp_csv(path)
        assert read_outcome(reference_read_pdp_csv, path)[1].endswith(message)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the same four cells as two good rows, split one and three
            ("0.0,0.0,10.0\n-3.0", "2: expected two columns"),
            ("0.0\n0.0,10.0,-3.0", "2: expected two columns"),
            ("0.0,,0.0\n10.0,-3.0", "2: expected two columns"),
            ("0.0,0.0\n,\n10.0,-3.0", "3: bad number"),
            ("0.0,0.0\n10.0,-3.0,", "3: expected two columns"),
        ],
    )
    def test_rows_of_the_wrong_width_found_whatever_the_cell_count(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"delay_ns,power_db\n{rows}\n")
        with pytest.raises(CorruptFileError, match=f"bad.csv:{message}"):
            io.read_pdp_csv(path)


finite_or_special = st.one_of(
    st.floats(-1e290, 1e290),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
)
non_negative_or_special = st.one_of(
    st.floats(0.0, 1e308),
    st.sampled_from([-0.0, 0.0, math.inf, math.nan, 5e-324, 1e300]),
)


class TestRowWriters:
    """The dB row writer prints every cell with one ``%`` call; the text is
    that of one f-string per row."""

    @FUZZ
    @given(
        rows=st.lists(st.tuples(finite_or_special, non_negative_or_special,
                                non_negative_or_special), min_size=0, max_size=30),
        width=st.sampled_from([1, 2, 3]),
    )
    def test_rows_equal_per_row_f_strings(self, tmp_path, rows, width):
        columns = [np.array([row[i] for row in rows], dtype=float) for i in range(width)]
        path = tmp_path / "rows.csv"
        io._write_db_rows(path, "head", *columns)
        with np.errstate(divide="ignore"):
            cells = [(columns[0] * 1e9).tolist()]
            cells += [(10.0 * np.log10(p)).tolist() for p in columns[1:]]
        expected = ["head"] + [",".join(f"{v:.6f}" for v in row) for row in zip(*cells)]
        assert path.read_text() == "\n".join(expected) + "\n"


# characters that str.splitlines ends a line at, though no newline does
LINE_BREAKING_NON_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineRule:
    """A line ends at \\n, \\r\\n or \\r only, in every text format."""

    @pytest.mark.parametrize("char", LINE_BREAKING_NON_NEWLINES)
    def test_pdp_csv_comment_stays_one_line(self, tmp_path, char):
        path = tmp_path / "p.csv"
        path.write_text(f"# note{char}more\ndelay_ns,power_db\n0.0,0.0\n1.0,x\n", newline="")
        with pytest.raises(CorruptFileError, match="p.csv:4: bad number"):
            io.read_pdp_csv(path)
        path.write_text(f"# note{char}more\ndelay_ns,power_db\n0.0,0.0\n1.0,-3.0\n", newline="")
        np.testing.assert_array_equal(io.read_pdp_csv(path).delays_s, [0.0, 1e-9])

    @pytest.mark.parametrize("char", LINE_BREAKING_NON_NEWLINES)
    def test_config_and_report_comments_stay_one_line(self, tmp_path, char):
        text = io.config_to_text(PRESETS["urban-los"], (f"made{char}by hand",))
        path = tmp_path / "c.cfg"
        path.write_text(text, newline="")
        assert io.read_config(path) == PRESETS["urban-los"]
        path.write_text(text + "colour=blue\n", newline="")
        line_no = text.count("\n") + 1
        with pytest.raises(ValidationError, match=f"c.cfg:{line_no}: unknown key 'colour'"):
            io.read_config(path)
        report = tmp_path / "r.txt"
        report.write_text(f"# a{char}b\nds_error_s=1.5\nds_relative_error=x\n", newline="")
        with pytest.raises(CorruptFileError, match="r.txt:3: bad number for ds_relative_error"):
            io.read_report(report)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_newline_counts_the_same_lines(self, tmp_path, newline):
        path = tmp_path / "p.csv"
        lines = ["# made by hand", "delay_ns,power_db", "", "0.0,0.0", "1.0,x"]
        path.write_bytes(newline.join(lines).encode())
        with pytest.raises(CorruptFileError, match="p.csv:5: bad number"):
            io.read_pdp_csv(path)

    def test_mixed_newlines(self):
        text = "a\r\nb\rc\n\r\nd\r"
        assert io._lines(text) == [(1, "a"), (2, "b"), (3, "c"), (5, "d")]


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark is dropped from every text file."""

    BOM = "\ufeff".encode()

    def test_pdp_csv(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        io.write_pdp_csv(plain, PowerDelayProfile([0.0, 1e-8], [1.0, 0.5]))
        marked.write_bytes(self.BOM + plain.read_bytes())
        assert read_outcome(io.read_pdp_csv, marked) == read_outcome(io.read_pdp_csv, plain)

    def test_config_meta_and_report(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(self.BOM + io.config_to_text(PRESETS["urban-nlos"]).encode())
        assert io.read_config(path) == PRESETS["urban-nlos"]
        capture = tmp_path / "x.iq"
        io.write_iq(capture, IqSignal([1.0, 1j], 25.6e6, 2.48e9))
        meta = capture.with_name(capture.name + ".meta")
        meta.write_bytes(self.BOM + meta.read_bytes())
        assert io.IqReader(capture).sample_rate_hz == 25.6e6
        report = tmp_path / "r.txt"
        report.write_bytes(self.BOM + b"ds_error_s=1.5\n")
        assert io.read_report(report) == {"ds_error_s": 1.5}

    def test_only_one_mark_dropped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(2 * self.BOM + io.config_to_text(PRESETS["urban-nlos"]).encode())
        with pytest.raises(ValidationError, match=re.escape("c.cfg:1: unknown key '\\ufefflabel'")):
            io.read_config(path)

    def test_undecodable_byte_counted_in_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.BOM + b"delay_ns,power_db\n0.0,\xff\n")
        with pytest.raises(CorruptFileError, match="bad.csv: not UTF-8 text \\(byte 25\\)"):
            io.read_pdp_csv(path)


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

    @pytest.mark.parametrize("field", ["ds_error_s", "ds_relative_error", "mean_abs_db_deviation"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, value):
        report = ComparisonReport(1.5e-9, 0.012, -2, 3.75)
        with pytest.raises(ValidationError, match="must be finite"):
            dataclasses.replace(report, **{field: value})


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

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("line_no, key", [(1, "sample_rate_hz"), (2, "center_frequency_hz")])
    def test_iq_sidecar(self, tmp_path, line_no, key, value):
        path = tmp_path / "bad.iq"
        io.write_iq(path, IqSignal([1.0, 1j], 25.6e6, 2.48e9))
        meta = path.with_name(path.name + ".meta")
        meta.write_text(replace_value(meta.read_text(), key, value)[0])
        message = rf"bad.iq.meta:{line_no}: bad number for {key}"
        with pytest.raises(CorruptFileError, match=message):
            io.IqReader(path)

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
        return io.Dataset(snaps.astype(np.complex64), 25.6e6, "label=test\n")

    def test_size_arithmetic(self, tmp_path):
        ds = self._dataset(np.random.default_rng(3), count=1, taps=4)
        path = tmp_path / "tiny.chds"
        write_chds(path, ds)
        assert path.stat().st_size == 26 + len(ds.config_text.encode()) + 32

    def test_round_trip_bit_identical(self, tmp_path):
        ds = self._dataset(np.random.default_rng(4))
        path = tmp_path / "ds.chds"
        write_chds(path, ds)
        back = io.read_dataset(path)
        np.testing.assert_array_equal(back.snapshots, ds.snapshots)
        assert not back.snapshots.flags.writeable
        assert back.sample_rate_hz == ds.sample_rate_hz
        assert back.config_text == ds.config_text
        second = tmp_path / "ds2.chds"
        write_chds(second, back)
        assert second.read_bytes() == path.read_bytes()

    def test_bad_magic_named_error(self, tmp_path):
        ds = self._dataset(np.random.default_rng(5))
        path = tmp_path / "bad.chds"
        write_chds(path, ds)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            io.read_dataset(path)

    def test_bad_version_named_error(self, tmp_path):
        ds = self._dataset(np.random.default_rng(6))
        path = tmp_path / "badv.chds"
        write_chds(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            io.read_dataset(path)

    def test_truncated_payload_named_error(self, tmp_path):
        ds = self._dataset(np.random.default_rng(7))
        path = tmp_path / "short.chds"
        write_chds(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(SizeMismatchError):
            io.read_dataset(path)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_header_rate_rejected(self, tmp_path, rate):
        ds = self._dataset(np.random.default_rng(9), count=1, taps=4)
        path = tmp_path / "rate.chds"
        write_chds(path, ds)
        raw = bytearray(path.read_bytes())
        raw[14:22] = struct.pack("<d", rate)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="sample_rate_hz must be finite"):
            io.read_dataset(path)

    def test_read_holds_the_payload_once(self, tmp_path):
        """The payload is read straight into the complex64 snapshot array the
        dataset holds, with no bytes copy and no widened copy beside it."""
        count, taps = 3000, 353
        ramp = np.arange(count * taps).reshape(count, taps) * (1 - 2j)  # exact in float32
        path = tmp_path / "big.chds"
        io._write_chds(path, count, taps, 25.6e6, "label=test\n", [ramp])
        tracemalloc.start()
        try:
            back = io.read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.snapshots, ramp)
        assert peak <= 1.1 * count * taps * 8

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_snapshots_are_the_payload_bytes(self, tmp_path, preset):
        """``read_dataset`` hands back the file's ``<c8`` pairs as they are:
        a read-only complex64 array whose bytes are the payload's."""
        path = tmp_path / f"{preset}.chds"
        generate_dataset(PRESETS[preset], 300, 2, path)
        back = io.read_dataset(path)
        assert back.snapshots.dtype == np.complex64
        assert not back.snapshots.flags.writeable
        payload = path.read_bytes()[struct.calcsize("<4sHIIdI") + len(back.config_text.encode()):]
        assert back.snapshots.tobytes() == payload

    def test_header_smaller_than_minimum(self, tmp_path):
        path = tmp_path / "stub.chds"
        path.write_bytes(b"CHDS\x01")
        with pytest.raises(SizeMismatchError):
            io.read_dataset(path)

    def test_blob_length_beyond_file_never_overreads(self, tmp_path):
        ds = self._dataset(np.random.default_rng(8), count=1, taps=4)
        path = tmp_path / "lying.chds"
        write_chds(path, ds)
        raw = bytearray(path.read_bytes())
        raw[22:26] = struct.pack("<I", 10**6)  # declared blob far beyond EOF
        path.write_bytes(bytes(raw))
        with pytest.raises(SizeMismatchError):
            io.read_dataset(path)


def refused(code):
    """A ``posix_fallocate`` that refuses every call with ``code``."""

    def fallocate(fd, offset, length):
        raise OSError(code, os.strerror(code))

    return fallocate


class TestReservedWriter:
    """The one binary writer: reserve the file at its final size, write,
    count the bytes, then move the file onto ``path``."""

    COUNT, TAPS = 5, 7

    def snapshots(self, count):
        return np.arange(count * self.TAPS).reshape(count, self.TAPS) * (1 + 2j)

    def write(self, path, rows):
        io._write_chds(path, self.COUNT, self.TAPS, 25.6e6, "label=test\n",
                       [self.snapshots(rows)])

    def test_empty_file_reserved_at_its_final_size(self, tmp_path, monkeypatch):
        calls = []
        fallocate = os.posix_fallocate

        def recorded(fd, offset, length):
            calls.append((offset, length, os.fstat(fd).st_size))
            fallocate(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", recorded)
        path = tmp_path / "x.chds"
        self.write(path, self.COUNT)
        size = path.stat().st_size
        assert size == 26 + len(b"label=test\n") + self.COUNT * self.TAPS * 8
        assert calls == [(0, size, 0)]

    @pytest.mark.parametrize("rows", [COUNT - 1, COUNT + 1], ids=["row-short", "row-long"])
    def test_stream_of_the_wrong_length_fails_before_the_rename(self, tmp_path, rows):
        path = tmp_path / "x.chds"
        size = 26 + len(b"label=test\n") + self.COUNT * self.TAPS * 8
        written = size + (rows - self.COUNT) * self.TAPS * 8
        with pytest.raises(SizeMismatchError) as failure:
            self.write(path, rows)
        assert str(failure.value) == f"{path}: {written} bytes written, {size} expected"
        assert not list(tmp_path.iterdir())
        path.write_bytes(b"earlier")
        with pytest.raises(SizeMismatchError):
            self.write(path, rows)
        assert [p.name for p in tmp_path.iterdir()] == ["x.chds"]
        assert path.read_bytes() == b"earlier"

    @pytest.mark.parametrize("how", ["EOPNOTSUPP", "EINVAL", "missing"])
    def test_unreserved_fallback_writes_the_same_bytes(self, tmp_path, monkeypatch, how):
        reserved = tmp_path / "reserved.chds"
        generate_dataset(PRESETS["urban-nlos"], 300, 1, reserved)
        if how == "missing":
            monkeypatch.delattr(os, "posix_fallocate")
        else:
            monkeypatch.setattr(os, "posix_fallocate", refused(getattr(errno, how)))
        path = tmp_path / "unreserved.chds"
        for _ in range(2):  # a new file, then over it
            generate_dataset(PRESETS["urban-nlos"], 300, 1, path)
            assert path.read_bytes() == reserved.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reserved.chds", "unreserved.chds"]

    def test_other_refusal_names_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "posix_fallocate", refused(errno.EIO))
        path = tmp_path / "x.chds"
        with pytest.raises(OSError) as failure:
            self.write(path, self.COUNT)
        assert failure.value.errno == errno.EIO
        assert failure.value.filename == str(path)
        assert not list(tmp_path.iterdir())


# writes a capture over the one at argv[1] in a process that may write no
# file past 4096 bytes, so the write stops partway; argv[2] says whether
# the file is reserved first (the reservation then fails instead)
PARTWAY = """
import os, resource, signal, sys
import numpy as np
from cirkit import io
from cirkit.signal import IqSignal
if sys.argv[2] == "unreserved":
    del os.posix_fallocate
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY))
try:
    io.write_iq(sys.argv[1], IqSignal(np.ones(100_000), 25.6e6, 2.48e9))
except (OSError, ValueError) as err:
    print(type(err).__name__, err)
"""


@pytest.mark.skipif(not hasattr(os, "posix_fallocate") or sys.platform != "linux",
                    reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize("mode", ["reserved", "unreserved"])
def test_iq_write_failing_partway_leaves_the_capture(tmp_path, mode):
    path = tmp_path / "x.iq"
    io.write_iq(path, f32_signal(np.random.default_rng(13), n=5000))
    before = path.read_bytes(), path.with_name("x.iq.meta").read_bytes()
    src = Path(io.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", PARTWAY, str(path), mode],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    if mode == "reserved":
        assert done.stdout.startswith(f"ValidationError {path}: cannot reserve 800000 bytes: "
                                      f"[Errno {errno.EFBIG}]")
    else:
        assert done.stdout.startswith(f"OSError [Errno {errno.EFBIG}]")
    assert (path.read_bytes(), path.with_name("x.iq.meta").read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.iq", "x.iq.meta"]


# one profile with a zero bin, so the CSVs hold a -inf row
PROFILE = PowerDelayProfile(np.arange(4) * 39.0625e-9, [1.0, 0.5, 0.0, 0.25])


def write_iq_meta(path):
    """Write a capture whose ``.meta`` sidecar is ``path``."""
    io.write_iq(str(path)[: -len(".meta")], IqSignal(np.ones(4), 25.6e6, 2.48e9))


# the six text writers, each writing one output at the path it is given
TEXT_WRITERS = {
    "pdp-csv": lambda path: io.write_pdp_csv(path, PROFILE),
    "aligned-csv": lambda path: io.write_aligned_csv(
        path, PROFILE.delays_s, PROFILE.powers_linear, PROFILE.powers_linear[::-1]),
    "config": lambda path: io.write_config(path, PRESETS["urban-los"], ("a comment",)),
    "report": lambda path: io.write_report(path, ComparisonReport(1.5e-9, 0.012, -2, 3.75)),
    "iq-meta": write_iq_meta,
    "svg": lambda path: svgplot.write_pdp_comparison_svg(
        path, [("measured", PROFILE), ("simulated", PROFILE)]),
}


@pytest.fixture(params=list(TEXT_WRITERS), ids=list(TEXT_WRITERS))
def text_writer(request):
    return TEXT_WRITERS[request.param]


def fresh_bytes(tmp_path, write):
    """What ``write`` puts in a new file."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    write(fresh / "out.meta")
    return (fresh / "out.meta").read_bytes()


class TestTextWriter:
    """Every text output goes through ``io._write_text``: in place, with no
    ``O_TRUNC``, then cut to its new length when it is a regular file."""

    def test_new_file_gets_the_umask_mode(self, tmp_path, text_writer):
        old = os.umask(0o027)
        try:
            text_writer(tmp_path / "out.meta")
        finally:
            os.umask(old)
        assert (tmp_path / "out.meta").stat().st_mode & 0o777 == 0o640

    def test_longer_file_left_with_exactly_the_new_bytes(self, tmp_path, text_writer):
        expected = fresh_bytes(tmp_path, text_writer)
        out = tmp_path / "out.meta"
        out.write_bytes(b"\xff" * (len(expected) + 65536))
        text_writer(out)
        assert out.read_bytes() == expected
        text_writer(out)  # over a file of the same length
        assert out.read_bytes() == expected

    def test_inode_mode_and_links_kept(self, tmp_path, text_writer):
        expected = fresh_bytes(tmp_path, text_writer)
        out = tmp_path / "out.meta"
        out.write_bytes(b"old " * 20000)
        out.chmod(0o600)
        inode = out.stat().st_ino
        os.link(out, tmp_path / "hard")
        link = tmp_path / "sym.meta"
        link.symlink_to("out.meta")
        text_writer(link)
        assert link.is_symlink() and os.readlink(link) == "out.meta"
        assert out.stat().st_ino == inode
        assert out.stat().st_mode & 0o777 == 0o600
        assert out.stat().st_nlink == 2
        assert out.read_bytes() == (tmp_path / "hard").read_bytes() == expected

    def test_never_passes_o_trunc(self, tmp_path, text_writer, monkeypatch):
        out = tmp_path / "out.meta"
        out.write_bytes(b"old " * 20000)
        calls = []
        real_open = os.open

        def recorded(path, flags, *args, **kwargs):
            calls.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorded)
        text_writer(out)
        assert [flags & (os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_RDWR)
                for path, flags in calls if path == str(out)] == [os.O_WRONLY | os.O_CREAT]

    def test_goes_through_the_one_writer(self, tmp_path, text_writer, monkeypatch):
        written = []
        real = io._write_text

        def recorded(path, text):
            written.append(os.fspath(path))
            real(path, text)

        monkeypatch.setattr(io, "_write_text", recorded)
        text_writer(tmp_path / "out.meta")
        assert written == [str(tmp_path / "out.meta")]

    def test_fifo_written_and_not_cut(self, tmp_path, text_writer, monkeypatch):
        expected = fresh_bytes(tmp_path, text_writer)
        fifo = tmp_path / "out.meta"
        os.mkfifo(fifo)
        cut = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cut.append(length))
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            text_writer(fifo)
        finally:
            reader.join(timeout=30)
        assert got == [expected]
        assert cut == []

    def test_dev_null_written_and_not_cut(self, tmp_path, text_writer, monkeypatch):
        out = Path(os.devnull)
        if text_writer is write_iq_meta:  # the sidecar's name follows the capture's
            out = tmp_path / "out.meta"
            out.symlink_to(os.devnull)
        cut = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cut.append(length))
        text_writer(out)
        assert cut == []


# writes a 1000-row PDP CSV to argv[1] in a process that may write no file
# past 4096 bytes, so the write stops partway
TEXT_PARTWAY = """
import resource, signal, sys
import numpy as np
from cirkit import io
from cirkit.analysis import PowerDelayProfile
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY))
try:
    io.write_pdp_csv(sys.argv[1], PowerDelayProfile(np.arange(1000) * 1e-9, np.ones(1000)))
except OSError as err:
    print(type(err).__name__, err)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize("before", [None, b"", b"old\n" * 16384], ids=["new", "empty", "longer"])
def test_text_write_failing_partway_leaves_an_empty_file(tmp_path, before):
    path = tmp_path / "x.csv"
    if before is not None:
        path.write_bytes(before)
    src = Path(io.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", TEXT_PARTWAY, str(path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == f"OSError [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{path}'\n"
    assert path.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


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
            io.IqReader(path)

    def test_dataset_config_blob(self, tmp_path):
        path = tmp_path / "bad.chds"
        write_chds(path, io.Dataset(np.ones((1, 2)), 1.0, "x"))
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
            assert np.array_equal(read_range(reader, lo, hi), sig.samples[lo:hi])
            assert np.array_equal(read_range(sig, lo, hi), sig.samples[lo:hi])
        for lo, hi in [(-1, 5), (0, 1002)]:
            with pytest.raises(ValidationError, match=r"no samples \["):
                read_range(reader, lo, hi)

    def test_open_checks_size_and_sidecar_but_not_samples(self, tmp_path):
        path = tmp_path / "late-nan.iq"
        floats = np.ones(10, dtype="<f4")
        floats[9] = np.nan
        floats.tofile(path)
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        reader = io.IqReader(path)
        assert np.array_equal(read_range(reader, 0, 4), np.full(4, 1 + 1j))
        with pytest.raises(CorruptFileError, match="sample 4 is not finite"):
            read_range(reader, 3, 5)

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
        with pytest.raises(ValidationError, match=message):
            io.IqReader(path)

    def test_empty_file_rejected_at_open(self, tmp_path):
        path = tmp_path / "empty.iq"
        path.write_bytes(b"")
        path.with_name(path.name + ".meta").write_text(
            "sample_rate_hz=1.0\ncenter_frequency_hz=0.0\n"
        )
        expected = f"^{re.escape(str(path))}: capture holds no samples$"
        with pytest.raises(ValidationError, match=expected):
            io.IqReader(path)

    def test_with_block_closes_the_file(self, tmp_path):
        path = tmp_path / "capture.iq"
        io.write_iq(path, f32_signal(np.random.default_rng(4), n=8))
        with io.IqReader(path) as reader:
            assert read_range(reader, 0, 8).size == 8
        with pytest.raises(ValidationError, match="closed capture"):
            read_range(reader, 0, 8)


class TestReadInto:
    """``read_into`` of a capture on disk and of one in memory, case by case alike."""

    @pytest.fixture
    def sources(self, tmp_path):
        sig = f32_signal(np.random.default_rng(8), n=2890)
        path = tmp_path / "capture.iq"
        io.write_iq(path, sig)
        with io.IqReader(path) as reader:
            yield sig.samples, (reader, sig)

    @pytest.mark.parametrize("shape", [(353,), (4, 720), (0,)])
    def test_any_contiguous_target_filled_in_order(self, sources, shape):
        samples, readers = sources
        for reader in readers:
            out = np.zeros(shape, dtype=np.complex128)
            reader.read_into(7, out, np.empty(out.size))
            assert np.array_equal(out.reshape(-1), samples[7 : 7 + out.size])

    @pytest.mark.parametrize("target", ["strided", "float64", "complex64", "read-only", "list"])
    def test_target_it_would_not_fill_rejected_before_the_read(self, sources, target):
        _, readers = sources
        for reader in readers:
            z = np.zeros((4, 720), dtype=np.complex128)
            frozen = np.zeros(353, dtype=np.complex128)
            frozen.setflags(write=False)
            out = {
                "strided": z[:, :353],
                "float64": np.zeros(353),
                "complex64": np.zeros(353, dtype=np.complex64),
                "read-only": frozen,
                "list": [0j] * 353,
            }[target]
            with pytest.raises(ValidationError, match="writable C-contiguous complex128"):
                reader.read_into(0, out, np.empty(4 * 720))
            assert not z.any()

    def test_scratch_too_small_rejected(self, sources):
        _, (reader, _) = sources
        with pytest.raises(ValidationError, match="scratch of 2824 bytes"):
            reader.read_into(0, np.empty(353, dtype=np.complex128), np.empty(352))
