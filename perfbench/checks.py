"""Output checks made apart from the program.

Every check parses cirkit's output files with its own code and compares
them with the benchmark's ground truth or with a property the method must
have. Each returns a list of problems; an empty list means the output
passed. Nothing here imports cirkit.
"""

from __future__ import annotations

import math
import os
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

# the CHDS container as documented in the README: magic, version, snapshot
# count, taps, sample rate, config-blob length, little-endian
CHDS_HEADER = struct.Struct("<4sHIIdI")
CHDS_MAGIC = b"CHDS"
CHDS_VERSION = 1
CIR_TAPS = 353
SAMPLE_RATE_HZ = 25.6e6

# the published preset table: DS [s], KF [dB] or None for NLOS, clusters
PRESET_TABLE = {
    "urban-los": (45e-9, 13.0, 15),
    "urban-nlos": (125e-9, None, 19),
    "campus-los": (50e-9, 21.0, 17),
    "campus-nlos": (175e-9, None, 22),
}

DS_BIN_TOLERANCE = 1.0  # delay bins, the loopback tolerance
MAX_DS_RELATIVE_ERROR = 0.2  # acceptance criterion c10
MAX_SIMULATED_DS_ERROR = 0.15  # acceptance criterion c05
MAX_MEAN_ENERGY_DB = 0.2
THRESHOLD_MARGIN_DB = 6.0
CHUNK_SNAPSHOTS = 256


def parse_key_values(text: str) -> tuple[dict[str, str], list[str]]:
    """Parse ``key=value`` text; returns the values and the comment lines."""
    values: dict[str, str] = {}
    comments: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values, comments


def read_key_values(path) -> tuple[dict[str, str], list[str]]:
    return parse_key_values(Path(path).read_text(encoding="utf-8"))


def read_pdp_csv(path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").split()
    if not lines or lines[0] != "delay_ns,power_db":
        raise ValueError("missing delay_ns,power_db header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 2 or len(rows) < 2:
        raise ValueError("expected at least two rows of two columns")
    return rows[:, 0], rows[:, 1]


def check_pdp_csv(path, sample_rate_hz: float = SAMPLE_RATE_HZ) -> list[str]:
    """The PDP starts at delay 0, peaks at 0 dB and lies on a uniform 1/fs grid."""
    try:
        delays_ns, power_db = read_pdp_csv(path)
    except (OSError, ValueError) as err:
        return [f"{path}: unreadable PDP CSV: {err}"]
    problems = []
    if delays_ns[0] != 0.0:
        problems.append(f"{path}: first delay {delays_ns[0]} ns, expected 0")
    if abs(float(np.max(power_db))) > 1e-6:
        problems.append(f"{path}: peak {np.max(power_db)} dB, expected 0")
    step_ns = 1e9 / sample_rate_hz
    grid = np.arange(len(delays_ns)) * step_ns
    if np.max(np.abs(delays_ns - grid)) > 1e-5:
        problems.append(f"{path}: delays are not on the uniform {step_ns} ns grid")
    return problems


def thresholded_delay_spread(power_db: np.ndarray, step_s: float) -> float:
    """RMS delay spread over bins above the noise threshold.

    The noise floor is the median of the weakest quarter of the bins and the
    threshold sits THRESHOLD_MARGIN_DB above it, as the paper's procedure
    defines them.
    """
    power = 10.0 ** (power_db / 10.0)
    floor = float(np.median(np.sort(power)[: power.size // 4]))
    kept = np.where(power >= floor * 10.0 ** (THRESHOLD_MARGIN_DB / 10.0), power, 0.0)
    delays = np.arange(power.size) * step_s
    m1 = float(np.sum(kept * delays) / np.sum(kept))
    m2 = float(np.sum(kept * delays**2) / np.sum(kept))
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def check_extracted_ds(config_path, true_ds_s: float, sample_rate_hz: float = SAMPLE_RATE_HZ) -> list[str]:
    """The config's DS is within one delay bin of the ground-truth DS."""
    try:
        ds = float(read_key_values(config_path)[0]["ds_median_s"])
    except (OSError, KeyError, ValueError) as err:
        return [f"{config_path}: no readable ds_median_s: {err}"]
    tolerance = DS_BIN_TOLERANCE / sample_rate_hz
    if not abs(ds - true_ds_s) <= tolerance:
        return [
            f"{config_path}: DS {ds * 1e9:.2f} ns vs true {true_ds_s * 1e9:.2f} ns "
            f"(tolerance {tolerance * 1e9:.2f} ns)"
        ]
    return []


def check_calibration(config_path, simulated_csv, report_path, svg_path) -> list[str]:
    """Simulated DS tracks the config, the report's DS error is small, the SVG parses."""
    problems = []
    try:
        config_ds = float(read_key_values(config_path)[0]["ds_median_s"])
        delays_ns, power_db = read_pdp_csv(simulated_csv)
        simulated_ds = thresholded_delay_spread(power_db, (delays_ns[1] - delays_ns[0]) * 1e-9)
        rel = abs(simulated_ds - config_ds) / config_ds
        if not rel < MAX_SIMULATED_DS_ERROR:
            problems.append(
                f"{simulated_csv}: simulated DS {simulated_ds * 1e9:.2f} ns is {rel:.1%} "
                f"off the configured {config_ds * 1e9:.2f} ns"
            )
    except (OSError, KeyError, ValueError, ZeroDivisionError) as err:
        problems.append(f"{simulated_csv}: cannot compare DS with the config: {err}")
    try:
        ds_rel = float(read_key_values(report_path)[0]["ds_relative_error"])
        if not ds_rel < MAX_DS_RELATIVE_ERROR:
            problems.append(f"{report_path}: ds_relative_error {ds_rel:.4f}")
    except (OSError, KeyError, ValueError) as err:
        problems.append(f"{report_path}: no readable ds_relative_error: {err}")
    try:
        if not ET.parse(svg_path).getroot().tag.endswith("svg"):
            problems.append(f"{svg_path}: root element is not <svg>")
    except (OSError, ET.ParseError) as err:
        problems.append(f"{svg_path}: not well-formed XML: {err}")
    return problems


def read_chds_header(f) -> tuple[tuple, str]:
    """Parse the header and config blob of an open CHDS file and check its
    size; leaves the file at the first snapshot."""
    head = f.read(CHDS_HEADER.size)
    if len(head) < CHDS_HEADER.size:
        raise ValueError(f"{len(head)} bytes is shorter than the {CHDS_HEADER.size}-byte header")
    header = CHDS_HEADER.unpack(head)
    magic, version, count, taps, rate, blob_len = header
    if magic != CHDS_MAGIC or version != CHDS_VERSION:
        raise ValueError(f"magic {magic!r} version {version}")
    size = os.fstat(f.fileno()).st_size
    expected = CHDS_HEADER.size + blob_len + count * taps * 8
    if size != expected:
        raise ValueError(f"file is {size} bytes, header arithmetic gives {expected}")
    return header, f.read(blob_len).decode("utf-8")


def check_dataset(path, preset: str, seed: int, count: int) -> list[str]:
    """Header, embedded config, finite snapshots and mean snapshot energy.

    The payload is read CHUNK_SNAPSHOTS at a time, so the check never holds
    more than a sliver of the file and cannot set the process's peak memory.
    """
    problems = []
    try:
        with open(path, "rb") as f:
            (_, _, n, taps, rate, _), blob = read_chds_header(f)
            if (n, taps, rate) != (count, CIR_TAPS, SAMPLE_RATE_HZ):
                return [f"{path}: header count/taps/rate {(n, taps, rate)}"]
            problems += check_embedded_config(path, blob, preset, seed)
            finite, energy = True, 0.0
            for first in range(0, count, CHUNK_SNAPSHOTS):
                k = min(CHUNK_SNAPSHOTS, count - first)
                pairs = np.frombuffer(f.read(k * CIR_TAPS * 8), dtype="<f4").astype(np.float64)
                finite = finite and bool(np.all(np.isfinite(pairs)))
                energy += float(np.sum(pairs**2))
    except (OSError, ValueError, UnicodeDecodeError) as err:
        return [f"{path}: unreadable CHDS: {err}"]
    if not finite:
        problems.append(f"{path}: non-finite snapshot values")
    else:
        mean_energy_db = 10.0 * math.log10(energy / count)
        if not abs(mean_energy_db) <= MAX_MEAN_ENERGY_DB:
            problems.append(f"{path}: mean snapshot energy {mean_energy_db:+.3f} dB")
    return problems


def check_embedded_config(path, blob: str, preset: str, seed: int) -> list[str]:
    """The config blob names the preset and seed and carries the preset's values."""
    values, comments = parse_key_values(blob)
    ds, kf, clusters = PRESET_TABLE[preset]
    problems = []
    try:
        if values["label"] != preset or f"seed={seed}" not in comments:
            problems.append(f"{path}: embedded label/seed do not name {preset} seed {seed}")
        if not math.isclose(float(values["ds_median_s"]), ds, rel_tol=1e-12):
            problems.append(f"{path}: embedded ds_median_s {values['ds_median_s']}")
        if int(values["num_clusters"]) != clusters or (values["los"] == "true") != (kf is not None):
            problems.append(f"{path}: embedded num_clusters/los differ from {preset}")
        if kf is not None and float(values["kf_median_db"]) != kf:
            problems.append(f"{path}: embedded kf_median_db {values['kf_median_db']}")
    except (KeyError, ValueError) as err:
        problems.append(f"{path}: embedded config incomplete: {err}")
    return problems


def check_prefix(full_path, short_path, count: int) -> list[str]:
    """A run asking for ``count`` snapshots with the same seed holds that many,
    and they are the first snapshots of the full file, byte for byte."""
    try:
        with open(full_path, "rb") as full, open(short_path, "rb") as short:
            read_chds_header(full)
            (_, _, short_n, taps, _, _), _ = read_chds_header(short)
            if short_n != count:
                return [f"{short_path}: {short_n} snapshots, {count} asked for"]
            size = count * taps * 8
            if full.read(size) != short.read(size):
                return [f"{short_path}: first {count} snapshots differ from {full_path}"]
    except (OSError, ValueError, UnicodeDecodeError) as err:
        return [f"{short_path}: unreadable CHDS: {err}"]
    return []
