"""Bit-exact file formats.

Raw IQ captures are headerless interleaved little-endian float32 (I then Q)
with a ``<path>.meta`` text sidecar, for interoperability with common SDR
tooling. Scenario configs are hand-editable ``key=value`` text. Datasets are
a small binary container ("CHDS") holding float32 CIR snapshots plus the
generating config as an embedded text blob.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import ComparisonReport, PowerDelayProfile
from .errors import (
    BadMagicError,
    BadVersionError,
    CorruptFileError,
    MissingSidecarError,
    SizeMismatchError,
    ValidationError,
)
from .gbsm import ScenarioConfig
from .signal import IqSignal, _frozen_complex, check_capture

DATASET_MAGIC = b"CHDS"
DATASET_VERSION = 1
_HEADER_FMT = "<4sHIIdI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 26 bytes
MAX_DATASET_SNAPSHOTS = 2**32 - 1  # the header stores the count as uint32

# canonical key order; identical configs produce identical bytes
_CONFIG_KEYS = (
    "label",
    "ds_median_s",
    "ds_sigma_log10",
    "kf_median_db",
    "kf_sigma_db",
    "num_clusters",
    "r_tau",
    "per_cluster_shadowing_db",
    "los",
    "sample_rate_hz",
    "cir_length_taps",
    "fixed_cluster",
)
_MANDATORY_KEYS = frozenset(_CONFIG_KEYS) - {"kf_median_db", "fixed_cluster"}


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta")


def write_iq(path, signal: IqSignal) -> None:
    """Write interleaved float32 IQ plus the metadata sidecar."""
    interleaved = np.empty(2 * len(signal), dtype="<f4")
    interleaved[0::2] = signal.samples.real
    interleaved[1::2] = signal.samples.imag
    Path(path).write_bytes(interleaved.tobytes())
    _meta_path(path).write_text(
        f"sample_rate_hz={signal.sample_rate_hz!r}\n"
        f"center_frequency_hz={signal.center_frequency_hz!r}\n",
        encoding="utf-8",
    )


def _read_text(path, error=CorruptFileError) -> str:
    """A text file's UTF-8 contents; undecodable bytes raise ``error`` naming the file."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _read_meta(path) -> dict[str, float]:
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise MissingSidecarError(f"missing IQ metadata sidecar: {meta_path}")
    meta: dict[str, float] = {}
    for line_no, line in enumerate(_read_text(meta_path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CorruptFileError(f"{meta_path}:{line_no}: expected key=value")
        try:
            meta[key.strip()] = float(value.strip())
        except ValueError as exc:
            raise CorruptFileError(f"{meta_path}:{line_no}: bad number for {key}") from exc
    for key in ("sample_rate_hz", "center_frequency_hz"):
        if key not in meta:
            raise CorruptFileError(f"{meta_path}: missing key {key}")
    return meta


class IqReader:
    """A raw IQ capture opened for reading by sample range.

    Opening checks the file size, the float count and the ``.meta``
    sidecar; each ``read`` checks that the samples it returns are finite.
    Reads are positioned file reads, so a reader holds no samples itself
    and a capture larger than RAM can be processed range by range.
    """

    def __init__(self, path):
        self.path = path
        size = Path(path).stat().st_size
        if size % 4 != 0:
            raise CorruptFileError(f"{path}: size {size} is not a whole number of floats")
        if size // 4 % 2 != 0:
            raise CorruptFileError(
                f"{path}: odd float count {size // 4}; interleaved I/Q expected"
            )
        meta = _read_meta(path)
        self._samples = size // 8
        self.sample_rate_hz = meta["sample_rate_hz"]
        self.center_frequency_hz = meta["center_frequency_hz"]
        check_capture(self._samples, self.sample_rate_hz, self.center_frequency_hz)

    def __len__(self) -> int:
        return self._samples

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``lo`` to ``hi`` as a new complex128 array."""
        if not 0 <= lo <= hi <= self._samples:
            raise ValidationError(f"{self.path}: no samples [{lo}, {hi}) in {self._samples}")
        with open(self.path, "rb") as fh:
            fh.seek(8 * lo)
            floats = np.fromfile(fh, dtype="<f4", count=2 * (hi - lo))
        if floats.size != 2 * (hi - lo):
            raise CorruptFileError(f"{self.path}: file shrank below sample {hi}")
        finite = np.isfinite(floats)
        if not finite.all():
            first = lo + int(np.argmin(finite)) // 2
            raise CorruptFileError(f"{self.path}: sample {first} is not finite")
        return floats.view("<c8").astype(np.complex128)


def read_iq(path) -> IqSignal:
    """Read a whole interleaved float32 IQ file and its metadata sidecar.

    This is ``IqReader`` reading every sample at once; use the reader
    itself to stream a capture that should not be held in memory.
    """
    reader = IqReader(path)
    samples = reader.read(0, len(reader))
    samples.setflags(write=False)
    return IqSignal(samples, reader.sample_rate_hz, reader.center_frequency_hz)


def _format_value(key: str, value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def config_to_text(config: ScenarioConfig, comments: tuple[str, ...] = ()) -> str:
    """Serialize a scenario config in canonical key order."""
    lines = [f"# {comment}" for comment in comments]
    values = {
        "label": config.label,
        "ds_median_s": config.ds_median_s,
        "ds_sigma_log10": config.ds_sigma_log10,
        "kf_median_db": config.kf_median_db,
        "kf_sigma_db": config.kf_sigma_db,
        "num_clusters": config.num_clusters,
        "r_tau": config.delay_proportionality_r_tau,
        "per_cluster_shadowing_db": config.per_cluster_shadowing_db,
        "los": config.los,
        "sample_rate_hz": config.sample_rate_hz,
        "cir_length_taps": config.cir_length_taps,
    }
    for key in _CONFIG_KEYS:
        if key == "fixed_cluster":
            for delay, power in config.fixed_clusters:
                lines.append(f"fixed_cluster={delay!r},{power!r}")
            continue
        value = values[key]
        if key == "kf_median_db" and value is None:
            continue
        if key == "label":
            lines.append(f"label={value}")
        else:
            lines.append(f"{key}={_format_value(key, value)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse ``key=value`` scenario-config text into a validated config."""
    seen: dict[str, str] = {}
    fixed: list[tuple[float, float]] = []

    def number(key: str, value: str, line_no: int, kind=float):
        try:
            return kind(value)
        except ValueError as exc:
            raise ValidationError(
                f"{source}:{line_no}: cannot parse {key} value {value!r}"
            ) from exc

    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ValidationError(f"{source}:{line_no}: expected key=value")
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{source}:{line_no}: unknown key {key!r}")
        if key == "fixed_cluster":
            parts = value.split(",")
            if len(parts) != 2:
                raise ValidationError(
                    f"{source}:{line_no}: fixed_cluster needs <delay_s>,<power_linear>"
                )
            fixed.append(
                (number(key, parts[0], line_no), number(key, parts[1], line_no))
            )
            continue
        if key in seen:
            raise ValidationError(f"{source}:{line_no}: duplicate key {key!r}")
        seen[key] = value
        seen[f"{key}:line"] = str(line_no)

    for key in sorted(_MANDATORY_KEYS):
        if key not in seen:
            raise ValidationError(f"{source}: missing mandatory key {key!r}")

    def num(key: str, kind=float):
        return number(key, seen[key], int(seen[f"{key}:line"]), kind)

    los_raw = seen["los"]
    if los_raw not in ("true", "false"):
        raise ValidationError(
            f"{source}:{seen['los:line']}: los must be true or false, got {los_raw!r}"
        )
    return ScenarioConfig(
        label=seen["label"],
        ds_median_s=num("ds_median_s"),
        ds_sigma_log10=num("ds_sigma_log10"),
        kf_median_db=num("kf_median_db") if "kf_median_db" in seen else None,
        kf_sigma_db=num("kf_sigma_db"),
        num_clusters=num("num_clusters", int),
        delay_proportionality_r_tau=num("r_tau"),
        per_cluster_shadowing_db=num("per_cluster_shadowing_db"),
        los=los_raw == "true",
        fixed_clusters=tuple(fixed),
        sample_rate_hz=num("sample_rate_hz"),
        cir_length_taps=num("cir_length_taps", int),
    )


def write_config(path, config: ScenarioConfig, comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(config_to_text(config, comments), encoding="utf-8")


def read_config(path) -> ScenarioConfig:
    return parse_config_text(_read_text(path, ValidationError), source=str(path))


def write_pdp_csv(path, pdp: PowerDelayProfile) -> None:
    """Write a normalized PDP as ``delay_ns,power_db`` rows."""
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(pdp.powers_linear)
    rows = ["delay_ns,power_db"]
    for delay, db in zip(pdp.delays_s * 1e9, power_db):
        rows.append(f"{delay:.6f},{db:.6f}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_pdp_csv(path) -> PowerDelayProfile:
    """Read a PDP CSV back; the uniform delay grid is snapped to its mean step."""
    lines = [
        line.strip()
        for line in _read_text(path).splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if not lines or lines[0] != "delay_ns,power_db":
        raise CorruptFileError(f"{path}: missing 'delay_ns,power_db' header")
    delays_ns = []
    powers = []
    for line_no, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != 2:
            raise CorruptFileError(f"{path}:{line_no}: expected two columns")
        try:
            delays_ns.append(float(parts[0]))
            powers.append(10.0 ** (float(parts[1]) / 10.0))
        except (ValueError, OverflowError) as exc:
            raise CorruptFileError(f"{path}:{line_no}: bad number") from exc
    if not delays_ns:
        raise CorruptFileError(f"{path}: no data rows")
    n = len(delays_ns)
    if n == 1:
        delays_s = np.array([delays_ns[0] * 1e-9])
    else:
        step_ns = (delays_ns[-1] - delays_ns[0]) / (n - 1)
        if step_ns <= 0:
            raise CorruptFileError(f"{path}: delays not increasing")
        delays_s = (delays_ns[0] + np.arange(n) * step_ns) * 1e-9
    return PowerDelayProfile(delays_s, np.array(powers))


def write_report(path, report: ComparisonReport, comments: tuple[str, ...] = ()) -> None:
    """Write a comparison report as ``key=value`` lines."""
    lines = [f"# {comment}" for comment in comments]
    lines += [
        f"ds_error_s={report.ds_error_s!r}",
        f"ds_relative_error={report.ds_relative_error!r}",
        f"cluster_count_diff={report.cluster_count_diff}",
        f"mean_abs_db_deviation={report.mean_abs_db_deviation!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_report(path) -> dict[str, float]:
    values: dict[str, float] = {}
    for line_no, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        try:
            values[key.strip()] = float(value.strip())
        except ValueError as exc:
            raise CorruptFileError(f"{path}:{line_no}: bad number for {key}") from exc
    return values


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset: stacked CIR snapshots plus the generating config text."""

    snapshots: np.ndarray
    sample_rate_hz: float
    config_text: str

    def __post_init__(self):
        snaps = _frozen_complex(self.snapshots)
        object.__setattr__(self, "snapshots", snaps)
        if snaps.ndim != 2 or snaps.size == 0:
            raise ValidationError("dataset snapshots must be a non-empty 2-D array")
        if self.sample_rate_hz <= 0:
            raise ValidationError("sample_rate_hz must be positive")

    @property
    def snapshot_count(self) -> int:
        return self.snapshots.shape[0]

    @property
    def cir_length_taps(self) -> int:
        return self.snapshots.shape[1]


def write_dataset(path, dataset: Dataset) -> None:
    """Write the CHDS container: fixed header, config blob, float32 payload."""
    blob = dataset.config_text.encode("utf-8")
    header = struct.pack(
        _HEADER_FMT,
        DATASET_MAGIC,
        DATASET_VERSION,
        dataset.snapshot_count,
        dataset.cir_length_taps,
        dataset.sample_rate_hz,
        len(blob),
    )
    with open(path, "wb") as fh:
        fh.write(header + blob)
        fh.write(dataset.snapshots.astype("<c8"))


def read_dataset(path) -> Dataset:
    """Read and validate a CHDS container; never trusts lengths beyond file size."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_SIZE:
        raise SizeMismatchError(f"{path}: {len(raw)} bytes is smaller than the header")
    magic, version, count, taps, rate, blob_len = struct.unpack(
        _HEADER_FMT, raw[:_HEADER_SIZE]
    )
    if magic != DATASET_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    if version != DATASET_VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    expected = _HEADER_SIZE + blob_len + count * taps * 8
    if len(raw) != expected:
        raise SizeMismatchError(
            f"{path}: file is {len(raw)} bytes but header arithmetic gives {expected}"
        )
    try:
        blob = raw[_HEADER_SIZE : _HEADER_SIZE + blob_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{path}: config blob is not UTF-8 text") from exc
    pairs = np.frombuffer(raw, dtype="<c8", offset=_HEADER_SIZE + blob_len)
    snapshots = pairs.reshape(count, taps).astype(np.complex128)
    snapshots.setflags(write=False)
    return Dataset(snapshots, rate, blob)
