"""Bit-exact file formats.

Raw IQ captures are headerless interleaved little-endian float32 (I then Q)
with a ``<path>.meta`` text sidecar, for interoperability with common SDR
tooling. Scenario configs are hand-editable ``key=value`` text. Datasets are
a small binary container ("CHDS") holding float32 CIR snapshots plus the
generating config as an embedded text blob.

Every text format goes through one layer: one line reader (blank lines and
``#`` comments skipped, ``key=value`` split), one parser of finite numbers
that names ``file:line``, one ``key=value`` writer and one dB row writer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
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

# file key -> (ScenarioConfig field, kind), in the canonical key order of the
# text; identical configs produce identical bytes. A ``tuple`` key repeats,
# one line per (delay_s, power_linear) pair.
_CONFIG_TABLE = {
    "label": ("label", str),
    "ds_median_s": ("ds_median_s", float),
    "ds_sigma_log10": ("ds_sigma_log10", float),
    "kf_median_db": ("kf_median_db", float),
    "kf_sigma_db": ("kf_sigma_db", float),
    "num_clusters": ("num_clusters", int),
    "r_tau": ("delay_proportionality_r_tau", float),
    "per_cluster_shadowing_db": ("per_cluster_shadowing_db", float),
    "los": ("los", bool),
    "sample_rate_hz": ("sample_rate_hz", float),
    "cir_length_taps": ("cir_length_taps", int),
    "fixed_cluster": ("fixed_clusters", tuple),
}
# the fields whose keys a config may leave out, and their values then
_CONFIG_ABSENT = {"kf_median_db": None, "fixed_clusters": ()}
_META_KEYS = ("sample_rate_hz", "center_frequency_hz")


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta")


def write_iq(path, signal: IqSignal) -> None:
    """Write interleaved float32 IQ plus the metadata sidecar."""
    interleaved = np.empty(2 * len(signal), dtype="<f4")
    interleaved[0::2] = signal.samples.real
    interleaved[1::2] = signal.samples.imag
    Path(path).write_bytes(interleaved.tobytes())
    _meta_path(path).write_text(
        _key_value_text((key, getattr(signal, key)) for key in _META_KEYS), encoding="utf-8"
    )


def _read_text(path, error=CorruptFileError) -> str:
    """A text file's UTF-8 contents; undecodable bytes raise ``error`` naming the file."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _lines(text: str):
    """``(line_no, line)`` for every line of ``text`` that is neither blank
    nor a ``#`` comment, stripped; line numbers count from 1 in the file."""
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _key_values(text: str, source, error):
    """``(line_no, key, value)`` for every ``key=value`` line, both sides
    stripped; any other content line raises ``error``."""
    for line_no, line in _lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{source}:{line_no}: expected key=value")
        yield line_no, key.strip(), value.strip()


def _finite(text: str, source, line_no: int, what="bad number", error=CorruptFileError, kind=float):
    """``kind(text)`` when that is a finite number, else ``error`` saying
    ``source:line_no: what``.

    ``kind`` is ``float``, ``int`` or another conversion of text, such as
    dB to linear power, whose overflow is a bad number too.
    """
    try:
        number = kind(text)
        if -math.inf < number < math.inf:
            return number
    except (ValueError, OverflowError):
        pass
    raise error(f"{source}:{line_no}: {what}")


def _db_to_linear(text: str) -> float:
    return 10.0 ** (float(text) / 10.0)


def _read_numbers(path) -> dict[str, float]:
    """The values of a ``key=value`` file whose every value is a number."""
    return {
        key: _finite(value, path, line_no, f"bad number for {key}")
        for line_no, key, value in _key_values(_read_text(path), path, CorruptFileError)
    }


def _format_value(value) -> str:
    """``value`` as text: a flag, an integer, the text itself, a pair joined
    by a comma, or the float's shortest round-trip repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(map(_format_value, value))
    return repr(float(value))


def _key_value_text(pairs, comments: tuple[str, ...] = ()) -> str:
    """``# comment`` lines, then one ``key=value`` line per pair."""
    lines = [f"# {comment}" for comment in comments]
    lines += [f"{key}={_format_value(value)}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def _write_db_rows(path, header: str, delays_s, *powers) -> None:
    """Write ``header``, then one row per delay: the delay in ns and each
    power in dB, all at six decimals (a zero power is ``-inf``)."""
    # Python floats format faster than numpy scalars, to the same text
    with np.errstate(divide="ignore"):
        columns = [(delays_s * 1e9).tolist()] + [(10.0 * np.log10(p)).tolist() for p in powers]
    row = ",".join(["{:.6f}"] * len(columns))
    rows = [header] + [row.format(*values) for values in zip(*columns)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _read_meta(path) -> dict[str, float]:
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise MissingSidecarError(f"missing IQ metadata sidecar: {meta_path}")
    meta = _read_numbers(meta_path)
    for key in _META_KEYS:
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


def config_to_text(config: ScenarioConfig, comments: tuple[str, ...] = ()) -> str:
    """Serialize a scenario config in canonical key order."""
    pairs = []
    for key, (field, kind) in _CONFIG_TABLE.items():
        value = getattr(config, field)
        if kind is tuple:
            pairs += [(key, pair) for pair in value]
        elif value is not None:
            pairs.append((key, value))
    return _key_value_text(pairs, comments)


def _config_value(kind, key: str, value: str, source: str, line_no: int):
    """A config value as ``kind``: the text itself, a flag or a finite number."""
    if kind is str:
        return value
    if kind is bool:
        if value not in ("true", "false"):
            raise ValidationError(
                f"{source}:{line_no}: {key} must be true or false, got {value!r}"
            )
        return value == "true"
    what = f"cannot parse {key} value {value!r}"
    return _finite(value, source, line_no, what, ValidationError, kind)


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse ``key=value`` scenario-config text into a validated config."""
    found: dict = {}
    for line_no, key, value in _key_values(text, source, ValidationError):
        where = f"{source}:{line_no}"
        if key not in _CONFIG_TABLE:
            raise ValidationError(f"{where}: unknown key {key!r}")
        field, kind = _CONFIG_TABLE[key]
        if kind is tuple:
            parts = value.split(",")
            if len(parts) != 2:
                raise ValidationError(f"{where}: {key} needs <delay_s>,<power_linear>")
            pair = tuple(_config_value(float, key, part, source, line_no) for part in parts)
            found.setdefault(field, []).append(pair)
        elif field in found:
            raise ValidationError(f"{where}: duplicate key {key!r}")
        else:
            found[field] = _config_value(kind, key, value, source, line_no)
    fields = {**_CONFIG_ABSENT, **found}
    missing = sorted(key for key, (field, _) in _CONFIG_TABLE.items() if field not in fields)
    if missing:
        raise ValidationError(f"{source}: missing mandatory key {missing[0]!r}")
    return ScenarioConfig(**fields)


def write_config(path, config: ScenarioConfig, comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(config_to_text(config, comments), encoding="utf-8")


def read_config(path) -> ScenarioConfig:
    return parse_config_text(_read_text(path, ValidationError), source=str(path))


def write_pdp_csv(path, pdp: PowerDelayProfile) -> None:
    """Write a normalized PDP as ``delay_ns,power_db`` rows."""
    _write_db_rows(path, "delay_ns,power_db", pdp.delays_s, pdp.powers_linear)


def write_aligned_csv(path, delays_s, measured, simulated) -> None:
    """Write two profiles on one delay grid as ``delay_ns,measured_db,simulated_db`` rows."""
    _write_db_rows(path, "delay_ns,measured_db,simulated_db", delays_s, measured, simulated)


def read_pdp_csv(path) -> PowerDelayProfile:
    """Read a PDP CSV back; the uniform delay grid is snapped to its mean step."""
    lines = _lines(_read_text(path))
    if next(lines, (0, ""))[1] != "delay_ns,power_db":
        raise CorruptFileError(f"{path}: missing 'delay_ns,power_db' header")
    delays_ns = []
    powers = []
    for line_no, line in lines:
        parts = line.split(",")
        if len(parts) != 2:
            raise CorruptFileError(f"{path}:{line_no}: expected two columns")
        delays_ns.append(_finite(parts[0], path, line_no))
        powers.append(_finite(parts[1], path, line_no, kind=_db_to_linear))
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
    Path(path).write_text(_key_value_text(asdict(report).items(), comments), encoding="utf-8")


def read_report(path) -> dict[str, float]:
    return _read_numbers(path)


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
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValidationError("sample_rate_hz must be finite and positive")

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
