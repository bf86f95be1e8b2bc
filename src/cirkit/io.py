"""Bit-exact file formats.

Raw IQ captures are headerless interleaved little-endian float32 (I then Q)
with a ``<path>.meta`` text sidecar, for interoperability with common SDR
tooling. Scenario configs are hand-editable ``key=value`` text. Datasets are
a small binary container ("CHDS") holding ``<c8`` CIR snapshots, read back
as complex64, plus the generating config as an embedded text blob. Both
binary formats go through one writer, which reserves the file at its final
size and replaces the old file only once every byte is in.

Every text format goes through one layer: one text reader (UTF-8, one
leading byte-order mark dropped), one line reader (lines end at ``\n``,
``\r\n`` or ``\r`` only; blank lines and ``#`` comments skipped,
``key=value`` split), one rule for finite numbers that names ``file:line``,
one ``key=value`` writer, one dB row writer and one file writer,
:func:`_write_text`, which writes each text output in place: the file keeps
its inode, mode and links, and ext4 is not made to flush a file truncated
to zero when it is closed. The PDP CSV is parsed and printed a column at a
time; a file that fails the column pass is walked row by row only to name
its first bad line.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import struct
import threading
import weakref
from dataclasses import asdict, dataclass
from operator import itemgetter
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
from .signal import IqSignal, _check_rate, _freeze, _frozen, _read_target, check_capture

DATASET_MAGIC = b"CHDS"
DATASET_VERSION = 1
_HEADER_FMT = "<4sHIIdI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 26 bytes

# file key -> (ScenarioConfig field, kind), in the canonical key order of the
# text; identical configs produce identical bytes
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
}
# the fields whose keys a config may leave out, and their values then
_CONFIG_ABSENT = {"kf_median_db": None}
_META_KEYS = ("sample_rate_hz", "center_frequency_hz")
# how far a PDP-CSV delay may sit from its snapped grid: the six-decimal
# rounding of the row and of the two end rows that set the grid, plus
# float rounding relative to the delay
_GRID_TOLERANCE_NS = 1e-6
_GRID_TOLERANCE_REL = 1e-9


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta")


def write_iq(path, signal: IqSignal) -> None:
    """Write interleaved float32 IQ plus the metadata sidecar.

    The samples go through the dataset writer (see :func:`_write_chds`), so
    a failed write leaves an existing capture at ``path`` as it was; the
    sidecar is then written in place by :func:`_write_text`. A capture has
    no header: one written just before a power loss may read back as zero
    samples.
    """
    _write_binary(path, 8 * len(signal), b"", [signal.samples])
    meta = _key_value_text((key, getattr(signal, key)) for key in _META_KEYS)
    _write_text(_meta_path(path), meta)


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the file ``path``, in place.

    The file is opened without ``O_TRUNC`` (a new one is made with mode
    0o666 less the umask), written from its first byte, and a regular file
    is then cut to the new length. On ext4 (default ``auto_da_alloc``),
    closing a file that was truncated to zero and written again allocates
    its blocks and starts its writeback; this way no such flush is asked
    for. An existing file keeps its inode, mode and links, as it would
    under ``O_TRUNC``, and a pipe or device is written and not cut.

    A write that fails cuts a regular file to zero bytes and raises naming
    ``path``, so no output is left half new and half old. A reader at the
    same time, or a kill during the write, may see the new bytes followed
    by the old ones. Nothing is fsynced.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException as err:
            if regular:
                os.ftruncate(fd, 0)
            if isinstance(err, OSError):  # name the file, as open would
                raise OSError(err.errno, err.strerror, os.fspath(path)) from None
            raise
    finally:
        os.close(fd)


def _read_text(path, error=CorruptFileError) -> str:
    """A text file's UTF-8 contents, less one leading byte-order mark;
    undecodable bytes raise ``error`` naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return text[1:] if text.startswith("\ufeff") else text


def _lines(text: str) -> list[tuple[int, str]]:
    """``(line_no, line)`` for every line of ``text`` that is neither blank
    nor a ``#`` comment, stripped; line numbers count from 1 in the file.

    Only ``\n``, ``\r\n`` and ``\r`` end a line: a form feed, a file
    separator or a Unicode line separator inside a line stays part of it.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    numbered = filter(itemgetter(1), enumerate(map(str.strip, text.split("\n")), 1))
    if "#" in text:
        return [(line_no, line) for line_no, line in numbered if line[0] != "#"]
    return list(numbered)


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


def _finite_column(cells, kind=float) -> np.ndarray | None:
    """``kind`` of every cell as a float64 array when each is a finite
    number by the rule of :func:`_finite`, else None; ``kind`` returns
    floats."""
    try:
        numbers = np.fromiter(map(kind, cells), np.float64, len(cells))
    except (ValueError, OverflowError):
        return None
    return numbers if np.isfinite(numbers).all() else None


def _db_to_linear(text: str) -> float:
    return 10.0 ** (float(text) / 10.0)


def _read_numbers(path) -> dict[str, float]:
    """The values of a ``key=value`` file whose every value is a number."""
    return {
        key: _finite(value, path, line_no, f"bad number for {key}")
        for line_no, key, value in _key_values(_read_text(path), path, CorruptFileError)
    }


def _format_value(value) -> str:
    """``value`` as text: a flag, an integer, the text itself, or the
    float's shortest round-trip repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, str):
        return value
    return repr(float(value))


def _key_value_text(pairs, comments: tuple[str, ...] = ()) -> str:
    """``# comment`` lines, then one ``key=value`` line per pair."""
    lines = [f"# {comment}" for comment in comments]
    lines += [f"{key}={_format_value(value)}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def _write_db_rows(path, header: str, delays_s, *powers) -> None:
    """Write ``header``, then one row per delay: the delay in ns and each
    power in dB, all at six decimals (a zero power is ``-inf``)."""
    with np.errstate(divide="ignore"):
        columns = [delays_s * 1e9] + [10.0 * np.log10(p) for p in powers]
    # the rows interleaved into one list of Python floats, which format
    # faster than numpy scalars, to the same text, and all in one call
    cells = np.stack(columns, axis=1).ravel().tolist()
    row = ",".join(["%.6f"] * len(columns)) + "\n"
    _write_text(path, f"{header}\n" + (row * len(delays_s)) % tuple(cells))


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
    """A raw IQ capture opened for reading by sample range, ``read_into``,
    with the ``len`` and ``sample_rate_hz`` of an ``IqSignal``, and its
    ``center_frequency_hz`` from the sidecar.

    Opening checks the file size, the float count and the ``.meta``
    sidecar; each read checks that the samples it fills are finite.
    The reader keeps the file open, and each read is one positioned read of
    the file, safe from any thread; a reader holds no samples itself, so a
    capture larger than RAM can be processed range by range. ``close``, or
    the end of a ``with`` block or of the reader itself, closes the file.
    """

    def __init__(self, path):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        self._closer = weakref.finalize(self, os.close, self._fd)
        try:
            size = os.fstat(self._fd).st_size
            if size % 4 != 0:
                raise CorruptFileError(f"{path}: size {size} is not a whole number of floats")
            if size // 4 % 2 != 0:
                raise CorruptFileError(
                    f"{path}: odd float count {size // 4}; interleaved I/Q expected"
                )
            meta = _read_meta(path)
            if size == 0:
                raise ValidationError(f"{path}: capture holds no samples")
            self._samples = size // 8
            self.sample_rate_hz = meta["sample_rate_hz"]
            self.center_frequency_hz = meta["center_frequency_hz"]
            check_capture(self._samples, self.sample_rate_hz, self.center_frequency_hz)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self._closer()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self._samples

    def read_into(self, lo: int, out: np.ndarray, scratch: np.ndarray) -> None:
        """Fill ``out``, a writable C-contiguous complex128 array, with the
        samples from ``lo`` on.

        Their ``<c8`` pairs are read in one positioned read into the first
        8 bytes per sample of ``scratch``, a C-contiguous array whose
        contents the read overwrites, and widened into ``out`` in one copy.
        """
        flat = _read_target(out, lo, self._samples, f"{self.path}: ")
        hi = lo + flat.size
        if not self._closer.alive:
            raise ValidationError(f"{self.path}: read from a closed capture")
        nbytes = 8 * flat.size
        if not (isinstance(scratch, np.ndarray) and scratch.flags.c_contiguous
                and scratch.nbytes >= nbytes):
            raise ValidationError(f"read_into needs a C-contiguous scratch of {nbytes} bytes")
        raw = scratch.reshape(-1).view(np.uint8)[:nbytes]
        if os.preadv(self._fd, [raw], 8 * lo) != nbytes:
            raise CorruptFileError(f"{self.path}: file shrank below sample {hi}")
        floats = raw.view("<f4")
        # max and min are NaN, or infinite, when any float is; no temporary
        if not (math.isfinite(floats.max(initial=0.0))
                and math.isfinite(floats.min(initial=0.0))):
            first = lo + int(np.argmin(np.isfinite(floats))) // 2
            raise CorruptFileError(f"{self.path}: sample {first} is not finite")
        flat[...] = raw.view("<c8")


def config_to_text(config: ScenarioConfig, comments: tuple[str, ...] = ()) -> str:
    """Serialize a scenario config in canonical key order."""
    pairs = []
    for key, (field, _) in _CONFIG_TABLE.items():
        value = getattr(config, field)
        if value is not None:
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
    """Parse ``key=value`` scenario-config text into a validated config; a
    rejection names ``source``, and the line and key when one field is at fault."""
    found: dict = {}
    keys: dict = {}  # field -> "source:line: key"
    for line_no, key, value in _key_values(text, source, ValidationError):
        where = f"{source}:{line_no}"
        if key not in _CONFIG_TABLE:
            raise ValidationError(f"{where}: unknown key {key!r}")
        field, kind = _CONFIG_TABLE[key]
        if field in found:
            raise ValidationError(f"{where}: duplicate key {key!r}")
        found[field] = _config_value(kind, key, value, source, line_no)
        keys[field] = f"{where}: {key}"
    fields = {**_CONFIG_ABSENT, **found}
    missing = sorted(key for key, (field, _) in _CONFIG_TABLE.items() if field not in fields)
    if missing:
        raise ValidationError(f"{source}: missing mandatory key {missing[0]!r}")
    try:
        return ScenarioConfig(**fields)
    except ValidationError as err:
        field, _, rule = str(err).partition(" ")
        message = f"{keys[field]} {rule}" if field in keys else f"{source}: {err}"
        raise ValidationError(message) from err


def write_config(path, config: ScenarioConfig, comments: tuple[str, ...] = ()) -> None:
    _write_text(path, config_to_text(config, comments))


def read_config(path) -> ScenarioConfig:
    return parse_config_text(_read_text(path, ValidationError), source=str(path))


def write_pdp_csv(path, pdp: PowerDelayProfile) -> None:
    """Write a normalized PDP as ``delay_ns,power_db`` rows."""
    _write_db_rows(path, "delay_ns,power_db", pdp.delays_s, pdp.powers_linear)


def write_aligned_csv(path, delays_s, measured, simulated) -> None:
    """Write two profiles on one delay grid as ``delay_ns,measured_db,simulated_db`` rows."""
    _write_db_rows(path, "delay_ns,measured_db,simulated_db", delays_s, measured, simulated)


def _pdp_columns(path, rows) -> tuple[np.ndarray, np.ndarray]:
    """The delays in ns and the linear powers of the PDP-CSV data ``rows``.

    The rows are joined with an empty cell between each two and split into
    cells once, and each column is converted as a whole. An empty cell is
    no number, so when there are three cells a row less one and every
    delay and power cell is a number, the empty ones fall between the rows
    and each row held two cells. Otherwise the rows are walked in file
    order to raise the first error a row-by-row read would: the column
    count, then the delay, then the power.
    """
    cells = ",,".join(map(itemgetter(1), rows)).split(",")
    if len(cells) == 3 * len(rows) - 1:
        delays_ns = _finite_column(cells[0::3])
        powers = _finite_column(cells[1::3], _db_to_linear)
        if delays_ns is not None and powers is not None:
            return delays_ns, powers
    for line_no, line in rows:
        parts = line.split(",")
        if len(parts) != 2:
            raise CorruptFileError(f"{path}:{line_no}: expected two columns")
        _finite(parts[0], path, line_no)
        _finite(parts[1], path, line_no, kind=_db_to_linear)
    raise AssertionError(f"{path}: the column pass failed on rows that all read")


def read_pdp_csv(path) -> PowerDelayProfile:
    """Read a PDP CSV back; the uniform delay grid is snapped to its mean step.

    Every row's delay must lie on that grid, to within the six-decimal
    rounding of :func:`write_pdp_csv`. Every row is checked for two finite
    numbers before the grid, so the error names the first bad line.
    """
    lines = _lines(_read_text(path))
    if not lines or lines[0][1] != "delay_ns,power_db":
        raise CorruptFileError(f"{path}: missing 'delay_ns,power_db' header")
    rows = lines[1:]
    if not rows:
        raise CorruptFileError(f"{path}: no data rows")
    delays_ns, powers = _pdp_columns(path, rows)
    n = len(delays_ns)
    if n == 1:
        delays_s = delays_ns * 1e-9
    else:
        step_ns = (delays_ns[-1] - delays_ns[0]) / (n - 1)
        if step_ns <= 0:
            raise CorruptFileError(f"{path}: delays not increasing")
        grid_ns = delays_ns[0] + np.arange(n) * step_ns
        tolerance_ns = _GRID_TOLERANCE_NS + _GRID_TOLERANCE_REL * np.abs(grid_ns)
        off = np.abs(delays_ns - grid_ns) > tolerance_ns
        if off.any():
            first = int(np.argmax(off))
            raise CorruptFileError(f"{path}:{rows[first][0]}: delay off the uniform delay grid")
        delays_s = grid_ns * 1e-9
    return PowerDelayProfile(*_freeze(delays_s, powers))


def write_report(path, report: ComparisonReport, comments: tuple[str, ...] = ()) -> None:
    """Write a comparison report as ``key=value`` lines."""
    _write_text(path, _key_value_text(asdict(report).items(), comments))


def read_report(path) -> dict[str, float]:
    return _read_numbers(path)


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset: complex64 CIR snapshots plus the generating config text."""

    snapshots: np.ndarray
    sample_rate_hz: float
    config_text: str

    def __post_init__(self):
        snaps = _frozen(self.snapshots, np.complex64)
        object.__setattr__(self, "snapshots", snaps)
        if snaps.ndim != 2 or snaps.size == 0:
            raise ValidationError("dataset snapshots must be a non-empty 2-D array")
        _check_rate(self.sample_rate_hz)

    @property
    def snapshot_count(self) -> int:
        return self.snapshots.shape[0]

    @property
    def cir_length_taps(self) -> int:
        return self.snapshots.shape[1]


# posix_fallocate refusals after which the file is written unreserved: the
# filesystem, or this kind of file, takes no reservation
_UNRESERVABLE = (errno.EOPNOTSUPP, errno.EINVAL)
# refusals that say the disk cannot hold the file
_NO_ROOM = (errno.ENOSPC, errno.EFBIG, errno.EDQUOT)


def _reserve(fd: int, size: int, path) -> None:
    """Allocate the first ``size`` bytes of the empty file ``fd``, which is
    written as ``path``.

    A disk that cannot hold them raises ``ValidationError`` naming ``path``;
    a platform or filesystem without the call leaves the file unreserved.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as err:  # name the file asked for, not the temporary one
        if err.errno in _UNRESERVABLE:
            return
        if err.errno in _NO_ROOM:
            raise ValidationError(
                f"{os.fspath(path)}: cannot reserve {size} bytes: "
                f"[Errno {err.errno}] {err.strerror}"
            ) from None
        raise OSError(err.errno, err.strerror, os.fspath(path)) from None


def _write_binary(path, size: int, head: bytes, blocks) -> None:
    """Write ``head``, then each of ``blocks`` as ``<c8`` pairs, as the
    ``size``-byte file ``path``.

    The file is made beside ``path`` under a temporary name, reserved at
    ``size`` bytes before the first byte is written, and moved onto
    ``path`` once every block is in and the bytes written are ``size``.
    When a block, the reservation, a write or that count fails, the
    temporary file is removed and ``path`` is left as it was. A ``path``
    that exists but is not a regular file, such as a device or a pipe, is
    written in place, unreserved.
    """
    target = os.path.realpath(path)
    temporary = None
    if os.path.isfile(target) or not os.path.exists(target):
        folder, name = os.path.split(target)
        temporary = os.path.join(folder, f".{name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            fh = open(temporary, "xb")
        except OSError as err:  # name the file asked for, not the temporary one
            raise OSError(err.errno, err.strerror, os.fspath(path)) from None
    else:
        fh = open(path, "wb")
    try:
        with fh:
            if temporary is not None:
                _reserve(fh.fileno(), size, path)
            written = fh.write(head)
            for block in blocks:
                written += fh.write(np.asarray(block, dtype="<c8"))
        if written != size:
            raise SizeMismatchError(f"{path}: {written} bytes written, {size} expected")
        if temporary is not None:
            os.replace(temporary, target)
    except BaseException:
        if temporary is not None:
            os.unlink(temporary)
        raise


def _write_chds(path, count: int, taps: int, sample_rate_hz: float, config_text: str, blocks):
    """Write a CHDS container whose ``count`` snapshots of ``taps`` taps
    arrive as ``blocks``, C-contiguous 2-D complex arrays in snapshot order.

    The header and config blob go first, then each block as ``<c8`` pairs
    as it arrives, so the caller may still be making the later blocks. A
    ``<c8`` block is written as it is; any other is cast to ``<c8`` first.
    Blocks that hold more or fewer than ``count`` snapshots raise
    ``SizeMismatchError``. The file goes through :func:`_write_binary`: a
    failure leaves ``path`` as it was, and a ``path`` that is not a
    regular file, such as a device or a pipe, is written in place.

    Before the header is written, ``os.posix_fallocate`` reserves the
    temporary file at its final size, header + blob + count * taps * 8
    bytes. So a dataset the disk cannot hold fails with a
    ``ValidationError`` naming ``path`` before the first block is asked
    for, and none of its snapshots is drawn. A reserved file also has no
    delayed-allocation blocks left to flush when it replaces an existing
    ``path``, which ext4 would otherwise do inside the rename. On a
    filesystem without ``fallocate``, glibc emulates the call by writing
    a zero byte to every block of the file before the data are written;
    where the call is missing or refused as unsupported (``EOPNOTSUPP``,
    ``EINVAL``), the file is written unreserved.

    Nothing is fsynced. A file written in the last seconds before a power
    loss may read back as zeros; ``read_dataset`` rejects it by its bad
    magic, and the same seed writes the same bytes again.
    """
    blob = config_text.encode("utf-8")
    header = struct.pack(
        _HEADER_FMT, DATASET_MAGIC, DATASET_VERSION, count, taps, sample_rate_hz, len(blob)
    )
    size = _HEADER_SIZE + len(blob) + count * taps * 8
    _write_binary(path, size, header + blob, blocks)


def read_dataset(path) -> Dataset:
    """Read and validate a CHDS container; never trusts lengths beyond file size.

    The header and config blob are read and checked before any payload
    byte. The payload is then read in one ``readinto`` straight into the
    read-only complex64 (``<c8``) snapshot array the dataset holds, so the
    read holds the payload's bytes once, and no more.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER_SIZE:
            raise SizeMismatchError(f"{path}: {size} bytes is smaller than the header")
        magic, version, count, taps, rate, blob_len = struct.unpack(
            _HEADER_FMT, fh.read(_HEADER_SIZE)
        )
        if magic != DATASET_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
        if version != DATASET_VERSION:
            raise BadVersionError(f"{path}: unsupported version {version}")
        expected = _HEADER_SIZE + blob_len + count * taps * 8
        if size != expected:
            raise SizeMismatchError(
                f"{path}: file is {size} bytes but header arithmetic gives {expected}"
            )
        try:
            blob = fh.read(blob_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{path}: config blob is not UTF-8 text") from exc
        snapshots = np.empty((count, taps), dtype="<c8")
        if fh.readinto(snapshots) != snapshots.nbytes:
            raise SizeMismatchError(f"{path}: file shrank while it was read")
    snapshots.setflags(write=False)
    return Dataset(snapshots, rate, blob)
