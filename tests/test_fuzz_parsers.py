"""Seeded fuzz of the four text and binary parsers.

Each test mutates a valid file (byte replacements, insertions, deletions,
truncation and whole values replaced, with tokens that parsers trip over:
non-UTF-8 bytes, ``nan``, huge exponents, separators) and requires that the
parser either returns a value or raises a named ``FileFormatError`` or
``ValidationError``, never a raw numpy, struct, codec or arithmetic error.
Every number in a returned value is finite.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cirkit import io
from cirkit.analysis import PowerDelayProfile
from cirkit.errors import FileFormatError, ValidationError
from cirkit.gbsm import PRESETS
from cirkit.signal import IqSignal

TOKENS = [
    b"\xff", b"\xc3", b"\x00", b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"1e999",
    b"0", b"-0", b"-1", b"4294967295", b"99999999999999999999", b"=", b",", b"\n", b"#",
    b" ", b"true", b"false",
]
FUZZ = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mutated(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "replace", "delete", "truncate", "value"]))
        starts = [i + 1 for i, byte in enumerate(data) if byte in b"=,\n"]
        if op == "value" and starts:  # a whole field: from a separator to the next ',' or line end
            start = draw(st.sampled_from(starts))
            end = next((i for i in range(start, len(data)) if data[i] in b",\n"), len(data))
            data[start:end] = draw(st.sampled_from(TOKENS))
            continue
        pos = draw(st.integers(0, len(data)))
        piece = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=4)))
        if op == "insert":
            data[pos:pos] = piece
        elif op == "replace":
            data[pos : pos + len(piece)] = piece
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)


def assert_finite(numbers) -> None:
    assert np.all(np.isfinite(np.asarray(list(numbers), dtype=float)))


def valid_config() -> bytes:
    return io.config_to_text(PRESETS["urban-los"], ("fuzz base",)).encode()


def valid_pdp_csv(tmp_path) -> bytes:
    path = tmp_path / "base.csv"
    io.write_pdp_csv(path, PowerDelayProfile(np.arange(6) * 1e-8, [1.0, 0.5, 0.25, 0.1, 0.0, 1e-3]))
    return path.read_bytes()


def valid_dataset(tmp_path) -> bytes:
    path = tmp_path / "base.chds"
    snapshots = np.arange(6, dtype=np.complex128).reshape(2, 3)
    io._write_chds(path, 2, 3, 25.6e6, valid_config().decode(), [snapshots])
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_config_parser(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data.draw(mutated(valid_config())))
    try:
        config = io.read_config(path)
    except ValidationError as err:
        assert str(path) in str(err) or "must" in str(err) or "requires" in str(err)
    else:
        fields = vars(config).values()
        assert_finite(v for v in fields if isinstance(v, (int, float)))


@FUZZ
@given(data=st.data())
def test_pdp_csv_parser(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data.draw(mutated(valid_pdp_csv(tmp_path))))
    try:
        pdp = io.read_pdp_csv(path)
    except FileFormatError as err:
        assert str(path) in str(err)
    except ValidationError as err:  # a delay or power out of range
        assert "PDP" in str(err)
    else:
        assert_finite(pdp.delays_s)
        assert_finite(pdp.powers_linear)


@FUZZ
@given(data=st.data())
def test_iq_meta_parser(tmp_path, data):
    path = tmp_path / "fuzz.iq"
    io.write_iq(path, IqSignal([1.0, 1j, -1.0], 25.6e6, 2.48e9))
    meta = path.with_name(path.name + ".meta")
    meta.write_bytes(data.draw(mutated(meta.read_bytes())))
    try:
        capture = io.IqReader(path)
    except FileFormatError as err:
        assert str(meta) in str(err)
    except ValidationError as err:  # a rate or carrier out of range
        assert "must" in str(err)
    else:
        assert_finite([capture.sample_rate_hz, capture.center_frequency_hz])


@FUZZ
@given(data=st.data())
def test_dataset_header_parser(tmp_path, data):
    base = valid_dataset(tmp_path)
    header_end = io._HEADER_SIZE + len(valid_config())
    path = tmp_path / "fuzz.chds"
    path.write_bytes(data.draw(mutated(base[:header_end])) + base[header_end:])
    try:
        dataset = io.read_dataset(path)
    except FileFormatError as err:
        assert str(path) in str(err)
    except ValidationError as err:  # a header rate or shape out of range
        assert "must" in str(err)
    else:
        assert_finite([dataset.sample_rate_hz])
        assert np.all(np.isfinite(dataset.snapshots))
