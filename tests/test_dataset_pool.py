"""The dataset generator's chunk pool against the same generator run inline.

``gbsm.generate_dataset`` renders each ``CHUNK_ROWS`` chunk as a task of
``sounder._map_chunks`` and writes the CHDS payload chunk by chunk as the
tasks finish. Whatever the number of threads, the file bytes and the errors
must equal the inline run's, and a failed run must leave ``--out`` as it
was.
"""

import dataclasses
import errno
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_gbsm_reference import CONFIGS, SPREAD
from test_io import refused

from cirkit import __about__, gbsm, io, sounder
from cirkit.cli import main
from cirkit.errors import ValidationError

ROWS = gbsm.CHUNK_ROWS
SRC = Path(__file__).resolve().parents[1] / "src"
# a spread wide enough that chunks 1, 2 and 3 of seed 0 each hold a snapshot
# whose every cluster draw overflows the CIR span: 276, 579 and 771
WIDE = dataclasses.replace(SPREAD, ds_sigma_log10=0.25)


@pytest.fixture
def pooled(monkeypatch):
    """Run the chunks on the pool even on a one-CPU host."""
    monkeypatch.setattr(sounder, "_usable_cpus", lambda: 2)


@pytest.fixture
def chunk_threads(monkeypatch):
    """The names of the threads that drew each chunk."""
    names = []
    stream_block = gbsm._stream_block

    def recorded(*args):
        names.append(threading.current_thread().name)
        return stream_block(*args)

    monkeypatch.setattr(gbsm, "_stream_block", recorded)
    return names


def inline(monkeypatch):
    monkeypatch.setattr(sounder, "_usable_cpus", lambda: 1)


def dataset_bytes(tmp_path, config, count, seed, name):
    path = tmp_path / name
    gbsm.generate_dataset(config, count, seed, path=path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pool_writes_the_inline_bytes(tmp_path, monkeypatch, pooled, chunk_threads, name):
    config = CONFIGS[name]
    counts = (1, ROWS - 1, ROWS + 1, 2 * ROWS + 3)
    pool = {count: dataset_bytes(tmp_path, config, count, 13, "pool.chds") for count in counts}
    assert any(thread != threading.main_thread().name for thread in chunk_threads)
    inline(monkeypatch)
    chunk_threads.clear()
    for count in counts:
        assert dataset_bytes(tmp_path, config, count, 13, "inline.chds") == pool[count], count
    assert set(chunk_threads) == {threading.main_thread().name}


def test_more_workers_than_cores_switching_often(tmp_path, monkeypatch):
    """Four workers on any host, a thread switch every microsecond: the
    chunks' rows of the one block stay apart, the bytes equal inline."""
    from concurrent.futures import ThreadPoolExecutor

    config = CONFIGS["spread"]
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(sounder, "_MAX_WORKERS", 4)
    monkeypatch.setattr(sounder, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(sounder, "_pool", lambda: pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled_bytes = dataset_bytes(tmp_path, config, 5 * ROWS + 9, 13, "pool.chds")
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    inline(monkeypatch)
    assert dataset_bytes(tmp_path, config, 5 * ROWS + 9, 13, "inline.chds") == pooled_bytes


def test_chunk_kept_until_the_writer_has_taken_it(tmp_path, monkeypatch, pooled):
    """The writer holds each chunk a while before it takes it: no later
    chunk renders into it meanwhile, and the bytes equal inline."""
    write_chds = io._write_chds
    checked = []

    def slow_writer(path, count, taps, rate, blob, blocks):
        def held():
            for block in blocks:
                rendered = block.copy()
                time.sleep(0.02)
                checked.append(np.array_equal(block, rendered))
                yield block

        write_chds(path, count, taps, rate, blob, held())

    monkeypatch.setattr(io, "_write_chds", slow_writer)
    config = CONFIGS["spread"]
    pooled_bytes = dataset_bytes(tmp_path, config, 5 * ROWS + 9, 13, "pool.chds")
    assert checked == [True] * 6
    inline(monkeypatch)
    assert dataset_bytes(tmp_path, config, 5 * ROWS + 9, 13, "inline.chds") == pooled_bytes


def test_redraw_inside_a_later_chunk(tmp_path, monkeypatch, pooled):
    """Snapshot 1474, in chunk 5, is drawn again on the pool as inline."""
    config = gbsm.PRESETS["campus-los"]
    pool = dataset_bytes(tmp_path, config, 2000, 1, "pool.chds")
    inline(monkeypatch)
    assert dataset_bytes(tmp_path, config, 2000, 1, "inline.chds") == pool


def test_two_failing_chunks_name_the_lowest_snapshot(tmp_path, monkeypatch, pooled):
    """Chunk 1 is slowed down so that chunk 2 fails first on the pool."""
    stream_block = gbsm._stream_block

    def slow_chunk_one(config, root, stream, start, rows):
        if start == ROWS:
            time.sleep(0.1)
        return stream_block(config, root, stream, start, rows)

    monkeypatch.setattr(gbsm, "_stream_block", slow_chunk_one)
    messages = []
    for cpus in (2, 1):
        monkeypatch.setattr(sounder, "_usable_cpus", lambda cpus=cpus: cpus)
        with pytest.raises(ValidationError, match="snapshot 276:") as failure:
            gbsm.generate_dataset(WIDE, 4 * ROWS, 0, tmp_path / "x.chds")
        messages.append(str(failure.value))
    assert messages[0] == messages[1]


class TestFailedRunLeavesOut:
    """``cirkit dataset`` failing in its last chunk, snapshot 2822."""

    def run(self, tmp_path, capsys, out):
        config = tmp_path / "spread.cfg"
        io.write_config(config, SPREAD)
        argv = ["dataset", "--config", str(config), "--seed", "13", "--count", "3000"]
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("cirkit dataset: dataset: config 'campus-los', snapshot 2822: ")
        return sorted(path.name for path in tmp_path.iterdir())

    def test_no_out_before_leaves_none(self, tmp_path, capsys, pooled):
        assert self.run(tmp_path, capsys, tmp_path / "x.chds") == ["spread.cfg"]

    def test_existing_out_left_byte_identical(self, tmp_path, capsys, pooled):
        out = tmp_path / "x.chds"
        gbsm.generate_dataset(gbsm.PRESETS["urban-nlos"], 5, 0, path=out)
        before = out.read_bytes()
        assert self.run(tmp_path, capsys, out) == ["spread.cfg", "x.chds"]
        assert out.read_bytes() == before

    def test_inline_leaves_it_too(self, tmp_path, capsys, monkeypatch):
        inline(monkeypatch)
        out = tmp_path / "x.chds"
        out.write_bytes(b"earlier")
        assert self.run(tmp_path, capsys, out) == ["spread.cfg", "x.chds"]
        assert out.read_bytes() == b"earlier"


def test_missing_folder_names_out_not_the_temporary_file(tmp_path, capsys):
    out = tmp_path / "missing" / "x.chds"
    assert main(["dataset", "--config", "urban-nlos", "--count", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"cirkit dataset: dataset: [Errno 2] No such file or directory: '{out}'\n"
    )
    assert not list(tmp_path.iterdir())



@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EFBIG, errno.EDQUOT],
                         ids=["ENOSPC", "EFBIG", "EDQUOT"])
@pytest.mark.parametrize("earlier", [None, b"earlier"], ids=["new-out", "existing-out"])
def test_disk_that_cannot_hold_out_fails_before_any_render(tmp_path, capsys, monkeypatch,
                                                           pooled, code, earlier):
    """The reservation is refused: ``cirkit dataset`` exits 1 at its
    ``dataset`` stage naming ``--out``, and no snapshot is rendered."""
    rendered = []
    monkeypatch.setattr(os, "posix_fallocate", refused(code))
    monkeypatch.setattr(gbsm, "_render_block", lambda *args: rendered.append(args))
    out = tmp_path / "x.chds"
    if earlier is not None:
        out.write_bytes(earlier)
    argv = ["dataset", "--config", "campus-nlos", "--seed", "1", "--count", "3000"]
    assert main([*argv, "--out", str(out)]) == 1
    version = f"generator_version={__about__.__version__}"
    blob = io.config_to_text(gbsm.PRESETS["campus-nlos"], ("seed=1", version)).encode()
    size = 26 + len(blob) + 3000 * 353 * 8
    assert capsys.readouterr().err == (
        f"cirkit dataset: dataset: {out}: cannot reserve {size} bytes: "
        f"[Errno {code}] {os.strerror(code)}\n"
    )
    assert rendered == []
    if earlier is None:
        assert not list(tmp_path.iterdir())
    else:
        assert [path.name for path in tmp_path.iterdir()] == ["x.chds"]
        assert out.read_bytes() == earlier

def test_write_through_a_symbolic_link(tmp_path):
    """The link stays a link; the file it points at gets the dataset."""
    target = tmp_path / "real.chds"
    target.write_bytes(b"earlier")
    link = tmp_path / "link.chds"
    link.symlink_to(target)
    gbsm.generate_dataset(gbsm.PRESETS["urban-nlos"], 3, 0, path=link)
    assert link.is_symlink()
    names = sorted(path.name for path in tmp_path.iterdir())
    expected = dataset_bytes(tmp_path, gbsm.PRESETS["urban-nlos"], 3, 0, "file.chds")
    assert target.read_bytes() == expected
    assert names == ["link.chds", "real.chds"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_written_in_place(tmp_path):
    """A path that is not a regular file, like ``/dev/null``, is not replaced."""
    expected = dataset_bytes(tmp_path, gbsm.PRESETS["urban-nlos"], 1, 0, "file.chds")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # one snapshot fits the pipe's buffer
    try:
        gbsm.generate_dataset(gbsm.PRESETS["urban-nlos"], 1, 0, path=pipe)
        assert os.read(reader, 2 * len(expected)) == expected
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(pipe.lstat().st_mode)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file.chds", "pipe"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_writes_the_same_bytes(tmp_path, pooled):
    import multiprocessing

    config = gbsm.PRESETS["urban-los"]
    expected = dataset_bytes(tmp_path, config, 2 * ROWS + 3, 6, "parent.chds")

    def child():
        if dataset_bytes(tmp_path, config, 2 * ROWS + 3, 6, "child.chds") != expected:
            raise SystemExit(1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.is_alive():
        process.kill()
        process.join()
    assert process.exitcode == 0


PEAK = """
import resource, sys
from cirkit import gbsm, sounder
sounder._usable_cpus = lambda: {cpus}
gbsm.generate_dataset(gbsm.PRESETS["campus-nlos"], 3000, 1, path=sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# what the pool's two threads may hold beyond the inline run, in KiB: the
# kernel temporaries of a second 64-row block and each thread's own malloc
# arena; rendering whole 256-row chunks on the pool holds about 13 MB more
POOL_ALLOWANCE_KIB = 4096


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_pool_peak_memory_stays_near_the_inline_run(tmp_path):
    """Fresh processes, 3000 snapshots written to a file."""
    peaks = {}
    for cpus in (1, 2):
        out = subprocess.run(
            [sys.executable, "-c", PEAK.format(cpus=cpus), str(tmp_path / "x.chds")],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
        )
        peaks[cpus] = int(out.stdout)
    assert peaks[2] <= peaks[1] + POOL_ALLOWANCE_KIB, peaks


COUNT_PEAK = """
import resource, sys
from cirkit.cli import main
main(["dataset", "--config", "campus-nlos", "--seed", "1", "--count", sys.argv[1],
      "--out", sys.argv[2]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# a 30000-snapshot complex128 block alone would be 169 MB
COUNT_ALLOWANCE_KIB = 2048


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_dataset_memory_does_not_grow_with_count(tmp_path):
    """Fresh processes writing 3000 and 30000 snapshots to a file: both hold
    a chunk per task, so they peak alike."""
    peaks = {}
    for count in (3000, 30000):
        out = subprocess.run(
            [sys.executable, "-c", COUNT_PEAK, str(count), str(tmp_path / "x.chds")],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
        )
        peaks[count] = int(out.stdout.split()[-1])
    assert peaks[30000] <= peaks[3000] + COUNT_ALLOWANCE_KIB, peaks
