"""The receive chain's chunk pool against the same chain run inline.

``sounder._map_chunks`` runs the chunk work of mitigation and estimation on
a few worker threads. Whatever the number of threads, the powers and the
CSV bytes must equal the inline run's, an error raised in a worker must
surface as it does inline, and no task may outlive the call.
"""

import contextlib
import gc
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from test_streaming import noisy_samples, whole_chain_powers, with_spikes, write_capture

from cirkit import io, sounder
from cirkit.cli import main
from cirkit.signal import zadoff_chu

ROWS = sounder.CHUNK_ROWS
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def pooled(monkeypatch):
    """Run the chunks on the pool even on a one-CPU host."""
    monkeypatch.setattr(sounder, "_usable_cpus", lambda: 2)


@pytest.fixture
def thread_names(monkeypatch):
    """The names of the threads that read a capture file, in read order."""
    names = []
    read_into = io.IqReader.read_into

    def recorded(self, lo, out, scratch):
        names.append(threading.current_thread().name)
        return read_into(self, lo, out, scratch)

    monkeypatch.setattr(io.IqReader, "read_into", recorded)
    return names


def run_estimate(path, tmp_path, name, *flags):
    out = tmp_path / name
    assert main(["estimate", "--rx", str(path), "--pdp-out", str(out), *flags]) == 0
    return out.read_bytes()


def streamed_powers(path, taper=sounder.DEFAULT_TAPER_FRACTION):
    sequence = zadoff_chu(sounder.DEFAULT_ROOT, sounder.DEFAULT_SEQUENCE_LENGTH)
    cleaned = sounder.mitigate_artifacts(io.IqReader(path))
    offset = sounder.synchronize(cleaned, sequence)
    return sounder.estimate_pdp(cleaned, sequence, taper, start=offset).powers_linear


EDGE = sounder._CHUNK_SAMPLES
CASES = {
    # (whole periods, offset into a period, extra samples, spike positions)
    "one-chunk": (ROWS - 10, 0, 0, [3]),
    "two-chunks": (2 * ROWS, 0, 0, [EDGE - 1, EDGE, EDGE + 1]),
    "partial-last-chunk-and-offset": (2 * ROWS + 37, 211, 101, [0, EDGE - 2, EDGE + 2, -1]),
}


@pytest.mark.parametrize("taper", ["0", "0.1"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pool_equals_inline(tmp_path, monkeypatch, pooled, thread_names, case, taper):
    periods, offset, extra, spikes = CASES[case]
    samples = with_spikes(noisy_samples(periods, offset, extra, seed=len(case)), spikes)
    path = write_capture(tmp_path, samples)
    pool_powers = streamed_powers(path, float(taper))
    pool_csv = run_estimate(path, tmp_path, "pool.csv", "--taper", taper)
    # one chunk runs inline even with the pool on
    in_workers = any(name != threading.main_thread().name for name in thread_names)
    assert in_workers == (case != "one-chunk")
    monkeypatch.setattr(sounder, "_MAX_WORKERS", 1)
    thread_names.clear()
    assert np.array_equal(streamed_powers(path, float(taper)), pool_powers)
    assert run_estimate(path, tmp_path, "inline.csv", "--taper", taper) == pool_csv
    assert set(thread_names) == {threading.main_thread().name}


def test_long_period_round_trip_through_the_pool(tmp_path, monkeypatch, pooled, thread_names):
    """A noise-free 8191-sample sounding, several chunks of either kind."""
    monkeypatch.setattr(sounder, "CHUNK_ROWS", 2)
    monkeypatch.setattr(sounder, "_CHUNK_SAMPLES", 10007)
    flags = ["--zc-length", "8191", "--repetitions", "7"]
    path = tmp_path / "tx.iq"
    assert main(["generate-sounding", *flags, "--out", str(path)]) == 0
    pool_csv = run_estimate(path, tmp_path, "pool.csv", *flags)
    assert any(name != threading.main_thread().name for name in thread_names)
    assert len(io.read_pdp_csv(tmp_path / "pool.csv")) == 8191
    monkeypatch.setattr(sounder, "_MAX_WORKERS", 1)
    assert run_estimate(path, tmp_path, "inline.csv", *flags) == pool_csv


def test_more_workers_than_cores_switching_often(tmp_path, monkeypatch):
    """Four workers on any host, a thread switch every microsecond: the same
    powers as inline."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(sounder, "_MAX_WORKERS", 4)
    monkeypatch.setattr(sounder, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(sounder, "_pool", lambda: pool)
    samples = with_spikes(noisy_samples(3 * ROWS + 11, 5, 3), [EDGE, 2 * EDGE + 1])
    path = write_capture(tmp_path, samples)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool_powers = streamed_powers(path)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    monkeypatch.setattr(sounder, "_MAX_WORKERS", 1)
    assert np.array_equal(streamed_powers(path), pool_powers)


def test_nan_in_last_chunk_read_by_a_worker(tmp_path, capsys, pooled, thread_names):
    samples = noisy_samples(2 * ROWS + 5)
    samples[-2] = np.nan
    path = write_capture(tmp_path, samples)
    rc = main(["estimate", "--rx", str(path), "--pdp-out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "read-iq" in err
    assert f"sample {samples.size - 2} is not finite" in err
    assert thread_names[-1] != threading.main_thread().name


def test_one_usable_cpu_runs_inline(monkeypatch, thread_names, tmp_path):
    monkeypatch.setattr(sounder, "_usable_cpus", lambda: 1)
    path = write_capture(tmp_path, noisy_samples(2 * ROWS))
    run_estimate(path, tmp_path, "o.csv")
    assert set(thread_names) == {threading.main_thread().name}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_makes_its_own_pool(tmp_path, pooled):
    """A child forked after a pooled run has none of the pool's threads; its
    own pooled run must not wait on them."""
    import multiprocessing

    path = write_capture(tmp_path, noisy_samples(2 * ROWS + 5))
    powers = streamed_powers(path)

    def child():
        if not np.array_equal(streamed_powers(path), powers):
            raise SystemExit(1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.is_alive():
        process.kill()
        process.join()
    assert process.exitcode == 0


def test_concurrent_calls_take_distinct_workspaces(tmp_path, pooled):
    """Two threads run the chain on different captures at once, a thread
    switch every microsecond: each gets the powers it gets alone."""
    samples = [noisy_samples(2 * ROWS + 37, 5 * i, 11, seed=i) for i in range(2)]
    paths = [
        write_capture(tmp_path, with_spikes(x, [EDGE]), f"rx{i}.iq") for i, x in enumerate(samples)
    ]
    alone = [streamed_powers(path) for path in paths]
    together = [[], []]
    barrier = threading.Barrier(2)

    def run(i):
        barrier.wait(timeout=30)
        for _ in range(3):
            together[i].append(streamed_powers(paths[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(2):
        assert len(together[i]) == 3
        assert all(np.array_equal(powers, alone[i]) for powers in together[i])


def test_calls_in_a_row_with_different_chunk_needs(tmp_path, monkeypatch, pooled):
    """Calls in a row whose buffers differ in size: a long capture, a short
    one, then smaller chunks, then the long one again, each equal to the
    whole chain."""
    long_path = write_capture(
        tmp_path, with_spikes(noisy_samples(2 * ROWS + 37, 211, 101), [0, EDGE - 2, EDGE + 2]),
        "long.iq",
    )
    short_samples = with_spikes(noisy_samples(20, 7, 3, seed=2), [9])
    short_path = write_capture(tmp_path, short_samples, "short.iq")
    for path, chunk_samples, chunk_rows in [
        (long_path, EDGE, ROWS),
        (short_path, EDGE, ROWS),
        (long_path, 10007, 5),
        (short_path, 1031, 3),
        (long_path, EDGE, ROWS),
    ]:
        monkeypatch.setattr(sounder, "_CHUNK_SAMPLES", chunk_samples)
        monkeypatch.setattr(sounder, "CHUNK_ROWS", chunk_rows)
        expected = whole_chain_powers(path, 0.1)  # the reference runs no chunk task
        assert np.array_equal(streamed_powers(path), expected), (path.name, chunk_samples)


class TestMapChunks:
    """The helper itself: order, buffers, errors and early exits."""

    @pytest.fixture
    def calls(self, pooled):
        """Each call's item, start and end, and weak references to the
        buffers and to the memory they are views of."""
        return {"started": [], "ended": [], "buffers": [], "memory": []}

    def run(self, calls, items, fail_at=None, take=None, sleeps=None):
        """Run ``items`` through a kernel that sleeps ``sleeps[item]`` seconds
        (5 ms by default) and fails at ``fail_at``; stop after ``take``."""
        sleeps = sleeps or {}

        def kernel(item, buffers):
            (buffers,) = buffers
            if not any(ref() is buffers for ref in calls["buffers"]):
                calls["buffers"].append(weakref.ref(buffers))
            memory = buffers
            while memory.base is not None:
                memory = memory.base
            if not any(ref() is memory for ref in calls["memory"]):
                calls["memory"].append(weakref.ref(memory))
            calls["started"].append(item)
            try:
                time.sleep(sleeps.get(item, 0.005))
                if item == fail_at:
                    raise ValueError(f"chunk {item} failed")
                buffers[:] = item
                return buffers
            finally:
                calls["ended"].append(item)

        results = sounder._map_chunks(kernel, items, [((4,), np.float64)])
        taken = []
        try:
            for result in results:
                taken.append(result[0])
                if len(taken) == take:
                    break
        finally:
            results.close()
        return taken

    def test_results_in_order_from_reused_buffers(self, calls):
        assert self.run(calls, range(9), sleeps={0: 0.05, 4: 0.05}) == list(range(9))
        assert len(calls["buffers"]) == sounder._MAX_WORKERS

    def test_error_waits_for_every_started_call(self, calls):
        # chunk 4 starts while the caller waits for chunk 3, and ends well
        # after chunk 3 fails
        message = None
        try:
            self.run(calls, range(40), fail_at=3, sleeps={3: 0.05, 4: 0.2})
        except ValueError as err:
            message = str(err)
        assert message == "chunk 3 failed"
        assert 4 in calls["started"]
        assert sorted(calls["started"]) == sorted(calls["ended"])
        assert max(calls["started"]) < 3 + 2 * sounder._MAX_WORKERS
        gc.collect()
        assert all(ref() is None for ref in calls["buffers"])

    def test_early_exit_waits_for_every_started_call(self, calls):
        # chunk 2 starts while the caller waits for chunk 1, and ends well
        # after the caller stops
        assert self.run(calls, range(40), take=2, sleeps={1: 0.05, 2: 0.2}) == [0, 1]
        assert 2 in calls["started"]
        assert sorted(calls["started"]) == sorted(calls["ended"])
        gc.collect()
        assert all(ref() is None for ref in calls["buffers"])

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "stop", [{}, {"take": 2}, {"fail_at": 3}], ids=["to-the-end", "early", "raised"]
    )
    def test_no_memory_kept_once_a_call_ends(self, calls, monkeypatch, cpus, stop):
        monkeypatch.setattr(sounder, "_usable_cpus", lambda: cpus)
        with contextlib.suppress(ValueError):
            self.run(calls, range(9), **stop)
        gc.collect()
        assert calls["memory"]
        assert all(ref() is None for ref in calls["memory"])


def test_import_leaves_concurrent_futures_out():
    code = "import sys, cirkit.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"
