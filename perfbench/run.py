"""Time cirkit's measurement-to-training-data pipeline end to end.

    python3 perfbench/run.py --workload {capture,dataset,calibrate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a cirkit checkout. The inputs are made from the seed
by ``gen_inputs.py`` in a separate process, so their arrays never count
toward this process's peak memory. The operations then run one after
another in this process through ``cirkit.cli.main`` (a closed loop with one
client), in whole rounds over the workload's inputs until ``--seconds`` have
passed; between operations, every 2 s, a fresh interpreter imports
``cirkit.cli`` to time the set-up. Every output is checked by
``checks.py``; an operation whose command fails or whose output fails a
check counts as failed. Times are
scaled to a nominal host speed measured by a reference loop timed between
operations and around each set-up start (see REFERENCE_NOMINAL_S).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs each operation twice, once plain and once with the layer functions
wrapped (``spans.py``), and prints the per-layer metrics of BENCHMARK.json
as medians per operation, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io as text_io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REALIZATIONS = 200
PREFIX_COUNT = 64

# On a shared host, other tenants' load changes the speed of every process
# by up to 1.8x for minutes at a time. A fixed pure-Python loop, timed
# between operations, tracks that speed to within a few percent of how the
# operations themselves slow down. Every time metric is scaled to a host on
# which the loop takes REFERENCE_NOMINAL_S, so it follows the program and
# not the neighbours: each untraced operation and each set-up start by the
# loop timed just before and just after it, the per-layer figures by the
# run's median. The raw figures go to stderr.
REFERENCE_ITERATIONS = 20_000
REFERENCE_NOMINAL_S = 0.002
REFERENCE_EVERY_S = 0.1
HOST_SAMPLE_LOOPS = 5

# setup_s: a fresh interpreter importing cirkit.cli. The time of such a
# start swings from one few-second window to the next in ways the reference
# loop does not follow, so the starts are spread over the whole run, one per
# SETUP_EVERY_S between operations, not taken in one burst.
SETUP_ARGV = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import cirkit.cli"]
SETUP_EVERY_S = 2.0


@dataclass
class Op:
    argvs: list[list[str]]
    items: int
    check: Callable[[], list[str]]


def import_cirkit():
    """Import cirkit from this checkout's src/ and nowhere else."""
    if not (SRC / "cirkit" / "cli.py").is_file():
        sys.exit(f"perfbench: no cirkit sources under {SRC}; run from a cirkit checkout")
    sys.path.insert(0, str(SRC))
    import cirkit.cli

    origin = Path(cirkit.__file__).resolve()
    if origin.parent != (SRC / "cirkit").resolve():
        sys.exit(f"perfbench: cirkit imported from {origin}, not from {SRC}")
    return cirkit.cli


def reference_seconds() -> float:
    start = perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i
    return perf_counter() - start


def sample_host(busy_s: float) -> list[float]:
    """Time the reference loop once per REFERENCE_EVERY_S of work just done."""
    return [reference_seconds() for _ in range(max(1, round(busy_s / REFERENCE_EVERY_S)))]


def host_sample() -> float:
    """The median of a few reference loops: one reading of the host's speed."""
    return statistics.median(reference_seconds() for _ in range(HOST_SAMPLE_LOOPS))


def host_scale(samples: list[float]) -> float:
    return REFERENCE_NOMINAL_S / statistics.median(samples)


def time_setup() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing cirkit.cli, unscaled and
    host-scaled by the reference loop timed just before and just after it."""
    before = host_sample()
    start = perf_counter()
    subprocess.run(SETUP_ARGV, check=True)
    seconds = perf_counter() - start
    return seconds, seconds * REFERENCE_NOMINAL_S / ((before + host_sample()) / 2)


def measure_argvs(rx: Path, periods: int, pdp: Path, cfg: Path) -> list[list[str]]:
    """``estimate`` then ``extract``: capture to PDP to scenario config."""
    return [
        ["estimate", "--rx", str(rx), "--repetitions", str(periods), "--pdp-out", str(pdp)],
        ["extract", "--pdp", str(pdp), "--los", "--out-config", str(cfg), "--defaults", "urban-los"],
    ]


def capture_ops(truth: dict, inputs: Path, out: Path) -> list[Op]:
    ops = []
    pdp, cfg = out / "measured.csv", out / "scenario.cfg"
    for cap in truth["captures"]:
        argvs = measure_argvs(inputs / cap["file"], cap["periods"], pdp, cfg)

        def check(true_ds=cap["true_ds_s"]):
            return checks.check_pdp_csv(pdp) + checks.check_extracted_ds(cfg, true_ds)

        ops.append(Op(argvs, cap["samples"], check))
    return ops


def calibrate_ops(truth: dict, inputs: Path, out: Path) -> list[Op]:
    ops = []
    measured, simulated = out / "measured.csv", out / "simulated.csv"
    cfg, report, svg = out / "scenario.cfg", out / "report.txt", out / "comparison.svg"
    for cap in truth["captures"]:
        argvs = measure_argvs(inputs / cap["file"], cap["periods"], measured, cfg) + [
            ["simulate", "--config", str(cfg), "--seed", str(truth["seed"]),
             "--realizations", str(REALIZATIONS), "--pdp-out", str(simulated)],
            ["compare", "--measured", str(measured), "--simulated", str(simulated),
             "--report-out", str(report), "--plot-out", str(svg)],
        ]

        def check(true_ds=cap["true_ds_s"]):
            return (
                checks.check_pdp_csv(measured)
                + checks.check_extracted_ds(cfg, true_ds)
                + checks.check_calibration(cfg, simulated, report, svg)
            )

        ops.append(Op(argvs, 1, check))
    return ops


def dataset_ops(truth: dict, cli, out: Path) -> list[Op]:
    ops = []
    seed, count = truth["seed"], truth["count"]
    full, short = out / "train.chds", out / "prefix.chds"

    def argv(preset: str, n: int, path: Path) -> list[str]:
        return ["dataset", "--config", preset, "--seed", str(seed), "--count", str(n),
                "--out", str(path)]

    for preset in truth["presets"]:

        def check(preset=preset):
            problems = checks.check_dataset(full, preset, seed, count)
            if run_cli(cli, argv(preset, PREFIX_COUNT, short)):
                return problems + [f"{preset}: the {PREFIX_COUNT}-snapshot rerun failed"]
            return problems + checks.check_prefix(full, short, PREFIX_COUNT)

        ops.append(Op([argv(preset, count, full)], count, check))
    return ops


def run_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(text_io.StringIO()):
        return cli.main(argv)


def run_op(cli, op: Op) -> tuple[float, bool]:
    """Time one operation; returns (seconds, whether every command succeeded)."""
    start = perf_counter()
    ok = all(run_cli(cli, argv) == 0 for argv in op.argvs)
    return perf_counter() - start, ok


def main() -> int:
    parser = argparse.ArgumentParser(description="cirkit pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=("capture", "dataset", "calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a plain SIGTERM would skip the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_cirkit()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, spec, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec: dict, cli, work: Path) -> int:
    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "gen_inputs.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(inputs)],
        check=True,
    )
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    if args.workload == "capture":
        ops = capture_ops(truth, inputs, out)
    elif args.workload == "calibrate":
        ops = calibrate_ops(truth, inputs, out)
    else:
        ops = dataset_ops(truth, cli, out)

    layer_metrics = spec["per_layer"]
    tracer = None
    if args.trace:
        counted = {m["name"][: -len(".mb_per_s")] for m in layer_metrics
                   if m["name"].endswith(".mb_per_s")}
        tracer = Tracer(frozenset(counted))

    run_op(cli, ops[0])  # warm-up: lazy set-up and first-touch allocation, untimed
    subprocess.run(SETUP_ARGV, check=True)  # fills the bytecode cache, untimed
    setups: list[tuple[float, float]] = []
    plain: list[tuple[float, float, int]] = []  # unscaled s, host-scaled s, items
    traced: list[dict[str, float]] = []
    attempted = failed = 0
    wrong: list[str] = []
    refs: list[float] = []
    last_samples: list[float] = []
    start = last_setup = perf_counter()
    rounds, round_s, setup_spent = 0, 0.0, 0.0
    # whole rounds only, and none that the last round's length says would
    # overrun; the set-up starts do not use up the time of the operations
    while rounds == 0 or perf_counter() - start - setup_spent + round_s <= args.seconds:
        round_start, round_setup = perf_counter(), setup_spent
        for op in ops:
            modes = [False, True] if args.trace else [False]
            if rounds % 2:
                modes.reverse()
            for traced_mode in modes:
                attempted += 1
                if traced_mode:
                    with tracer:
                        seconds, ok = run_op(cli, op)
                    figures = summarize(tracer.spans, tracer.nbytes, seconds)
                else:
                    seconds, ok = run_op(cli, op)
                samples = sample_host(seconds)
                refs += samples
                # the host as it was just before and just after this operation
                op_scale = host_scale(last_samples + samples)
                last_samples = samples
                problems = op.check() if ok else []
                wrong += problems
                if not ok or problems:
                    failed += 1
                    continue
                if traced_mode:
                    traced.append(figures | {"op_s": seconds})
                else:
                    plain.append((seconds, seconds * op_scale, op.items))
            if not args.trace and perf_counter() - last_setup >= SETUP_EVERY_S:
                setup_start = perf_counter()
                setups.append(time_setup())
                last_setup = perf_counter()
                setup_spent += last_setup - setup_start
        round_s = perf_counter() - round_start - (setup_spent - round_setup)
        if rounds == 0:
            # later rounds only repeat these operations; reading after them
            # would tie the high-water mark to how many rounds fit the time
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        rounds += 1
    for problem in wrong:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)

    if not args.trace and not setups:
        setups.append(time_setup())
    if not plain or (args.trace and not traced):
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    op_p50 = statistics.median(s for s, _, _ in plain)
    scale = host_scale(refs)
    if args.trace:
        metrics = layer_figures(layer_metrics, traced, tracer.names, op_p50, scale)
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "items_per_s": sum(n for _, _, n in plain) / sum(s for _, s, _ in plain),
            "op_p50_s": statistics.median(s for _, s, _ in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"perfbench: unscaled setup p50 {statistics.median(raw for raw, _ in setups):.4f} s "
              f"over {len(setups)} starts", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {attempted} operations in {rounds} "
        f"rounds, {failed} failed; unscaled op p50 {op_p50:.4f} s; reference loop p50 "
        f"{statistics.median(refs) * 1e3:.3f} ms over {len(refs)} samples, host scale {scale:.3f}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_figures(layer_metrics: list[dict], traced: list[dict], names: set[str],
                  untraced_p50: float, scale: float) -> dict:
    """Median per operation of every per-layer metric, host-scaled like the
    end-to-end times; 0 where a layer did not run."""
    traced_p50 = statistics.median(f["op_s"] for f in traced)
    metrics = {}
    for m in layer_metrics:
        name = m["name"]
        if name == "trace.overhead_pct":
            value = (traced_p50 - untraced_p50) / untraced_p50 * 100.0
        else:
            function = name.rsplit(".", 1)[0]
            if function != "cli" and function not in names:
                print(f"perfbench: {function} is absent from cirkit", file=sys.stderr)
            value = statistics.median(f.get(name, 0.0) for f in traced)
            if m["unit"] == "s":
                value *= scale
            elif m["unit"] == "MB/s":
                value /= scale
        metrics[name] = {"value": value, "unit": m["unit"]}
    spans_p50 = statistics.median(f["spans.top_s"] for f in traced)
    self_p50 = statistics.median(f["cli.self_s"] for f in traced)
    print(f"perfbench: traced op p50 {traced_p50:.4f} s = top-level spans {spans_p50:.4f} s "
          f"+ cli.self_s {self_p50:.4f} s; untraced op p50 {untraced_p50:.4f} s", file=sys.stderr)
    busiest = {k: statistics.median(f.get(k, 0.0) for f in traced)
               for k in set().union(*traced) if k.endswith(".s")}
    for k, v in sorted(busiest.items(), key=lambda kv: -kv[1])[:12]:
        print(f"perfbench:   {k:<40} {v:.5f} s", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
