"""Show that every output check passes on real output and fails on wrong output.

    python3 perfbench/selftest.py

Runs one calibrate operation and two small datasets through cirkit, checks
the genuine outputs (which must pass), then feeds the checks deliberately
wrong copies (which must fail): a DS off by two delay bins, a PDP whose peak
is not 0 dB, a simulated PDP with stretched delays, a report over the
DS-error bound, a broken SVG, the wrong preset, an embedded DS or K-factor
that is not the preset's, a non-finite snapshot, snapshots 0.4 dB too
strong, one flipped snapshot, a rerun with fewer snapshots than asked for
and a truncated CHDS header. Exits 1 if any check misjudges.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import gen_inputs
import run


def rewrite_chds(src: Path, dest: Path, blob_edit=None, payload_edit=None) -> Path:
    """Copy a CHDS file with its config blob or its float32 payload changed,
    and a header that stays consistent with the new blob."""
    with open(src, "rb") as f:
        (magic, version, count, taps, rate, _), blob = checks.read_chds_header(f)
        payload = np.frombuffer(f.read(), dtype="<f4").reshape(count, 2 * taps).copy()
    if blob_edit:
        blob = blob_edit(blob)
    if payload_edit:
        payload_edit(payload)
    data = blob.encode("utf-8")
    dest.write_bytes(checks.CHDS_HEADER.pack(magic, version, count, taps, rate, len(data))
                     + data + payload.tobytes())
    return dest


def main() -> int:
    cli = run.import_cirkit()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        return selftest(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest(cli, work: Path) -> int:
    misjudged = 0

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        nonlocal misjudged
        ok = bool(problems) == should_fail
        misjudged += not ok
        verdict = "fails" if problems else "passes"
        print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))

    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True)
    truth = gen_inputs.generate("calibrate", 0, inputs)
    op = run.calibrate_ops(truth, inputs, out)[0]
    if not run.run_op(cli, op)[1]:
        print("BAD  the calibrate operation itself failed")
        return 1
    expect("genuine calibrate outputs", op.check(), False)

    cfg, true_ds = out / "scenario.cfg", truth["captures"][0]["true_ds_s"]
    text = cfg.read_text(encoding="utf-8")
    values, _ = checks.read_key_values(cfg)
    off = true_ds + 2.0 / checks.SAMPLE_RATE_HZ
    wrong_cfg = work / "wrong.cfg"
    wrong_cfg.write_text(text.replace(f"ds_median_s={values['ds_median_s']}", f"ds_median_s={off!r}"))
    expect("config DS off by two bins", checks.check_extracted_ds(wrong_cfg, true_ds), True)

    measured = (out / "measured.csv").read_text(encoding="utf-8").splitlines()
    shifted = work / "shifted.csv"
    shifted.write_text("\n".join(measured[:1] + [
        f"{row.split(',')[0]},{float(row.split(',')[1]) - 1.0:.6f}" for row in measured[1:]
    ]) + "\n")
    expect("PDP peak at -1 dB", checks.check_pdp_csv(shifted), True)

    simulated = (out / "simulated.csv").read_text(encoding="utf-8").splitlines()
    stretched = work / "stretched.csv"
    stretched.write_text("\n".join(simulated[:1] + [
        f"{float(row.split(',')[0]) * 1.3:.6f},{row.split(',')[1]}" for row in simulated[1:]
    ]) + "\n")
    expect("simulated PDP with delays stretched by 1.3", checks.check_calibration(
        cfg, stretched, out / "report.txt", out / "comparison.svg"), True)

    report = work / "report.txt"
    report.write_text("ds_relative_error=0.25\n")
    expect("report DS error 0.25", checks.check_calibration(
        cfg, out / "simulated.csv", report, out / "comparison.svg"), True)

    svg = work / "broken.svg"
    svg.write_text((out / "comparison.svg").read_text(encoding="utf-8")[:-20])
    expect("truncated SVG", checks.check_calibration(
        cfg, out / "simulated.csv", out / "report.txt", svg), True)

    full, short = work / "full.chds", work / "short.chds"
    for path, count in ((full, 32), (short, 8)):
        argv = ["dataset", "--config", "urban-los", "--seed", "5", "--count", str(count),
                "--out", str(path)]
        if run.run_cli(cli, argv):
            print("BAD  cirkit dataset failed")
            return 1
    expect("genuine dataset", checks.check_dataset(full, "urban-los", 5, 32), False)
    expect("genuine 8-snapshot rerun", checks.check_prefix(full, short, 8), False)
    expect("dataset checked against the wrong preset",
           checks.check_dataset(full, "campus-los", 5, 32), True)
    for label, old, new in (("embedded DS off the preset", "ds_median_s=", "ds_median_s=1"),
                            ("embedded K-factor off the preset", "kf_median_db=13.0", "kf_median_db=14.0")):
        edited = rewrite_chds(full, work / "edited.chds", lambda blob: blob.replace(old, new))
        expect(label, checks.check_dataset(edited, "urban-los", 5, 32), True)

    def poison(payload):
        payload[17, 5] = np.nan

    def strengthen(payload):
        payload *= 1.05  # +0.42 dB of mean energy

    for label, edit in (("one non-finite snapshot", poison), ("snapshots 0.42 dB too strong", strengthen)):
        edited = rewrite_chds(full, work / "edited.chds", payload_edit=edit)
        expect(label, checks.check_dataset(edited, "urban-los", 5, 32), True)

    raw = bytearray(short.read_bytes())
    blob_len = checks.CHDS_HEADER.unpack_from(raw)[5]
    snapshot = checks.CHDS_HEADER.size + blob_len + 3 * checks.CIR_TAPS * 8
    raw[snapshot + 3] ^= 0x80  # sign bit of snapshot 3, tap 0, real part
    flipped = work / "flipped.chds"
    flipped.write_bytes(bytes(raw))
    expect("one flipped snapshot", checks.check_prefix(full, flipped, 8), True)
    expect("8-snapshot rerun where 16 were asked for", checks.check_prefix(full, short, 16), True)

    truncated = work / "truncated.chds"
    truncated.write_bytes(full.read_bytes()[:20])
    expect("truncated header", checks.check_dataset(truncated, "urban-los", 5, 32), True)

    print(json.dumps({"misjudged": misjudged}))
    return 1 if misjudged else 0


if __name__ == "__main__":
    sys.exit(main())
