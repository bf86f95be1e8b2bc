"""Seeded inputs for the perfbench workloads, made with numpy alone.

Nothing here imports cirkit, so a change to the program can never change
what the benchmark feeds it. The sounding waveform, the channel, the noise
and the file format are all written out from their definitions:

- Zadoff-Chu sequence x[n] = exp(-i pi u n (n + 1) / N), u = 1, N = 353;
- the received capture is the tiled sequence circularly convolved with a
  drawn multipath channel on the 1/fs tap grid. Capture i starts
  117 (i + 1) mod 353 samples into the period, the same for every seed, so
  that the lengths of the program's arrays, and with them the allocator's
  choices and the peak memory, vary with the seed as little as they can;
- complex AWGN at 20 dB SNR, a complex DC offset and a few impulsive spikes;
- headerless interleaved little-endian float32 IQ plus a ``.meta`` sidecar.

Channel family: 3 to 6 paths on integer taps. The first path sits at delay 0
and is the strongest, so no path lies before the strongest one and the
synchronizer's strongest-peak alignment never wraps a path (see the FOUND
lines in CHANGES.md). The other paths sit at distinct taps 2..12
(78 .. 469 ns) with powers that fall off exponentially in delay with 2 dB of
shadowing, clipped to [-16, -3] dB relative to the first path. True delay
spreads run from about 45 to 226 ns. Wider channels are left out because
``simulate`` then fails for some seeds (a cluster drawn past the CIR span,
see CHANGES.md).

Usage:
    python3 perfbench/gen_inputs.py --workload capture --seed 1 --out DIR

writes the captures of that workload and ``DIR/truth.json``, which lists
every input with its ground truth.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 25.6e6
CENTER_FREQUENCY_HZ = 2.48e9
ZC_LENGTH = 353
ZC_ROOT = 1
SNR_DB = 20.0

MAX_DELAY_TAPS = 12
PATH_COUNTS = (3, 6)  # inclusive range
WEAKEST_PATH_DB = -16.0
STRONGEST_ECHO_DB = -3.0

START_STEP = 117

# (capture count, periods per capture, spikes per capture)
CAPTURES = {
    "capture": (3, 7200, 5),
    "calibrate": (96, 20, 2),
}

# dataset inputs are only preset names, taken in rotation. campus-los is left
# out: about 1 snapshot in 4400 draws a cluster past the CIR span, so whether
# a run fails depends on the seed (see the FOUND lines in CHANGES.md)
DATASET_PRESETS = ("urban-los", "urban-nlos", "campus-nlos")
DATASET_COUNT = 3000


def zadoff_chu() -> np.ndarray:
    n = np.arange(ZC_LENGTH, dtype=np.float64)
    return np.exp(-1j * np.pi * ZC_ROOT * n * (n + 1.0) / ZC_LENGTH)


def draw_channel(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Return (tap indices, complex amplitudes); tap 0 is the strongest path."""
    count = int(rng.integers(PATH_COUNTS[0], PATH_COUNTS[1] + 1))
    echoes = np.sort(rng.choice(np.arange(2, MAX_DELAY_TAPS + 1), count - 1, replace=False))
    decay_taps = rng.uniform(4.0, 12.0)
    echo_db = -10.0 * np.log10(math.e) * echoes / decay_taps + rng.normal(0.0, 2.0, count - 1)
    echo_db = np.clip(echo_db, WEAKEST_PATH_DB, STRONGEST_ECHO_DB)
    power_db = np.concatenate([[0.0], echo_db])
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    phases[0] = 0.0
    amplitudes = 10.0 ** (power_db / 20.0) * np.exp(1j * phases)
    return np.concatenate([[0], echoes]).astype(int), amplitudes


def true_delay_spread(taps: np.ndarray, amplitudes: np.ndarray) -> float:
    """RMS delay spread of the discrete channel by direct summation."""
    powers = np.abs(amplitudes) ** 2
    delays = taps / SAMPLE_RATE_HZ
    m1 = float(np.sum(powers * delays) / np.sum(powers))
    m2 = float(np.sum(powers * delays**2) / np.sum(powers))
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def make_capture(
    rng: np.random.Generator,
    taps: np.ndarray,
    amplitudes: np.ndarray,
    periods: int,
    spikes: int,
    start: int,
) -> np.ndarray:
    h = np.zeros(ZC_LENGTH, dtype=np.complex128)
    h[taps] = amplitudes
    one_period = np.fft.ifft(np.fft.fft(zadoff_chu()) * np.fft.fft(h))
    n = periods * ZC_LENGTH
    rx = np.tile(one_period, periods + 1)[start : start + n]
    power = float(np.sum(np.abs(amplitudes) ** 2))
    sigma = math.sqrt(power / 10.0 ** (SNR_DB / 10.0) / 2.0)
    rx += sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rx += 0.2 * math.sqrt(power) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    where = rng.choice(n, spikes, replace=False)
    rx[where] += 20.0 * math.sqrt(power) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, spikes))
    return rx


def write_iq(path: Path, samples: np.ndarray) -> None:
    interleaved = np.empty(2 * samples.size, dtype="<f4")
    interleaved[0::2] = samples.real
    interleaved[1::2] = samples.imag
    interleaved.tofile(path)
    Path(str(path) + ".meta").write_text(
        f"sample_rate_hz={SAMPLE_RATE_HZ!r}\ncenter_frequency_hz={CENTER_FREQUENCY_HZ!r}\n",
        encoding="utf-8",
    )


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    truth: dict = {"workload": workload, "seed": seed, "sample_rate_hz": SAMPLE_RATE_HZ}
    if workload == "dataset":
        truth["presets"] = list(DATASET_PRESETS)
        truth["count"] = DATASET_COUNT
    else:
        count, periods, spikes = CAPTURES[workload]
        truth["captures"] = []
        for index in range(count):
            rng = np.random.default_rng([seed, index])
            taps, amplitudes = draw_channel(rng)
            start = START_STEP * (index + 1) % ZC_LENGTH
            rx = make_capture(rng, taps, amplitudes, periods, spikes, start)
            path = out / f"rx{index}.iq"
            write_iq(path, rx)
            truth["captures"].append(
                {
                    "file": path.name,
                    "periods": periods,
                    "samples": int(rx.size),
                    "start_offset": start,
                    "bytes": path.stat().st_size,
                    "path_taps": taps.tolist(),
                    "path_power_db": (20.0 * np.log10(np.abs(amplitudes))).round(3).tolist(),
                    "true_ds_s": true_delay_spread(taps, amplitudes),
                }
            )
    (out / "truth.json").write_text(json.dumps(truth, indent=1), encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("capture", "dataset", "calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
