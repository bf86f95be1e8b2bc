"""Command-line pipeline: sounding, estimation, extraction, simulation, comparison.

Each stage of the measurement-to-simulation flow is one subcommand; the
``loopback`` subcommand runs the whole chain against a synthetic channel as
a desk-scale self check. Every subcommand is deterministic for fixed flags
and seed. ``estimate`` writes its profile normalized above
``analysis.noise_threshold``, 6 dB above the noise floor. ``extract``,
``compare`` and ``loopback`` take that threshold from the profiles they
are given: the normalized CSV profiles in ``extract`` and ``compare``, the
raw averaged one in ``loopback``, which passes when the recovered delay
spread lies within one delay bin of the channel's.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import analysis, gbsm, io, sounder, svgplot
from .channel_apply import SyntheticChannel, add_awgn, apply_channel
from .errors import FileFormatError, InternalConsistencyError, ValidationError
from .signal import _check_rate, zadoff_chu

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _StageFailure(Exception):
    def __init__(self, stage: str, err: Exception):
        super().__init__(f"{stage}: {err}")
        self.err = err


@contextmanager
def _stage(name: str):
    try:
        yield
    except _StageFailure:
        raise
    except (ValueError, ArithmeticError, OSError, InternalConsistencyError, MemoryError) as err:
        raise _StageFailure(name, err) from err


def _load_config(spec: str) -> gbsm.ScenarioConfig:
    if spec in gbsm.PRESETS:
        return gbsm.PRESETS[spec]
    if Path(spec).exists():
        return io.read_config(spec)
    raise ValidationError(
        f"--config {spec!r} is neither a preset ({', '.join(sorted(gbsm.PRESETS))}) "
        "nor an existing file"
    )


def _base_sequence(args, transmit: bool = True) -> np.ndarray:
    """The Zadoff-Chu base sequence of the waveform flags, with the
    repetitions checked and, with ``transmit``, the sample rate: the
    waveform's checks, made before any file is opened."""
    sequence = zadoff_chu(args.zc_root, args.zc_length)
    sounder._check_repetitions(args.repetitions)
    if transmit:
        _check_rate(args.sample_rate)
    return sequence


class _CaptureFile(io.IqReader):
    """A capture file whose every read, in whichever stage or worker thread,
    fails as the read-iq stage."""

    def read_into(self, lo: int, out: np.ndarray, scratch: np.ndarray) -> None:
        with _stage("read-iq"):
            super().read_into(lo, out, scratch)


def _estimate_pdp(capture, sequence, taper):
    """Shared receive chain: mitigate, synchronize, estimate and average into
    the raw PDP. ``capture``, a ``_CaptureFile`` or the received signal in
    memory, is read through every stage a chunk at a time.
    """
    with _stage("mitigate"):
        cleaned = sounder.mitigate_artifacts(capture)
    with _stage("synchronize"):
        offset = sounder.synchronize(cleaned, sequence)
    with _stage("estimate"):
        return sounder.estimate_pdp(cleaned, sequence, taper, start=offset)


def _cmd_generate_sounding(args) -> int:
    with _stage("generate-sounding"):
        sequence = _base_sequence(args)
        if args.repetitions < 3:
            print(
                f"generate-sounding: warning: repetitions={args.repetitions} makes "
                "snapshot averaging degenerate (3 or more recommended)",
                file=sys.stderr,
            )
        signal = sounder.build_sounding_signal(
            sequence, args.repetitions, args.sample_rate, args.center_frequency
        )
    with _stage("write-iq"):
        io.write_iq(args.out, signal)
    print(f"wrote {len(signal)} samples ({args.repetitions} x {sequence.size}) to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    sounder.check_taper(args.taper, "--taper")
    with _stage("waveform"):
        # the delay step comes from the capture's rate
        sequence = _base_sequence(args, transmit=False)
    with _stage("read-iq"):
        capture = _CaptureFile(args.rx)
    with capture:
        raw = _estimate_pdp(capture, sequence, args.taper)
    with _stage("normalize"):
        pdp = analysis.normalize_pdp(raw, analysis.noise_threshold(raw))
    with _stage("write-pdp"):
        io.write_pdp_csv(args.pdp_out, pdp)
    print(f"wrote {len(pdp)}-bin PDP to {args.pdp_out}")
    return EXIT_OK


def _parameters_row(label: str, params: analysis.ChannelParameters) -> str:
    kf = "x" if params.k_factor_db is None else f"{params.k_factor_db:.1f}"
    return (
        f"{label:<14} {params.rms_delay_spread_s * 1e9:>10.1f} {kf:>8} "
        f"{params.cluster_count:>10d}"
    )


def _cmd_extract(args) -> int:
    with _stage("read-pdp"):
        pdp = io.read_pdp_csv(args.pdp)
    with _stage("load-defaults"):
        defaults = _load_config(args.defaults)
    with _stage("extract"):
        params = analysis.extract_parameters(pdp, los_flag=args.los)
        config = gbsm.config_from_parameters(params, defaults)
    with _stage("write-config"):
        io.write_config(
            args.out_config,
            config,
            comments=(f"extracted from {args.pdp}", f"los={str(args.los).lower()}"),
        )
    print(f"{'scenario':<14} {'DS [ns]':>10} {'KF [dB]':>8} {'# clusters':>10}")
    print(_parameters_row(config.label, params))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with _stage("seed"):
        gbsm.check_seed(args.seed)
    with _stage("load-config"):
        config = _load_config(args.config)
    with _stage("simulate"):
        # the PDP is the closed-form mean over phases; the count is only checked
        if args.realizations < 1:
            raise ValidationError("--realizations must be >= 1")
        pdp = gbsm.simulate_pdp(config, args.seed)
    with _stage("write-pdp"):
        io.write_pdp_csv(args.pdp_out, pdp)
    print(f"simulated {config.label!r} (seed {args.seed}) -> {args.pdp_out}")
    return EXIT_OK


def _cmd_dataset(args) -> int:
    with _stage("seed"):
        gbsm.check_seed(args.seed)
    with _stage("load-config"):
        config = _load_config(args.config)
    with _stage("dataset"):
        gbsm.generate_dataset(config, args.count, args.seed, path=args.out)
    print(f"wrote {args.count} snapshots x {config.cir_length_taps} taps to {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    with _stage("read-pdp"):
        measured = io.read_pdp_csv(args.measured)
        simulated = io.read_pdp_csv(args.simulated)
    with _stage("compare"):
        report = analysis.compare_pdps(measured, simulated)
    with _stage("write-report"):
        io.write_report(
            args.report_out,
            report,
            comments=(f"measured={args.measured} simulated={args.simulated}",),
        )
    csv_out = args.csv_out or str(args.report_out) + ".aligned.csv"
    with _stage("write-plot"):
        svgplot.write_pdp_comparison_svg(
            args.plot_out, [("measured", measured), ("simulated", simulated)]
        )
        io.write_aligned_csv(csv_out, *analysis.align_to_finer_grid(measured, simulated))
    print(
        f"ds_error={report.ds_error_s * 1e9:.2f} ns "
        f"ds_relative_error={report.ds_relative_error:.4f} "
        f"cluster_count_diff={report.cluster_count_diff} "
        f"mean_abs_db_deviation={report.mean_abs_db_deviation:.2f} dB"
    )
    return EXIT_OK


def _parse_channel_spec(
    spec: str, sample_rate_hz: float, period: int
) -> tuple[SyntheticChannel, np.ndarray, np.ndarray]:
    """Parse 'delay_s,amp[;delay_s,amp...]' into grid taps plus truth arrays;
    a delay whose tap lies beyond one ``period`` fails before any allocation."""
    delays = []
    amps = []
    for pair in spec.split(";"):
        parts = pair.split(",")
        if len(parts) != 2:
            raise ValidationError(
                f"channel spec entry {pair!r} must be <delay_s>,<amplitude>"
            )
        delays.append(float(parts[0]))
        amps.append(float(parts[1]))
    if not all(0 <= d < math.inf for d in delays):
        raise ValidationError("channel delays must be finite and >= 0")
    if np.rint(max(delays) * sample_rate_hz) >= period:  # a float, so no int overflow
        raise ValidationError(
            f"channel delay {max(delays)} s lies beyond one sounding period of {period} samples"
        )
    positions = np.rint(np.asarray(delays) * sample_rate_hz).astype(int)
    taps = np.zeros(int(positions.max()) + 1, dtype=np.complex128)
    for pos, amp in zip(positions, amps):
        taps[pos] += amp
    if not taps.any():  # paths that round to one tap may cancel
        raise ValidationError("channel must have at least one nonzero amplitude on the tap grid")
    nonzero = np.nonzero(np.abs(taps) > 0)[0]
    return SyntheticChannel(taps), nonzero / sample_rate_hz, np.abs(taps[nonzero]) ** 2


def _cmd_loopback(args) -> int:
    sounder.check_taper(args.taper, "--taper")
    with _stage("seed"):
        gbsm.check_seed(args.seed)
    with _stage("waveform"):
        sequence = _base_sequence(args)
    with _stage("channel-spec"):
        channel, true_delays, true_powers = _parse_channel_spec(
            args.channel_spec, args.sample_rate, sequence.size
        )
    with _stage("build"):
        tx = sounder.build_sounding_signal(sequence, args.repetitions, args.sample_rate)
    with _stage("apply-channel"):
        received = add_awgn(apply_channel(tx, channel), args.snr_db, args.seed)
    raw = _estimate_pdp(received, sequence, args.taper)
    with _stage("extract"):
        params = analysis.extract_parameters(raw, los_flag=True)

    true_ds = float(analysis.discrete_delay_spread(true_delays, true_powers))
    ds_err = abs(params.rms_delay_spread_s - true_ds)
    tolerance = 1.0 / args.sample_rate  # one delay bin

    print(f"true DS       {true_ds * 1e9:10.2f} ns   ({len(true_delays)} paths)")
    print(
        f"recovered DS  {params.rms_delay_spread_s * 1e9:10.2f} ns   "
        f"({params.cluster_count} clusters)"
    )
    kf = "x" if params.k_factor_db is None else f"{params.k_factor_db:.1f} dB"
    print(f"recovered KF  {kf:>13}")
    print(f"DS error      {ds_err * 1e9:10.2f} ns   (tolerance {tolerance * 1e9:.2f} ns)")
    if ds_err > tolerance:
        print("loopback: FAIL: delay spread error exceeds tolerance", file=sys.stderr)
        return EXIT_VALIDATION
    print("loopback: PASS")
    return EXIT_OK


def _add_waveform_flags(parser: argparse.ArgumentParser, transmit: bool = True) -> None:
    """The sounding waveform's flags. Without ``transmit`` (``estimate``)
    the sample rate is the capture's and every complete period in it is
    averaged, so ``--sample-rate`` is left out."""
    parser.add_argument(
        "--zc-length", type=int, default=sounder.DEFAULT_SEQUENCE_LENGTH,
        help="Zadoff-Chu sequence length (must be prime)",
    )
    parser.add_argument(
        "--zc-root", type=int, default=sounder.DEFAULT_ROOT, help="Zadoff-Chu root index"
    )
    parser.add_argument(
        "--repetitions", type=int, default=sounder.DEFAULT_REPETITIONS,
        help="number of tiled sequence periods" if transmit else
        "tiled sequence periods of the sounding; every complete period of the capture is averaged",
    )
    if transmit:
        parser.add_argument(
            "--sample-rate", type=float, default=sounder.DEFAULT_SAMPLE_RATE_HZ,
            help="sample rate in Hz",
        )


def _add_taper_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--taper", type=float, default=sounder.DEFAULT_TAPER_FRACTION,
        help="spectral edge taper fraction, 0 disables",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: building it costs milliseconds, and ``parse_args`` reads it
    without changing it."""
    parser = argparse.ArgumentParser(
        prog="cirkit",
        description="Channel sounding, PDP analysis and cluster-based channel simulation.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate-sounding", help="write the tiled Zadoff-Chu sounding waveform as IQ",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_waveform_flags(p)
    p.add_argument(
        "--center-frequency", type=float, default=2.48e9,
        help="carrier frequency metadata in Hz",
    )
    p.add_argument("--out", required=True, help="output IQ file path")
    p.set_defaults(func=_cmd_generate_sounding)

    p = sub.add_parser(
        "estimate", help="estimate CIRs from a capture and write the averaged PDP",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--rx", required=True, help="received IQ capture")
    _add_waveform_flags(p, transmit=False)
    _add_taper_flag(p)
    p.add_argument("--pdp-out", required=True, help="output PDP CSV path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "extract", help="extract channel parameters from a PDP into a scenario config",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--pdp", required=True, help="input PDP CSV")
    p.add_argument("--los", action="store_true", help="treat the profile as line-of-sight")
    p.add_argument("--out-config", required=True, help="output scenario config path")
    p.add_argument(
        "--defaults", default="urban-nlos",
        help="base config: preset name or config file path",
    )
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "simulate", help="simulate a PDP from a scenario config",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--config", required=True, help="preset name or config file path")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--realizations", type=int, default=100, help="checked to be >= 1; no effect")
    p.add_argument("--pdp-out", required=True, help="output PDP CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "dataset", help="generate a CIR dataset file for ML training",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--config", required=True, help="preset name or config file path")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--count", type=int, required=True, help="number of snapshots")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser(
        "compare", help="compare a measured and a simulated PDP",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--measured", required=True, help="measured PDP CSV")
    p.add_argument("--simulated", required=True, help="simulated PDP CSV")
    p.add_argument("--report-out", required=True, help="output report path")
    p.add_argument("--plot-out", required=True, help="output SVG plot path")
    p.add_argument(
        "--csv-out", default=None,
        help="aligned-profiles CSV path (default: <report-out>.aligned.csv)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "loopback", help="run the whole chain against a synthetic multipath channel",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument(
        "--channel-spec", default="0,1",
        help="synthetic channel as '<delay_s>,<amp>[;<delay_s>,<amp>...]'",
    )
    p.add_argument("--snr-db", type=float, default=math.inf, help="AWGN SNR; inf disables noise")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    _add_waveform_flags(p)
    _add_taper_flag(p)
    p.set_defaults(func=_cmd_loopback)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _StageFailure as failure:
        print(f"cirkit {args.command}: {failure}", file=sys.stderr)
        if isinstance(failure.err, (FileFormatError, OSError)) and not isinstance(
            failure.err, ValidationError
        ):
            return EXIT_IO
        return EXIT_VALIDATION
    except (ValueError, ArithmeticError, InternalConsistencyError) as err:
        print(f"cirkit {args.command}: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"cirkit {args.command}: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
