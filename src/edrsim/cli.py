"""Command line entry points.

Subcommands:
  sweep        run a strength sweep and emit CSV or JSON
  bounds       evaluate the four trade-off relations for given inputs
  export-qasm  print the experiment circuit as OpenQASM 2.0
  check        run the internal consistency battery

Exit codes: 0 success, 1 usage error, 2 runtime failure.  If --out is a
relative path and EDRSIM_OUTPUT_DIR is set, output lands under that
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from .bounds import EdrInputs, classify
from .circuit import angle_for_strength, build_edr_circuit, export_qasm
from .noise import load_profile, representative_profile
from .sweep import MODES, SIGMA_SOURCES, SweepConfig, default_strength_grid, emit_csv, emit_json, run_sweep

OUTPUT_DIR_ENV = "EDRSIM_OUTPUT_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not SystemExit(2)
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _strength_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"strength {value} outside [0, 1]")
    return value


def _probe_strength(text: str) -> float:
    value = _strength_value(text)
    if value == 0.0:  # a zero-strength probe records nothing the estimator can invert
        raise argparse.ArgumentTypeError("probe strength must be positive")
    return value


def _strength_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty strength list")
    return tuple(_strength_value(p) for p in parts)


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} must be at least {low}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edrsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a strength sweep and emit CSV or JSON")
    sweep.add_argument("--theta-w-strength", type=_probe_strength, default=0.05,
                       help="probe measurement strength in (0, 1] (default 0.05)")
    grid = sweep.add_mutually_exclusive_group()
    grid.add_argument("--strengths", type=_strength_list, metavar="S1,S2,...",
                      help="explicit comma-separated strengths in [0, 1]")
    grid.add_argument("--grid", type=_int_at_least(2), metavar="N",
                      help="N evenly spaced strengths over [0, 1] (default 21)")
    sweep.add_argument("--shots", type=_int_at_least(1), default=100_000)
    sweep.add_argument("--repeats", type=_int_at_least(1), default=10)
    sweep.add_argument("--seed", type=_int_at_least(0), default=12345)
    sweep.add_argument("--noise", metavar="PATH",
                       help="calibration file of flat key: number lines, or 'representative'")
    sweep.add_argument("--no-idle-relaxation", action="store_true",
                       help="apply relaxation only to the qubits a gate acts on")
    sweep.add_argument("--mode", choices=MODES, default="sampled")
    sweep.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="accepted for compatibility and ignored: a sweep runs in one process")
    sweep.add_argument("--sigma-source", choices=SIGMA_SOURCES, default="ideal",
                       help="take sigma_A, sigma_B from the ideal input state or the simulated post-probe state")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    bounds = sub.add_parser("bounds", help="evaluate the four trade-off relations")
    bounds.add_argument("--epsilon", type=float, required=True)
    bounds.add_argument("--eta", type=float, required=True)
    bounds.add_argument("--sigma-a", type=float, default=1.0)
    bounds.add_argument("--sigma-b", type=float, default=1.0)
    bounds.add_argument("--c", type=float, default=1.0)
    bounds.set_defaults(func=_cmd_bounds)

    qasm = sub.add_parser("export-qasm", help="print the experiment circuit as OpenQASM 2.0")
    qasm.add_argument("--theta-w-strength", type=_strength_value, default=0.05)
    qasm.add_argument("--strength", type=_strength_value, required=True,
                      help="main measurement strength in [0, 1]")
    qasm.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    qasm.set_defaults(func=_cmd_export_qasm)

    check = sub.add_parser("check", help="run the internal consistency battery")
    check.set_defaults(func=_cmd_check)
    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.strengths is not None:
        strengths = args.strengths
    else:
        strengths = default_strength_grid(args.grid if args.grid is not None else 21)
    profile = None
    noise_path = None
    if args.noise:
        if args.noise == "representative":
            profile = representative_profile()
        else:
            profile = load_profile(args.noise)
        noise_path = args.noise
    cfg = SweepConfig(
        theta_w_strength=args.theta_w_strength,
        strengths=strengths,
        shots=args.shots,
        repeats=args.repeats,
        seed=args.seed,
        mode=args.mode,
        noise_profile=profile,
        noise_path=noise_path,
        include_idle=not args.no_idle_relaxation,
        jobs=args.jobs,
        sigma_source=args.sigma_source,
    )
    rows = run_sweep(cfg)
    text = emit_csv(rows) if args.format == "csv" else emit_json(rows, cfg)
    _write_output(text, args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    inputs = EdrInputs(args.epsilon, args.eta, args.sigma_a, args.sigma_b, args.c)
    lhs, satisfied = classify(inputs)
    for name, value in lhs.items():
        verdict = "satisfied" if satisfied[name] else "VIOLATED"
        print(f"{name:<17} lhs={value:<22.17g} bound={args.c:<8.6g} {verdict}")
    return 0


def _cmd_export_qasm(args: argparse.Namespace) -> int:
    circuit = build_edr_circuit(
        angle_for_strength(args.theta_w_strength), angle_for_strength(args.strength)
    )
    _write_output(export_qasm(circuit), args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .selfcheck import run_checks  # only this subcommand needs the battery

    results = run_checks()
    failed = 0
    for name, passed, detail in results:
        mark = "ok  " if passed else "FAIL"
        line = f"{mark} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failed += 0 if passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
