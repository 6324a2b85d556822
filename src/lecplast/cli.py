"""Command-line front end: classify descriptors, build witnesses, verify.

One parser serves the four commands (classify, witness, verify, all), and
every command takes the same flags, before or after the command name.

Exit codes form a trichotomy for scripting over descriptor corpora:
0 = plastic (or, for verify, plastic with all checks passing), 3 = verdict
"not plastic" reached successfully, 2 = some verification check failed,
named with its residual and threshold on one ``failed:`` line each on
stderr, 1 = input, usage or capacity error, reported as one ``error:`` line
on stderr.  Identical (input, flags, seed) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .errors import CapacityError, DomainError, PreconditionError, RangeError, SchemaError
from .plasticity import Rule, Verdict, classify
from .spectrum import SpectralDescriptor, parse_descriptor, serialize_descriptor
from .verify import (
    TruncatedQuadraticSpace,
    VerificationReport,
    check_extremal_invariance,
    check_finite_dim_plasticity,
    check_form_preservation,
    check_min_attained,
    check_nonexpansive,
    check_rayleigh_bounds,
    check_strict_contraction,
)
from .witness import build_shift_witness, build_transport_witness, witness_to_dict

_COMMANDS = ("classify", "witness", "verify", "all")
#: Largest count flag: float64 holds every count exactly up to here, and an
#: array this long is addressable, so a run too large ends in MemoryError.
_MAX_COUNT = 2**53


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    output_path: str | None = None
    seed: int = 0
    window: int = 16
    nodes: int = 4096
    per_sequence: int = 32
    full: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise RangeError(f"unknown command {self.command!r}")
        for name, value, least in (("window", self.window, 1), ("nodes", self.nodes, 16),
                                   ("per-sequence", self.per_sequence, 1)):
            if value < least:
                raise RangeError(f"{name} must be >= {least}, got {value}")
            if value > _MAX_COUNT:
                raise RangeError(f"{name} must be <= 2**53, got {value}")
        if self.seed < 0:
            raise RangeError(f"seed must be >= 0, got {self.seed}")


def _build_witness(d: SpectralDescriptor, verdict: Verdict, config: RunConfig):
    cert = verdict.certificate
    if cert.rule is Rule.CONTINUOUS:
        part = d.continuous[cert.components[0][1]]
        return build_transport_witness(part, config.window)
    return build_shift_witness(d, cert, config.window)


def _run_checks(d, witness, config: RunConfig) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    if witness is not None:
        for check in (check_form_preservation, check_nonexpansive, check_strict_contraction):
            reports.append(check(witness, nodes=config.nodes))

    if d.has_point_spectrum:
        space = TruncatedQuadraticSpace.from_descriptor(d, per_sequence=config.per_sequence)
        reports.append(check_rayleigh_bounds(space))
        if space.dimension >= 2:
            reports.append(check_min_attained(space))
            reports.append(check_extremal_invariance(space))
    reports.append(check_finite_dim_plasticity())
    return reports


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one pipeline run; returns (exit code, report document)."""
    try:
        with open(config.input_path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, text that is not JSON, an integer past
        # the interpreter's digit limit, or nesting past the recursion limit.
        raise SchemaError(str(exc)) from None
    descriptor = parse_descriptor(document)
    verdict = classify(descriptor)

    report: dict = {
        "descriptor": serialize_descriptor(descriptor),
        "verdict": verdict.to_dict(),
        "seed": config.seed,
        "version": __version__,
    }

    witness = None
    if config.command in ("witness", "verify", "all") and not verdict.plastic:
        witness = _build_witness(descriptor, verdict, config)
        report["witness"] = witness_to_dict(witness, full=config.full)

    exit_code = 0 if verdict.plastic else 3
    if config.command in ("verify", "all"):
        checks = _run_checks(descriptor, witness, config)
        report["checks"] = [c.to_dict() for c in checks]
        if not all(c.passed for c in checks):
            exit_code = 2
    return exit_code, report


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``RangeError`` instead of printing usage and exiting 2."""

    def error(self, message):
        # Unrecognised arguments are echoed as given; keep their line breaks
        # from splitting the message.
        raise RangeError("\\n".join(message.splitlines()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lecplast",
        description="Decide LEC-plasticity of spectral ellipsoids, build and "
        "verify witness operators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "command",
        choices=_COMMANDS,
        help="classify: emit the plasticity verdict; witness: the verdict plus a "
        "serialized witness operator; verify: the verdict, witness and the full "
        "verification suite; all: the same as verify",
    )
    parser.add_argument("--input", required=True, dest="input_path", metavar="PATH",
                        help="descriptor JSON file")
    parser.add_argument("--output", dest="output_path", metavar="PATH",
                        help="report path (default stdout)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed,
                        help="recorded in the report; nothing reads it")
    parser.add_argument("--window", type=int, default=RunConfig.window, help="witness window K")
    parser.add_argument("--nodes", type=int, default=RunConfig.nodes, help="quadrature nodes")
    parser.add_argument("--per-sequence", type=int, default=RunConfig.per_sequence)
    parser.add_argument("--full", action="store_true",
                        help="include each transport cell's multiplier at 32 equal-mass "
                        "quadrature nodes")
    return parser


#: Built once per process; parsing leaves a parser unchanged.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(_PARSER.parse_args(argv)))
        exit_code, report = run(config)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code == 0 else 1
    except MemoryError as exc:  # the interpreter raises one with no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (
        OSError,
        SchemaError,
        DomainError,
        RangeError,
        PreconditionError,
        CapacityError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    for check in report.get("checks", ()):
        if not check["pass"]:
            print(f"failed: {check['name']} (worst_residual {check['worst_residual']!r}, "
                  f"threshold {check['threshold']!r})", file=sys.stderr)
    return exit_code


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
