"""Command-line front end: classify descriptors, build witnesses, verify.

Exit codes form a trichotomy for scripting over descriptor corpora:
0 = plastic (or, for verify, plastic with all checks passing), 3 = verdict
"not plastic" reached successfully, 2 = some verification check failed,
1 = input or usage error.  Identical (input, flags, seed) produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

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

# Random cubics per transport check; every point-side check is exact.
_TRANSPORT_SAMPLES = 50


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
        if self.window < 1:
            raise RangeError(f"window must be >= 1, got {self.window}")
        if self.nodes < 16:
            raise RangeError(f"nodes must be >= 16, got {self.nodes}")
        if self.per_sequence < 1:
            raise RangeError(f"per-sequence must be >= 1, got {self.per_sequence}")
        if self.seed < 0:
            raise RangeError(f"seed must be >= 0, got {self.seed}")


def _check_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _build_witness(d: SpectralDescriptor, verdict: Verdict, config: RunConfig):
    cert = verdict.certificate
    if cert.rule is Rule.CONTINUOUS:
        part = d.continuous[cert.components[0][1]]
        return build_transport_witness(part, config.window)
    return build_shift_witness(d, cert, config.window)


def _run_checks(d, witness, config: RunConfig) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    if witness is not None:
        for index, check in enumerate((check_form_preservation, check_nonexpansive)):
            reports.append(
                check(
                    witness,
                    samples=_TRANSPORT_SAMPLES,
                    seed=_check_seed(config.seed, index),
                    nodes=config.nodes,
                )
            )
        reports.append(
            check_strict_contraction(witness, nodes=config.nodes, seed=_check_seed(config.seed, 2))
        )

    if d.has_point_spectrum:
        space = TruncatedQuadraticSpace.from_descriptor(d, per_sequence=config.per_sequence)
        reports.append(check_rayleigh_bounds(space, seed=_check_seed(config.seed, 3)))
        if space.dimension >= 2:
            reports.append(check_min_attained(space, seed=_check_seed(config.seed, 4)))
            reports.append(check_extremal_invariance(space, seed=_check_seed(config.seed, 5)))
    reports.append(check_finite_dim_plasticity(seed=_check_seed(config.seed, 6)))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lecplast",
        description="Decide LEC-plasticity of spectral ellipsoids, build and "
        "verify witness operators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "classify": "emit the plasticity verdict",
        "witness": "verdict plus a serialized witness operator",
        "verify": "verdict, witness and the full verification suite",
        "all": "alias chaining classify, witness and verify",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--input", required=True, help="descriptor JSON file")
        cmd.add_argument("--output", default=None, help="report path (default stdout)")
        cmd.add_argument("--seed", type=int, default=RunConfig.seed)
        cmd.add_argument("--window", type=int, default=RunConfig.window, help="witness window K")
        cmd.add_argument("--nodes", type=int, default=RunConfig.nodes, help="quadrature nodes")
        cmd.add_argument(
            "--per-sequence", type=int, default=RunConfig.per_sequence, dest="per_sequence"
        )
        cmd.add_argument(
            "--full", action="store_true", help="include sampled multiplier tables"
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = RunConfig(
            command=args.command,
            input_path=args.input,
            output_path=args.output,
            seed=args.seed,
            window=args.window,
            nodes=args.nodes,
            per_sequence=args.per_sequence,
            full=args.full,
        )
        exit_code, report = run(config)
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
    return exit_code


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
