"""Seeded descriptor corpora for the three benchmark workloads.

A workload is a fixed *round*: an ordered list of strata, each naming a
descriptor family, the ``lecplast`` command and flags it runs under.  The
corpus is a sequence of rounds; every round holds each stratum exactly once,
and only the numbers inside the descriptors are drawn from the seed.  So the
family shares, the flag mix and the per-item cost class are identical for
every seed, and any whole number of rounds has the stated mix.

Every generated input carries its expected outcome (exit code, verdict,
certificate rule and bounds, witness type, check names), written by the
generator before anything runs.  No input is ever dropped or re-drawn
because of how the program treats it.

Floating-point horizon: sequence ratios lie in [0.8, 0.9] and truncation
depths and windows stay at or below 64 and 16, so every enumerated term
differs from its limit by more than 1e-8 relative.  Defects 4(a)-(c) of the
project ROADMAP (limit values in the chain, traceback at large windows,
flag errors outside ``main``'s handler) are therefore not exercised here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

#: Check names in report order, as ``lecplast.cli`` emits them.
WITNESS_CHECKS = ("form_preservation", "nonexpansive", "strict_contraction")
SPACE_CHECKS = ("rayleigh_bounds", "min_attained", "extremal_invariance")
FINAL_CHECK = "finite_dim_plasticity"


@dataclass(frozen=True)
class Stratum:
    family: str
    command: str
    flags: tuple[str, ...] = ()
    degree: int = 0  # polynomial degree, transport_density only

    @property
    def label(self) -> str:
        return " ".join((self.family, self.command) + self.flags)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple[Stratum, ...]
    rounds: int  # rounds generated in set-up; a run cycles them if it outlasts them
    traced_rounds: int  # fixed work of a traced pass, so its counts repeat exactly

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(sorted({s.family for s in self.strata}))


def _flags(window=None, nodes=None, per_sequence=None, full=False) -> tuple[str, ...]:
    out: list[str] = []
    if window is not None:
        out += ["--window", str(window)]
    if nodes is not None:
        out += ["--nodes", str(nodes)]
    if per_sequence is not None:
        out += ["--per-sequence", str(per_sequence)]
    if full:
        out.append("--full")
    return tuple(out)


def _s(family, command, degree=0, **flags) -> Stratum:
    return Stratum(family, command, _flags(**flags), degree)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "transport_verify",
            "continuous spectra under `all`: the measures layer and the three transport "
            "checks do the work, the space checks never run",
            (
                _s("transport_density", "all", degree=0, window=4, nodes=4096),
                _s("transport_density", "all", degree=1, window=8, nodes=1024),
                _s("transport_density", "all", degree=2, window=16, nodes=4096),
                _s("transport_cantor", "all", window=4, nodes=1024),
                _s("transport_cantor", "all", window=16, nodes=256),
            ),
            rounds=4,
            traced_rounds=1,
        ),
        Workload(
            "point_verify",
            "point spectra under `all` at truncation dimensions 32-256: dense space "
            "checks do the work, the measures layer is idle",
            (
                _s("plastic", "all", per_sequence=32),
                _s("shift_two_sequences", "all", per_sequence=32),
                _s("shift_atom_min_seq", "all", per_sequence=32),
                _s("shift_seq_atom_max", "all", per_sequence=48),
                _s("shift_two_infinite_atoms", "all", per_sequence=64),
            ),
            rounds=8,
            traced_rounds=1,
        ),
        Workload(
            "screen",
            "classify and witness on a mixed corpus with malformed inputs: per-call "
            "overhead in cli, spectrum, plasticity and witness serialisation",
            (
                _s("plastic", "classify"),
                _s("shift_two_sequences", "classify"),
                _s("shift_two_infinite_atoms", "classify"),
                _s("shift_atom_min_seq", "classify"),
                _s("shift_seq_atom_max", "classify"),
                _s("transport_density", "classify", degree=2),
                _s("transport_cantor", "classify"),
                _s("malformed_schema", "classify"),
                _s("malformed_domain", "classify"),
                _s("malformed_json", "witness"),
                _s("plastic", "witness"),
                _s("shift_two_sequences", "witness"),
                _s("shift_two_infinite_atoms", "witness"),
                _s("shift_atom_min_seq", "witness"),
                _s("shift_seq_atom_max", "witness"),
                _s("transport_density", "witness", degree=1),
                _s("transport_cantor", "witness", window=8),
                _s("malformed_domain", "witness"),
                _s("transport_density", "witness", degree=1, full=True),
                _s("transport_density", "witness", degree=2, full=True),
                _s("transport_cantor", "witness", window=8, full=True),
            ),
            rounds=40,
            traced_rounds=6,
        ),
    )
}


# ---------------------------------------------------------------------------
# Families: each returns (document, expected verdict fields)
# ---------------------------------------------------------------------------

def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _seq(limit, direction, offset, ratio, multiplicity=1) -> dict:
    return {"limit": limit, "direction": direction, "offset": offset,
            "ratio": ratio, "multiplicity": multiplicity}


def _not_plastic(rule, r, R, witness="shift") -> dict:
    return {"plastic": False, "rule": rule, "r": r, "R": R, "witness": witness}


def _plastic(rng):
    limit = _u(rng, 1.5, 3.0)
    atoms = [{"value": _u(rng, 0.5, 3.5), "multiplicity": rng.randint(1, 3)}
             for _ in range(rng.randint(1, 3))]
    seq = _seq(limit, "inc", _u(rng, 0.2, 0.6) * limit, _u(rng, 0.8, 0.9))
    doc = {"atoms": atoms, "sequences": [seq]}
    return doc, {"plastic": True, "tau": limit, "witness": None}


def _two_sequences(rng):
    lo = _u(rng, 0.5, 1.5)
    hi = round(lo + _u(rng, 0.5, 1.5), 6)
    gap = hi - lo
    doc = {"sequences": [
        _seq(lo, "dec", round(_u(rng, 0.2, 0.6) * gap, 6), _u(rng, 0.8, 0.9)),
        _seq(hi, "inc", round(_u(rng, 0.2, 0.6) * gap, 6), _u(rng, 0.8, 0.9)),
    ]}
    return doc, _not_plastic("NO_MIN_NO_MAX", lo, hi)


def _two_infinite_atoms(rng):
    lo = _u(rng, 0.5, 1.5)
    hi = round(lo + _u(rng, 0.5, 1.5), 6)
    between = round(lo + (hi - lo) * _u(rng, 0.2, 0.8), 6)
    doc = {"atoms": [
        {"value": hi, "multiplicity": "inf"},
        {"value": between, "multiplicity": rng.randint(1, 3)},
        {"value": lo, "multiplicity": "inf"},
    ]}
    return doc, _not_plastic("TWO_INFINITE_ATOMS", lo, hi)


def _atom_min_seq(rng):
    atom = _u(rng, 0.5, 1.5)
    limit = round(atom + _u(rng, 0.5, 1.5), 6)
    offset = round(_u(rng, 0.3, 0.9) * (limit - atom), 6)
    doc = {"atoms": [{"value": atom, "multiplicity": "inf"}],
           "sequences": [_seq(limit, "inc", offset, _u(rng, 0.8, 0.9))]}
    return doc, _not_plastic("INFINITE_MIN_NO_MAX", atom, limit)


def _seq_atom_max(rng):
    limit = _u(rng, 0.5, 1.5)
    atom = round(limit + _u(rng, 0.5, 1.5), 6)
    offset = round(_u(rng, 0.3, 0.9) * (atom - limit), 6)
    doc = {"atoms": [{"value": atom, "multiplicity": "inf"}],
           "sequences": [_seq(limit, "dec", offset, _u(rng, 0.8, 0.9))]}
    return doc, _not_plastic("NO_MIN_INFINITE_MAX", limit, atom)


def _support(rng) -> list[float]:
    a = _u(rng, 0.5, 2.0)
    return [a, round(a + _u(rng, 0.5, 2.0), 6)]


def _transport_density(rng, degree):
    support = _support(rng)
    coeffs = [_u(rng, 0.5, 2.0)] + [_u(rng, 0.0, 1.0) for _ in range(degree)]
    doc = {"continuous": [{"kind": "density", "support": support, "coeffs": coeffs}]}
    return doc, _not_plastic("CONTINUOUS", *support, witness="transport")


def _transport_cantor(rng):
    support = _support(rng)
    doc = {"continuous": [{"kind": "cantor", "support": support, "mass": _u(rng, 0.5, 2.0)}]}
    return doc, _not_plastic("CONTINUOUS", *support, witness="transport")


# Inputs the CLI must reject with exit 1 and a one-line message.
_SCHEMA_ERRORS = (
    {"atoms": [{"value": "1.5", "multiplicity": 1}]},
    {"atoms": [{"value": 1.5}]},
    {"atoms": [{"value": 1.5, "multiplicity": 1.5}]},
    {"sequences": [_seq(1.0, "up", 0.5, 0.5)]},
    {"continuous": [{"kind": "gauss", "support": [1.0, 2.0]}]},
    {"atoms": [], "spectrum": []},
)
_DOMAIN_ERRORS = (
    {},
    {"atoms": [{"value": -1.0, "multiplicity": 1}]},
    {"atoms": [{"value": 1.0, "multiplicity": 0}]},
    {"sequences": [_seq(1.0, "dec", 0.5, 1.5)]},
    {"sequences": [_seq(0.2, "inc", 1.0, 0.5)]},
    {"continuous": [{"kind": "density", "support": [0.0, 1.0], "coeffs": [1.0]}]},
    {"continuous": [{"kind": "density", "support": [1.0, 2.0], "coeffs": [1.0, -1.0]}]},
    {"continuous": [{"kind": "cantor", "support": [1.0, 2.0], "mass": -1.0}]},
)


def _malformed(rng, family):
    if family == "malformed_json":
        text = json.dumps(_two_sequences(rng)[0])
        return text[: rng.randint(1, len(text) - 1)], None
    pool = _SCHEMA_ERRORS if family == "malformed_schema" else _DOMAIN_ERRORS
    return json.dumps(rng.choice(pool)), None


_FAMILIES = {
    "plastic": _plastic,
    "shift_two_sequences": _two_sequences,
    "shift_two_infinite_atoms": _two_infinite_atoms,
    "shift_atom_min_seq": _atom_min_seq,
    "shift_seq_atom_max": _seq_atom_max,
    "transport_cantor": _transport_cantor,
}


def _expected_checks(family: str, witness: str | None) -> list[str]:
    names = list(WITNESS_CHECKS) if witness else []
    if not family.startswith("transport"):
        names += SPACE_CHECKS  # every point family truncates to dimension >= 2
    return names + [FINAL_CHECK]


def expected_outcome(stratum: Stratum, verdict: dict | None) -> dict:
    """Exit code and report fields the CLI must produce for one input."""
    if verdict is None:
        return {"exit": 1}
    expected = dict(verdict, exit=0 if verdict["plastic"] else 3)
    if stratum.command == "classify":
        expected["witness"] = None
    if stratum.command == "all":
        expected["checks"] = _expected_checks(stratum.family, expected["witness"])
    expected["full"] = "--full" in stratum.flags
    return expected


@dataclass(frozen=True)
class Item:
    index: int
    stratum: Stratum
    path: str
    expected: dict


def generate(workload: Workload, seed: int, rounds: int | None = None,
             stream: str = "corpus") -> list[list[tuple]]:
    """Rounds of (stratum, input text, expected outcome), deterministic in the seed."""
    rng = random.Random(f"{workload.name}/{seed}/{stream}")
    out = []
    for _ in range(workload.rounds if rounds is None else rounds):
        batch = []
        for stratum in workload.strata:
            if stratum.family.startswith("malformed"):
                text, verdict = _malformed(rng, stratum.family)
            else:
                if stratum.family == "transport_density":
                    doc, verdict = _transport_density(rng, stratum.degree)
                else:
                    doc, verdict = _FAMILIES[stratum.family](rng)
                text = json.dumps(doc)
            batch.append((stratum, text, expected_outcome(stratum, verdict)))
        out.append(batch)
    return out


def work_dir(out_dir: str, workload: str, seed: int) -> str:
    """The working directory that every process of one run shares."""
    return os.path.join(out_dir, f"work-{workload}-seed{seed}")


def _write_in_place(path: str, text: str) -> None:
    """Write ``text`` to ``path`` over any bytes already there.

    Unlike ``open(path, "w")`` this neither truncates the old file to zero
    nor needs a fresh inode, so a set-up that rewrites a corpus of the same
    seed allocates and frees no disk blocks.  Freed blocks on a filesystem
    mounted with ``discard`` stall later file creation for a while, which
    made set-up times drift with the file churn of earlier runs.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_corpus(workload: Workload, seed: int, directory: str,
                 rounds: int | None = None, stream: str = "corpus") -> list[list[Item]]:
    """Generate the corpus, write every input and a manifest of expected outcomes.

    Files already in ``directory`` are rewritten in place (``_write_in_place``).
    """
    os.makedirs(directory, exist_ok=True)
    corpus, manifest, index = [], [], 0
    for batch in generate(workload, seed, rounds, stream):
        items = []
        for stratum, text, expected in batch:
            path = os.path.join(directory, f"d{index:05d}.json")
            _write_in_place(path, text)
            items.append(Item(index, stratum, path, expected))
            manifest.append({"input": os.path.basename(path), "stratum": stratum.label,
                             "expected": expected})
            index += 1
        corpus.append(items)
    _write_in_place(os.path.join(directory, "manifest.json"), json.dumps(manifest, indent=1))
    return corpus


def family_shares(workload: Workload) -> dict[str, float]:
    n = len(workload.strata)
    shares: dict[str, float] = {}
    for s in workload.strata:
        shares[s.family] = shares.get(s.family, 0.0) + 1.0 / n
    return {k: round(v, 4) for k, v in sorted(shares.items())}
