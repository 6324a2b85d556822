import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lecplast import RangeError, TransportWitness, cli, verify
from lecplast import __version__
from lecplast.cli import RunConfig, build_parser, main, run
from lecplast.measures import ROW_BLOCK
from conftest import drawn_density, drawn_support

TWO_ATOMS = {
    "atoms": [
        {"value": 1, "multiplicity": "inf"},
        {"value": 2, "multiplicity": "inf"},
    ]
}
SINGLE_ATOM = {"atoms": [{"value": 1, "multiplicity": "inf"}]}
LEBESGUE = {"continuous": [{"kind": "density", "support": [1, 2], "coeffs": [1]}]}
CANTOR = {"continuous": [{"kind": "cantor", "support": [1, 2], "mass": 1}]}
TWO_SEQUENCES = {
    "sequences": [
        {"limit": 1, "direction": "dec", "offset": 1, "ratio": 0.5, "multiplicity": 1},
        {"limit": 2, "direction": "inc", "offset": 1, "ratio": 0.5, "multiplicity": 1},
    ]
}
BAD_RATIO = {
    "sequences": [
        {"limit": 1, "direction": "dec", "offset": 1, "ratio": 1.5, "multiplicity": 1}
    ]
}


#: Descriptors with one number replaced; json.dumps writes inf and nan as
#: Infinity and NaN, which json.load reads back.
_SEQ, _DENSITY, _CANTOR = (
    TWO_SEQUENCES["sequences"][0], LEBESGUE["continuous"][0], CANTOR["continuous"][0]
)
# Patterns of the one error line of a density too light for a witness.
_LIGHT_DENSITY = r"error: the density's mass \S+ is below the normal float range"
_LIGHT_CELLS = r"error: cell masses of window K=16 underflow the normal float range; "
_NORMAL_CELLS = " cell masses in the normal float range"
WITH_NUMBER = {
    "atom_value": lambda v: {"atoms": [{"value": v, "multiplicity": "inf"}]},
    "sequence_limit": lambda v: {"sequences": [dict(_SEQ, limit=v)]},
    "sequence_offset": lambda v: {"sequences": [dict(_SEQ, offset=v)]},
    "support_end": lambda v: {"continuous": [dict(_DENSITY, support=[1, v])]},
    "density_coeff": lambda v: {"continuous": [dict(_DENSITY, coeffs=[v])]},
    "cantor_mass": lambda v: {"continuous": [dict(_CANTOR, mass=v)]},
}
NON_FINITE = [(field, value) for field in WITH_NUMBER for value in ("inf", "nan")]


def _seq_doc(limit, direction, offset=0.5, ratio=0.5, multiplicity=1):
    return {"limit": limit, "direction": direction, "offset": offset, "ratio": ratio,
            "multiplicity": multiplicity}


#: A multiplicity past the float range: 1 followed by 400 zeros.
M = 10**400
#: Point-spectrum inputs at the edges of the float range.  A multiplicity
#: past it must stay an integer.  Near each sequence's first term past a
#: bound, gap / offset underflows to 0 or overflows, so only a search in log
#: space can take its log; ratio**j underflows to 0, so every step compares
#: below the gap; or ratio**j is subnormal, so the steps have lost digits.
POINT_ARITHMETIC = {
    "huge_atom": {"atoms": [{"value": 1.0, "multiplicity": M}]},
    "huge_term": {"sequences": [_seq_doc(1, "dec", multiplicity=M), _seq_doc(2, "inc")]},
    "merge_past_digit_limit": {"atoms": [{"value": 1.0, "multiplicity": 9 * 10**4299}] * 2},
    "gap_over_offset_underflows": {"sequences": [
        _seq_doc(1e-10, "dec", offset=1e308), _seq_doc(1.0000000000000002e-10, "inc", offset=1e-30)]},
    "gap_over_offset_overflows": {"sequences": [
        _seq_doc(1, "dec"), _seq_doc(1e200, "inc", offset=1e-130)]},
    "steps_underflow": {"sequences": [
        _seq_doc(1e-150, "dec", offset=1e200, ratio=0.9999998),
        _seq_doc(1e-129, "inc", offset=1e-149)]},
    # the terms near the bound 1.5 are offset * ratio**j with ratio**j subnormal:
    # j = 1992 and 1993 lie 0.68 and 1.51 ulps from their exact values
    "subnormal_band": {"sequences": [_seq_doc(1, "dec", offset=1.7e308, ratio=0.7),
                                     _seq_doc(2, "inc")]},
    # the gap to the atom is 1.66e-316: the steps near it are subnormal and
    # keep one value over up to ~1e8 consecutive j
    "subnormal_gap": {"sequences": [_seq_doc(1e-300, "dec", offset=1e-250,
                                             ratio=0.9999999999999998)],
                      "atoms": [{"value": 1.0000000000000004e-300, "multiplicity": "inf"}]},
    # limit + offset * ratio**j is past the float range from j = 1 on
    "terms_past_float_max": {"sequences": [_seq_doc(1.5e308, "dec", offset=1.5e308, ratio=0.9)]},
    # (r + R)/2 rounds onto r
    "adjacent_atoms": {"atoms": [{"value": 1.0, "multiplicity": "inf"},
                                 {"value": 1.0000000000000002, "multiplicity": "inf"}]},
}
HALF_SEQUENCES = {"sequences": [_seq_doc(1, "dec"), _seq_doc(2, "inc")]}
SLOW_SEQUENCES = {"sequences": [_seq_doc(1, "dec", ratio=0.99999), _seq_doc(2, "inc", ratio=0.99999)]}
CANTOR_MASS = {"continuous": [{"kind": "cantor", "support": [0.696057, 1.592525],
                               "mass": 1.759262}]}


def failed_lines(checks):
    """The stderr line of each failing check, in report order."""
    return [f"failed: {c['name']} (worst_residual {c['worst_residual']!r}, "
            f"threshold {c['threshold']!r})" for c in checks]


def write(tmp_path, name, doc):
    """Write doc as JSON, or bytes as they are."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_non_plastic_exits_3(self, tmp_path):
        code, report = run(RunConfig("classify", write(tmp_path, "d.json", TWO_ATOMS)))
        assert code == 3
        assert report["verdict"]["plastic"] is False
        assert report["verdict"]["certificate"]["rule"] == "TWO_INFINITE_ATOMS"
        assert "witness" not in report and "checks" not in report

    def test_plastic_exits_0(self, tmp_path):
        code, report = run(RunConfig("classify", write(tmp_path, "d.json", SINGLE_ATOM)))
        assert code == 0
        assert report["verdict"] == {"plastic": True, "tau": 1.0}

    def test_domain_error_exits_1(self, tmp_path, capsys):
        assert main(["classify", "--input", write(tmp_path, "d.json", BAD_RATIO)]) == 1
        assert "ratio" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["classify", "--input", "/nonexistent/x.json"]) == 1
        capsys.readouterr()

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--input", str(path)]) == 1
        capsys.readouterr()

    def test_usage_error_exits_1(self, capsys):
        for argv in (["frobnicate"], ["all"], []):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")

    def test_bare_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # The interpreter raises MemoryError with no text; the line still says
        # what went wrong.
        def out_of_memory(config):
            raise MemoryError()

        monkeypatch.setattr(cli, "run", out_of_memory)
        assert main(["all", "--input", write(tmp_path, "d.json", TWO_ATOMS)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

    @pytest.mark.parametrize(
        "doc, args",
        [
            (LEBESGUE, ["all", "--window", "0"]),
            (LEBESGUE, ["all", "--nodes", "8"]),
            # past K = 33 the Cantor endpoints b - 3**(-k-1) (b - a) round to b,
            # so partition endpoints coincide
            (CANTOR, ["witness", "--window", "40"]),
            # at K = 80 the chain's deepest terms round to the limits 1 and 2
            (TWO_SEQUENCES, ["verify", "--window", "80", "--nodes", "64"]),
            # cells too narrow for distinct quadrature nodes: at K = 32 the
            # outer Cantor cell's 4096 nodes are one float, at K = 46 the
            # outer Lebesgue cell's 256 nodes take 32 values, at K = 51 one
            (CANTOR, ["verify", "--window", "32"]),
            (LEBESGUE, ["verify", "--window", "46", "--nodes", "256"]),
            (LEBESGUE, ["verify", "--window", "51", "--nodes", "256"]),
            # an integer past the float range, and Infinity or NaN in each number field
            (WITH_NUMBER["atom_value"](10**400), ["classify"]),
            *[(WITH_NUMBER[field](float(value)), ["classify"]) for field, value in NON_FINITE],
            # an integer past the interpreter's 4300-digit limit, nesting past
            # the recursion limit, and bytes that are not UTF-8
            (b'{"atoms": [{"value": ' + b"1" * 5000 + b', "multiplicity": 1}]}', ["classify"]),
            (b"[" * 100_000, ["classify"]),
            (b'{"atoms": [{"value": 1, "multiplicity": "\xe9"}]}', ["classify"]),
            # usage errors: an unknown command, a flag value that is not an
            # integer, an unknown flag, an unknown argument holding a line break
            (LEBESGUE, ["frobnicate"]),
            (LEBESGUE, ["all", "--window", "x"]),
            (LEBESGUE, ["all", "--bogus"]),
            (LEBESGUE, ["all", "two\nlines"]),
            # 10^15 nodes repeat in the first column block of the outer cells
            (LEBESGUE, ["all", "--nodes", str(10**15)]),
            # count flags past 2**53 are rejected before anything is built
            (LEBESGUE, ["all", "--nodes", str(10**19)]),
            (LEBESGUE, ["all", "--window", str(10**20)]),
            (TWO_ATOMS, ["all", "--window", str(10**19)]),
            (TWO_ATOMS, ["all", "--per-sequence", str(10**20)]),
            # (t - 1.5003)^2 - 1e-8 dips below 0 on (1.5002, 1.5004), between
            # the points of any 1024-point grid of [1, 2]
            ({"continuous": [dict(_DENSITY, coeffs=[1.5003**2 - 1e-8, -3.0006, 1.0])]},
             ["all"]),
            # densities whose antiderivative or total mass overflows: an infinite
            # mass, t^2 integrated over [1e150, 1e300], and a negative density
            # whose shifted coefficients overflow before its sign is read
            ({"continuous": [dict(_DENSITY, coeffs=[1e308, -1e308, 1e308])]}, ["classify"]),
            ({"continuous": [dict(_DENSITY, support=[1e150, 1e300], coeffs=[0, 0, 1])]},
             ["classify"]),
            ({"continuous": [dict(_DENSITY, coeffs=[-1e308, -1e308, -1e308])]}, ["classify"]),
            # component fields that are not lists
            ({"atoms": None}, ["classify"]),
            ({"sequences": 5}, ["classify"]),
            ({"continuous": 3.5}, ["classify"]),
            ({"atoms": {"value": 1, "multiplicity": 1}}, ["classify"]),
        ],
        ids=["window_0", "nodes_8", "cantor_window_40", "sequence_window_80",
             "cantor_window_32", "lebesgue_window_46", "lebesgue_window_51",
             "atom_value_huge_int", *[f"{field}_{value}" for field, value in NON_FINITE],
             "integer_5000_digits", "nested_100000_deep", "not_utf8",
             "unknown_command", "window_not_int", "unknown_flag", "argument_with_newline",
             "nodes_1e15", "nodes_1e19", "lebesgue_window_1e20", "atoms_window_1e19",
             "atoms_per_sequence_1e20", "density_negative_between_grid_points",
             "density_mass_overflows", "density_wide_support_mass_overflows",
             "density_negative_coefficients_overflow", "atoms_null", "sequences_int",
             "continuous_float", "atoms_object"],
    )
    def test_rejected_run_exits_1_with_one_line(self, tmp_path, capsys, doc, args):
        assert main([*args, "--input", write(tmp_path, "d.json", doc)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


    @pytest.mark.parametrize(
        "doc, K, nodes, largest",
        [(LEBESGUE, 44, 256, 43), (CANTOR, 21, 4096, 20), (CANTOR, 25, 256, 24),
         # two column blocks of nodes: the line a single table of them gives
         (LEBESGUE, 40, 16384, 37), (CANTOR, 20, 16384, 18)],
        ids=["lebesgue", "cantor", "cantor_256", "lebesgue_16384", "cantor_16384"],
    )
    def test_narrow_cells_name_largest_window(self, tmp_path, capsys, doc, K, nodes, largest):
        path = write(tmp_path, "d.json", doc)
        args = ["verify", "--nodes", str(nodes), "--input", path]
        assert main([*args, "--window", str(K)]) == 1
        assert capsys.readouterr().err == (
            f"error: transport cell k={-K} at window K={K} is too narrow for --nodes {nodes} "
            f"distinct quadrature points; the largest window with distinct quadrature points "
            f"is K={largest}\n")
        assert main([*args, "--window", str(largest)]) == 3
        capsys.readouterr()

    def test_nodes_past_any_table_stop_at_first_column_block(self, tmp_path, capsys, monkeypatch):
        # 10^15 nodes per cell: the outer cells repeat a node in the first
        # column block of 8192, and the run ends there, at once.
        columns, quadrature_nodes = [], verify.quadrature_nodes
        monkeypatch.setattr(verify, "quadrature_nodes", lambda m, **kwargs: (
            columns.append(kwargs["columns"]) or quadrature_nodes(m, **kwargs)))
        path = write(tmp_path, "d.json", LEBESGUE)
        start = time.perf_counter()
        assert main(["all", "--nodes", str(10**15), "--input", path]) == 1
        assert time.perf_counter() - start < 1.0
        assert columns == [slice(0, ROW_BLOCK)]
        assert capsys.readouterr().err == (
            f"error: transport cell k=-16 at window K=16 is too narrow for --nodes {10**15} "
            "distinct quadrature points; the largest window with distinct quadrature points "
            "is K=1\n")

    @pytest.mark.parametrize("mass, args, code", [
        (5e-324, ["--window", "16"], 1), (1e-320, ["--window", "16"], 1),
        (2.0**-1010, ["--window", "16"], 1), (2.0**-1010, ["--window", "11"], 3),
        (1e-300, ["--window", "16"], 3)], ids=str)
    def test_tiny_cantor_masses(self, tmp_path, capsys, mass, args, code):
        # Cell masses M 2^e below the normal float range end the run with one
        # line that names them; the endpoints do not depend on the mass.
        path = write(tmp_path, "d.json", {"continuous": [dict(_CANTOR, mass=mass)]})
        assert main(["all", *args, "--input", path]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 3:
            assert err == []
        else:
            assert len(err) == 1 and err[0].startswith("error: cell masses of window K=16 ")

    @pytest.mark.parametrize("command", ["all", "witness"])
    @pytest.mark.parametrize("coeffs, args, error", [
        ([1e-320], [], _LIGHT_DENSITY), ([0, 0, 1e-309], [], _LIGHT_DENSITY),
        ([np.finfo(float).tiny], [], _LIGHT_CELLS + "no window has" + _NORMAL_CELLS),
        ([0, 0, np.finfo(float).tiny], [], _LIGHT_CELLS + "no window has" + _NORMAL_CELLS),
        ([1e-303], [], _LIGHT_CELLS + "the largest window with" + _NORMAL_CELLS + " is K=14"),
        ([1e-303], ["--window", "14"], None), ([1e-300], [], None)],
        ids=["1e-320", "t2_1e-309", "tiny", "t2_tiny", "1e-303", "1e-303_K14", "1e-300"])
    def test_tiny_density_masses(self, tmp_path, capsys, coeffs, args, error, command):
        # A density mass below the normal float range (1e-320 and 7/3 1e-309
        # here) ends the run with one line that names it, before any quantile
        # divides by the density.  From 2.2250738585072014e-308 up the
        # partition runs, and cell masses below that range end the run with
        # one line that names the largest window whose cells are normal.
        path = write(tmp_path, "d.json", {"continuous": [dict(_DENSITY, coeffs=coeffs)]})
        assert main([command, *args, "--input", path]) == (1 if error else 3)
        err = capsys.readouterr().err.splitlines()
        if error is None:
            assert err == []
        else:
            assert len(err) == 1 and re.fullmatch(error, err[0])


class TestWitnessCommand:
    def test_shift_witness_embedded(self, tmp_path):
        code, report = run(
            RunConfig("witness", write(tmp_path, "d.json", TWO_ATOMS), window=4)
        )
        assert code == 3
        w = report["witness"]
        assert w["type"] == "shift"
        assert len(w["lambdas"]) == 9 and len(w["factors"]) == 8

    def test_plastic_has_no_witness(self, tmp_path):
        code, report = run(RunConfig("witness", write(tmp_path, "d.json", SINGLE_ATOM)))
        assert code == 0 and "witness" not in report

    def test_transport_witness_embedded(self, tmp_path):
        code, report = run(
            RunConfig("witness", write(tmp_path, "d.json", LEBESGUE), window=3)
        )
        assert code == 3
        w = report["witness"]
        assert w["type"] == "transport"
        assert len(w["endpoints"]) == 7
        assert "multiplier_tables" not in w

    def test_full_flag_adds_multiplier_tables(self, tmp_path):
        _, report = run(
            RunConfig("witness", write(tmp_path, "d.json", LEBESGUE), window=3, full=True)
        )
        tables = report["witness"]["multiplier_tables"]
        assert len(tables) == 5
        assert all(0.0 < v < 1.0 for v in tables[0]["multiplier"])


class TestVerifyCommand:
    def test_lebesgue_pipeline(self, tmp_path, capsys):
        config = RunConfig(
            "verify", write(tmp_path, "d.json", LEBESGUE), window=3, nodes=256
        )
        code, report = run(config)
        assert code == 3
        names = [c["name"] for c in report["checks"]]
        assert names == ["form_preservation", "nonexpansive", "strict_contraction",
                         "finite_dim_plasticity"]
        assert all(c["pass"] for c in report["checks"])
        # K = 1: cell k = 0 has no successor, so strict contraction reads k = -1
        out = tmp_path / "report.json"
        argv = ["verify", "--window", "1", "--nodes", "64", "--output", str(out)]
        assert main([*argv, "--input", config.input_path]) == 3
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == names
        assert all(c["pass"] for c in checks)

    def test_cantor_pipeline(self, tmp_path):
        path = write(tmp_path, "d.json", CANTOR)
        # a small window, then the default flags (K = 16, 4096 nodes per cell)
        for config in (RunConfig("all", path, window=2, nodes=256), RunConfig("all", path)):
            code, report = run(config)
            assert code == 3
            names = [c["name"] for c in report["checks"]]
            assert names == ["form_preservation", "nonexpansive", "strict_contraction",
                             "finite_dim_plasticity"]
            assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("end", [1e200, 1e300, 1.7e308])
    def test_wide_support_passes_without_warnings(self, tmp_path, capsys, end):
        # Lebesgue on [1, end] at default flags: the Gram weights x du would
        # leave the float range if formed as they are written, and so would
        # the closed-form quantile's terms in u and s if not scaled; pytest
        # turns a RuntimeWarning into an error.
        path = write(tmp_path, "d.json", WITH_NUMBER["support_end"](end))
        out = tmp_path / "report.json"
        for full in ([], ["--full"]):
            assert main(["all", *full, "--input", path, "--output", str(out)]) == 3
            assert capsys.readouterr().err == ""
            assert all(c["pass"] for c in json.loads(out.read_text())["checks"])

    def test_far_support_newton_step_does_not_warn(self, tmp_path, capsys):
        # 1 + 1e-300 t^2 on [1e200, 1.5e200]: the quantile's Newton steps pass
        # 1e154, so the square in their error term overflows; that counts as
        # "not converged" and must not reach stderr as a RuntimeWarning.
        # Lebesgue on [1e300, 1.5e300] takes the closed form of degree <= 1.
        for part in ({"support": [1e200, 1.5e200], "coeffs": [1, 0, 1e-300]},
                     {"support": [1e300, 1.5e300]}):
            doc = {"continuous": [dict(_DENSITY, **part)]}
            out = tmp_path / "report.json"
            argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
            assert main(argv) == 3
            assert capsys.readouterr().err == ""
            assert all(c["pass"] for c in json.loads(out.read_text())["checks"])

    def test_nan_residual_fails_its_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(TransportWitness, "multiplier_squared",
                            lambda self, s, rows=slice(0, None): np.full(np.shape(s), np.nan))
        out = tmp_path / "report.json"
        argv = ["verify", "--window", "3", "--nodes", "256", "--output", str(out)]
        assert main([*argv, "--input", write(tmp_path, "d.json", LEBESGUE)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "failed: form_preservation (worst_residual nan, threshold 1e-05)",
            "failed: nonexpansive (worst_residual nan, threshold 1e-05)",
            "failed: strict_contraction (worst_residual nan, threshold 0.999999)",
        ]
        assert '"worst_residual": NaN' in out.read_text()
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("form_preservation", "nonexpansive", "strict_contraction"):
            assert checks[name]["pass"] is False
            assert checks[name]["worst_residual"] != checks[name]["worst_residual"]

    @pytest.mark.parametrize("doc", [LEBESGUE, CANTOR], ids=["lebesgue", "cantor"])
    def test_inverted_multiplier_fails(self, tmp_path, capsys, monkeypatch, doc):
        # g^2 = G^{-1}(s)/s in place of s/G^{-1}(s): the checks read the
        # published multiplier, so the mutant witness must not pass.
        multiplier_squared = TransportWitness.multiplier_squared
        monkeypatch.setattr(TransportWitness, "multiplier_squared",
                            lambda self, s, rows=slice(0, None):
                            1.0 / multiplier_squared(self, s, rows))
        out = tmp_path / "report.json"
        argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
        assert main(argv) == 2
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert failed_lines(failed) == capsys.readouterr().err.splitlines()
        assert {"nonexpansive", "strict_contraction"} <= {c["name"] for c in failed}

    @pytest.mark.parametrize("doc", [LEBESGUE, CANTOR], ids=["lebesgue", "cantor"])
    def test_scaled_multiplier_fails(self, tmp_path, capsys, monkeypatch, doc):
        # g^2 off by a factor 1 + 1e-4 breaks q(Tf) = q(f) by 1e-4 on every
        # cell, ten times the transport tolerance on either part kind; on the
        # narrow cells, where g^2 is near 1, it also expands.
        multiplier_squared = TransportWitness.multiplier_squared
        monkeypatch.setattr(TransportWitness, "multiplier_squared",
                            lambda self, s, rows=slice(0, None):
                            (1.0 + 1e-4) * multiplier_squared(self, s, rows))
        out = tmp_path / "report.json"
        argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
        assert main(argv) == 2
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert failed_lines(failed) == capsys.readouterr().err.splitlines()
        assert [c["name"] for c in failed] == ["form_preservation", "nonexpansive"]

    def test_failing_check_is_named_on_stderr(self, tmp_path, capsys):
        # The witness of atoms 1e-6 apart contracts by 5e-7 only, inside the
        # 1e-6 margin of strict_contraction: exit 2, one stderr line that
        # names the check, and the report written as on any other exit.
        doc = {"atoms": [{"value": 1.0, "multiplicity": "inf"},
                         {"value": 1.0 + 1e-6, "multiplicity": "inf"}]}
        out = tmp_path / "report.json"
        argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"failed: strict_contraction \(worst_residual 0\.99999950\d*, "
                            r"threshold 0\.999999\)", line)
        assert [c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]] == [
            "strict_contraction"]

    def test_transport_table_built_once(self, tmp_path, monkeypatch):
        builds = []
        init = verify._TransportTables.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(verify._TransportTables, "__init__", counting_init)
        config = RunConfig("all", write(tmp_path, "d.json", LEBESGUE), window=3, nodes=256)
        code, _ = run(config)
        assert code == 3
        assert len(builds) == 1

    def test_near_degenerate_spectrum_passes(self, tmp_path, capsys):
        # values 1e-12 apart mix freely under maps with ||T|| - 1 below 1e-12
        doc = {"atoms": [{"value": 1.0, "multiplicity": 1},
                         {"value": 1.0 + 1e-12, "multiplicity": 1}]}
        out = tmp_path / "report.json"
        argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == []

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e-6])
    def test_verdict_does_not_depend_on_scale(self, tmp_path, capsys, scale):
        # LEC-plasticity is invariant under A -> cA, so every check must pass
        # at any scale; residuals absolute in A failed at 1e4 and 1e6.
        doc = {"atoms": [{"value": 1.0 * scale, "multiplicity": "inf"},
                         {"value": 1.5 * scale, "multiplicity": 2},
                         {"value": 2.0 * scale, "multiplicity": "inf"}]}
        out = tmp_path / "report.json"
        argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 7
        assert [c["name"] for c in checks if not c["pass"]] == []

    @pytest.mark.parametrize("doc, args, holds", [
        # densities that vanish at the support start, where a Newton step
        # divides by a density near 0, and two that the safeguarded loop solves
        *[({"continuous": [dict(_DENSITY, **part)]}, ["all", "--window", "16", "--nodes", "4096"],
           None) for part in ({"coeffs": [-2, 2]}, {"coeffs": [1, -2, 1]},
                              {"coeffs": [2.25, -3, 1]}, {"support": [0.5, 3], "coeffs": [1, 5, 0, 40]})],
        # 16 cells of 1024 levels: each stacked quantile call runs whole rows
        ({"continuous": [dict(_DENSITY, coeffs=[0.25, 1])]},
         ["all", "--window", "8", "--nodes", "1024"], None),
        # the shift's form check reads its published factors, so its residual is rounding
        (HALF_SEQUENCES, ["all"], lambda c: c["form_preservation"]["worst_residual"] <= 1e-12),
        (CANTOR_MASS, ["all", "--window", "16", "--nodes", "256"],
         lambda c: c["form_preservation"]["worst_residual"] < 1e-10),
        (CANTOR_MASS, ["witness", "--full", "--window", "8"], None),
        (CANTOR_MASS, ["all"], lambda c: c["form_preservation"]["threshold"] == 1e-05),
    ], ids=["linear_zero_at_a", "square_zero_at_a", "square_zero_inside", "steep_cubic",
            "degree_1_window_8", "half_sequences", "cantor_mass_nodes_256", "cantor_mass_full",
            "cantor_mass"])
    def test_run_exits_3_cleanly(self, tmp_path, capsys, doc, args, holds):
        # Exit 3 from verify means every check passed; a RuntimeWarning is an error.
        out = tmp_path / "report.json"
        assert main([*args, "--input", write(tmp_path, "d.json", doc), "--output", str(out)]) == 3
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(out.read_text()).get("checks", [])}
        assert holds is None or holds(checks)

    @pytest.mark.parametrize("doc, args, code", [
        ({"atoms": [{"value": 1.0, "multiplicity": 2**53}]}, [], 0),
        ({"sequences": [dict(TWO_SEQUENCES["sequences"][0], multiplicity=2**53 + 1),
                        TWO_SEQUENCES["sequences"][1]]}, [], 3),
        (TWO_ATOMS, ["--per-sequence", str(2**53)], 3),
        (POINT_ARITHMETIC["huge_atom"], [], 0),
        (POINT_ARITHMETIC["huge_term"], [], 3),
    ], ids=["plastic_atom", "sequence_term", "two_infinite_atoms", "plastic_atom_past_floats",
            "sequence_term_past_floats"])
    def test_multiplicities_past_the_address_space(self, tmp_path, capsys, doc, args, code):
        # The space checks read the distinct eigenvalues and an exact integer
        # dimension, so no array is sized by a multiplicity, and no multiplicity
        # is converted to a float.
        out = tmp_path / "report.json"
        argv = ["all", "--input", write(tmp_path, "d.json", doc), "--output", str(out), *args]
        assert main(argv) == code
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert "rayleigh_bounds" in [c["name"] for c in checks]
        assert [c["name"] for c in checks if not c["pass"]] == []

    def test_plastic_descriptor_runs_space_checks(self, tmp_path):
        config = RunConfig(
            "all", write(tmp_path, "d.json", SINGLE_ATOM), per_sequence=4, nodes=64
        )
        code, report = run(config)
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert names == ["rayleigh_bounds", "min_attained", "extremal_invariance",
                         "finite_dim_plasticity"]
        assert all(c["pass"] for c in report["checks"])

    def test_shift_pipeline_all_checks(self, tmp_path):
        config = RunConfig(
            "all", write(tmp_path, "d.json", TWO_ATOMS), window=4, per_sequence=4, nodes=64
        )
        code, report = run(config)
        assert code == 3
        assert all(c["pass"] for c in report["checks"])
        assert {c["name"] for c in report["checks"]} == {
            "form_preservation", "nonexpansive", "strict_contraction",
            "rayleigh_bounds", "min_attained", "extremal_invariance",
            "finite_dim_plasticity",
        }

    def test_reports_embed_replay_data(self, tmp_path):
        config = RunConfig("all", write(tmp_path, "d.json", TWO_ATOMS), seed=9,
                           window=2, per_sequence=2, nodes=64)
        _, report = run(config)
        assert report["seed"] == 9
        assert report["version"]
        assert report["descriptor"]["atoms"][0]["multiplicity"] == "inf"


class TestPointSpectrumArithmetic:
    @pytest.mark.parametrize("name, args, line", [
        # the sum of two 4,300-digit multiplicities has more digits than json
        # prints, and the line does not print it either
        ("merge_past_digit_limit", ["classify"],
         "the atoms at 1.0 add up to a multiplicity with more digits than a report can print"),
        ("gap_over_offset_underflows", ["witness"], "the sequence with limit 1e-10 comes "),
        ("gap_over_offset_overflows", ["witness"], "terms 1..17 of the sequence with limit "),
        ("steps_underflow", ["witness", "--window", "1"], "the sequence with limit 1e-150 "),
        ("subnormal_band", ["witness", "--window", "2"],
         r"the sequence with limit 1.0 comes within 0.5 of it only where ratio\*\*j is not a "
         "normal float"),
        # the first term past the bound 1.0000000000000002e-300 rounds onto it
        ("subnormal_gap", ["witness", "--window", "1"],
         r"no float value of term \d+ of the sequence with limit 1e-300 lies strictly below the "
         r"chain bound 1\.0000000000000002e-300; floating point rounds the two together$"),
        ("terms_past_float_max", ["all"], r"terms 1..32 of the sequence with limit 1.5e\+308 and "
                                          "ratio 0.9 are not distinct finite floats"),
        ("adjacent_atoms", ["witness"], r"no float value of the atom at 1\.0 lies strictly below "
                                        r"the chain bound 1\.0; floating point rounds the two together$"),
    ], ids=["merge_past_digit_limit", "gap_over_offset_underflows", "gap_over_offset_overflows",
            "steps_underflow", "subnormal_band", "subnormal_gap", "terms_past_float_max",
            "adjacent_atoms"])
    def test_exits_1_with_one_line(self, tmp_path, capsys, name, args, line):
        # line is a pattern for the start of the one error line
        if name == "merge_past_digit_limit" and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("the interpreter prints integers of any length")
        path = write(tmp_path, "d.json", POINT_ARITHMETIC[name])
        start = time.perf_counter()
        assert main([*args, "--input", path]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(f"error: {line}", err[0])


#: Runs argv[3:] under an address-space cap of argv[1] bytes (0 for none),
#: killed after argv[2] seconds, and prints its exit code and its own peak RSS
#: in KiB, read with wait4.  A child forked from pytest would count pytest's
#: pages in its peak RSS; one forked from this small process does not.
_LAUNCHER = """
import os, resource, subprocess, sys, threading
cap, seconds, argv = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
if cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
proc = subprocess.Popen(argv)
timer = threading.Timer(seconds, proc.kill)
timer.start()
_, status, usage = os.wait4(proc.pid, 0)
timer.cancel()
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


class TestOwnProcess:
    """Runs bounded by wall time, an address-space cap (bytes) or a peak RSS (MB)."""

    @pytest.mark.parametrize("doc, args, code, checks, seconds, cap, peak_mb, residuals", [
        # max / min = 3.4e631: the extremal probes are divided by
        # kappa = sqrt(max / min), so none of their entries overflows
        ({"atoms": [{"value": 5e-324, "multiplicity": 1}, {"value": 1.7e308, "multiplicity": 2}]},
         ["all"], 0, 4, 300, 0, None, {}),
        # the space checks read their probes in blocks of whole pairs, so
        # memory does not grow with the probes of the truncation
        (SLOW_SEQUENCES, ["all", "--per-sequence", "100000"], 3, 7, 60, 0, None, {}),
        (SLOW_SEQUENCES, ["all", "--per-sequence", "1000000"], 3, 7, 120, 10**6 * 1024, None, {}),
        # the chain is refused before anything of its window's size is built
        (HALF_SEQUENCES, ["witness", "--window", "1000000"], 1, None, 60, 0, 50, {}),
        (HALF_SEQUENCES, ["witness", "--window", "10000000"], 1, None, 60, 0, 50, {}),
        # the transport tables hold one column block of nodes at a time, and
        # the 1,221 block sums of cell 0 add up as their exact sum does
        (LEBESGUE, ["all", "--window", "1", "--nodes", "10000000"], 3, 4, 120, 0, 100,
         {"strict_contraction": 0.9197006687899828}),
        (CANTOR, ["all", "--window", "4", "--nodes", "10000000"], 3, 4, 120, 2**30, None, {}),
    ], ids=["float_range_atoms", "per_sequence_1e5", "per_sequence_1e6_capped",
            "witness_window_1e6", "witness_window_1e7", "lebesgue_nodes_1e7",
            "cantor_nodes_1e7_capped"])
    def test_run(self, tmp_path, doc, args, code, checks, seconds, cap, peak_mb, residuals):
        out, err = tmp_path / "report.json", tmp_path / "stderr.txt"
        argv = [sys.executable, "-c", _LAUNCHER, str(cap), str(seconds),
                sys.executable, "-W", "error::RuntimeWarning", "-m", "lecplast", *args,
                "--input", write(tmp_path, "d.json", doc), "--output", str(out)]
        with open(err, "w") as stderr:
            child = subprocess.run(argv, stdout=subprocess.PIPE, stderr=stderr, text=True,
                                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), check=True)
        exit_code, peak_kib = map(int, child.stdout.split())
        lines = err.read_text().splitlines()
        assert exit_code == code, f"killed after {seconds} s" if exit_code < 0 else lines
        if peak_mb is not None:
            assert peak_kib / 1024 < peak_mb  # Linux counts ru_maxrss in KiB
        if checks is None:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert lines == []
            report = json.loads(out.read_text())["checks"]
            assert len(report) == checks and all(c["pass"] for c in report)
            worst = {c["name"]: c["worst_residual"] for c in report}
            assert {name: worst[name] for name in residuals} == residuals


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_COUNT = st.one_of(st.integers(1, 3), st.integers(0, 400).map(lambda e: 10**e),
                   st.integers(1, M))
# Ratios from 1e-300 up to 1 - 2**-52, the second float below 1.
_RATIO = st.one_of(st.floats(-300.0, 0.0).map(lambda e: min(10.0**e, 1.0 - 2.0**-52)),
                   st.floats(1.0, 52.0).map(lambda e: 1.0 - 2.0**-e))
_ATOM = st.fixed_dictionaries({"value": _MAGNITUDE,
                               "multiplicity": st.one_of(st.just("inf"), _COUNT)})
_SEQUENCE = st.fixed_dictionaries({
    "limit": _MAGNITUDE, "direction": st.sampled_from(["inc", "dec"]), "offset": _MAGNITUDE,
    "ratio": _RATIO, "multiplicity": _COUNT})
_PART = st.one_of(
    drawn_density().map(lambda part: {"kind": "density", "support": list(part.support),
                                      "coeffs": list(part.coeffs)}),
    st.tuples(drawn_support(), st.floats(-50.0, 50.0)).map(
        lambda p: {"kind": "cantor", "support": list(p[0]), "mass": 10.0 ** p[1]}),
)


@st.composite
def _contract_descriptor(draw):
    """0-3 atoms, 0-3 sequences and 0-1 continuous part, each list left out when empty."""
    doc = {"atoms": draw(st.lists(_ATOM, max_size=3)),
           "sequences": draw(st.lists(_SEQUENCE, max_size=3)),
           "continuous": draw(st.lists(_PART, max_size=1))}
    return {key: value for key, value in doc.items() if value}


class TestContract:
    """classify and witness end in exit 0 or 3 with empty stderr, or in exit 1
    with one ``error:`` line, and no exception leaves ``main``."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("contract") / "d.json"

    @example(doc=POINT_ARITHMETIC["huge_atom"], K=16, full=False)
    @example(doc=POINT_ARITHMETIC["huge_term"], K=16, full=False)
    @example(doc=POINT_ARITHMETIC["merge_past_digit_limit"], K=16, full=False)
    @example(doc=POINT_ARITHMETIC["gap_over_offset_underflows"], K=16, full=False)
    @example(doc=POINT_ARITHMETIC["gap_over_offset_overflows"], K=16, full=False)
    @example(doc=POINT_ARITHMETIC["steps_underflow"], K=1, full=False)
    @example(doc=POINT_ARITHMETIC["subnormal_band"], K=2, full=True)
    @example(doc=POINT_ARITHMETIC["terms_past_float_max"], K=16, full=False)
    @given(doc=_contract_descriptor(), K=st.integers(1, 24),
           full=st.sampled_from([False, False, True]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_classify_and_witness(self, path, doc, K, full):
        path.write_text(json.dumps(doc))
        for command in ("classify", "witness"):
            argv = [command, "--input", str(path), "--window", str(K), *["--full"] * full]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code in (0, 3):
                assert err.getvalue() == ""
            else:
                assert code == 1
                lines = err.getvalue().split("\n")
                assert len(lines) == 2 and lines[0].startswith("error: ") and lines[1] == ""


SMALL_FLAGS = {"window": 3, "nodes": 256, "per_sequence": 4}


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        config = RunConfig(
            "all", write(tmp_path, "d.json", LEBESGUE), seed=5, window=3, nodes=256
        )
        _, first = run(config)
        _, second = run(config)
        dumps = lambda rep: json.dumps(rep, indent=2, sort_keys=True)
        assert dumps(first) == dumps(second)

    @pytest.mark.parametrize("doc, flags", [
        (LEBESGUE, SMALL_FLAGS), (CANTOR, SMALL_FLAGS), (TWO_ATOMS, SMALL_FLAGS), (CANTOR, {})],
        ids=["lebesgue", "cantor", "two_atoms", "cantor_default_flags"])
    def test_checks_do_not_depend_on_seed(self, tmp_path, doc, flags):
        # No check takes the seed: only the report records it, once.
        path = write(tmp_path, "d.json", doc)
        runs = [run(RunConfig("all", path, seed=seed, **flags)) for seed in (0, 1)]
        assert [code for code, _ in runs] == [3, 3]
        checks = [report["checks"] for _, report in runs]
        assert checks[0] == checks[1]
        assert not any("seed" in c for c in checks[0])

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["classify", "--input", write(tmp_path, "d.json", SINGLE_ATOM),
             "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["verdict"]["plastic"] is True


class TestParser:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["classify", "--input", "d.json"], RunConfig("classify", "d.json")),
            (["all", "--input", "d.json", "--window", "4", "--nodes", "1024"],
             RunConfig("all", "d.json", window=4, nodes=1024)),
            (["all", "--input", "d.json", "--per-sequence", "48"],
             RunConfig("all", "d.json", per_sequence=48)),
            (["witness", "--input", "d.json", "--window", "8", "--full"],
             RunConfig("witness", "d.json", window=8, full=True)),
            (["verify", "--input", "d.json", "--output", "report.json"],
             RunConfig("verify", "d.json", output_path="report.json")),
            (["all", "--input", "d.json", "--seed", "7", "--full"],
             RunConfig("all", "d.json", seed=7, full=True)),
            (["witness", "--input", "d.json", "--output", "r.json", "--seed", "100003",
              "--window", "8", "--full"],
             RunConfig("witness", "d.json", "r.json", seed=100003, window=8, full=True)),
            # options may come before the command
            (["--seed", "3", "all", "--input", "d.json"], RunConfig("all", "d.json", seed=3)),
        ],
        ids=["defaults", "window_nodes", "per_sequence", "full", "output", "seed",
             "benchmark_form", "options_first"],
    )
    def test_argv_gives_run_config(self, argv, config):
        assert RunConfig(**vars(build_parser().parse_args(argv))) == config

    @pytest.mark.parametrize("flag", ["window", "nodes", "per_sequence"])
    def test_count_flags_end_at_2_53(self, flag):
        RunConfig("all", "d.json", **{flag: 2**53})
        with pytest.raises(RangeError, match=r" must be <= 2\*\*53, got 9007199254740993$"):
            RunConfig("all", "d.json", **{flag: 2**53 + 1})

    def test_help_names_commands_and_flags(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("classify", "witness", "verify", "all", "--input", "--output",
                     "--seed", "--window", "--nodes", "--per-sequence", "--full"):
            assert name in out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"{__version__}\n"


class TestRunConfig:
    def test_flag_validation(self):
        with pytest.raises(RangeError):
            RunConfig("classify", "x.json", window=0)
        with pytest.raises(RangeError):
            RunConfig("classify", "x.json", nodes=4)
        with pytest.raises(RangeError):
            RunConfig("nope", "x.json")
