import json

import numpy as np
import pytest

from lecplast import RangeError, verify
from lecplast.cli import RunConfig, main, run

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
WITH_NUMBER = {
    "atom_value": lambda v: {"atoms": [{"value": v, "multiplicity": "inf"}]},
    "sequence_limit": lambda v: {"sequences": [dict(_SEQ, limit=v)]},
    "sequence_offset": lambda v: {"sequences": [dict(_SEQ, offset=v)]},
    "support_end": lambda v: {"continuous": [dict(_DENSITY, support=[1, v])]},
    "density_coeff": lambda v: {"continuous": [dict(_DENSITY, coeffs=[v])]},
    "cantor_mass": lambda v: {"continuous": [dict(_CANTOR, mass=v)]},
}
NON_FINITE = [(field, value) for field in WITH_NUMBER for value in ("inf", "nan")]


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
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc, args",
        [
            (LEBESGUE, ["all", "--window", "0"]),
            (LEBESGUE, ["all", "--nodes", "8"]),
            # at K = 40 the smallest Cantor levels (2**-41) lie below the
            # quantile's x-resolution, so partition endpoints coincide
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
        ],
        ids=["window_0", "nodes_8", "cantor_window_40", "sequence_window_80",
             "cantor_window_32", "lebesgue_window_46", "lebesgue_window_51",
             "atom_value_huge_int", *[f"{field}_{value}" for field, value in NON_FINITE],
             "integer_5000_digits", "nested_100000_deep", "not_utf8"],
    )
    def test_rejected_run_exits_1_with_one_line(self, tmp_path, capsys, doc, args):
        assert main([*args, "--input", write(tmp_path, "d.json", doc)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


    @pytest.mark.parametrize(
        "doc, args, largest",
        [(LEBESGUE, ["--window", "44", "--nodes", "256"], 43),
         (CANTOR, ["--window", "20"], 19)],
        ids=["lebesgue", "cantor"],
    )
    def test_narrow_cells_name_largest_window(self, tmp_path, capsys, doc, args, largest):
        path = write(tmp_path, "d.json", doc)
        assert main(["verify", *args, "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            f"; the largest window with distinct quadrature points is K={largest}\n"
        )
        assert main(["verify", *args, "--window", str(largest), "--input", path]) == 3
        capsys.readouterr()


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

    def test_nan_residual_fails_its_check(self, tmp_path, capsys, monkeypatch):
        class NanGenerator:
            def normal(self, size=None):
                return np.full(size, np.nan)

        monkeypatch.setattr(verify, "_rng", lambda seed: NanGenerator())
        out = tmp_path / "report.json"
        argv = ["verify", "--window", "3", "--nodes", "256", "--output", str(out)]
        assert main([*argv, "--input", write(tmp_path, "d.json", LEBESGUE)]) == 2
        capsys.readouterr()
        assert '"worst_residual": NaN' in out.read_text()
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("form_preservation", "nonexpansive"):
            assert checks[name]["pass"] is False
            assert checks[name]["worst_residual"] != checks[name]["worst_residual"]
        assert checks["strict_contraction"]["pass"] is True

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


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        config = RunConfig(
            "all", write(tmp_path, "d.json", LEBESGUE), seed=5, window=3, nodes=256
        )
        _, first = run(config)
        _, second = run(config)
        dumps = lambda rep: json.dumps(rep, indent=2, sort_keys=True)
        assert dumps(first) == dumps(second)

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["classify", "--input", write(tmp_path, "d.json", SINGLE_ATOM),
             "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["verdict"]["plastic"] is True


class TestRunConfig:
    def test_flag_validation(self):
        with pytest.raises(RangeError):
            RunConfig("classify", "x.json", window=0)
        with pytest.raises(RangeError):
            RunConfig("classify", "x.json", nodes=4)
        with pytest.raises(RangeError):
            RunConfig("nope", "x.json")
