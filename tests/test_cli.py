import json

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


def write(tmp_path, name, doc):
    path = tmp_path / name
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
        ],
        ids=["window_0", "nodes_8", "cantor_window_40", "sequence_window_80"],
    )
    def test_rejected_run_exits_1_with_one_line(self, tmp_path, capsys, doc, args):
        assert main([*args, "--input", write(tmp_path, "d.json", doc)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_fails_its_check(self, tmp_path, capsys):
        # At K = 51 the innermost Lebesgue cells are one ulp wide, so the
        # random test functions divide by a zero span and turn NaN.
        out = tmp_path / "report.json"
        argv = ["verify", "--window", "51", "--nodes", "256", "--output", str(out)]
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
