import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy
import pytest
import scipy

import jsonschema

from dualbid import cli, sim, strategies
from dualbid.dsp import DspChoiceModel, Impression
from dualbid.landscape import LandscapePrior, write_observations_csv, BidObservation, Outcome
from dualbid.mmkp import DivergenceError
from dualbid.sim import CONSTRAINT_CSV_HEADER, EPOCH_CSV_HEADER
from instance_rows import with_rows

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/dualbid/schemas/summary.schema.json").read_text()
)


def run(argv):
    return cli.main(argv)


def read_dir(path: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(path.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert run(["gen", "--out-dir", str(out), "--n-impressions", "80", "--seed", "5"]) == 0
    return out / "instance.json"


class TestGen:
    def test_writes_instance_and_manifest(self, tmp_path):
        assert run(["gen", "--out-dir", str(tmp_path), "--n-impressions", "10"]) == 0
        payload = json.loads((tmp_path / "instance.json").read_text())
        assert len(payload["impressions"]) == 10
        assert payload["seed"] == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] and manifest["outputs"] == ["instance.json"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen", "--out-dir", str(out), "--seed", "3"]) == 0
        assert read_dir(a) == read_dir(b)

    def test_config_overrides(self, tmp_path):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps({"n_impressions": 7, "ppi_range": [0.0, 0.2]}))
        assert run(["gen", "--out-dir", str(tmp_path / "o"), "--config", str(config)]) == 0
        payload = json.loads((tmp_path / "o" / "instance.json").read_text())
        assert len(payload["impressions"]) == 7

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps({"imps": 7}))
        assert run(["gen", "--out-dir", str(tmp_path / "o"), "--config", str(config)]) == 2
        assert "unknown mock config" in capsys.readouterr().err

    def test_config_seed_applies_without_the_flag(self, tmp_path):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps({"seed": 5, "n_impressions": 3}))
        assert run(["gen", "--out-dir", str(tmp_path / "cfg"), "--config", str(config)]) == 0
        flag = tmp_path / "flag"
        assert run(["gen", "--out-dir", str(flag), "--n-impressions", "3", "--seed", "5"]) == 0
        assert read_dir(tmp_path / "cfg") == read_dir(flag)
        assert json.loads((flag / "instance.json").read_text())["seed"] == 5

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps({"seed": 5, "n_impressions": 3}))
        out = tmp_path / "cfg"
        assert run(["gen", "--out-dir", str(out), "--config", str(config), "--seed", "2"]) == 0
        flag = tmp_path / "flag"
        assert run(["gen", "--out-dir", str(flag), "--n-impressions", "3", "--seed", "2"]) == 0
        assert read_dir(out) == read_dir(flag)
        assert json.loads((out / "instance.json").read_text())["seed"] == 2

    def test_bid_cap_flag_overrides_config_bid_cap(self, tmp_path):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps({"bid_cap": 10, "n_impressions": 5}))
        cases = [([], 1e4), (["--config", str(config)], 10), (["--config", str(config), "--bid-cap", "5"], 5)]
        for k, (flags, bid_cap) in enumerate(cases):
            out = tmp_path / str(k)
            assert run(["gen", "--out-dir", str(out), "--n-impressions", "5", *flags]) == 0
            assert json.loads((out / "instance.json").read_text())["bid_cap"] == bid_cap
        manifest = json.loads((tmp_path / "0" / "manifest.json").read_text())
        assert manifest["flags"]["bid_cap"] is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_impressions": 7.5},
            {"n_impressions": True},
            {"ads": "abc"},
            {"ads": 5},
            {"ads": [1.0, "2"]},
            {"ads": [1.0, False]},
            {"ads": [1.0, -2.0]},
            {"ads": [1.0, math.inf]},
            {"mu_range": "ab"},
            {"mu_range": [-1.0]},
            {"sigma_range": [0.3, 0.6, 0.9]},
            {"ppi_range": [0.0, None]},
            {"bid_cap": "x"},
            {"constraints": [{"kind": "budget"}]},
            5,
            [{}],
            ["seed"],
        ],
    )
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys, overrides):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps(overrides))
        assert run(["gen", "--out-dir", str(tmp_path / "o"), "--config", str(config)]) == 2
        message = next(iter(overrides)) if isinstance(overrides, dict) else "JSON object"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "instance.json").exists()


class TestSolve:
    def test_outputs_and_schema(self, small_instance, tmp_path):
        out = tmp_path / "solve"
        assert run(
            ["solve", "--instance", str(small_instance), "--out-dir", str(out), "--epochs-sgd", "80"]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        assert summary["duality_gap_rel"] <= 0.01
        alpha = json.loads((out / "alpha.json").read_text())
        assert set(alpha) == {"alpha", "iterations", "dual_trace"}
        header = (out / "constraints.csv").read_text().splitlines()[0]
        assert header == ",".join(CONSTRAINT_CSV_HEADER)
        decisions = (out / "decisions.csv").read_text().splitlines()
        assert len(decisions) == 1 + 80

    def test_rerun_is_byte_identical(self, small_instance, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                ["solve", "--instance", str(small_instance), "--out-dir", str(out), "--epochs-sgd", "40"]
            ) == 0
        assert read_dir(a) == read_dir(b)

    def test_extreme_sigma_solves_with_finite_outputs(self, tmp_path):
        # At sigma = 40 the landscape mean exp(mu + sigma^2/2) overflows a double.
        assert run(["gen", "--out-dir", str(tmp_path / "gen"), "--seed", "0"]) == 0
        instance = sim.load_instance(tmp_path / "gen" / "instance.json")
        imp, *rest = instance.impressions
        wide = dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
        instance = with_rows(instance, [wide, *rest])
        sim.save_instance(tmp_path / "instance.json", instance, seed=0)
        out = tmp_path / "solve"
        assert run(["solve", "--instance", str(tmp_path / "instance.json"), "--out-dir", str(out)]) == 0

        def numbers(value):
            if isinstance(value, dict):
                return [x for v in value.values() for x in numbers(v)]
            if isinstance(value, list):
                return [x for v in value for x in numbers(v)]
            return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []

        for name in ("alpha.json", "summary.json"):
            values = numbers(json.loads((out / name).read_text()))
            assert values and all(math.isfinite(v) for v in values), name
        for name in ("constraints.csv", "decisions.csv"):
            with open(out / name, newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert rows
            for row in rows:
                for key, cell in row.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (name, key, cell)

    def test_instance_without_impressions_solves_to_zero_prices(self, tmp_path):
        gen, out = tmp_path / "gen", tmp_path / "solve"
        assert run(["gen", "--out-dir", str(gen), "--n-impressions", "0"]) == 0
        assert run(["solve", "--instance", str(gen / "instance.json"), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        assert summary["alpha"] and all(a == 0.0 for a in summary["alpha"])
        assert summary["dual_value"] == 0.0
        assert summary["duality_gap_rel"] == 0.0
        assert summary["max_violation_rel"] == 0.0 and summary["feasible"] is True
        assert json.loads((out / "alpha.json").read_text())["alpha"] == summary["alpha"]

    @pytest.mark.parametrize(
        "config, row",
        [
            ({"seed": 0}, None),
            ({"seed": 1}, (1, "budget")),
            ({"seed": 3}, (2, "dsp_roi")),
            ({"mode": "p4u", "ads": [0.1, 0.2], "objective_kind": "performance"}, (2, "dsp_roi")),
        ],
        ids=["feasible", "budget", "dsp_roi", "p4u_performance"],
    )
    def test_broken_row_is_reported(self, tmp_path, capsys, config, row):
        # One price vector can leave a row over its limit; `solve` still exits
        # 0, but says so in summary.json and names the worst row on stderr.
        (tmp_path / "config.json").write_text(json.dumps(config))
        gen, out = tmp_path / "gen", tmp_path / "solve"
        assert run(["gen", "--out-dir", str(gen), "--config", str(tmp_path / "config.json")]) == 0
        capsys.readouterr()
        assert run(["solve", "--instance", str(gen / "instance.json"), "--out-dir", str(out)]) == 0
        err = capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        excess = [
            (c["consumption"] - c["limit"]) / max(1.0, abs(c["limit"])) for c in summary["constraints"]
        ]
        assert summary["max_violation_rel"] == max(0.0, *excess)
        assert summary["feasible"] is (row is None)
        if row is None:
            assert summary["max_violation_rel"] <= sim.FEASIBILITY_TOL
            assert "warning" not in err
        else:
            k, kind = row
            assert excess[k] == summary["max_violation_rel"] > 1e-3
            assert f"warning: infeasible: constraint row {k} ({kind})" in err

    def test_truncated_instance_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "p4p", "ads": [')
        assert run(["solve", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line" in err or "char" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["solve", "--instance", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2

    def test_divergence_exits_3(self, small_instance, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise DivergenceError("boom")

        monkeypatch.setattr(cli, "sgd_solve", explode)
        assert run(["solve", "--instance", str(small_instance), "--out-dir", str(tmp_path / "o")]) == 3

    def test_interrupted_run_leaves_incomplete_manifest(self, small_instance, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(cli.sim, "run_expectation", crash)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError):
            run(["solve", "--instance", str(small_instance), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False

    def test_manifest_records_stage_times(self, small_instance, tmp_path):
        out = tmp_path / "o"
        argv = ["solve", "--instance", str(small_instance), "--out-dir", str(out), "--epochs-sgd", "3"]
        assert run(argv) == 0
        stages = json.loads((out / "manifest.json").read_text())["stages_s"]
        assert list(stages) == sorted(["load", "model_build", "sgd", "evaluate", "decisions", "write"])
        assert all(isinstance(t, float) and t >= 0.0 for t in stages.values())


@pytest.mark.parametrize("command", ["gen", "solve", "simulate", "compare", "fit"])
def test_manifest_records_versions(command, small_instance, tmp_path, monkeypatch):
    # The version probe is slowed past any stage of these commands: no stage pays for it.
    versions = cli._versions

    def slow_versions():
        time.sleep(0.2)
        return versions()

    monkeypatch.setattr(cli, "_versions", slow_versions)
    obs = tmp_path / "obs.csv"
    write_observations_csv(obs, [BidObservation(Outcome.WON, 2.0, 1.0), BidObservation(Outcome.LOST, 1.0)])
    argv = {
        "gen": ["gen", "--n-impressions", "5"],
        "solve": ["solve", "--instance", str(small_instance), "--epochs-sgd", "2"],
        "simulate": ["simulate", "--instance", str(small_instance), "--strategy", "lin", "--epochs", "2"],
        "compare": ["compare", "--instance", str(small_instance), "--strategies", "lin,ortb", "--epochs", "2"],
        "fit": ["fit", "--observations", str(obs), "--family", "ortb"],
    }[command]
    assert run([*argv, "--out-dir", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    python = ".".join(str(v) for v in sys.version_info[:3])
    assert manifest["versions"] == {
        "python": python, "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    assert ("stages_s" in manifest) == (command in ("solve", "simulate", "compare"))
    if "stages_s" in manifest:
        assert manifest["stages_s"]["load"] < 0.2


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_replay_manifest_records_stage_times(command, small_instance, tmp_path):
    argv = {
        "simulate": ["simulate", "--strategy", "ortb"],
        "compare": ["compare", "--strategies", "lin,ortb"],
    }[command]
    out = tmp_path / "o"
    assert run([*argv, "--instance", str(small_instance), "--epochs", "2", "--out-dir", str(out)]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages_s"]
    assert list(stages) == ["load", "replay", "write"]
    assert all(isinstance(t, float) and t >= 0.0 for t in stages.values())


def _option_names(command: str) -> set[str]:
    """The destinations of every option `command` parses, `--help` aside."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in commands.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize("command", ["gen", "solve", "simulate", "compare", "fit"])
def test_manifest_records_every_flag_and_output(command, small_instance, tmp_path):
    obs = tmp_path / "obs.csv"
    write_observations_csv(obs, [BidObservation(Outcome.WON, 2.0, 1.0), BidObservation(Outcome.LOST, 1.0)])
    config = tmp_path / "mock.json"
    config.write_text(json.dumps({"n_impressions": 4}))
    instance = ["--instance", str(small_instance)]
    argv, inputs = {
        "gen": (["gen", "--config", str(config), "--bid-cap", "3"], {"config": str(config)}),
        "solve": (["solve", *instance, "--epochs-sgd", "2", "--step0", "0.2"],
                  {"instance": str(small_instance)}),
        "simulate": (["simulate", *instance, "--strategy", "lin", "--epochs", "2"],
                     {"instance": str(small_instance)}),
        "compare": (["compare", *instance, "--strategies", "lin,ortb", "--epochs", "2",
                     "--target-roi", "2"], {"instance": str(small_instance)}),
        "fit": (["fit", "--observations", str(obs), "--family", "ortb"], {"observations": str(obs)}),
    }[command]
    out = tmp_path / "o"
    assert run([*argv, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["inputs"] == inputs
    assert set(manifest["flags"]) == _option_names(command) - {"out_dir", *inputs}
    parsed = vars(cli.build_parser().parse_args([*argv, "--out-dir", str(out)]))
    assert manifest["flags"] == {name: parsed[name] for name in manifest["flags"]}
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == written and manifest["complete"]


def test_one_parser_serves_every_command_without_leaking_flags(small_instance, tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    instance = ["--instance", str(small_instance)]
    runs = [
        (["gen", "--n-impressions", "5", "--seed", "9", "--bid-cap", "3"],
         {"n_impressions": 5, "objective": None, "seed": 9, "bid_cap": 3.0}),
        (["solve", *instance, "--epochs-sgd", "2"],
         {"step0": 0.1, "epochs_sgd": 2, "seed": 0, "bid_cap": None}),
        (["compare", *instance, "--strategies", "lin,ortb", "--epochs", "2", "--seed", "4",
          "--target-roi", "2", "--params", '{"update_window": 80}'],
         {"strategies": "lin,ortb", "epochs": 2, "seed": 4, "target_roi": 2.0,
          "params": '{"update_window": 80}'}),
        (["simulate", *instance, "--strategy", "lin", "--epochs", "2"],
         {"strategy": "lin", "epochs": 2, "seed": 0, "target_roi": None, "params": None}),
    ]
    for i, (argv, flags) in enumerate(runs):
        out = tmp_path / str(i)
        assert run([*argv, "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["flags"] == flags, argv[0]
    assert len(builds) <= 1


@pytest.mark.parametrize("under_file", [False, True], ids=["existing-file", "path-under-a-file"])
def test_out_dir_that_is_or_lies_under_a_file_exits_2(under_file, tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = a_file / "o" if under_file else a_file
    assert run(["gen", "--n-impressions", "3", "--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", ["--step0", "nan"]),
        ("solve", ["--step0", "inf"]),
        ("solve", ["--bid-cap", "nan"]),
        ("gen", ["--bid-cap", "nan"]),
        ("simulate", ["--strategy", "lin", "--target-roi", "nan"]),
        ("simulate", ["--strategy", "fixed_alpha", "--params", '{"alpha": [NaN, 0, 0, 0]}']),
    ],
    ids=["solve-step0-nan", "solve-step0-inf", "solve-bid-cap-nan", "gen-bid-cap-nan",
         "simulate-target-roi-nan", "simulate-fixed-alpha-nan"],
)
def test_non_finite_flag_exits_2(command, flags, small_instance, tmp_path, capsys):
    inputs = [] if command == "gen" else ["--instance", str(small_instance)]
    assert run([command, "--out-dir", str(tmp_path / "o"), *inputs, *flags]) == 2
    assert "error:" in capsys.readouterr().err


COMPARE = ["compare", "--strategies", "db_single,lin"]
SIMULATE_DB = ["simulate", "--strategy", "db_single"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (COMPARE + ["--params", '{"foo": 1}'], "'db_single' takes no parameter 'foo'"),
        (COMPARE + ["--params", "[1, 2]"], "JSON object"),
        (COMPARE + ["--params", "[1, 2]", "--target-roi", "2"], "JSON object"),
        (COMPARE + ["--params", '{"alpha0": 2}'], "'lin' takes no parameter 'alpha0'"),
        (SIMULATE_DB + ["--params", '{"alpha0": 0}'], "alpha0"),
        (SIMULATE_DB + ["--params", '{"alpha0": -1}'], "alpha0"),
        (SIMULATE_DB + ["--params", '{"alpha0": Infinity}'], "alpha0"),
        (SIMULATE_DB + ["--params", '{"alpha0": "x"}'], "'alpha0' must be a finite number"),
        (SIMULATE_DB + ["--params", '{"update_window": "x"}'], "'update_window' must be a finite"),
        (SIMULATE_DB + ["--params", '{"update_window": true}'], "'update_window' must be a finite"),
        (["simulate", "--strategy", "ortb", "--params", '{"c0": NaN}'], "'c0' must be a finite"),
        (["simulate", "--strategy", "fixed_alpha", "--params", '{"alpha": [0.1, 0.2]}'],
         "needs 4 prices"),
        (["simulate", "--strategy", "fixed_alpha", "--params",
          '{"alpha": [0, 0, 0, 0], "name": "x/y"}'], "'fixed_alpha' takes no parameter 'name'"),
        (["simulate", "--strategy", "fixed_alpha", "--params",
          '{"alpha": [0, 0, 0, 0], "name": ""}'], "'fixed_alpha' takes no parameter 'name'"),
        (["simulate", "--strategy", "fixed_alpha", "--params", '{"alpha": {"0": 1}}'],
         "'alpha' must be a list of numbers"),
        (["simulate", "--strategy", "fixed_alpha", "--params", '{"alpha": [0, {}, 0, 0]}'],
         "'alpha' must be a list of numbers"),
        (["simulate", "--strategy", "fixed_alpha", "--params", '{"alpha": [true, 0, 0, 0]}'],
         "'alpha' must be a list of numbers"),
    ],
    ids=["unknown-key", "list", "list-with-target-roi", "key-of-another-strategy", "alpha0-zero",
         "alpha0-negative", "alpha0-inf", "alpha0-string", "window-string", "window-bool",
         "c0-nan", "fixed-alpha-length", "fixed-alpha-name-slash", "fixed-alpha-name-empty",
         "fixed-alpha-object", "fixed-alpha-holds-object", "fixed-alpha-bool"],
)
def test_malformed_params_exit_2_before_any_epoch(flags, message, small_instance, tmp_path, capsys):
    out = tmp_path / "o"
    assert run([*flags, "--instance", str(small_instance), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("epochs_*.csv"))


def test_target_roi_flag_passes_over_fixed_alpha(small_instance, tmp_path):
    # fixed_alpha has no target; the shared flag applies only where one is taken.
    flags = ["--params", '{"alpha": [0, 0, 0, 0]}', "--target-roi", "2"]
    out = tmp_path / "o"
    argv = ["simulate", "--instance", str(small_instance), "--out-dir", str(out), "--strategy"]
    assert run([*argv, "fixed_alpha", *flags]) == 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, dualbid.cli; sys.exit('scipy.optimize' in sys.modules)"
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_non_numeric_ad_economics_exits_2(command, small_instance, tmp_path, capsys):
    payload = json.loads(small_instance.read_text())
    payload["ads"][0]["cpp"] = "1"
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    flags = ["--strategy", "db_single"] if command == "simulate" else []
    assert run([command, "--instance", str(bad), "--out-dir", str(tmp_path / "o"), *flags]) == 2
    assert "cpp" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("impressions", 0, "ppi"), "12"),
        (("impressions", 0, "ppi"), ["0.1", "0.2"]),
        (("impressions", 0, "ppi"), [True, False]),
        (("impressions", 0, "mu"), "-3"),
        (("impressions", 0, "sigma"), True),
        (("constraints", 0, "bound"), "20"),
        (("bid_cap",), "10"),
        (("impressions", 1, "id"), [1, 2]),
        (("impressions", 1, "id"), {"a": 1}),
        (("impressions", 1, "id"), True),
        (("impressions", 1, "id"), None),
        (("impressions", 1, "id"), 1.5),
    ],
    ids=["ppi-string", "ppi-strings", "ppi-bools", "mu-string", "sigma-bool", "bound-string",
         "bid-cap-string", "impression-id-list", "impression-id-object", "impression-id-true",
         "impression-id-null", "impression-id-float"],
)
def test_non_numeric_instance_numbers_exit_2(path, value, small_instance, tmp_path, capsys):
    payload = json.loads(small_instance.read_text())
    *parents, key = path
    target = payload
    for part in parents:
        target = target[part]
    target[key] = value
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    assert run(["solve", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


#: Where a JSON document may hold a number, as (command, path in the document, field
#: the error names). Each site gets `HUGE`, which `float` cannot convert.
HUGE_INTEGER_SITES = {
    "instance-mu": ("solve", ("impressions", 0, "mu"), "mu"),
    "instance-ppi": ("solve", ("impressions", 0, "ppi", 1), "ppi"),
    "instance-bound": ("solve", ("constraints", 0, "bound"), "constraint bound"),
    "instance-cpp": ("solve", ("ads", 0, "cpp"), "cpp"),
    "instance-bid-cap": ("solve", ("bid_cap",), "bid_cap"),
    "config-ads": ("gen", ("ads", 1), "ads"),
    "config-mu-range": ("gen", ("mu_range", 1), "mu_range"),
    "params-alpha0": ("compare", ("alpha0",), "alpha0"),
    "params-alpha": ("simulate", ("alpha", 3), "alpha"),
}
HUGE = 10**400


@pytest.mark.parametrize("site", HUGE_INTEGER_SITES)
def test_integer_beyond_the_largest_double_exits_2(site, small_instance, tmp_path, capsys):
    command, path, field = HUGE_INTEGER_SITES[site]
    document = {
        "solve": json.loads(small_instance.read_text()),
        "gen": {"n_impressions": 5, "ads": [1.0, 2.0], "mu_range": [-4.0, -2.0]},
        "compare": {"alpha0": 1.0},
        "simulate": {"alpha": [0.0, 0.0, 0.0, 0.0]},
    }[command]
    *parents, key = path
    target = document
    for part in parents:
        target = target[part]
    target[key] = HUGE
    text = json.dumps(document)
    assert "1" + "0" * 400 in text
    (tmp_path / "doc.json").write_text(text)
    instance = ["--instance", str(small_instance)]
    argv = {
        "solve": ["--instance", str(tmp_path / "doc.json")],
        "gen": ["--config", str(tmp_path / "doc.json")],
        "compare": [*instance, "--strategies", "db_single,db_multi", "--params", text],
        "simulate": [*instance, "--strategy", "fixed_alpha", "--params", text],
    }[command]
    assert run([command, *argv, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "ad_id", [0, None, "", True, 1.5], ids=["zero", "null", "empty", "true", "float"]
)
def test_ad_id_that_is_not_a_non_empty_string_exits_2(ad_id, small_instance, tmp_path, capsys):
    # The constraints' scopes follow the new id, so only the id itself is wrong.
    payload = json.loads(small_instance.read_text())
    old, payload["ads"][0]["id"] = payload["ads"][0]["id"], ad_id
    for spec in payload["constraints"]:
        spec["scope"] = [ad_id if a == old else a for a in spec["scope"]]
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    assert run(["solve", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "ad id must be a non-empty string" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [1, "imp", [0.5, 1.0], None], ids=["int", "string", "list", "null"])
def test_impression_entry_that_is_not_an_object_exits_2(entry, small_instance, tmp_path, capsys):
    payload = json.loads(small_instance.read_text())
    payload["impressions"][3] = entry
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    assert run(["solve", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "impression 3 must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ad_ids, scope",
    [(None, "ad1"), (None, ["ad1", 2]), (None, {"ad1": 1}), (("a", "b"), "ab")],
    ids=["string", "list-with-number", "object", "string-of-ad-ids"],
)
def test_scope_that_is_not_a_list_of_ad_ids_exits_2(ad_ids, scope, small_instance, tmp_path, capsys):
    # Read as a set of characters, the scope "ab" would name both ads "a" and "b".
    payload = json.loads(small_instance.read_text())
    for ad, ad_id in zip(payload["ads"], ad_ids or ()):
        ad["id"] = ad_id
    for spec in payload["constraints"]:
        spec["scope"] = scope
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    assert run(["solve", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "constraint scope must be a list of ad ids" in capsys.readouterr().err


def test_overflowing_coefficient_exits_2(small_instance, tmp_path, capsys):
    # cpp * ppi = 1e400 overflows a double, although cpp and ppi are finite.
    # The build meets the overflow in its own arithmetic; it must reject it.
    payload = json.loads(small_instance.read_text())
    payload["ads"][0]["cpp"] = 1e200
    payload["impressions"][7]["ppi"][0] = 1e200
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    with numpy.errstate(over="ignore"):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            DspChoiceModel(sim.instance_from_json(payload))
        assert run(["solve", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "coefficients must be finite" in capsys.readouterr().err


def test_gen_solve_and_compare_build_no_row_objects(tmp_path, monkeypatch):
    # The instance travels as columns from the generator and the loader to the
    # model and the replay: no `Impression` and no `LandscapePrior` is built.
    built = []
    for cls in (Impression, LandscapePrior):

        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    instance = str(tmp_path / "gen" / "instance.json")
    assert run(["gen", "--n-impressions", "50", "--out-dir", str(tmp_path / "gen")]) == 0
    assert run(["solve", "--instance", instance, "--out-dir", str(tmp_path / "solve")]) == 0
    compare = ["compare", "--instance", instance, "--strategies", "db_single,ortb,lin", "--epochs", "5"]
    assert run([*compare, "--out-dir", str(tmp_path / "compare")]) == 0
    assert built == []
    sim.load_instance(instance).impressions  # the row views, on request
    assert len(built) == 2 * 50


def test_missing_impression_id_defaults_to_the_row_index(small_instance, tmp_path):
    payload = json.loads(small_instance.read_text())
    payload["impressions"][0]["id"], payload["impressions"][1]["id"] = "first", 2**40
    del payload["impressions"][2]["id"]
    good = tmp_path / "instance.json"
    good.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run(["solve", "--instance", str(good), "--out-dir", str(out), "--epochs-sgd", "2"]) == 0
    with open(out / "decisions.csv", newline="") as handle:
        ids = [row["impression_id"] for row in csv.DictReader(handle)]
    assert ids[:4] == ["first", str(2**40), "2", "3"]


#: Observation logs that `fit` must reject with exit 2, by name.
BAD_LOGS = {
    "short_row": "outcome,bid_price,paid_cost\nLOST,0.5,\nWON\n",
    "no_outcome": "bid_price,paid_cost,outcome\n1.0\n",
    "unknown_outcome": "outcome,bid_price,paid_cost\nLOST,0.5,\nTIE,1.0,\n",
    "bad_number": "outcome,bid_price,paid_cost\nWON,1.0,0.5\nLOST,1.O,\n",
    "negative_bid": "outcome,bid_price,paid_cost\nLOST,-0.5,\n",
    "nan_bid": "outcome,bid_price,paid_cost\nLOST,nan,\n",
    "inf_bid": "outcome,bid_price,paid_cost\nWON,inf,1.0\n",
    "won_without_cost": "outcome,bid_price,paid_cost\nWON,1.0,\n",
    "cost_above_bid": "outcome,bid_price,paid_cost\nWON,1.0,1.5\n",
    "nan_cost": "outcome,bid_price,paid_cost\nWON,1.0,nan\n",
    "lost_with_cost": "outcome,bid_price,paid_cost\nLOST,1.0,0.5\n",
    "header_only": "outcome,bid_price,paid_cost\n",
    "all_lost": "outcome,bid_price,paid_cost\nLOST,1.0,\nLOST,2.0,\n",
    "zero_cost": "outcome,bid_price,paid_cost\nWON,1.0,0.5\nWON,1.0,0\n",
    "negative_bid_first": "outcome,bid_price,paid_cost\nWON,1.0,0.5\nLOST,-2.0,\nWON,x,0.5\n",
}


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("solve", ["--instance", "{dir}"], "Is a directory"),
        ("simulate", ["--strategy", "lin", "--instance", "{dir}"], "Is a directory"),
        ("fit", ["--observations", "{dir}"], "Is a directory"),
        ("fit", ["--observations", "{short_row}"], "line 3 has no bid_price"),
        ("fit", ["--observations", "{no_outcome}"], "line 2 has no outcome"),
        ("fit", ["--observations", "{no_outcome}", "--family", "ortb"], "line 2 has no outcome"),
        ("fit", ["--observations", "{unknown_outcome}"], "'TIE' is not a valid Outcome"),
        ("fit", ["--observations", "{bad_number}"], "could not convert string to float: '1.O'"),
        ("fit", ["--observations", "{negative_bid}"], "bid_price must be >= 0, got -0.5"),
        ("fit", ["--observations", "{nan_bid}"], "bid_price must be >= 0, got nan"),
        ("fit", ["--observations", "{inf_bid}"], "bid_price must be >= 0, got inf"),
        ("fit", ["--observations", "{won_without_cost}"], "a won auction must record its paid cost"),
        ("fit", ["--observations", "{cost_above_bid}"], "paid_cost 1.5 must lie in [0, bid_price=1.0]"),
        ("fit", ["--observations", "{nan_cost}"], "paid_cost nan must lie in [0, bid_price=1.0]"),
        ("fit", ["--observations", "{lost_with_cost}"], "a lost auction has no paid cost"),
        ("fit", ["--observations", "{header_only}"], "observations must be nonempty"),
        ("fit", ["--observations", "{all_lost}", "--family", "ortb"], "at least one won auction"),
        ("fit", ["--observations", "{zero_cost}"], "strictly positive paid costs"),
        ("fit", ["--observations", "{negative_bid_first}"], "bid_price must be >= 0, got -2.0"),
    ],
    ids=["solve-instance-directory", "simulate-instance-directory", "fit-observations-directory",
         "fit-row-without-bid-price", "fit-row-without-outcome", "fit-ortb-row-without-outcome",
         "fit-unknown-outcome", "fit-unparsable-number", "fit-negative-bid", "fit-nan-bid",
         "fit-inf-bid", "fit-won-without-cost", "fit-cost-above-bid", "fit-nan-cost",
         "fit-lost-with-cost", "fit-header-only", "fit-ortb-all-lost", "fit-zero-won-cost",
         "fit-negative-bid-before-bad-number"],
)
def test_unreadable_input_file_exits_2(command, flags, message, tmp_path, capsys):
    logs = {}
    for name, text in BAD_LOGS.items():
        logs[name] = tmp_path / f"{name}.csv"
        logs[name].write_text(text)
    flags = [flag.format(dir=tmp_path, **logs) for flag in flags]
    assert run([command, "--out-dir", str(tmp_path / "o"), *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("strategy", list(sim.STRATEGY_PARAMS))
def test_replay_without_ads_exits_2(strategy, small_instance, tmp_path, capsys):
    payload = json.loads(small_instance.read_text())
    payload["ads"], payload["constraints"] = [], []
    for imp in payload["impressions"]:
        imp["ppi"] = []
    empty = tmp_path / "instance.json"
    empty.write_text(json.dumps(payload))
    params = ["--params", '{"alpha": []}'] if strategy == "fixed_alpha" else []
    argv = ["simulate", "--instance", str(empty), "--out-dir", str(tmp_path / "o")]
    assert run([*argv, "--strategy", strategy, "--target-roi", "2", *params]) == 2
    assert "at least one ad" in capsys.readouterr().err


def _with_every_impression(**fields):
    return lambda doc: doc | {"impressions": [imp | fields for imp in doc["impressions"]]}


#: Changes of the small instance's document to the edges of its numbers.
NUMERIC_EDGES = {
    "no_impressions": lambda doc: doc | {"impressions": []},
    "no_constraints": lambda doc: doc | {"constraints": []},
    "zero_ppi": lambda doc: _with_every_impression(ppi=[0.0] * len(doc["ads"]))(doc),
    # Every competing bid underflows to 0 or overflows to inf.
    "mu_-800": _with_every_impression(mu=-800.0),
    "mu_800": _with_every_impression(mu=800.0),
}


@pytest.mark.parametrize("edge", list(NUMERIC_EDGES))
def test_numeric_edge_instances_run_without_runtime_warnings(edge, small_instance, tmp_path):
    """`solve`, `simulate` of every strategy and `compare` exit 0 at each edge.

    A window of one epoch makes every feedback strategy update, and ORTB refit,
    after each epoch. At mu = -800 every positive bid wins at cost 0.
    """
    document = json.loads(small_instance.read_text())
    payload = NUMERIC_EDGES[edge](document)
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(payload))
    k = len(payload["constraints"])
    replay = ["--instance", str(instance), "--epochs", "3", *(["--target-roi", "2"] if k == 0 else [])]
    window = ["--params", json.dumps({"update_window": len(document["impressions"])})]
    commands = {
        "solve": ["solve", "--instance", str(instance), "--epochs-sgd", "3"],
        "compare": ["compare", "--strategies", "db_single,db_multi,ortb,lin", *replay, *window],
    }
    for strategy in sim.STRATEGY_PARAMS:
        params = ["--params", json.dumps({"alpha": [0.0] * k})] if strategy == "fixed_alpha" else window
        commands[strategy] = ["simulate", "--strategy", strategy, *replay, *params]
    for label, argv in commands.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([*argv, "--out-dir", str(tmp_path / label)]) == 0, label
    if edge == "mu_-800":
        with open(tmp_path / "ortb" / "epochs_ortb.csv", newline="") as handle:
            epochs = list(csv.DictReader(handle))
        assert epochs and all(float(e["cost"]) == 0.0 and int(e["wins"]) > 0 for e in epochs)


def test_integer_instance_numbers_are_accepted(small_instance, tmp_path):
    payload = json.loads(small_instance.read_text())
    payload["impressions"][0].update(mu=-3, sigma=1, ppi=[0] * len(payload["ads"]))
    payload["constraints"][0]["bound"] = 20
    payload["bid_cap"] = 10
    good = tmp_path / "instance.json"
    good.write_text(json.dumps(payload))
    assert run(["solve", "--instance", str(good), "--out-dir", str(tmp_path / "o")]) == 0


class TestSimulateAndCompare:
    def test_window_won_at_cost_zero_moves_every_parameter(self, tmp_path):
        # At mu about -800 every competing bid underflows to 0, so each
        # positive bid wins for free: an unbounded ROI. Each strategy's
        # parameter clamps after its first window (LIN's is 10 epochs); the
        # reported ROI stays 0 and every epoch is still marked degenerate.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mu_range": [-800, -799], "n_impressions": 50}))
        assert run(["gen", "--out-dir", str(tmp_path / "gen"), "--config", str(config)]) == 0
        out = tmp_path / "compare"
        assert run([
            "compare", "--instance", str(tmp_path / "gen" / "instance.json"),
            "--out-dir", str(out), "--strategies", "db_single,db_multi,ortb,lin",
            "--epochs", "11", "--params", '{"update_window": 50}',
        ]) == 0
        lower, upper = strategies.PARAM_BOUNDS
        payload = json.loads((tmp_path / "gen" / "instance.json").read_text())
        lin = min(payload["bid_cap"], upper)
        params = {name: [1.0] + [lower] * 10 for name in ("db_single", "db_multi", "ortb")}
        params["lin"] = [1.0] * 10 + [lin]
        for name, want in params.items():
            with open(out / f"epochs_{name}.csv", newline="") as handle:
                epochs = list(csv.DictReader(handle))
            assert [float(e["param"]) for e in epochs] == want, name
            assert all(float(e["cost"]) == 0.0 and float(e["revenue"]) > 0.0 for e in epochs)
            assert all(float(e["actual_roi"]) == 0.0 and e["degenerate"] == "1" for e in epochs)

    def test_lin_param_stays_under_bid_cap(self, tmp_path):
        # A base bid far above the cap: the replay bids at most the cap, and
        # the recorded level says so from the first epoch on.
        gen = ["gen", "--out-dir", str(tmp_path / "gen"), "--n-impressions", "2000", "--bid-cap", "0.05"]
        assert run(gen) == 0
        out = tmp_path / "lin"
        assert run(
            [
                "simulate", "--instance", str(tmp_path / "gen" / "instance.json"),
                "--out-dir", str(out), "--strategy", "lin", "--params", '{"bid_base": 50000}',
            ]
        ) == 0
        with open(out / "epochs_lin.csv", newline="") as handle:
            params = [float(row["param"]) for row in csv.DictReader(handle)]
        assert len(params) == 60 and max(params) <= 0.05

    def test_simulate_outputs(self, small_instance, tmp_path):
        out = tmp_path / "simulate"
        assert run(
            [
                "simulate", "--instance", str(small_instance), "--out-dir", str(out),
                "--strategy", "db_single", "--epochs", "12", "--seed", "7",
            ]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        assert summary["seed"] == 7
        lines = (out / "epochs_db_single.csv").read_text().splitlines()
        assert lines[0] == ",".join(EPOCH_CSV_HEADER)
        assert len(lines) == 1 + 12

    def test_compare_outputs_and_determinism(self, small_instance, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(
                [
                    "compare", "--instance", str(small_instance), "--out-dir", str(out),
                    "--strategies", "db_single,ortb,lin", "--epochs", "10", "--seed", "1",
                ]
            ) == 0
            outs.append(out)
        assert read_dir(outs[0]) == read_dir(outs[1])
        summary = json.loads((outs[0] / "summary.json").read_text())
        jsonschema.validate(summary, SCHEMA)
        assert set(summary["strategies"]) == {"db_single", "ortb", "lin"}
        for name in summary["strategies"]:
            assert (outs[0] / f"epochs_{name}.csv").exists()

    def test_unknown_strategy_exits_2(self, small_instance, tmp_path):
        assert run(
            [
                "compare", "--instance", str(small_instance), "--out-dir", str(tmp_path / "o"),
                "--strategies", "db_single,flat_earth", "--epochs", "4",
            ]
        ) == 2

    def test_single_strategy_comparison_exits_2(self, small_instance, tmp_path):
        assert run(
            [
                "compare", "--instance", str(small_instance), "--out-dir", str(tmp_path / "o"),
                "--strategies", "db_single", "--epochs", "4",
            ]
        ) == 2


class TestFit:
    @pytest.fixture()
    def observations_csv(self, tmp_path, rng):
        import numpy as np

        x = np.exp(0.2 + 0.6 * rng.standard_normal(4000))
        bid = 1.3
        observations = [
            BidObservation(Outcome.WON, bid, float(v)) if v < bid else BidObservation(Outcome.LOST, bid)
            for v in x
        ]
        path = tmp_path / "observations.csv"
        write_observations_csv(path, observations)
        return path

    def test_lognormal_fit(self, observations_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--observations", str(observations_csv), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "fit.json").read_text())
        jsonschema.validate(payload, SCHEMA)
        assert abs(payload["mu"] - 0.2) < 0.1
        assert abs(payload["sigma"] - 0.6) < 0.1
        assert payload["converged"]
        assert payload["grad_norm"] <= 1e-8

    def test_ortb_fit(self, observations_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(
            ["fit", "--observations", str(observations_csv), "--out-dir", str(out), "--family", "ortb"]
        ) == 0
        payload = json.loads((out / "fit.json").read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["c"] > 0

    def test_fit_determinism(self, observations_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["fit", "--observations", str(observations_csv), "--out-dir", str(out)]) == 0
        assert read_dir(a) == read_dir(b)

    @pytest.mark.parametrize("family", ["lognormal", "ortb"])
    def test_zero_bid_losses_leave_the_fit_unchanged(self, observations_csv, tmp_path, family):
        # Losing at a bid of 0 says nothing about the competing bid, so such
        # rows must not move any reported figure, `grad_norm` included.
        padded = tmp_path / "padded.csv"
        padded.write_text(observations_csv.read_text() + "LOST,0.0,\r\n" * 3000, newline="")
        fits = []
        for path in (observations_csv, padded):
            out = tmp_path / path.stem
            argv = ["fit", "--observations", str(path), "--out-dir", str(out), "--family", family]
            assert run(argv) == 0
            fits.append((out / "fit.json").read_bytes())
        assert fits[0] == fits[1]

    def test_ortb_root_below_the_bracket_is_reported_unconverged(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("outcome,bid_price,paid_cost\nWON,2.0,1e-300\nLOST,0.5,\n")
        out = tmp_path / "fit"
        argv = ["fit", "--observations", str(path), "--out-dir", str(out), "--family", "ortb"]
        assert run(argv) == 0
        payload = json.loads((out / "fit.json").read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["c"] == 1e-12
        assert payload["converged"] is False
        assert math.isfinite(payload["log_likelihood"])
        assert "warning: fit did not converge" in capsys.readouterr().err

    def test_unbounded_lognormal_likelihood_is_reported_unconverged(self, tmp_path, capsys):
        # Two wins at one cost and a loss below it: the likelihood grows
        # without bound as sigma -> 0, so the fit stalls short of grad_tol.
        path = tmp_path / "tied.csv"
        path.write_text("outcome,bid_price,paid_cost\nWON,2.0,1.0\nWON,2.0,1.0\nLOST,0.5,\n")
        out = tmp_path / "fit"
        assert run(["fit", "--observations", str(path), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "fit.json").read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["converged"] is False
        assert payload["sigma"] < 1e-6
        assert 0 < payload["iterations"] < 10000
        assert payload["grad_norm"] > 1e-8
        assert "warning: fit did not converge" in capsys.readouterr().err

    def test_bad_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("outcome\nWON\n")
        assert run(["fit", "--observations", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def test_ortb_commands_leave_scipy_optimize_unloaded(tmp_path):
    # ORTB's curve fit finds its root without scipy.optimize, so neither the
    # replay's refits nor `fit --family ortb` load it.
    (tmp_path / "obs.csv").write_text(
        "outcome,bid_price,paid_cost\nWON,2.0,0.5\nWON,2.0,1.5\nLOST,1.0,\n"
    )
    code = f"""
import sys
from dualbid import cli
work = {str(tmp_path)!r}
instance = work + "/gen/instance.json"
replay = ["--instance", instance, "--epochs", "3", "--params", '{{"update_window": 60}}']
commands = [
    ["gen", "--n-impressions", "60", "--out-dir", work + "/gen"],
    ["compare", "--strategies", "db_single,ortb", *replay, "--out-dir", work + "/compare"],
    ["simulate", "--strategy", "ortb", *replay, "--out-dir", work + "/simulate"],
    ["fit", "--observations", work + "/obs.csv", "--family", "ortb", "--out-dir", work + "/fit"],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
assert "scipy.optimize" not in sys.modules
"""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert fit["converged"]
    assert (tmp_path / "compare" / "epochs_ortb.csv").exists()


def test_scipy_special_loads_only_to_price_bids_or_fit_a_log(tmp_path):
    # `landscape` imports scipy.special at its first kernel or fit call, so
    # commands that never evaluate the normal CDF start without it.
    (tmp_path / "obs.csv").write_text(
        "outcome,bid_price,paid_cost\nWON,2.0,0.5\nWON,2.0,1.5\nLOST,1.0,\n"
    )
    code = f"""
import sys
from dualbid import cli
assert "scipy.special" not in sys.modules, "import"
work = {str(tmp_path)!r}
instance = work + "/gen/instance.json"
replay = ["--instance", instance, "--epochs", "3", "--params", '{{"update_window": 60}}']
observations = ["--observations", work + "/obs.csv"]
without = [
    ["gen", "--n-impressions", "60", "--out-dir", work + "/gen"],
    ["compare", "--strategies", "db_single,db_multi,ortb,lin", *replay, "--out-dir", work + "/compare"],
    ["simulate", "--strategy", "ortb", *replay, "--out-dir", work + "/simulate"],
    ["fit", *observations, "--family", "ortb", "--out-dir", work + "/fit_ortb"],
]
for argv in without:
    assert cli.main(argv) == 0, argv
    assert "scipy.special" not in sys.modules, argv
solve = ["solve", "--instance", instance, "--epochs-sgd", "3", "--out-dir", work + "/solve"]
assert cli.main(solve) == 0
assert "scipy.special" in sys.modules
fit = ["fit", *observations, "--family", "lognormal", "--out-dir", work + "/fit_lognormal"]
assert cli.main(fit) == 0
"""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "solve" / "summary.json").read_text())["dual_value"] > 0.0
    assert json.loads((tmp_path / "fit_lognormal" / "fit.json").read_text())["converged"]


def test_sigma_whose_square_overflows_exits_2(small_instance, tmp_path, capsys):
    # sigma^2 / 2 enters the landscape mean, so an overflowing square made the
    # solve write a NaN dual value.
    payload = json.loads(small_instance.read_text())
    for imp in payload["impressions"][::2]:
        imp["sigma"] = 1e155
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run(["solve", "--instance", str(bad), "--out-dir", str(out), "--epochs-sgd", "3"]) == 2
    assert "sigma" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
