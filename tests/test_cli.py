import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import jsonschema

from dualbid import cli, sim
from dualbid.landscape import LandscapePrior, write_observations_csv, BidObservation, Outcome
from dualbid.mmkp import DivergenceError
from dualbid.sim import CONSTRAINT_CSV_HEADER, EPOCH_CSV_HEADER

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
        ],
    )
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys, overrides):
        config = tmp_path / "mock.json"
        config.write_text(json.dumps(overrides))
        assert run(["gen", "--out-dir", str(tmp_path / "o"), "--config", str(config)]) == 2
        assert next(iter(overrides)) in capsys.readouterr().err
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
        imp = instance.impressions[0]
        instance.impressions[0] = dataclasses.replace(imp, prior=LandscapePrior(imp.prior.mu, 40.0))
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
        assert summary["duality_gap_rel"] is None
        assert json.loads((out / "alpha.json").read_text())["alpha"] == summary["alpha"]

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


@pytest.mark.parametrize("command", ["gen", "solve", "simulate", "fit"])
def test_manifest_records_versions(command, small_instance, tmp_path):
    obs = tmp_path / "obs.csv"
    write_observations_csv(obs, [BidObservation(Outcome.WON, 2.0, 1.0), BidObservation(Outcome.LOST, 1.0)])
    argv = {
        "gen": ["gen", "--n-impressions", "5"],
        "solve": ["solve", "--instance", str(small_instance), "--epochs-sgd", "2"],
        "simulate": ["simulate", "--instance", str(small_instance), "--strategy", "lin", "--epochs", "2"],
        "fit": ["fit", "--observations", str(obs), "--family", "ortb"],
    }[command]
    assert run([*argv, "--out-dir", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    python = ".".join(str(v) for v in sys.version_info[:3])
    assert manifest["versions"] == {
        "python": python, "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    assert ("stages_s" in manifest) == (command == "solve")


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
    ],
    ids=["unknown-key", "list", "list-with-target-roi", "key-of-another-strategy", "alpha0-zero",
         "alpha0-negative", "alpha0-inf", "alpha0-string", "window-string", "window-bool",
         "c0-nan", "fixed-alpha-length", "fixed-alpha-name-slash", "fixed-alpha-name-empty"],
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
    # Only the ORTB fit needs scipy.optimize, so it is imported there.
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


class TestSimulateAndCompare:
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

    def test_ortb_root_below_the_bracket_is_reported_unconverged(self, tmp_path):
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

    def test_bad_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("outcome\nWON\n")
        assert run(["fit", "--observations", str(path), "--out-dir", str(tmp_path / "o")]) == 2
