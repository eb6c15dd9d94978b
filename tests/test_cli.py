import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest

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


class TestSimulateAndCompare:
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

    def test_bad_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("outcome\nWON\n")
        assert run(["fit", "--observations", str(path), "--out-dir", str(tmp_path / "o")]) == 2
