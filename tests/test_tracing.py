"""The benchmark tracer's patch points still exist and still see calls.

`perfbench/tracing.py` wraps functions where their callers look them up, so a
refactor that moves or renames one of those names breaks the benchmark's
per-layer metrics without breaking any command. This runs a tiny
gen → solve → compare → simulate → fit pipeline with the tracer installed.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dualbid import cli
from dualbid.landscape import BidObservation, Outcome, write_observations_csv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BASELINES = ("db_single", "db_multi", "ortb", "lin")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_record_spans(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)

    rng = np.random.default_rng(3)
    competing = np.exp(rng.standard_normal(300))
    observations = [
        BidObservation(Outcome.WON, 1.5, float(x)) if x < 1.5 else BidObservation(Outcome.LOST, 1.5)
        for x in competing
    ]
    write_observations_csv(tmp_path / "obs.csv", observations)
    instance = str(tmp_path / "gen" / "instance.json")
    commands = {
        "gen": ["gen", "--n-impressions", "60", "--seed", "1"],
        "solve": ["solve", "--instance", instance, "--epochs-sgd", "3"],
        # A 60-impression window updates after every epoch, so ORTB refits.
        "compare": ["compare", "--instance", instance, "--strategies", ",".join(BASELINES),
                    "--epochs", "4", "--params", '{"update_window": 60}'],
        # `compare` replays its strategies in one loop; `simulate` runs each alone.
        **{
            f"simulate_{name}": ["simulate", "--instance", instance, "--strategy", name,
                                 "--epochs", "2", "--params", '{"update_window": 60}']
            for name in BASELINES
        },
        "fit_lognormal": ["fit", "--observations", str(tmp_path / "obs.csv")],
        "fit_ortb": ["fit", "--observations", str(tmp_path / "obs.csv"), "--family", "ortb"],
    }
    spans = {}
    main = cli.main
    tracer.install()
    try:
        for label, argv in commands.items():
            command = tracer.begin_command(label)
            out = tmp_path / label.split("_")[0]
            assert cli.main([*argv, "--out-dir", str(out)]) == 0, label
            spans[label] = tracer.totals([command])
    finally:
        tracer.uninstall()
    assert cli.main is main

    assert {"sim.gen_mock_instance", "sim.save_instance"} <= set(spans["gen"])
    solve_spans = {"dsp.model_build", "mmkp.sgd_solve", "mmkp.dual_objective", "dsp.beta_sum"}
    assert solve_spans <= set(spans["solve"])
    # The dual is evaluated at the start, after each of the 3 epochs and at the
    # tail average, once through each layer, though the steps reuse its passes.
    assert spans["solve"]["mmkp.dual_objective"][0] == 3 + 2
    assert spans["solve"]["dsp.beta_sum"][0] == 3 + 2
    expected = {
        "strategies.ortb_fit_c",
        "strategies.ortb_bid",
        "strategies.multiplicative_update",
        "sim.compare_strategies",
    }
    assert expected <= set(spans["compare"])
    for name in BASELINES:
        assert f"sim.run_monte_carlo.{name}" in spans[f"simulate_{name}"]
    fit_spans = {"landscape.read_observations_csv", "landscape.fit_censored"}
    assert fit_spans <= set(spans["fit_lognormal"])
    assert "strategies.ortb_fit_c" in spans["fit_ortb"]
