"""Command line surface: instance generation, dual solving, simulation,
strategy comparison, and landscape fitting.

Every command writes its primary outputs plus a `manifest.json` into the
output directory. The manifest records the command, the input paths, every
other parsed option except `--out-dir` as a flag, the files written, the tool
version, the Python, numpy and scipy versions, and wall time from the
command's start (`solve`, `simulate` and `compare` also per stage, on the
same clock). It is written incomplete just before the first output, which
makes the directory, and finalized last. Every input and flag check, and the
solver's divergence guard, runs before the first output, so an exit of 2 or
3 leaves no output directory; a run stopped after it leaves `complete:
false`. Primary outputs are byte-identical across reruns with the same
inputs and flags; the manifest (which carries timing) is the one exception.
That identity holds per numpy and BLAS build, so comparing the outputs of
two hosts needs the recorded versions.

`simulate` (one strategy, with its consumption per constraint row) and
`compare` (several, in lockstep) are one command body, `cmd_replay`.

Exit codes: 0 success, 2 malformed input or flags, 3 numeric failure
(solver divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__, sim
from .dsp import DspChoiceModel, write_decisions_csv
from .dsp import bid_decision  # noqa: F401 - perfbench/tracing.py wraps cli.bid_decision
from .landscape import fit_censored, fit_to_json, read_observations_csv, split_observations
from .mmkp import DivergenceError, dual_state_to_json, sgd_solve
from .sim import InvalidRangeError, MockConfig
from .strategies import ortb_fit_c, ortb_log_likelihood
from .utility import ObjectiveKind, PaymentMode

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _Manifest:
    """Manifest lifecycle and the command's one clock, started with the command.

    The first `output` writes it incomplete, `finish` complete. Every parsed
    option except `--out-dir` and the input paths `inputs` is a flag.
    """

    def __init__(self, args: argparse.Namespace, *inputs: str):
        self._t0, self._mark = time.monotonic(), 0.0
        self.out_dir = Path(args.out_dir)
        options = vars(args)
        skip = {"command", "func", "out_dir", *inputs}
        self.payload = {
            "command": args.command,
            "flags": {name: value for name, value in options.items() if name not in skip},
            "inputs": {name: options[name] for name in inputs},
            "tool_version": __version__,
            "complete": False,
            "outputs": [],
            "wall_time_s": None,
        }

    def stage(self, name: str) -> None:
        """End stage `name`, timed from the last stage's end or the command's start.

        Stages are differences of rounded marks, so they sum (to float
        rounding) to the last mark, which `wall_time_s` cannot undercut.
        """
        mark = round(time.monotonic() - self._t0, 6)
        self.payload.setdefault("stages_s", {})[name] = round(mark - self._mark, 6)
        self._mark = mark

    def output(self, name: str) -> Path:
        """The path of output file `name`, recorded in the manifest's outputs."""
        if not self.payload["outputs"]:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            _write_json(self.out_dir / "manifest.json", self.payload)
        self.payload["outputs"].append(name)
        return self.out_dir / name

    def finish(self) -> None:
        # Read here, not at creation, so that no stage is charged for `import scipy`.
        self.payload["versions"] = _versions()
        self.payload["complete"] = True
        self.payload["outputs"].sort()
        self.payload["wall_time_s"] = round(time.monotonic() - self._t0, 6)
        _write_json(self.out_dir / "manifest.json", self.payload)


def _versions() -> dict:
    import numpy
    import scipy

    python = ".".join(str(v) for v in sys.version_info[:3])
    return {"python": python, "numpy": numpy.__version__, "scipy": scipy.__version__}


def _summary_base(command: str, seed: int | None) -> dict:
    return {"command": command, "tool_version": __version__, "seed": seed}


def _strategy_totals(metrics: list[sim.EpochMetrics]) -> dict:
    revenue = sum(m.revenue for m in metrics)
    cost = sum(m.cost for m in metrics)
    return {
        "epochs": len(metrics),
        "revenue": revenue,
        "cost": cost,
        "performance": sum(m.performance for m in metrics),
        "wins": sum(m.wins for m in metrics),
        "actual_roi": revenue / cost if cost > 0 else 0.0,
        "final_param": metrics[-1].param if metrics else None,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    manifest = _Manifest(args, "config")
    overrides = {}
    if args.config is not None:
        with open(args.config) as handle:
            overrides = json.load(handle)
        if not isinstance(overrides, dict):
            raise InvalidRangeError(f"mock config must be a JSON object, got {overrides!r}")
        unknown = set(overrides) - set(MockConfig.__dataclass_fields__)
        if unknown:
            raise InvalidRangeError(f"unknown mock config keys: {sorted(unknown)}")
        if "constraints" in overrides:
            raise InvalidRangeError("constraints are set in instance.json, not in a mock config")
    flags = {"n_impressions": args.n_impressions, "objective_kind": args.objective,
             "seed": args.seed, "bid_cap": args.bid_cap}
    overrides |= {key: value for key, value in flags.items() if value is not None}
    if "mode" in overrides:
        overrides["mode"] = PaymentMode(overrides["mode"])
    if "objective_kind" in overrides:
        overrides["objective_kind"] = ObjectiveKind(overrides["objective_kind"])
    config = MockConfig(**overrides)
    instance = sim.gen_mock_instance(config)
    path = manifest.output("instance.json")
    sim.save_instance(path, instance, seed=config.seed)
    manifest.finish()
    print(f"wrote {path} ({len(instance.ids)} impressions)")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    manifest = _Manifest(args, "instance")
    instance = sim.load_instance(args.instance)
    if args.bid_cap is not None:
        instance = dataclasses.replace(instance, bid_cap=args.bid_cap)
    manifest.stage("load")
    model = DspChoiceModel(instance)
    manifest.stage("model_build")
    state = sgd_solve(model, step0=args.step0, epochs=args.epochs_sgd, shuffle_seed=args.seed)
    _write_json(manifest.output("alpha.json"), dual_state_to_json(state))
    manifest.stage("sgd")
    decisions = model.decide_rows(state.alpha)
    manifest.stage("decisions")
    report = sim.run_expectation(model, state.alpha, decisions)
    manifest.stage("evaluate")
    worst, violation = report.worst_row()
    feasible = violation <= sim.FEASIBILITY_TOL
    sim.write_constraints_csv(manifest.output("constraints.csv"), report.per_constraint)
    write_decisions_csv(manifest.output("decisions.csv"), instance, decisions)
    summary = _summary_base("solve", args.seed) | {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "duality_gap_rel": report.duality_gap_rel,
        "max_violation_rel": violation,
        "feasible": feasible,
        "alpha": [float(a) for a in state.alpha],
        "sgd": {"step0": args.step0, "epochs": args.epochs_sgd, "iterations": state.iteration},
        "constraints": [
            {name: getattr(row, name) for name in sim.CONSTRAINT_CSV_HEADER}
            for row in report.per_constraint
        ],
    }
    _write_json(manifest.output("summary.json"), summary)
    manifest.stage("write")
    manifest.finish()
    if not feasible:
        kind = instance.constraints[worst.k].kind.value
        print(
            f"warning: infeasible: constraint row {worst.k} ({kind}) exceeds its limit "
            f"by {violation:.4g} relative to max(1, |limit|)",
            file=sys.stderr,
        )
    print(
        f"primal {report.primal_value:.6f}  dual {report.dual_value:.6f}"
        f"  gap {report.duality_gap_rel:.4%}"
    )
    return EXIT_OK


def _load_strategy(name: str, params_json: str | None, target_roi: float | None) -> sim.Strategy:
    params = json.loads(params_json) if params_json else {}
    takes_target = "target_roi" in sim.STRATEGY_PARAMS.get(name, ())
    if target_roi is not None and takes_target and isinstance(params, dict):
        params.setdefault("target_roi", target_roi)
    return sim.make_strategy(name, params)


def cmd_replay(args: argparse.Namespace) -> int:
    """`simulate` of one strategy with its consumption rows, or `compare` of several."""
    simulate = args.command == "simulate"
    manifest = _Manifest(args, "instance")
    instance = sim.load_instance(args.instance)
    names = [args.strategy] if simulate else [n.strip() for n in args.strategies.split(",")]
    strategies = [_load_strategy(n, args.params, args.target_roi) for n in names if n]
    manifest.stage("load")
    if simulate:
        report = sim.run_monte_carlo(instance, *strategies, epochs=args.epochs, seed=args.seed)
    else:
        report = sim.compare_strategies(instance, strategies, epochs=args.epochs, seed=args.seed)
    manifest.stage("replay")
    totals = {}
    for name, metrics in report.per_strategy_metrics.items():
        sim.write_epoch_metrics_csv(manifest.output(f"epochs_{name}.csv"), metrics)
        totals[name] = _strategy_totals(metrics)
    if simulate:
        sim.write_constraints_csv(manifest.output("constraints.csv"), report.per_constraint)
    summary = _summary_base(args.command, args.seed) | {"strategies": totals, "epochs": args.epochs}
    _write_json(manifest.output("summary.json"), summary)
    manifest.stage("write")
    manifest.finish()
    for name, stats in totals.items():
        roi = "" if simulate else f"  roi {stats['actual_roi']:.3f}"
        print(f"{name}: revenue {stats['revenue']:.4f}{roi}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    manifest = _Manifest(args, "observations")
    observations = read_observations_csv(args.observations)
    if args.family == "lognormal":
        fit = fit_censored(observations)
        payload = fit_to_json(fit)
    else:
        won, lost = split_observations(observations)
        fit = ortb_fit_c(won, lost)
        payload = {
            "c": fit.c,
            "converged": fit.converged,
            "log_likelihood": ortb_log_likelihood(fit.c, won, lost),
        }
    payload |= _summary_base("fit", None) | {"family": args.family}
    _write_json(manifest.output("fit.json"), payload)
    manifest.finish()
    if not fit.converged:
        print("warning: fit did not converge", file=sys.stderr)
    print(json.dumps({k: payload[k] for k in payload if k not in ("command", "tool_version")}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbid",
        description="Dual-based DSP bidding: generate instances, solve duals, simulate strategies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="JSON file overriding mock-config fields")
    p.add_argument("--n-impressions", type=int, default=None)
    p.add_argument("--objective", choices=["revenue", "performance"], default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed (default 0)")
    p.add_argument("--bid-cap", type=float, default=None,
                   help="overrides the config bid cap (default 1e4)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the dual prices by SGD and report the gap")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--step0", type=float, default=0.1, help="initial SGD step size")
    p.add_argument("--epochs-sgd", type=int, default=200, help="SGD passes over the stream")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.add_argument("--bid-cap", type=float, default=None, help="override the instance bid cap")
    p.set_defaults(func=cmd_solve)

    simulate = sub.add_parser("simulate", help="Monte-Carlo run of one strategy")
    simulate.add_argument("--strategy", required=True, choices=list(sim.STRATEGY_PARAMS))
    compare = sub.add_parser("compare", help="run strategies on identical auction streams")
    compare.add_argument("--strategies", required=True, help="comma-separated strategy names")
    for p, params_help in ((simulate, "JSON dict of strategy parameters"),
                           (compare, "JSON dict of shared strategy parameters")):
        p.add_argument("--instance", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--epochs", type=int, default=60)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--target-roi", type=float, default=None)
        p.add_argument("--params", default=None, help=params_help)
        p.set_defaults(func=cmd_replay)

    p = sub.add_parser("fit", help="fit a landscape from an observation CSV")
    p.add_argument("--observations", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--family", choices=["lognormal", "ortb"], default="lognormal")
    p.set_defaults(func=cmd_fit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: a parser is costly to build and holds reference cycles."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, FileNotFoundError, IsADirectoryError, FileExistsError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
