"""Command line surface: instance generation, dual solving, simulation,
strategy comparison, and landscape fitting.

Every command writes its primary outputs plus a `manifest.json` into the
output directory. The manifest records the command, flags, inputs, seed, tool
version, the Python, numpy and scipy versions, and wall time (`solve` also
per stage); it is written incomplete first and finalized last, so an
interrupted run is always detectable. Primary outputs are byte-identical
across reruns with the same inputs and flags; the manifest (which carries
timing) is the one exception. That identity holds per numpy and BLAS build,
so comparing the outputs of two hosts needs the recorded versions.

Exit codes: 0 success, 2 malformed input or flags, 3 numeric failure
(solver divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__, sim
from .dsp import DspChoiceModel, write_decisions_csv
from .dsp import bid_decision  # noqa: F401 - perfbench/tracing.py wraps cli.bid_decision
from .landscape import fit_censored, fit_to_json, read_observations_csv, split_observations
from .mmkp import DivergenceError, dual_state_to_json, sgd_solve
from .sim import InstanceFormatError, InvalidRangeError, MockConfig
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
    """Manifest lifecycle: created incomplete, finalized with outputs and timing."""

    def __init__(self, out_dir: Path, command: str, flags: dict, inputs: dict):
        self.out_dir = out_dir
        self.payload = {
            "command": command,
            "flags": flags,
            "inputs": inputs,
            "tool_version": __version__,
            "versions": _versions(),
            "complete": False,
            "outputs": [],
            "wall_time_s": None,
        }
        self._t0 = time.monotonic()
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "manifest.json", self.payload)

    def finish(self, outputs: list[str]) -> None:
        self.payload["complete"] = True
        self.payload["outputs"] = sorted(outputs)
        self.payload["wall_time_s"] = round(time.monotonic() - self._t0, 6)
        _write_json(self.out_dir / "manifest.json", self.payload)


def _versions() -> dict:
    import numpy
    import scipy

    python = ".".join(str(v) for v in sys.version_info[:3])
    return {"python": python, "numpy": numpy.__version__, "scipy": scipy.__version__}


class _Stages:
    """Wall time of a command's consecutive stages, each from the end of the last."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._t = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = round(now - self._t, 6)
        self._t = now


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
    out_dir = Path(args.out_dir)
    config = MockConfig(bid_cap=args.bid_cap)
    if args.config is not None:
        with open(args.config) as handle:
            overrides = json.load(handle)
        known = set(MockConfig.__dataclass_fields__)
        unknown = set(overrides) - known
        if unknown:
            raise InvalidRangeError(f"unknown mock config keys: {sorted(unknown)}")
        if "mode" in overrides:
            overrides["mode"] = PaymentMode(overrides["mode"])
        if "objective_kind" in overrides:
            overrides["objective_kind"] = ObjectiveKind(overrides["objective_kind"])
        for key in ("ads", "mu_range", "sigma_range", "ppi_range"):
            if isinstance(overrides.get(key), list):
                overrides[key] = tuple(overrides[key])
        config = MockConfig(**{**config.__dict__, **overrides})
    if args.n_impressions is not None:
        config.n_impressions = args.n_impressions
    if args.objective is not None:
        config.objective_kind = ObjectiveKind(args.objective)
    if args.seed is not None:
        config.seed = args.seed
    manifest = _Manifest(
        out_dir, "gen", _flags(args, ["seed", "n_impressions", "objective", "bid_cap"]),
        {"config": args.config},
    )
    instance = sim.gen_mock_instance(config)
    sim.save_instance(out_dir / "instance.json", instance, seed=config.seed)
    manifest.finish(["instance.json"])
    print(f"wrote {out_dir / 'instance.json'} ({len(instance.impressions)} impressions)")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    stages = _Stages()
    instance = sim.load_instance(args.instance)
    if args.bid_cap is not None:
        instance = dataclasses.replace(instance, bid_cap=args.bid_cap)
    manifest = _Manifest(
        out_dir, "solve", _flags(args, ["seed", "step0", "epochs_sgd", "bid_cap"]),
        {"instance": str(args.instance)},
    )
    stages.end("load")
    model = DspChoiceModel(instance)
    stages.end("model_build")
    state = sgd_solve(model, step0=args.step0, epochs=args.epochs_sgd, shuffle_seed=args.seed)
    stages.end("sgd")
    report = sim.run_expectation(model, state.alpha)
    stages.end("evaluate")
    decisions = model.bid_decisions(state.alpha)
    stages.end("decisions")

    _write_json(out_dir / "alpha.json", dual_state_to_json(state))
    sim.write_constraints_csv(out_dir / "constraints.csv", report.per_constraint)
    write_decisions_csv(out_dir / "decisions.csv", decisions)
    summary = _summary_base("solve", args.seed) | {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "duality_gap_rel": report.duality_gap_rel,
        "alpha": [float(a) for a in state.alpha],
        "sgd": {"step0": args.step0, "epochs": args.epochs_sgd, "iterations": state.iteration},
        "constraints": [_row_json(r) for r in report.per_constraint],
    }
    _write_json(out_dir / "summary.json", summary)
    stages.end("write")
    manifest.payload["stages_s"] = stages.seconds
    manifest.finish(["alpha.json", "constraints.csv", "decisions.csv", "summary.json"])
    gap = report.duality_gap_rel
    print(
        f"primal {report.primal_value:.6f}  dual {report.dual_value:.6f}"
        + (f"  gap {gap:.4%}" if gap is not None else "")
    )
    return EXIT_OK


def _row_json(row: sim.ConstraintRow) -> dict:
    return {
        "k": row.k,
        "limit": row.limit,
        "consumption": row.consumption,
        "surplus": row.surplus,
        "alpha": row.alpha,
    }


def _load_strategy(name: str, params_json: str | None, target_roi: float | None) -> sim.Strategy:
    params = json.loads(params_json) if params_json else {}
    takes_target = "target_roi" in sim.STRATEGY_PARAMS.get(name, ())
    if target_roi is not None and takes_target and isinstance(params, dict):
        params.setdefault("target_roi", target_roi)
    return sim.make_strategy(name, params)


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    instance = sim.load_instance(args.instance)
    strategy = _load_strategy(args.strategy, args.params, args.target_roi)
    manifest = _Manifest(
        out_dir, "simulate",
        _flags(args, ["seed", "epochs", "strategy", "target_roi", "params"]),
        {"instance": str(args.instance)},
    )
    report = sim.run_monte_carlo(instance, strategy, epochs=args.epochs, seed=args.seed)
    metrics = report.per_strategy_metrics[strategy.name]
    sim.write_epoch_metrics_csv(out_dir / f"epochs_{strategy.name}.csv", metrics)
    sim.write_constraints_csv(out_dir / "constraints.csv", report.per_constraint)
    summary = _summary_base("simulate", args.seed) | {
        "strategies": {strategy.name: _strategy_totals(metrics)},
        "epochs": args.epochs,
    }
    _write_json(out_dir / "summary.json", summary)
    manifest.finish([f"epochs_{strategy.name}.csv", "constraints.csv", "summary.json"])
    print(f"{strategy.name}: revenue {summary['strategies'][strategy.name]['revenue']:.4f}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    instance = sim.load_instance(args.instance)
    names = [n.strip() for n in args.strategies.split(",") if n.strip()]
    strategies = [_load_strategy(n, args.params, args.target_roi) for n in names]
    manifest = _Manifest(
        out_dir, "compare",
        _flags(args, ["seed", "epochs", "strategies", "target_roi", "params"]),
        {"instance": str(args.instance)},
    )
    report = sim.compare_strategies(instance, strategies, epochs=args.epochs, seed=args.seed)
    outputs = []
    totals = {}
    for name, metrics in report.per_strategy_metrics.items():
        filename = f"epochs_{name}.csv"
        sim.write_epoch_metrics_csv(out_dir / filename, metrics)
        outputs.append(filename)
        totals[name] = _strategy_totals(metrics)
    summary = _summary_base("compare", args.seed) | {"strategies": totals, "epochs": args.epochs}
    _write_json(out_dir / "summary.json", summary)
    manifest.finish(outputs + ["summary.json"])
    for name, stats in totals.items():
        print(f"{name}: revenue {stats['revenue']:.4f}  roi {stats['actual_roi']:.3f}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    observations = read_observations_csv(args.observations)
    manifest = _Manifest(
        out_dir, "fit", _flags(args, ["family"]), {"observations": str(args.observations)},
    )
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
    _write_json(out_dir / "fit.json", payload)
    manifest.finish(["fit.json"])
    print(json.dumps({k: payload[k] for k in payload if k not in ("command", "tool_version")}))
    return EXIT_OK


def _flags(args: argparse.Namespace, names: list[str]) -> dict:
    return {name: getattr(args, name, None) for name in names}


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
    p.add_argument("--bid-cap", type=float, default=1e4)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the dual prices by SGD and report the gap")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--step0", type=float, default=0.1, help="initial SGD step size")
    p.add_argument("--epochs-sgd", type=int, default=200, help="SGD passes over the stream")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.add_argument("--bid-cap", type=float, default=None, help="override the instance bid cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte-Carlo run of one strategy")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strategy", required=True,
                   choices=list(sim.STRATEGY_PARAMS))
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-roi", type=float, default=None)
    p.add_argument("--params", default=None, help="JSON dict of strategy parameters")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run strategies on identical auction streams")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strategies", required=True, help="comma-separated strategy names")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-roi", type=float, default=None)
    p.add_argument("--params", default=None, help="JSON dict of shared strategy parameters")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", help="fit a landscape from an observation CSV")
    p.add_argument("--observations", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--family", choices=["lognormal", "ortb"], default="lognormal")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InstanceFormatError, InvalidRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
