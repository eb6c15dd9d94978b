"""Benchmark workloads: seeded input generators, the CLI commands each
workload issues, and the checks that decide whether a command succeeded.

Each workload writes its inputs with the package's public writers
(`dualbid gen`, `sim.save_instance`, `landscape.write_observations_csv`), so
the program under test only ever sees generated files. A command counts as
one operation; it fails when it raises, exits non-zero, or any check on its
outputs reports a problem.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np
from scipy.special import ndtri

from dualbid import landscape, sim
from dualbid.landscape import BidObservation, Outcome
from dualbid.utility import ConstraintKind, ConstraintSpec, ObjectiveKind, PaymentMode

MAX_GAP = 0.01
ROI_BAND = 0.05
FIT_TOL = 0.1

# solve_wide: eight P4P ads, PERFORMANCE objective, budgets that grow with N.
WIDE_CPP = (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75)
WIDE_BUDGET_PER_CPP_ITEM = 0.0125
WIDE_DSP_ROI = 3.0
WIDE_ADV_ROI = 0.5

# fit_logs: (censoring share, per-row bids) of each generated pool, and its
# size. A stalled fit costs about 0.8 us x rows x 1e4 iterations, so the size
# bounds how long a run with a stall takes.
FIT_POOLS = tuple((share, per_row) for share in (0.2, 0.4) for per_row in (False, True))
FIT_ROWS = 2000

SIZES = {
    # name: (full, tiny)
    "solve_default.n": (200, 40),
    "solve_wide.n": (2000, 200),
    "solve_wide.epochs": (40, 100),
    "replay_compare.n": (2000, 500),
    "replay_compare.epochs": (60, 40),
}

CheckFn = Callable[[Path], list[str]]


@dataclass
class Command:
    """One CLI invocation (without `--out-dir`) and the check on its outputs."""

    label: str
    argv: list[str]
    check: CheckFn


def load_schema(root: Path) -> dict:
    with open(root / "src" / "dualbid" / "schemas" / "summary.schema.json") as handle:
        return json.load(handle)


def primary_outputs(out_dir: Path) -> dict[str, bytes]:
    """Every output file except the manifest, which carries timing."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _validated(path: Path, schema: dict) -> dict:
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, schema)
    return payload


class Workload:
    """Inputs and commands of one benchmark workload for a given seed."""

    name = ""
    #: What the per-command wall time is called on this workload.
    command_metric = ""
    #: Span names whose self time is predicted to dominate.
    predicted_dominant: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool, schema: dict):
        self.seed = seed
        self.tiny = tiny
        self.schema = schema

    def size(self, key: str) -> int:
        return SIZES[f"{self.name}.{key}"][1 if self.tiny else 0]

    def setup(self, cli_main: Callable[[list[str]], int], in_dir: Path) -> None:
        raise NotImplementedError

    def commands(self, in_dir: Path) -> list[Command]:
        raise NotImplementedError


def _run_gen(cli_main, argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"input generation {argv} exited {rc}")


class _SolveWorkload(Workload):
    command_metric = "solve_s"
    predicted_dominant = ("mmkp.sgd_solve", "dsp.item_best")

    def _solve_check(self, n: int) -> CheckFn:
        def check(out: Path) -> list[str]:
            problems = []
            summary = _validated(out / "summary.json", self.schema)
            gap = summary.get("duality_gap_rel")
            if gap is None or gap > MAX_GAP:
                problems.append(f"duality gap {gap} exceeds {MAX_GAP}")
            rows = _csv_rows(out / "decisions.csv")
            if len(rows) != n:
                problems.append(f"decisions.csv has {len(rows)} rows, expected {n}")
            return problems

        return check


class SolveDefault(_SolveWorkload):
    """`gen` with the default config, then `solve` with its defaults."""

    name = "solve_default"

    def setup(self, cli_main, in_dir):
        argv = ["gen", "--out-dir", str(in_dir), "--seed", str(self.seed)]
        if self.tiny:
            argv += ["--n-impressions", str(self.size("n"))]
        _run_gen(cli_main, argv)

    def commands(self, in_dir):
        argv = ["solve", "--instance", str(in_dir / "instance.json")]
        return [Command("solve", argv, self._solve_check(self.size("n")))]


def wide_instance(n: int, seed: int):
    """Eight ads with per-ad budgets proportional to N and a DSP-ROI floor of 3,
    so that the high-CPP budgets and both ROI rows bind (K = 10)."""
    ids = [f"ad{j + 1}" for j in range(len(WIDE_CPP))]
    constraints = [
        ConstraintSpec(
            ConstraintKind.BUDGET, PaymentMode.P4P, WIDE_BUDGET_PER_CPP_ITEM * cpp * n,
            frozenset([ad_id]),
        )
        for ad_id, cpp in zip(ids, WIDE_CPP)
    ]
    constraints += [
        ConstraintSpec(ConstraintKind.DSP_ROI, PaymentMode.P4P, WIDE_DSP_ROI, frozenset(ids)),
        ConstraintSpec(ConstraintKind.ADVERTISER_ROI, PaymentMode.P4P, WIDE_ADV_ROI, frozenset(ids)),
    ]
    config = sim.MockConfig(
        n_impressions=n, ads=WIDE_CPP, objective_kind=ObjectiveKind.PERFORMANCE,
        constraints=constraints, seed=seed,
    )
    return sim.gen_mock_instance(config)


class SolveWide(_SolveWorkload):
    """A wide PERFORMANCE instance written with `sim.save_instance`, solved
    with the fewest SGD epochs that keep the gap within 1%."""

    name = "solve_wide"

    def setup(self, cli_main, in_dir):
        in_dir.mkdir(parents=True, exist_ok=True)
        instance = wide_instance(self.size("n"), self.seed)
        sim.save_instance(in_dir / "instance.json", instance, seed=self.seed)

    def commands(self, in_dir):
        argv = [
            "solve", "--instance", str(in_dir / "instance.json"),
            "--epochs-sgd", str(self.size("epochs")),
        ]
        return [Command("solve", argv, self._solve_check(self.size("n")))]


REPLAY_STRATEGIES = ("db_single", "db_multi", "ortb", "lin")
REPLAY_ROI_CHECKED = ("db_single", "ortb")
REPLAY_BURN = 0.4


class ReplayCompare(Workload):
    """A default-generator instance, replayed by all four feedback strategies
    on common random numbers."""

    name = "replay_compare"
    command_metric = "replay_s"
    predicted_dominant = ("strategies.ortb_fit_c",)

    def setup(self, cli_main, in_dir):
        _run_gen(cli_main, [
            "gen", "--out-dir", str(in_dir), "--seed", str(self.seed),
            "--n-impressions", str(self.size("n")),
        ])

    def commands(self, in_dir):
        epochs = self.size("epochs")
        argv = [
            "compare", "--instance", str(in_dir / "instance.json"),
            "--strategies", ",".join(REPLAY_STRATEGIES), "--epochs", str(epochs),
            "--seed", str(self.seed),
        ]
        instance = json.loads((in_dir / "instance.json").read_text())
        target = next(c["bound"] for c in instance["constraints"] if c["kind"] == "dsp_roi")

        def check(out: Path) -> list[str]:
            problems = []
            _validated(out / "summary.json", self.schema)
            for name in REPLAY_STRATEGIES:
                rows = _csv_rows(out / f"epochs_{name}.csv")
                if len(rows) != epochs:
                    problems.append(f"epochs_{name}.csv has {len(rows)} rows, expected {epochs}")
                    continue
                if name not in REPLAY_ROI_CHECKED:
                    continue
                tail = rows[int(REPLAY_BURN * epochs):]
                cost = sum(float(r["cost"]) for r in tail)
                roi = sum(float(r["revenue"]) for r in tail) / cost if cost > 0 else 0.0
                if abs(roi - target) > ROI_BAND * target:
                    problems.append(f"{name} realized ROI {roi:.4f} outside 5% of {target}")
            return problems

        return [Command("compare", argv, check)]


def observation_pool(rng: np.random.Generator, rows: int, share: float, per_row: bool):
    """Competing bids from a log-normal landscape, censored at our bids.

    The bid level sits at the landscape quantile that loses `share` of the
    auctions; per-row bids scatter log-normally around it.
    """
    mu = float(rng.uniform(-0.5, 0.5))
    sigma = float(rng.uniform(0.4, 0.7))
    competing = np.exp(mu + sigma * rng.standard_normal(rows))
    level = mu + sigma * float(ndtri(1.0 - share))
    spread = 0.5 * rng.standard_normal(rows) if per_row else np.zeros(rows)
    bids = np.exp(level + spread)
    observations = [
        BidObservation(Outcome.WON, float(b), float(x)) if x < b
        else BidObservation(Outcome.LOST, float(b))
        for x, b in zip(competing, bids)
    ]
    return mu, sigma, observations


class FitLogs(Workload):
    """Censored observation logs, each fitted with both landscape families."""

    name = "fit_logs"
    command_metric = "fit_s"
    predicted_dominant = ("landscape.read_observations_csv", "landscape.fit_censored")

    def _pool_path(self, in_dir: Path, k: int) -> Path:
        return in_dir / f"observations_{k}.csv"

    def setup(self, cli_main, in_dir):
        in_dir.mkdir(parents=True, exist_ok=True)
        truth = {}
        for k, (share, per_row) in enumerate(FIT_POOLS):
            rng = np.random.default_rng([self.seed, k])
            mu, sigma, observations = observation_pool(rng, FIT_ROWS, share, per_row)
            landscape.write_observations_csv(self._pool_path(in_dir, k), observations)
            truth[k] = (mu, sigma)
        self.truth = truth

    def commands(self, in_dir):
        out = []
        for k in range(len(FIT_POOLS)):
            base = ["fit", "--observations", str(self._pool_path(in_dir, k))]
            out.append(Command("fit", base + ["--family", "lognormal"], self._lognormal_check(k)))
            out.append(Command("fit", base + ["--family", "ortb"], self._fit_check))
        return out

    def _fit_check(self, out: Path) -> list[str]:
        _validated(out / "fit.json", self.schema)
        return []

    def _lognormal_check(self, k: int) -> CheckFn:
        mu, sigma = self.truth[k]

        def check(out: Path) -> list[str]:
            payload = _validated(out / "fit.json", self.schema)
            if abs(payload["mu"] - mu) >= FIT_TOL or abs(payload["sigma"] - sigma) >= FIT_TOL:
                return [
                    f"pool {k}: fit ({payload['mu']:.4f}, {payload['sigma']:.4f}) not within "
                    f"{FIT_TOL} of ({mu:.4f}, {sigma:.4f})"
                ]
            return []

        return check


WORKLOADS = {cls.name: cls for cls in (SolveDefault, SolveWide, ReplayCompare, FitLogs)}


def make(name: str, seed: int, tiny: bool, schema: dict) -> Workload:
    return WORKLOADS[name](seed, tiny, schema)
