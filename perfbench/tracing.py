"""Span tracing of the dualbid layers, installed from outside the package.

`instrument` wraps each traced function where its caller looks it up (for
example the `utility` encoders in `dualbid.dsp`, `sgd_solve` in
`dualbid.cli`). Each call records a span: name, start, end, parent span and
the benchmark command that caused it. Spans stay in compact in-memory arrays
until the run ends; `Tracer.save` then writes them out. A span's self time is
its duration minus the time its child spans cover.

`install` and `uninstall` swap the wrappers in and out, so untraced commands
run the original functions with no tracing cost at all.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

_perf_counter = time.perf_counter

CountFn = Callable[[tuple, dict, object], Iterable[tuple[str, float]]]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.commands: list[str] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack = [-1]
        self._command = -1
        self._patches: list[tuple[object, str, object, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_command(self, label: str) -> int:
        """Attribute the following spans to a new command; returns its id."""
        self.commands.append(label)
        self._command = len(self.commands) - 1
        return self._command

    def add(self, key: str, value: float) -> None:
        """Add to a counter of the current command."""
        self.counts[(self._command, key)] += value

    def wrap(self, fn, name: str | Callable[[tuple, dict], str], count: CountFn | None = None):
        tracer = self
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.command.append(tracer._command)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = _perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if count is not None:
                for key, value in count(args, kwargs, result):
                    tracer.counts[(tracer._command, key)] += value
            return result

        return traced

    def patch(self, owner, attr: str, name, count: CountFn | None = None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original, self.wrap(original, name, count)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def _columns(self):
        columns = (self.name, self.parent, self.command, self.start, self.end)
        return tuple(np.asarray(col) for col in columns)

    def totals(self, commands: Iterable[int]) -> dict[str, tuple[int, float, float]]:
        """(calls, total seconds, self seconds) per span name over `commands`."""
        name, parent, command, start, end = self._columns()
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        self_time = duration - child
        mask = np.isin(command, np.fromiter(commands, dtype=np.intc))
        size = len(self.names)
        calls = np.bincount(name[mask], minlength=size)
        total = np.bincount(name[mask], weights=duration[mask], minlength=size)
        own = np.bincount(name[mask], weights=self_time[mask], minlength=size)
        return {
            n: (int(calls[i]), float(total[i]), float(own[i]))
            for i, n in enumerate(self.names)
            if calls[i]
        }

    def counter(self, key: str, commands: Iterable[int]) -> float:
        return sum(self.counts.get((c, key), 0.0) for c in commands)

    def save(self, path: Path) -> None:
        name, parent, command, start, end = self._columns()
        np.savez(
            path, name=name, parent=parent, command=command, start=start, end=end,
            names=np.array(self.names, dtype=str), commands=np.array(self.commands, dtype=str),
        )


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def instrument(tracer: Tracer) -> None:
    """Register a wrapper for every traced function of the seven layers."""
    from dualbid import cli, dsp, mmkp, sim
    from dualbid.dsp import DspChoiceModel

    tracer.patch(cli, "main", lambda args, kwargs: "cli." + _arg(args, kwargs, 0, "argv")[0])

    tracer.patch(cli, "read_observations_csv", "landscape.read_observations_csv",
                 lambda a, k, r: [("landscape.read_observations_csv.rows", len(r))])
    tracer.patch(cli, "fit_censored", "landscape.fit_censored",
                 lambda a, k, r: [("landscape.fit_censored.iterations", r.iterations),
                                  ("landscape.fit_censored.converged", float(r.converged))])

    for fn in ("encode_objective", "encode_constraint"):
        tracer.patch(dsp, fn, "utility.encode")

    tracer.patch(DspChoiceModel, "__init__", "dsp.model_build")
    tracer.patch(DspChoiceModel, "item_best", "dsp.item_best")
    tracer.patch(DspChoiceModel, "beta_sum", "dsp.beta_sum")
    for owner in (cli, sim):
        tracer.patch(owner, "bid_decision", "dsp.bid_decision")

    tracer.patch(cli, "sgd_solve", "mmkp.sgd_solve",
                 lambda a, k, r: [("mmkp.sgd_solve.item_steps", r.iteration)])
    tracer.patch(mmkp, "dual_objective", "mmkp.dual_objective")
    tracer.patch(mmkp, "primal_value_of_strategy", "mmkp.primal_value_of_strategy")

    ortb_count = lambda a, k, r: [  # noqa: E731
        ("strategies.ortb_fit_c.observations", len(_arg(a, k, 0, "observations")))
    ]
    for owner in (cli, sim):
        tracer.patch(owner, "ortb_fit_c", "strategies.ortb_fit_c", ortb_count)
    tracer.patch(sim, "ortb_bid", "strategies.ortb_bid")
    tracer.patch(sim, "multiplicative_update", "strategies.multiplicative_update",
                 lambda a, k, r: [("strategies.multiplicative_update.clamped", float(r.clamped))])

    for fn in ("gen_mock_instance", "save_instance", "load_instance", "run_expectation",
               "compare_strategies"):
        tracer.patch(sim, fn, f"sim.{fn}")
    tracer.patch(
        sim, "run_monte_carlo",
        lambda a, k: "sim.run_monte_carlo." + _arg(a, k, 1, "strategy").name,
        lambda a, k, r: [("sim.replay.auctions",
                          len(_arg(a, k, 0, "instance").impressions) * _arg(a, k, 2, "epochs"))],
    )
    for fn in ("write_constraints_csv", "write_epoch_metrics_csv"):
        tracer.patch(sim, fn, "sim.write")
    tracer.patch(cli, "write_decisions_csv", "sim.write")


_SETUP_SPANS = ("sim.gen_mock_instance", "sim.save_instance", "cli.gen")

#: Counters kept per command and reported as per-command means.
_PER_COMMAND_COUNTERS = (
    "landscape.read_observations_csv.rows",
    "mmkp.sgd_solve.item_steps",
    "strategies.ortb_fit_c.observations",
    "strategies.multiplicative_update.clamped",
    "sim.replay.auctions",
    "cli.output_bytes",
    "dsp.bid_ratio",
    "mmkp.epochs_to_tol",
    "mmkp.gap_rel",
)


def layer_metrics(
    tracer: Tracer, names: Iterable[str], setup: list[int], traced: list[int],
    overhead_ratio: float, predicted: tuple[str, ...],
) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Values of the per-layer metrics `names`, plus span names ranked by self time.

    Span metrics (`.calls`, `.s` for total time, `.self_s`) and counters are
    means per traced command; the set-up spans are means per set-up.
    """
    n_cmd = max(len(traced), 1)
    in_setup = tracer.totals(setup)
    in_commands = tracer.totals(traced)

    def span(name: str) -> tuple[float, float, float]:
        table, scale = (in_setup, len(setup)) if name in _SETUP_SPANS else (in_commands, n_cmd)
        calls, total, own = table.get(name, (0, 0.0, 0.0))
        return calls / max(scale, 1), total / max(scale, 1), own / max(scale, 1)

    def per_fit(key: str) -> float:
        fits = in_commands.get("landscape.fit_censored", (0, 0.0, 0.0))[0]
        return tracer.counter(key, traced) / fits if fits else 0.0

    def us_per_item_step() -> float:
        steps = tracer.counter("mmkp.sgd_solve.item_steps", traced)
        total = in_commands.get("mmkp.sgd_solve", (0, 0.0, 0.0))[1]
        return total / steps * 1e6 if steps else 0.0

    ranked = sorted(((n, own / n_cmd) for n, (_, _, own) in in_commands.items()),
                    key=lambda item: -item[1])
    derived = {
        "landscape.fit_censored.iterations": lambda: per_fit("landscape.fit_censored.iterations"),
        "landscape.fit_censored.converged_ratio": lambda: per_fit("landscape.fit_censored.converged"),
        "mmkp.sgd_solve.us_per_item_step": us_per_item_step,
        "trace.overhead_ratio": lambda: overhead_ratio,
        "trace.spans_per_command": lambda: sum(c for c, _, _ in in_commands.values()) / n_cmd,
        "trace.dominant_match": lambda: float(bool(ranked) and ranked[0][0] in predicted),
    }
    fields = {"calls": 0, "s": 1, "self_s": 2}

    values: dict[str, float] = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if metric in derived:
            values[metric] = derived[metric]()
        elif metric in _PER_COMMAND_COUNTERS:
            values[metric] = tracer.counter(metric, traced) / n_cmd
        elif field in fields:
            values[metric] = span(base)[fields[field]]
        else:
            raise KeyError(f"no rule computes per-layer metric {metric!r}")
    return values, ranked
