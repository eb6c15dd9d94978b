"""Benchmark worker: one fresh process per set-up sample or measured run.

    python3 perfbench/worker.py {setup,measure} --workload W --seed N \
        --seconds S --trace {0,1} --dir WORK_DIR --result RESULT.json [--tiny]

Run from the root of a dualbid checkout; the package is imported from
`src/`. A set-up sample times `import dualbid.cli` plus writing the
workload's inputs. A measured run does the same set-up, then issues the
workload's CLI commands in process through `dualbid.cli.main`, one at a
time, in passes over the command list for `--seconds`: no pass starts that
would end past the deadline, but there are at least two, so every command
is repeated and its primary outputs can be compared byte for byte. With
`--trace 1`, passes alternate between untraced and traced; per-layer numbers
come from the traced passes and the tracing overhead from comparing the two.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

_t_import = time.perf_counter()
from dualbid import __version__, cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _setup(workload, in_dir: Path) -> float:
    t0 = time.perf_counter()
    workload.setup(lambda argv: cli.main(argv), in_dir)
    return IMPORT_S + time.perf_counter() - t0


def _command_problems(command, rc, error, out_dir: Path, refs: dict, index: int) -> list[str]:
    if error is not None:
        return [f"raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = command.check(out_dir)
    except Exception as exc:  # any unreadable or invalid output fails the command
        problems = [f"output check raised {exc!r}"]
    outputs = workloads.primary_outputs(out_dir)
    if index not in refs:
        refs[index] = outputs
    elif outputs != refs[index]:
        problems.append("primary outputs differ from the first run of this command")
    return problems


def _record_outputs(tracer, label: str, out_dir: Path) -> None:
    tracer.add("cli.output_bytes", sum(p.stat().st_size for p in out_dir.iterdir()))
    if label != "solve":
        return
    with open(out_dir / "decisions.csv") as handle:
        rows = handle.read().splitlines()[1:]
    tracer.add("dsp.bid_ratio", sum(1 for r in rows if r.split(",")[1]) / max(len(rows), 1))
    trace = json.loads((out_dir / "alpha.json").read_text())["dual_trace"]
    best = min(trace)
    tracer.add("mmkp.epochs_to_tol", next(i for i, v in enumerate(trace) if v <= best + 0.01 * abs(best)))
    tracer.add("mmkp.gap_rel", json.loads((out_dir / "summary.json").read_text())["duality_gap_rel"])


def measure(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path,
    per_layer: list[str], tamper=None,
) -> dict:
    """Set up, run the workload's commands for `seconds`, check every output.

    `tamper(index, out_dir)`, if given, runs after each command and before
    its checks; the smoke test uses it to corrupt outputs.
    """
    workload = workloads.make(name, seed, tiny, workloads.load_schema(ROOT))
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.install()
        setup_ids = [tracer.begin_command("setup")]
    in_dir, out_dir = work / "inputs", work / "out"
    setup_s = _setup(workload, in_dir)
    if tracer is not None:
        tracer.uninstall()

    commands = workload.commands(in_dir)
    refs: dict[int, dict] = {}
    samples: list[float] = []
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    traced_ids: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    last_pass = 0.0
    while passes < 2 or time.perf_counter() + last_pass <= deadline:
        pass_start = time.perf_counter()
        traced = trace and passes % 2 == 1
        pass_total = 0.0
        for index, command in enumerate(commands):
            if out_dir.exists():
                shutil.rmtree(out_dir)
            if traced:
                tracer.install()
                traced_ids.append(tracer.begin_command(command.label))
            rc, error = None, None
            t0 = time.perf_counter()
            try:
                rc = cli.main(command.argv + ["--out-dir", str(out_dir)])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crashing command is a failed operation
                error = repr(exc)
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            else:
                samples.append(elapsed)
            pass_total += elapsed
            attempted += 1
            if tamper is not None:
                tamper(index, out_dir)
            issues = _command_problems(command, rc, error, out_dir, refs, index)
            if issues:
                failed += 1
                problems += [f"{' '.join(command.argv)}: {issue}" for issue in issues]
            elif traced:
                _record_outputs(tracer, command.label, out_dir)
        pass_times[traced].append(pass_total)
        passes += 1
        last_pass = time.perf_counter() - pass_start

    result = {
        "workload": name,
        "seed": seed,
        "command_metric": workload.command_metric,
        "setup_s": setup_s,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "dualbid": __version__,
        },
    }
    if tracer is not None:
        overhead = statistics.median(pass_times[True]) / statistics.median(pass_times[False]) - 1.0
        values, ranked = tracing.layer_metrics(
            tracer, per_layer, setup_ids, traced_ids, overhead, workload.predicted_dominant,
        )
        tracer.save(work / "spans.npz")
        result |= {
            "per_layer": values,
            "ranked_self_s": ranked,
            "predicted_dominant": list(workload.predicted_dominant),
            "traced_commands": len(traced_ids),
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    work = Path(args.dir)
    if args.mode == "setup":
        workload = workloads.make(args.workload, args.seed, args.tiny, workloads.load_schema(ROOT))
        result = {"setup_s": _setup(workload, work / "inputs")}
    else:
        with open(ROOT / "BENCHMARK.json") as handle:
            per_layer = [m["name"] for m in json.load(handle)["per_layer"]]
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work, per_layer,
        )
    with open(args.result, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
