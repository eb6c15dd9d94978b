"""dualbid benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload {solve_default,solve_wide,replay_compare,fit_logs,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a dualbid checkout. Every workload runs in fresh child
processes (`perfbench/worker.py`): a few set-up-only processes give the
set-up time samples, then one process sets up once more and issues the
workload's CLI commands one at a time (closed loop, one client) for
`--seconds`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Lines before it give the same numbers for people, with sample counts, tail
percentiles, the environment, and under tracing the dominant layer.
`--workload all` runs every workload in turn and ends with one JSON object
per workload, keyed by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(root: Path, child_env: dict[str, str]) -> dict:
    """Commit, source digest, CPU and BLAS threading of this run."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    cpu = platform_cpu()
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": _nproc(),
        "cpu_model": cpu,
        "blas_threads": {var: child_env[var] for var in BLAS_THREAD_VARS},
    }


def platform_cpu() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _worker(mode: str, args, workload: str, work: Path, env: dict, deadline: float) -> dict:
    result_path = work / f"{mode}_result.json"
    argv = [
        sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--dir", str(work), "--result", str(result_path),
    ] + (["--tiny"] if args.tiny else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"{workload}: out of time before the {mode} process")
    try:
        proc = subprocess.run(argv, cwd=Path.cwd(), env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: {mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(f"{workload}: {mode} process exited {proc.returncode}")
    return json.loads(result_path.read_text())


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(samples)
    return f"p{100.0 * (n - 10) / n:.1f} {ordered[n - 11]:.6g} s (n={n})"


def run_workload(args, workload: str, spec: dict, root: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".perfbench_work" / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, str(_nproc()))

    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            sample_dir = work / f"setup{i}"
            setup_samples.append(_worker("setup", args, workload, sample_dir, env, deadline)["setup_s"])
            shutil.rmtree(sample_dir)
    result = _worker("measure", args, workload, work, env, deadline)
    setup_samples.append(result["setup_s"])
    result["env"] |= environment(root, env)

    print(f"== {workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"operations: attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            value = result["per_layer"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:42s} {value:.6g} {m['unit']}")
        _print_dominant(result)
    else:
        values = {
            "command_s": statistics.median(result["samples"]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        command = result["command_metric"]
        print(f"  {command:12s} median {values['command_s']:.6g} s; {tail(result['samples'])}"
              f"  [command_s in BENCHMARK.json]")
        print(f"  {'setup_s':12s} median {values['setup_s']:.6g} s (n={len(setup_samples)})")
        print(f"  {'peak_rss_mb':12s} {values['peak_rss_mb']:.6g} MB")
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _print_dominant(result: dict) -> None:
    ranked = result["ranked_self_s"]
    layers: dict[str, float] = {}
    for name, own in ranked:
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + own
    top_layer = max(layers, key=layers.get) if layers else None
    print(f"  traced commands {result['traced_commands']}; self time per command:")
    for name, own in ranked[:12]:
        print(f"    {name:40s} {own:.6g} s")
    predicted = " or ".join(result["predicted_dominant"])
    verdict = "confirmed" if ranked and ranked[0][0] in result["predicted_dominant"] else "MISMATCH"
    print(f"  dominant function {ranked[0][0] if ranked else None}, layer {top_layer}; "
          f"predicted {predicted}: {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dualbid CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dualbid" / "cli.py").is_file():
        print("error: run from the root of a dualbid checkout (src/dualbid/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args, args.workload, spec, root)))
        else:
            results = {name: run_workload(args, name, spec, root) for name in names}
            print(json.dumps(results))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
