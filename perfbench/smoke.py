"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Run from the root of a dualbid checkout; takes about a minute. It checks
that every workload runs cleanly and emits every end-to-end metric
(`--trace 0`) and every per-layer metric (`--trace 1`) of BENCHMARK.json
with its unit, that a corrupted output is counted as a failed operation, and
that the benchmark refuses to run in a directory without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_work" / "smoke"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(
                ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            )
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {proc.stdout}")
            units = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(result["metrics"]) == set(units), f"{label}: metrics {sorted(result['metrics'])}")
            for name, entry in result["metrics"].items():
                expect(entry["unit"] == units[name], f"{label}: {name} unit {entry['unit']}")
                expect(isinstance(entry["value"], (int, float)), f"{label}: {name} value {entry['value']}")
            print(f"ok  {label}: {len(units)} metrics, {result['attempted']} operations")


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _flip_digit(path: Path) -> None:
    text = path.read_text()
    i = next(i for i, ch in enumerate(text) if ch in "123456789")
    path.write_text(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])


def check_corruption(spec: dict) -> None:
    """Corrupt one output of the second run of a command: exactly one run must fail."""
    sys.path.insert(0, str(HERE))
    import worker

    per_layer = [m["name"] for m in spec["per_layer"]]
    cases = [
        ("solve_default", "decisions.csv", _drop_last_line),
        ("solve_default", "constraints.csv", _flip_digit),
        ("solve_default", "summary.json", lambda p: p.write_text("{")),
        ("fit_logs", "fit.json", _flip_digit),
    ]
    for workload, filename, corrupt in cases:
        first_command_runs = []

        def tamper(index: int, out_dir: Path) -> None:
            if index == 0:
                first_command_runs.append(out_dir)
                if len(first_command_runs) == 2:
                    corrupt(out_dir / filename)

        work = SCRATCH / "corrupt"
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            result = worker.measure(workload, 1, 0.0, False, True, work, per_layer, tamper=tamper)
        expect(result["failed"] == 1, f"corrupt {workload}/{filename}: {result['failed']} failed "
                                      f"of {result['attempted']}: {result['problems']}")
        print(f"ok  corrupted {workload} {filename}: counted as failed ({result['problems'][0]})")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "--workload", "solve_default", "--seed", "0", "--seconds", "1", "--trace", "0")
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0, "benchmark ran without the package sources")
    expect(not lines or not lines[-1].startswith("{"), f"printed a result: {proc.stdout}")
    print(f"ok  bare directory: exit {proc.returncode} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_corruption(spec)
    check_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
