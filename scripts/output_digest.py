"""Print the SHA-256 of every primary output of a fixed set of dualbid commands.

Runs `gen`, `solve`, `compare`, `simulate` (ortb and fixed_alpha) and `fit`
(both families) in process into a temporary directory, and prints one line
per output file: digest, then `<command label>/<file name>`. `manifest.json`
holds timings and versions, so it is left out. Two source trees whose digests
match wrote byte-identical outputs.

    python scripts/output_digest.py                   # the src/ beside this script
    python scripts/output_digest.py --src other/src   # another checkout's package

The observation logs for `fit` are the benchmark's `fit_logs` pools of seed 0,
drawn by `perfbench/workloads.py:observation_pool` of this checkout. They are
written here with the csv module, not with the package under test, so both
trees fit the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
REPLAY_EPOCHS = 60
N_IMPRESSIONS = 2000
STRATEGIES = "db_single,db_multi,ortb,lin"
#: Prices of the two budget rows and the two ROI rows of a default instance.
FIXED_ALPHA = [0.0, 0.66, 0.36, 0.0]
#: Seed of the benchmark's `fit_logs` pools that `fit` runs on.
FIT_SEED = 0


def write_log(path: Path, observations) -> None:
    """Observations in the `fit --observations` CSV format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["outcome", "bid_price", "paid_cost"])
        for o in observations:
            cost = "" if o.paid_cost is None else repr(o.paid_cost)
            writer.writerow([o.outcome.value, repr(o.bid_price), cost])


def commands(work: Path, n_pools: int) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs; each label is also the command's output directory."""
    out = []
    for seed in SEEDS:
        instance = str(work / f"gen_{seed}" / "instance.json")
        replay = ["--instance", instance, "--epochs", str(REPLAY_EPOCHS), "--seed", str(seed)]
        out += [
            (f"gen_{seed}", ["gen", "--n-impressions", str(N_IMPRESSIONS), "--seed", str(seed)]),
            (f"solve_{seed}", ["solve", "--instance", instance]),
            (f"compare_{seed}", ["compare", "--strategies", STRATEGIES, *replay]),
            (f"simulate_ortb_{seed}", ["simulate", "--strategy", "ortb", *replay]),
            (
                f"simulate_fixed_alpha_{seed}",
                ["simulate", "--strategy", "fixed_alpha", *replay,
                 "--params", json.dumps({"alpha": FIXED_ALPHA})],
            ),
        ]
    for k in range(n_pools):
        log = str(work / f"observations_{k}.csv")
        for family in ("lognormal", "ortb"):
            out.append((f"fit_{family}_{k}", ["fit", "--observations", log, "--family", family]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src",
        help="directory holding the dualbid package to run (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(src))
    from dualbid import cli
    from workloads import FIT_POOLS, FIT_ROWS, observation_pool

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"imported dualbid from {cli.__file__}, not from {src}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k, (share, per_row) in enumerate(FIT_POOLS):
            rng = np.random.default_rng([FIT_SEED, k])
            _, _, observations = observation_pool(rng, FIT_ROWS, share, per_row)
            write_log(work / f"observations_{k}.csv", observations)
        for label, cmd in commands(work, len(FIT_POOLS)):
            out_dir = work / label
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*cmd, "--out-dir", str(out_dir)])
            if code != 0:
                print(f"exit {code}  {label}")
                continue
            for path in sorted(out_dir.iterdir()):
                if path.name != "manifest.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {label}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
