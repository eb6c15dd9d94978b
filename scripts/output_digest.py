"""Print the SHA-256 of every primary output of a fixed set of dualbid commands.

Runs `gen` and `solve` (both objectives), `compare`, `simulate` (each
strategy of `compare`, and fixed_alpha), a 40-epoch `solve` of the revenue
instances of seeds 0 and 1, `gen` and `solve` of a 40-impression instance,
a wide `solve`, a `solve` of an instance with string impression ids and one
of an instance with no ads, a `solve` and a fixed_alpha `simulate` of an
instance with overflowing landscape means, a `solve` of one with means just
below overflow, `gen --config` and `solve` of two P4U instances, and `fit`
(both families) in process into a temporary directory, and prints one line
per output file: digest, then `<command label>/<file name>`. Two source trees whose digests match wrote
byte-identical outputs. Each command's
`manifest.json` is digested too, after its timing fields (`wall_time_s`,
`stages_s`) are dropped and the temporary directory's path in it is replaced
by `<work>`, so a digest diff also shows a change in the recorded flags,
inputs or outputs. The manifest also records the Python, numpy and scipy
versions, so compare its digests on one host.

    python scripts/output_digest.py                   # the src/ beside this script
    python scripts/output_digest.py --src other/src   # another checkout's package

The 40-epoch solves and the default ones of seeds 0 and 1 are knife-edge
instances: a single price vector sits on the kink of the dual, so a change
in the last bits of the composite moves whole ads and the primal value with
them, and the digest shows it. A 40-impression instance from `gen` is solved
too: it fits in one SGD batch, so every step of its solve reads the dual
pass of the prices the epoch starts from.

The observation logs for `fit` are the benchmark's `fit_logs` pools of seed 0,
drawn by `perfbench/workloads.py:observation_pool` of this checkout, and the
wide instance is the benchmark's `solve_wide` instance of seed 0
(`wide_instance`); the string-id and no-ads instances are a smaller one of
those with its impression ids, or its ads and constraints, replaced. In the
overflow instance, the same smaller one, every fifth impression has sigma =
40, whose mean exp(mu + sigma^2 / 2) overflows a double, so the log-space
branch of the win-probability and cost kernel shows in the digest. In the
tail instance every fifth impression has mu = 0 and sigma 36, 37 or 37.5 in
turn, whose means are finite and above 1 while Phi(z - sigma) underflows at
small bids, so the same branch shows where it serves the normal tail. These
instances are written here with the csv and json modules, not with the
package under test, so both trees read the same bytes. The P4U instances come
from `gen --config`, revenue and performance objective, with both ads at a
conversion rate of at most 0.2. Their ROI of at most 1.2 cannot reach the
DSP-ROI floor of 2, so a solve's single price vector can break that row, and
its `summary.json` shows how the edge is reported. One more `fit --family lognormal` runs on
a three-row log whose likelihood grows without bound as sigma -> 0, so the
fit ends unconverged at its stall exit and a change to that path shows in the
digest too. Two more `fit --family ortb` runs end at the ends of the range the
win-curve scale is searched in: one log's root lies below 1e-12 and the
other's above 1e15, so both unconverged results show in the digest. Last,
`fit` of both families reads the first pool in a form other than the one the
package writes: columns reordered with an extra one, outcomes in lower case
and padded, a blank line, CRLF line ends and three more LOST rows at bid 0.
It holds the same auctions, so its `fit.json` digests match the first pool's,
and a change in what `fit` reads shows in the digest. The last two commands
replay seed 0 for 240 epochs, `compare` of the four feedback strategies and
`simulate --strategy ortb`: ORTB refits its win curve once per epoch, so an
auction that a change to the refit flips late in a long replay shows there.

After the outputs, `solve` runs on a corpus of instance documents that each
break the small instance's fourth impression in one way (`REJECTED`), and one
line per document digests its exit code and first stderr line, labelled
`reject_<name>/exit_and_stderr`. So a change in what the loader rejects, or in
how it says so, shows in the digest too. A document that makes the package
raise out of `cli.main` counts as the interpreter would report it: exit 1 and
the first line of a traceback.

Last, `compare` of the four feedback strategies replays two copies of the
small instance with every mu at -800 and at 800 (`EDGE_MUS`), where every
competing bid underflows to 0 or overflows to inf. Each is digested as the
rejected documents are, `compare_mu_<mu>/exit_and_stderr`, and then by its
outputs when it exits 0. So a replay that fails or warns at the ends of the
double range shows in the digest, instead of stopping this script.
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
#: Seed and epochs of the long replays.
LONG_SEED, LONG_EPOCHS = 0, 240
N_IMPRESSIONS = 2000
STRATEGIES = "db_single,db_multi,ortb,lin"
#: Prices of the two budget rows and the two ROI rows of a default instance.
FIXED_ALPHA = [0.0, 0.66, 0.36, 0.0]
#: Seed of the benchmark's `fit_logs` pools that `fit` runs on.
FIT_SEED = 0
#: Seeds whose revenue instance is also solved with `KNIFE_EPOCHS` SGD epochs.
KNIFE_SEEDS, KNIFE_EPOCHS = (0, 1), 40
#: Size and seed of a generated instance that fits in one SGD batch.
ONE_BATCH_N, ONE_BATCH_SEED = 40, 0
#: Size, seed and epochs of the benchmark's `solve_wide` instance solved here.
WIDE_N, WIDE_SEED, WIDE_EPOCHS = 2000, 0, 40
#: Size of the string-id and no-ads instances, and the epochs they are solved with.
SMALL_N, SMALL_EPOCHS = 200, 20
#: Prices of the wide instance's ten rows for the overflow instance's replay.
WIDE_ALPHA = [0.05] * 10
#: Sigmas, in turn, of the tail instance's rows at mu 0: finite means above 1.
TAIL_SIGMAS = (36.0, 37.0, 37.5)
#: Every impression's mu in the edge instances: all competing bids underflow
#: to 0 at -800 and overflow to inf at 800.
EDGE_MUS = (-800, 800)
#: `gen --config` documents of P4U instances whose ROI floor no bid can meet.
P4U_CONFIGS = {
    kind: {"mode": "p4u", "ads": [0.1, 0.2], "objective_kind": kind}
    for kind in ("revenue", "performance")
}
#: String impression ids, cycled; two need quoting in a CSV field.
STRING_IDS = ("imp-a", "imp,b", 'imp "c"', " imp d")
#: Two wins at one cost and a loss below it: the log-normal fit cannot converge.
STALL_LOG = "outcome,bid_price,paid_cost\nWON,2.0,1.0\nWON,2.0,1.0\nLOST,0.5,\n"
#: ORTB logs whose win-curve scale lies below 1e-12 (a won cost of 1e-300) and
#: above 1e15 (lost bids of 1e300): the fit returns an end of its range.
ORTB_END_LOGS = {
    "below": "outcome,bid_price,paid_cost\nWON,2.0,1e-300\nLOST,0.5,\n",
    "above": "outcome,bid_price,paid_cost\nWON,2.0,1.0\n" + "LOST,1e300,\n" * 5,
}
#: One-defect instance documents: each changes impression `REJECTED_ROW` of the
#: small instance, setting a field, dropping it (`DROP`), or replacing the entry.
DROP = object()
REJECTED_ROW = 3
REJECTED = {
    "bool_ppi": (("ppi", 0), True),
    "string_mu": (("mu",), "-3"),
    "nan_mu": (("mu",), float("nan")),
    "zero_sigma": (("sigma",), 0),
    "huge_sigma": (("sigma",), 1e200),
    "short_ppi": (("ppi", -1), DROP),
    "non_object": ((), [0.5, 1.0]),
    "float_id": (("id",), 1.5),
    "missing_ppi": (("ppi",), DROP),
    "huge_integer_mu": (("mu",), 10**400),
}


def write_log(path: Path, observations) -> None:
    """Observations in the `fit --observations` CSV format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["outcome", "bid_price", "paid_cost"])
        for o in observations:
            cost = "" if o.paid_cost is None else repr(o.paid_cost)
            writer.writerow([o.outcome.value, repr(o.bid_price), cost])


def write_noncanonical_log(path: Path, observations) -> None:
    """The observations in the non-canonical form that the module docstring describes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(["paid_cost", "note", "outcome", "bid_price"])
        writer.writerow([])
        for i, o in enumerate(observations):
            cost = "" if o.paid_cost is None else repr(o.paid_cost)
            writer.writerow([cost, f"row {i}", f" {o.outcome.value.lower()}\t", repr(o.bid_price)])
        writer.writerows([["", "bid 0", "lost", "0.0"]] * 3)


def instance_payload(instance, seed: int) -> dict:
    """`instance` in the `solve --instance` JSON format."""
    return {
        "mode": instance.mode.value,
        "objective": {"mode": instance.objective.mode.value, "kind": instance.objective.kind.value},
        "bid_cap": instance.bid_cap,
        "ads": [
            {"id": ad.id, "cpp": ad.economics.cpp, "cr": ad.economics.cr} for ad in instance.ads
        ],
        "constraints": [
            {"kind": c.kind.value, "mode": c.mode.value, "bound": c.bound, "scope": sorted(c.scope)}
            for c in instance.constraints
        ],
        "impressions": [
            {"id": imp.id, "mu": imp.prior.mu, "sigma": imp.prior.sigma, "ppi": list(imp.ppi)}
            for imp in instance.impressions
        ],
        "seed": seed,
    }


def write_instances(work: Path, wide_instance) -> None:
    """The wide instance, and small ones with string ids, no ads, overflows and tail costs."""
    wide = instance_payload(wide_instance(WIDE_N, WIDE_SEED), WIDE_SEED)
    (work / "wide.json").write_text(json.dumps(wide))
    small = instance_payload(wide_instance(SMALL_N, WIDE_SEED), WIDE_SEED)
    impressions = small["impressions"]
    overflow = [imp | {"sigma": 40.0} if i % 5 == 0 else imp for i, imp in enumerate(impressions)]
    (work / "overflow.json").write_text(json.dumps(small | {"impressions": overflow}))
    tail = [
        imp | {"mu": 0.0, "sigma": TAIL_SIGMAS[i // 5 % len(TAIL_SIGMAS)]} if i % 5 == 0 else imp
        for i, imp in enumerate(impressions)
    ]
    (work / "tail.json").write_text(json.dumps(small | {"impressions": tail}))
    for mu in EDGE_MUS:
        edge = [imp | {"mu": float(mu)} for imp in impressions]
        (work / f"mu_{mu}.json").write_text(json.dumps(small | {"impressions": edge}))
    for i, imp in enumerate(impressions):
        imp["id"] = STRING_IDS[i % len(STRING_IDS)] + str(i)
    (work / "string_ids.json").write_text(json.dumps(small))
    no_ppi = [imp | {"ppi": []} for imp in impressions]
    no_ads = small | {"ads": [], "constraints": [], "impressions": no_ppi}
    (work / "no_ads.json").write_text(json.dumps(no_ads))
    for name, (path, value) in REJECTED.items():
        document = json.loads(json.dumps(small))
        target, key = document["impressions"], REJECTED_ROW
        for part in path:
            target, key = target[key], part
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        (work / f"reject_{name}.json").write_text(json.dumps(document))


def exit_and_stderr(cli, argv: list[str]) -> tuple[int, str]:
    """`cli.main`'s exit code and first stderr line, as a process would give them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - an uncaught error is what is digested
            return 1, "Traceback (most recent call last):"
    return code, next(iter(err.getvalue().splitlines()), "")


def manifest_bytes(data: bytes, work: Path) -> bytes:
    """A manifest without its timing fields and with `work` replaced by `<work>`."""
    manifest = json.loads(data)
    manifest.pop("wall_time_s")
    manifest.pop("stages_s", None)
    return json.dumps(manifest, sort_keys=True).replace(str(work), "<work>").encode()


def print_outputs(label: str, out_dir: Path, work: Path) -> None:
    """One digest line per file a command wrote into `out_dir`."""
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = manifest_bytes(data, work)
        print(f"{hashlib.sha256(data).hexdigest()}  {label}/{path.name}")


def print_exit_and_stderr(label: str, code: int, line: str, work: Path) -> None:
    """One digest line for a command's exit code and first stderr line."""
    data = f"exit {code}\n{line.replace(str(work), '<work>')}".encode()
    print(f"{hashlib.sha256(data).hexdigest()}  {label}/exit_and_stderr")


def commands(work: Path, n_pools: int) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs; each label is also the command's output directory."""
    out = []
    for seed in SEEDS:
        instance = str(work / f"gen_{seed}" / "instance.json")
        replay = ["--instance", instance, "--epochs", str(REPLAY_EPOCHS), "--seed", str(seed)]
        performance = str(work / f"gen_performance_{seed}" / "instance.json")
        gen = ["gen", "--n-impressions", str(N_IMPRESSIONS), "--seed", str(seed)]
        out += [
            (f"gen_{seed}", gen),
            (f"solve_{seed}", ["solve", "--instance", instance]),
            (f"gen_performance_{seed}", [*gen, "--objective", "performance"]),
            (f"solve_performance_{seed}", ["solve", "--instance", performance]),
            (f"compare_{seed}", ["compare", "--strategies", STRATEGIES, *replay]),
            # `simulate` of each feedback strategy, so their consumption rows show too.
            *(
                (f"simulate_{name}_{seed}", ["simulate", "--strategy", name, *replay])
                for name in STRATEGIES.split(",")
            ),
            (
                f"simulate_fixed_alpha_{seed}",
                ["simulate", "--strategy", "fixed_alpha", *replay,
                 "--params", json.dumps({"alpha": FIXED_ALPHA})],
            ),
        ]
    for seed in KNIFE_SEEDS:
        knife = ["solve", "--instance", str(work / f"gen_{seed}" / "instance.json"),
                 "--epochs-sgd", str(KNIFE_EPOCHS)]
        out.append((f"solve_{seed}_epochs_{KNIFE_EPOCHS}", knife))
    one_batch = f"gen_n{ONE_BATCH_N}"
    gen = ["gen", "--n-impressions", str(ONE_BATCH_N), "--seed", str(ONE_BATCH_SEED)]
    out.append((one_batch, gen))
    solve = ["solve", "--instance", str(work / one_batch / "instance.json")]
    out.append((f"solve_n{ONE_BATCH_N}", solve))
    wide = ["solve", "--instance", str(work / "wide.json"), "--epochs-sgd", str(WIDE_EPOCHS)]
    out.append(("solve_wide", wide))
    for name in ("string_ids", "no_ads", "overflow", "tail"):
        small = ["solve", "--instance", str(work / f"{name}.json"), "--epochs-sgd", str(SMALL_EPOCHS)]
        out.append((f"solve_{name}", small))
    for kind in P4U_CONFIGS:
        config = ["gen", "--config", str(work / f"p4u_{kind}.json")]
        out.append((f"gen_p4u_{kind}", config))
        instance = str(work / f"gen_p4u_{kind}" / "instance.json")
        out.append((f"solve_p4u_{kind}", ["solve", "--instance", instance]))
    overflow = ["--instance", str(work / "overflow.json"), "--epochs", str(REPLAY_EPOCHS)]
    alpha = json.dumps({"alpha": WIDE_ALPHA})
    out.append(("simulate_fixed_alpha_overflow",
                ["simulate", "--strategy", "fixed_alpha", *overflow, "--params", alpha]))
    for k in range(n_pools):
        log = str(work / f"observations_{k}.csv")
        for family in ("lognormal", "ortb"):
            out.append((f"fit_{family}_{k}", ["fit", "--observations", log, "--family", family]))
    out.append(("fit_lognormal_stall", ["fit", "--observations", str(work / "stall.csv")]))
    for end in ORTB_END_LOGS:
        log = str(work / f"ortb_{end}.csv")
        out.append((f"fit_ortb_{end}", ["fit", "--observations", log, "--family", "ortb"]))
    for family in ("lognormal", "ortb"):
        log = str(work / "noncanonical.csv")
        out.append((f"fit_{family}_noncanonical", ["fit", "--observations", log, "--family", family]))
    long = ["--instance", str(work / f"gen_{LONG_SEED}" / "instance.json"),
            "--epochs", str(LONG_EPOCHS), "--seed", str(LONG_SEED)]
    out.append((f"compare_long_{LONG_SEED}", ["compare", "--strategies", STRATEGIES, *long]))
    out.append((f"simulate_ortb_long_{LONG_SEED}", ["simulate", "--strategy", "ortb", *long]))
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
    from workloads import FIT_POOLS, FIT_ROWS, observation_pool, wide_instance

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"imported dualbid from {cli.__file__}, not from {src}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k, (share, per_row) in enumerate(FIT_POOLS):
            rng = np.random.default_rng([FIT_SEED, k])
            _, _, observations = observation_pool(rng, FIT_ROWS, share, per_row)
            write_log(work / f"observations_{k}.csv", observations)
            if k == 0:
                write_noncanonical_log(work / "noncanonical.csv", observations)
        (work / "stall.csv").write_text(STALL_LOG)
        for end, log in ORTB_END_LOGS.items():
            (work / f"ortb_{end}.csv").write_text(log)
        write_instances(work, wide_instance)
        for kind, config in P4U_CONFIGS.items():
            (work / f"p4u_{kind}.json").write_text(json.dumps(config))
        for label, cmd in commands(work, len(FIT_POOLS)):
            out_dir = work / label
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                code = cli.main([*cmd, "--out-dir", str(out_dir)])
            if code != 0:
                print(f"exit {code}  {label}")
                continue
            print_outputs(label, out_dir, work)
        for name in REJECTED:
            argv = ["solve", "--instance", str(work / f"reject_{name}.json"), "--epochs-sgd", "1"]
            code, line = exit_and_stderr(cli, [*argv, "--out-dir", str(work / f"reject_{name}")])
            print_exit_and_stderr(f"reject_{name}", code, line, work)
        for mu in EDGE_MUS:
            label, out_dir = f"compare_mu_{mu}", work / f"compare_mu_{mu}"
            argv = ["compare", "--strategies", STRATEGIES, "--instance", str(work / f"mu_{mu}.json"),
                    "--epochs", str(REPLAY_EPOCHS), "--out-dir", str(out_dir)]
            code, line = exit_and_stderr(cli, argv)
            print_exit_and_stderr(label, code, line, work)
            if code == 0:
                print_outputs(label, out_dir, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
