"""The README's CLI walkthrough and library example run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from dualbid import cli
from dualbid.landscape import BidObservation, Outcome, write_observations_csv

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(section: str, language: str) -> str:
    """The first `language` code block under the README heading `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def walkthrough() -> list[tuple[list[str], list[str]]]:
    """Each walkthrough command's arguments after `dualbid`, with the files its `# ->` comment names."""
    steps = []
    for line in _code_block("CLI walkthrough", "bash").replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("# ->"):
            steps[-1][1].extend(re.findall(r"\w+\.(?:json|csv)", line))
        elif line and not line.startswith("#"):
            program, *argv = shlex.split(line)
            assert program == "dualbid"
            steps.append((argv, []))
    return steps


def test_cli_walkthrough_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    competing = np.exp(-3.0 + 0.6 * rng.standard_normal(300))
    bids = rng.uniform(0.0, 0.2, 300)
    log = [
        BidObservation(Outcome.WON, float(b), float(x)) if x < b else BidObservation(Outcome.LOST, float(b))
        for b, x in zip(bids, competing)
    ]
    Path("run").mkdir()
    write_observations_csv("run/observations.csv", log)
    steps = walkthrough()
    assert [argv[0] for argv, _ in steps] == ["gen", "solve", "simulate", "compare", "fit"]
    for argv, named in steps:
        assert cli.main(argv) == 0, argv
        out = Path(argv[argv.index("--out-dir") + 1])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] and named and set(named) <= set(manifest["outputs"]), argv
    assert json.loads(Path("run/fit/fit.json").read_text())["converged"]


def test_library_example_runs(capsys):
    exec(compile(_code_block("Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
