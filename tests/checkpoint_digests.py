"""Train the bundled suite and the bundled corpus; print the checkpoint
digests.

In a temporary directory it trains two workspaces with seed 0: the suite's
(phases 1-4 with the ``PhaseConfigs()`` defaults) and the bundled corpus's
through the CLI (``dataflow run --stage all --clock zero``, then ``train
--phase 1..4``), whose phase 4 runs PPO. It prints one JSON object:
``{"suite": ..., "cli": ...}``, each mapping a checkpoint to the sha256
prefixes of its ``weights.json`` and ``manifest.json``. It needs only the
standard library and ``lamlab``, so it runs under a CPython without pytest;
the commands' own output goes to stderr:

    PYTHONPATH=src python3.13 tests/checkpoint_digests.py

``tests/test_acceptance.py`` runs it under every other CPython >= 3.12 it
finds and compares the output with its pins.
"""

import contextlib
import json
import sys
import tempfile
from pathlib import Path

from lamlab.cli import main as cli_main
from lamlab.harness import build_suite_workspace, run_suite_phases
from lamlab.jsonl import sha256_file

CHECKPOINTS = ("lam1", "lam2", "lam3", "lam4", "rm")


def digests(ws: Path) -> dict[str, list[str]]:
    return {
        name: [
            sha256_file(ws / "checkpoints" / name / file)[:8]
            for file in ("weights.json", "manifest.json")
        ]
        for name in CHECKPOINTS
    }


def cli(ws: Path, *args: str) -> None:
    if cli_main(["--workspace", str(ws), "--seed", "0", *args]) != 0:
        raise SystemExit(f"lamlab {' '.join(args)} failed")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        suite = build_suite_workspace(Path(tmp) / "suite")
        run_suite_phases(suite, seed=0)
        corpus = Path(tmp) / "cli"
        cli(corpus, "--clock", "zero", "dataflow", "run", "--stage", "all")
        for phase in "1234":
            cli(corpus, "train", "--phase", phase)
        result = {"suite": digests(suite), "cli": digests(corpus)}
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
