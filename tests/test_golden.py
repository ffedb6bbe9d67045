"""Golden ``--json`` outputs of every subcommand on the named fixtures.

Each file in ``tests/golden`` holds, for one fixture and one subcommand,
the argument lists (``{file}`` stands for the fixture's path), the exit
code and the parsed ``--json`` payload of every invocation.  A subcommand
that exits 1 without output on every argument list is left out.  The test
replays them; a refactor must leave them all unchanged.

To rerecord, which is only for an intended output change (say so in
CHANGES.md), run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from biserial.cli import main
from biserial.core import build_table
from biserial.instances import (ALG_A3Z_TEXT, ALG_L2D_TEXT, ALG_L2_TEXT,
                                ALG_N2_TEXT)
from biserial.presentations import parse_presentation
from biserial.strings import enumerate_strings

FIXTURES = {
    "n2": ALG_N2_TEXT,
    "l2": ALG_L2_TEXT,
    "l2d": ALG_L2D_TEXT,
    "a3z": ALG_A3Z_TEXT,
    "l2d_f2": ALG_L2D_TEXT.replace("field Q", "field F2"),
}

MAX_LEN = 3
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def invoke(argv, path):
    """Exit code and parsed stdout of ``biserial --json argv`` on one file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--json"] + [a.replace("{file}", path) for a in argv])
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def argument_lists(text):
    """Per subcommand, the argument lists run on one fixture."""
    pres = parse_presentation(text)
    table = build_table(pres)
    words = [str(w) for w in enumerate_strings(table, MAX_LEN)]
    simples = ",".join(f"@{v}" for v in pres.quiver.vertices)
    modules = [w for w in words if len(w.split()) <= 1] + [
        f"proj:{v}" for v in pres.quiver.vertices]
    return {
        "check": [["check", "{file}"]],
        "basis": [["basis", "{file}"]],
        "strings": [["strings", "{file}", "--max-len", str(MAX_LEN)]],
        "hom": [["hom", "{file}", "--from", m, "--to", n, "--stable"]
                for m in modules for n in modules],
        "tau": [["tau", "{file}", "--string", w] + inv
                for w in words for inv in ([], ["--inverse"])],
        "ar": [["ar", "{file}", "--string", w] for w in words],
        "cone": [["cone", "{file}", "--string", w] for w in words],
        "bricks": [["bricks", "{file}", "--set", simples,
                    "--max-len", str(MAX_LEN)]],
        "nodes": [["nodes", "{file}"], ["nodes", "{file}", "--split"]],
        "normalize": [["normalize", "{file}"]],
        "ssb": [["ssb", "--quiver", "{file}", "--pi", "a>b,b>a",
                 "--mult", "a b:1"] + deform
                for deform in ([], ["--deform", "a:1"])],
        "sweep": [["sweep", "{file}", "--max-len", str(MAX_LEN)]],
    }


def write_fixture(directory, name):
    path = os.path.join(directory, f"{name}.alg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FIXTURES[name])
    return path


def record(directory):
    for name, text in FIXTURES.items():
        path = write_fixture(directory, name)
        for command, argvs in argument_lists(text).items():
            runs = []
            for argv in argvs:
                code, payload = invoke(argv, path)
                runs.append({"argv": argv, "exit": code, "json": payload})
            if all(r["json"] is None for r in runs):
                continue
            out = os.path.join(GOLDEN, f"{name}-{command}.json")
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"fixture": name, "command": command, "runs": runs},
                          fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{out}: {len(runs)} runs")


GOLDEN_FILES = sorted(f for f in os.listdir(GOLDEN) if f.endswith(".json"))


def test_every_fixture_is_recorded():
    recorded = {f.split("-", 1)[0] for f in GOLDEN_FILES}
    assert recorded == set(FIXTURES)


@pytest.mark.parametrize("golden", GOLDEN_FILES, ids=lambda f: f[:-5])
def test_json_output_unchanged(golden, tmp_path):
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        expected = json.load(fh)
    path = write_fixture(str(tmp_path), expected["fixture"])
    for run in expected["runs"]:
        code, payload = invoke(run["argv"], path)
        assert (code, payload) == (run["exit"], run["json"]), run["argv"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
