"""Byte-for-byte golden corpus of the command line.

Each case runs ``main`` in a fresh working directory holding the input
files below and compares stdout, stderr, the exit code and every file the
command writes against ``cli_golden.json``. Regenerate the corpus (only
when a visible change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from reallot.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "gap.txt": (
        "order: h1 h2 h3\n"
        "endow: a1:h1 a2:h2 a3:h3\n"
        "agent a1: h2 h3 h1\n"
        "agent a2: h3 h1 h2\n"
        "agent a3: h1 h2 h3\n"
    ),
    "gap-mu.txt": "a1 -> h3\na2 -> h1\na3 -> h2\n",
    "gap-nu.txt": "a1 -> h2\na2 -> h3\na3 -> h1\n",
    "gap-endow.txt": "a1 -> h1\na2 -> h2\na3 -> h3\n",
    "four.txt": (
        "# four agents, a shuffled endowment\n"
        "order: x y z w\n"
        "\n"
        "endow: b:x a:y d:z c:w\n"
        "agent a: y x w z\n"
        "agent b: x y z w\n"
        "agent c: w z y x\n"
        "agent d: z w x y\n"
    ),
    "four-hurt.txt": "a -> x\nb -> y\nc -> w\nd -> z\n",
    "four-swap.txt": "a -> w\nb -> x\nc -> y\nd -> z\n",
    "bad-rank.txt": "order: h1 h2 h3\nagent a1: h2 h3\nagent a2: h3 h1 h2\nagent a3: h1 h2 h3\n",
    "bad-order.txt": "agent a1: h1 h2 h3\n",
    "bad-alloc.txt": "a1 -> h3\na3 -> h1\na2 -> h2\n",
    "short-alloc.txt": "a1 -> h3\na2 -> h1\n",
}

CASES = [
    ["check", "gap.txt", "gap-mu.txt"],
    ["check", "gap.txt", "gap-nu.txt"],
    ["check", "gap.txt", "gap-endow.txt"],
    ["check", "--pair", "gap.txt", "gap-mu.txt"],
    ["check", "--pareto", "gap.txt", "gap-mu.txt"],
    ["check", "--ir", "gap.txt", "gap-mu.txt"],
    ["check", "--pair", "--ir", "gap.txt", "gap-endow.txt"],
    ["check", "four.txt", "four-hurt.txt"],
    ["check", "--ir", "four.txt", "four-swap.txt"],
    ["check", "bad-rank.txt", "gap-mu.txt"],
    ["check", "bad-order.txt", "gap-mu.txt"],
    ["check", "gap.txt", "bad-alloc.txt"],
    ["check", "gap.txt", "short-alloc.txt"],
    ["check", "gap.txt", "missing.txt"],
    ["ttc", "gap.txt"],
    ["ttc", "four.txt", "--out", "ttc.txt"],
    ["ttc", "bad-rank.txt"],
    ["count", "gap.txt"],
    ["count", "four.txt"],
    ["enum", "--sp", "--m", "4"],
    ["enum", "--sd", "--m", "4"],
    ["enum", "--all", "--m", "3"],
    ["verify", "--domain", "sp", "--n", "3", "--exhaustive"],
    ["verify", "--domain", "all", "--n", "3", "--exhaustive"],
    ["verify", "--domain", "union", "--n", "3", "--exhaustive"],
    ["verify", "--domain", "sp,sd,sp", "--n", "3", "--exhaustive"],
    ["verify", "--domain", "sd", "--n", "4", "--random", "20", "--seed", "3"],
    ["verify", "--domain", "sp,sd,sd,sp", "--n", "4", "--random", "30", "--seed", "7"],
    ["verify", "--domain", "union", "--n", "4", "--random", "25", "--seed", "11"],
    ["verify", "--domain", "all", "--n", "4", "--random", "10", "--seed", "2"],
    ["verify", "--domain", "union", "--n", "4", "--exhaustive"],
    ["verify", "--domain", "sp", "--n", "5", "--exhaustive"],
    ["verify", "--domain", "sp", "--n", "9", "--exhaustive"],
    ["verify", "--domain", "sp", "--n", "3", "--random", "0"],
    ["verify", "--domain", "sp", "--n", "3", "--exhaustive", "--jobs", "0"],
    ["verify", "--domain", "sq", "--n", "3", "--exhaustive"],
    ["synth", "--mode", "sd", "--pref", "h2 h3 h1", "--n", "3", "--out", "bundle"],
    ["synth", "--mode", "sp", "--pref", "h1 h3 h2", "--out", "sp-bundle"],
    ["synth", "--mode", "sp", "--pref", "b d a c", "--order", "a b c d", "--seed", "5",
     "--out", "sp4"],
    ["synth", "--mode", "sd", "--pref", "h1 h3 h4 h2", "--seed", "2", "--out", "sd4"],
    ["synth", "--mode", "sp", "--pref", "h2 h1 h3", "--out", "none"],
    ["synth", "--mode", "sd", "--pref", "h1 h2 h3", "--order", "h1 h2 h4", "--out", "none"],
    ["synth", "--mode", "sd", "--pref", "h2 h3 h1", "--n", "4", "--out", "none"],
    ["synth", "--mode", "sp", "--pref", "h1 h3 h2", "--out", "gap.txt"],
    [],
    ["bogus"],
    ["check", "gap.txt"],
    ["verify", "--domain", "sp", "--n", "3"],
    ["verify", "--domain", "sp", "--n", "x", "--exhaustive"],
    ["enum", "--sp", "--sd", "--m", "3"],
    ["synth", "--mode", "xx", "--pref", "h1 h2 h3"],
]


def run_case(argv, workdir: Path) -> dict:
    """Run one command in ``workdir``; return what it printed and wrote."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    written = {
        str(p.relative_to(workdir)): p.read_text(encoding="utf-8")
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and p.name not in INPUTS
    }
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": written}


def _golden_env(env):
    # The corpus is captured under the default budget and an 80-column
    # terminal, which fixes argparse's line wrapping.
    env.delenv("REALLOT_BUDGET", raising=False)
    env.setenv("COLUMNS", "80")


def test_corpus_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == CASES
    assert {entry["code"] for entry in golden} == {0, 1, 2, 3}


def test_cli_reproduces_the_golden_corpus(tmp_path, monkeypatch):
    _golden_env(monkeypatch)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for i, expected in enumerate(golden):
        workdir = tmp_path / f"case{i}"
        workdir.mkdir()
        assert run_case(expected["argv"], workdir) == expected


if __name__ == "__main__":
    import tempfile

    import pytest

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        _golden_env(mp)
        corpus = []
        for i, argv in enumerate(CASES):
            workdir = Path(tmp) / f"case{i}"
            workdir.mkdir()
            corpus.append(run_case(argv, workdir))
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}", file=sys.stderr)
