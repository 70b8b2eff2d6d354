"""Report the lines of ``src/reallot`` that no test runs.

Runs pytest in this process under a ``sys.settrace`` tracer that follows
only frames of ``src/reallot`` and stops tracing a code object once all
its lines have run. The lines that count are those of the package's
function bodies, read from the compiled code objects (``co_lines()``)
after each function's prologue, so docstrings, ``nonlocal`` declarations,
``else:`` and blank lines never count, and module and class bodies, which
run at import, are left out. Forked pool workers are followed:
``os.register_at_fork`` sets the trace in the child, and a
``multiprocessing.util.Finalize`` hook writes the child's lines to a
spool file, because workers leave through ``os._exit``, past ``atexit``;
the hook is registered through ``multiprocessing.util.register_after_fork``,
since a worker's start clears the finalizers that fork copied. Other
child processes, such as the CLI runs of ``tests/test_cli.py``, are not
followed.

A missed line must lie within the snippet of an ``ALLOWED`` entry, keyed
by exact source snippet as ``tests/mutants.py`` keys its mutants. Each
entry gives its reason: ``child process``, or ``invariant guard, killed
by mutant X`` for a guard that no valid input reaches, X naming the
catalogue's mutant that breaks what the guard protects (``python
tests/mutants.py`` checks that it is killed). The script exits 1 when a
missed line lies in no entry, when an entry is stale (its snippet does not
occur exactly once, or none of its lines is missed) or when a reason has
another shape; it also exits 1 when the traced suite fails.

For time the run deselects ``DESELECTED``: criteria 3 and 5, the two
slowest tests, which run no line the rest of the suite misses. The trace
slows the rest 2.5 to 3.5 times, to 2-3 minutes on 2 vCPUs.

Opt-in tooling, not part of the test suite (pytest does not collect this
file). Standard library and pytest only. The hypothesis tests draw from
a fixed seed, so that a line that only some draws reach cannot flip the
verdict from one run to the next. From the repository root:

    python tests/linecov.py
"""

from __future__ import annotations

import dis
import inspect
import json
import multiprocessing.util
import os
import sys
import tempfile
import types
from pathlib import Path
from typing import NamedTuple

from mutants import CATALOGUE

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reallot"

DESELECTED = (
    "tests/test_acceptance.py::test_criterion_3_equivalence_randomized_n6",
    "tests/test_acceptance.py::test_criterion_5_extractors_on_every_dominated_pair",
)

RESUME = dis.opmap.get("RESUME")  # None before Python 3.11: no prologue
CHILD = "child process"
GUARD = "invariant guard, killed by mutant "


class Allowed(NamedTuple):
    module: str  # file under src/reallot
    snippet: str  # must occur exactly once
    reason: str  # CHILD, or GUARD followed by a mutant's name


ALLOWED = (
    # tests/test_cli.py runs these in a ``python -m reallot.cli`` child.
    Allowed(
        "cli.py",
        '            fh.write(text)\n    except OSError as exc:\n'
        '        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc\n',
        CHILD,
    ),
    Allowed(
        "cli.py",
        "        for left in staged + placed:\n            try:\n                os.remove(left)\n"
        "            except OSError:\n                pass\n",
        CHILD,
    ),
    Allowed(
        "cli.py",
        "        devnull = os.open(os.devnull, os.O_WRONLY)\n"
        "        os.dup2(devnull, sys.stdout.fileno())\n        return 1\n",
        CHILD,
    ),
    Allowed(
        "construct.py",
        'raise RuntimeError("synthesized allocation is not pair-efficient")',
        GUARD + "bundle-mu-gives-a-the-pivot",
    ),
    Allowed(
        "construct.py",
        'raise RuntimeError("synthesized dominator does not dominate")',
        GUARD + "sp-bundle-nu-trio-swapped",
    ),
    Allowed(
        "construct.py",
        'raise RuntimeError("synthesized allocation has no improving cycle")',
        GUARD + "improving-cycle-never-reported",
    ),
    Allowed(
        "construct.py",
        'raise RuntimeError(f"helper preference fell outside the {family} family")',
        GUARD + "sp-filler-not-single-peaked",
    ),
    Allowed(
        "efficiency.py",
        'raise RuntimeError("no adjacent red/blue pair; witness coloring is broken")',
        GUARD + "colours-swapped",
    ),
    Allowed(
        "equivalence.py",
        'raise RuntimeError("violation candidate is not pair-efficient")',
        GUARD + "kernel-skips-the-first-envied-house",
    ),
    Allowed(
        "equivalence.py",
        'raise RuntimeError("blocking-pair swap failed to dominate")',
        GUARD + "blocking-pair-one-sided",
    ),
    Allowed(
        "rules.py",
        'failures.append((profile, mu, "blocking pair"))',
        GUARD + "corollary-rule-keeps-the-endowment",
    ),
    Allowed(
        "rules.py",
        'failures.append((profile, mu, "improving cycle"))',
        GUARD + "corollary-pair-check-dropped",
    ),
)


def body_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code``'s instructions after its prologue: the
    instructions up to ``RESUME`` sit on the ``def`` line, and no line
    event fires for them."""
    start = 0
    ops = code.co_code
    for i in range(0, len(ops), 2):
        if ops[i] == RESUME:
            start = i + 2
            break
    return {line for _, end, line in code.co_lines() if line is not None and end > start}


def executable_lines(source: str, filename: str) -> set[int]:
    """The body lines of every function, lambda and comprehension in the
    source; module and class bodies are not functions (no CO_OPTIMIZED)."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= body_lines(code)
    return lines


class Tracer:
    """The global trace function: records each line of the watched files
    the first time it runs, in ``hits``."""

    def __init__(self, files, spool: str):
        self.hits: dict[str, set[int]] = {f: set() for f in files}
        self.left: dict[int, tuple[types.CodeType, set[int]]] = {}  # id(code) -> lines not yet run
        self.spool = spool

    def __call__(self, frame, event, arg):
        code = frame.f_code
        hits = self.hits.get(code.co_filename)
        if hits is None:
            return None
        entry = self.left.get(id(code))
        if entry is None or entry[0] is not code:
            entry = self.left[id(code)] = (code, body_lines(code) - hits)
        left = entry[1]
        if not left:
            return None
        add = hits.add

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in left:
                left.discard(frame.f_lineno)
                add(frame.f_lineno)
            return local if left else None

        return local

    def arm_flush(self):
        multiprocessing.util.Finalize(None, self.flush, exitpriority=0)

    def flush(self):
        path = os.path.join(self.spool, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({f: sorted(lines) for f, lines in self.hits.items()}, fh)

    def merge_spool(self) -> int:
        """Add the lines the workers flushed; returns their count."""
        paths = list(Path(self.spool).glob("*.json"))
        for path in paths:
            for f, lines in json.loads(path.read_text()).items():
                self.hits[f].update(lines)
        return len(paths)


def snippet_span(text: str, snippet: str) -> tuple[int, int] | None:
    """First and last line of the snippet in the text, or None unless it
    occurs exactly once."""
    if text.count(snippet) != 1:
        return None
    at = text.index(snippet)
    end = at + len(snippet.rstrip("\n"))
    return text.count("\n", 0, at) + 1, text.count("\n", 0, end) + 1


def judge(missed: dict[str, set[int]], sources: dict[str, str], allowed, mutants) -> list[str]:
    """The problems, one line each: missed lines that no entry covers,
    stale entries and reasons of another shape. ``missed`` and ``sources``
    are keyed by module file name, ``mutants`` holds the catalogue's names."""
    problems = []
    covered: set[tuple[str, int]] = set()
    for entry in allowed:
        label = f"{entry.module}: {entry.snippet.strip().splitlines()[0]!r}"
        if entry.reason != CHILD and not (
            entry.reason.startswith(GUARD) and entry.reason[len(GUARD) :] in mutants
        ):
            problems.append(f"bad reason {entry.reason!r}: {label}")
        span = snippet_span(sources.get(entry.module, ""), entry.snippet)
        hit = set() if span is None else {n for n in missed.get(entry.module, ()) if span[0] <= n <= span[1]}
        if not hit:
            problems.append(f"stale entry: {label}")
        covered |= {(entry.module, n) for n in hit}
    for module in sorted(missed):
        lines = sources[module].splitlines()
        for n in sorted(missed[module]):
            if (module, n) not in covered:
                problems.append(f"missed {module}:{n}: {lines[n - 1].strip()}")
    return problems


def main() -> int:
    import pytest

    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    expected = {str(PACKAGE / m): executable_lines(text, str(PACKAGE / m)) for m, text in sources.items()}
    os.chdir(ROOT)  # pyproject.toml puts src on the path
    with tempfile.TemporaryDirectory(prefix="reallot-linecov-") as spool:
        tracer = Tracer(expected, spool)
        os.register_at_fork(after_in_child=lambda: sys.settrace(tracer))
        multiprocessing.util.register_after_fork(tracer, Tracer.arm_flush)
        args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]
        args += [f"--deselect={test}" for test in DESELECTED]
        sys.settrace(tracer)
        try:
            status = pytest.main(args)
        finally:
            sys.settrace(None)
        workers = tracer.merge_spool()
    missed = {Path(f).name: lines - tracer.hits[f] for f, lines in expected.items()}
    total = sum(len(lines) for lines in expected.values())
    run = total - sum(len(lines) for lines in missed.values())
    print(f"{run} of {total} function-body lines of src/reallot ran ({workers} forked workers traced)")
    problems = judge(missed, sources, ALLOWED, {m.name for m in CATALOGUE})
    if status != 0:
        problems.append(f"the traced suite failed: pytest exit {int(status)}")
    for problem in problems:
        print(problem)
    print(f"{len(ALLOWED)} allowed entries, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
