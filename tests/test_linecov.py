"""The rules of the line-coverage gate, on planted input. The gate itself,
``python tests/linecov.py``, traces the whole suite and is run by hand;
these tests check what it counts and what it refuses."""

import linecov
from mutants import CATALOGUE

MODULE = '''def f(x):
    """doc"""
    total = 0
    def g():
        nonlocal total
        total += 1
    if x:
        g()
    else:
        return -1
    return total
'''

ENTRY = linecov.Allowed("m.py", "        return -1\n", linecov.CHILD)


def test_only_function_body_statements_count():
    # Not the def lines, the docstring, ``nonlocal`` or ``else:``.
    assert linecov.executable_lines(MODULE, "m.py") == {3, 4, 6, 7, 8, 10, 11}


def test_a_missed_line_off_the_list_fails():
    assert linecov.judge({"m.py": {10}}, {"m.py": MODULE}, [ENTRY], set()) == []
    assert linecov.judge({"m.py": {8, 10}}, {"m.py": MODULE}, [ENTRY], set()) == [
        "missed m.py:8: g()"
    ]


def test_stale_entries_and_bad_reasons_fail():
    sources = {"m.py": MODULE}
    assert linecov.judge({"m.py": set()}, sources, [ENTRY], set()) == [
        "stale entry: m.py: 'return -1'"
    ]
    gone = ENTRY._replace(snippet="return -2")
    assert linecov.judge({"m.py": {10}}, sources, [ENTRY, gone], set()) == [
        "stale entry: m.py: 'return -2'"
    ]
    guard = ENTRY._replace(reason=linecov.GUARD + "m")
    assert linecov.judge({"m.py": {10}}, sources, [guard], {"m"}) == []
    assert linecov.judge({"m.py": {10}}, sources, [guard], {"n"}) == [
        "bad reason 'invariant guard, killed by mutant m': m.py: 'return -1'"
    ]


def test_the_allow_list_names_live_snippets_and_catalogued_mutants():
    sources = {p.name: p.read_text() for p in linecov.PACKAGE.glob("*.py")}
    every = {m: set(range(1, len(text.splitlines()) + 1)) for m, text in sources.items()}
    problems = linecov.judge(every, sources, linecov.ALLOWED, {m.name for m in CATALOGUE})
    assert [p for p in problems if not p.startswith("missed ")] == []
