import ast
import concurrent.futures
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reallot import equivalence
from reallot.cli import (
    main,
    parse_allocation,
    parse_instance,
    render_profile_table,
    serialize_allocation,
    serialize_instance,
)
from reallot.core import Allocation, Instance, LinearOrder, ParseError, Preference, Profile
from reallot.efficiency import find_blocking_pair, find_improving_cycle, pareto_dominates

from conftest import pool_small_sweeps, profile_from

EXAMPLE_INSTANCE = """\
order: h1 h2 h3
endow: a1:h1 a2:h2 a3:h3
agent a1: h2 h3 h1
agent a2: h3 h1 h2
agent a3: h1 h2 h3
"""

EXAMPLE_MU = """\
a1 -> h3
a2 -> h1
a3 -> h2
"""

EXAMPLE_NU = """\
a1 -> h2
a2 -> h3
a3 -> h1
"""

EXAMPLE_TABLE = """\
P_a1     P_a2     P_a3
h2 [nu]  h3 [nu]  h1 [nu]
h3 [mu]  h1 [mu]  h2 [mu]
h1       h2       h3"""


@pytest.fixture
def example_files(tmp_path):
    instance = tmp_path / "instance.txt"
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    instance.write_text(EXAMPLE_INSTANCE)
    mu.write_text(EXAMPLE_MU)
    nu.write_text(EXAMPLE_NU)
    return instance, mu, nu


def test_instance_round_trip(gap_example):
    profile, _, _ = gap_example
    text = serialize_instance(profile)
    assert text == EXAMPLE_INSTANCE
    assert parse_instance(text) == profile
    assert serialize_instance(parse_instance(EXAMPLE_INSTANCE)) == EXAMPLE_INSTANCE


def test_allocation_round_trip(gap_example):
    profile, mu, _ = gap_example
    inst = profile.instance
    assert serialize_allocation(inst, mu) == EXAMPLE_MU
    assert parse_allocation(EXAMPLE_MU, inst) == mu
    assert serialize_allocation(inst, parse_allocation(EXAMPLE_NU, inst)) == EXAMPLE_NU


def test_parse_accepts_comments_and_blank_lines(gap_example):
    profile, _, _ = gap_example
    text = "# gap instance\n\n" + EXAMPLE_INSTANCE.replace(
        "endow:", "\n# endowments\nendow:"
    )
    assert parse_instance(text) == profile


def test_parse_defaults_endowment():
    text = "order: h1 h2 h3\nagent a1: h1 h2 h3\nagent a2: h2 h1 h3\nagent a3: h3 h1 h2\n"
    profile = parse_instance(text)
    assert profile.instance.endowment == (0, 1, 2)


def test_parse_errors_carry_line_numbers():
    bad_rank = "order: h1 h2 h3\nagent a1: h2 h3\nagent a2: h3 h1 h2\nagent a3: h1 h2 h3\n"
    with pytest.raises(ParseError) as err:
        parse_instance(bad_rank)
    assert err.value.line == 2
    bad_house = "order: h1 h2 h3\nagent a1: h1 h9 h2\nagent a2: h3 h1 h2\nagent a3: h1 h2 h3\n"
    with pytest.raises(ParseError, match="^line 2: unknown house in ranking: h9$"):
        parse_instance(bad_house)
    with pytest.raises(ParseError) as err:
        parse_instance("agent a1: h1 h2 h3\n")
    assert "order" in str(err.value)
    with pytest.raises(ParseError):
        parse_instance("order: h1 h2 h3\nagent a1: h1 h2 h3\n")
    dup = EXAMPLE_INSTANCE + "agent a1: h1 h2 h3\n"
    with pytest.raises(ParseError):
        parse_instance(dup)


def test_allocation_parse_errors(gap_example):
    profile, _, _ = gap_example
    inst = profile.instance
    with pytest.raises(ParseError) as err:
        parse_allocation("a1 -> h3\na3 -> h1\na2 -> h2\n", inst)
    assert err.value.line == 2  # agent order must match the instance
    with pytest.raises(ParseError):
        parse_allocation("a1 -> h3\na2 -> h3\na3 -> h2\n", inst)
    with pytest.raises(ParseError):
        parse_allocation("a1 h3\n", inst)


# Text near the formats' grammar reaches deeper into the parsers than
# arbitrary text alone.
TOKENS = ["order:", "endow:", "agent ", "a1", "a2", "a3", "h1", "h2", "h3", "h4", ":", "->", " ", "\n", "#", "x"]
TEXT = st.one_of(st.text(max_size=80), st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_parsers_return_or_raise_parse_error_on_any_text(text):
    inst = parse_instance(EXAMPLE_INSTANCE).instance
    for parse in (parse_instance, lambda t: parse_allocation(t, inst)):
        try:
            parse(text)
        except ParseError:
            pass


# Agent names near what the formats cannot carry: a leading '#' reads as
# a comment, '->' as the allocation separator, whitespace as a token break.
RISKY_NAME = st.text(alphabet="ab#->: \t", min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(RISKY_NAME, min_size=3, max_size=3), st.permutations(range(3)))
def test_agent_names_parse_only_when_both_formats_carry_them(names, assign):
    text = "order: h1 h2 h3\n" + "".join(f"agent {name}: h1 h2 h3\n" for name in names)
    try:
        profile = parse_instance(text)
    except ParseError:
        return
    assert parse_instance(serialize_instance(profile)) == profile
    mu = Allocation(tuple(assign))
    assert parse_allocation(serialize_allocation(profile.instance, mu), profile.instance) == mu


@pytest.mark.parametrize("name", ["#a", "x->y", "a b"])
def test_ttc_and_check_refuse_unwritable_agent_names(tmp_path, capsys, name):
    instance = tmp_path / "instance.txt"
    instance.write_text(
        f"order: h1 h2 h3\nagent a1: h2 h3 h1\nagent {name}: h3 h1 h2\nagent a3: h1 h2 h3\n"
    )
    mu = tmp_path / "mu.txt"
    mu.write_text(f"a1 -> h1\n{name} -> h2\na3 -> h3\n")
    out = tmp_path / "out.txt"
    assert main(["ttc", str(instance), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["check", str(instance), str(mu)]) == 2
    refusal = f"agent name {name!r} may not start with '#' or hold '->' or whitespace"
    assert capsys.readouterr().err == f"error: line 3: {refusal}\n" * 2


# Names are single tokens without the formats' separators.
NAME = st.text(alphabet="abcxyzAB0123456789_.", min_size=1, max_size=4)


@st.composite
def named_profiles(draw, max_n=5):
    n = draw(st.integers(3, max_n))
    agents = draw(st.lists(NAME, min_size=n, max_size=n, unique=True))
    houses = draw(st.lists(NAME, min_size=n, max_size=n, unique=True))
    endowment = draw(st.permutations(range(n)))
    order = LinearOrder.from_left_to_right(draw(st.permutations(range(n))))
    prefs = [Preference(tuple(draw(st.permutations(range(n))))) for _ in range(n)]
    profile = Profile(Instance(tuple(agents), tuple(houses), tuple(endowment), order), tuple(prefs))
    return profile, Allocation(tuple(draw(st.permutations(range(n)))))


@settings(max_examples=150, deadline=None)
@given(named_profiles())
def test_serialize_parse_serialize_is_a_fixed_point(case):
    profile, mu = case
    text = serialize_instance(profile)
    parsed = parse_instance(text)
    assert serialize_instance(parsed) == text
    alloc_text = serialize_allocation(profile.instance, mu)
    again = parse_allocation(alloc_text, parsed.instance)
    assert serialize_allocation(parsed.instance, again) == alloc_text


def test_table_rendering(gap_example):
    profile, mu, nu = gap_example
    assert render_profile_table(profile, mu, nu) == EXAMPLE_TABLE
    colored = render_profile_table(profile, mu, nu, color=True)
    assert "\x1b[34m" in colored and "\x1b[31m" in colored and "[mu]" not in colored


def test_table_marks_shared_assignments():
    profile = profile_from("h2 h1 h3 h4", "h1 h2 h3 h4", "h4 h3 h2 h1", "h4 h3 h2 h1")
    mu = Allocation((0, 1, 2, 3))
    nu = Allocation((1, 0, 2, 3))
    table = render_profile_table(profile, mu, nu)
    assert "h3 [mu][nu]" in table  # a3 keeps h3 under both


def test_check_command(example_files, capsys):
    instance, mu, nu = example_files
    code = main(["check", str(instance), str(mu), "--pair"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "pair-efficient: yes\n"

    code = main(["check", str(instance), str(mu), "--pareto"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "pareto-efficient: no\n  improving cycle: a1 a3 a2\n"

    code = main(["check", str(instance), str(mu)])
    out = capsys.readouterr().out
    assert code == 1
    assert "pair-efficient: yes" in out
    assert "individually-rational: yes" in out

    code = main(["check", str(instance), str(nu)])
    assert code == 0
    capsys.readouterr()


def test_check_reports_blocking_and_ir_failures(tmp_path, capsys):
    instance = tmp_path / "inst.txt"
    instance.write_text(
        "order: h1 h2 h3\nagent a1: h2 h1 h3\nagent a2: h1 h2 h3\nagent a3: h3 h2 h1\n"
    )
    identity = tmp_path / "id.txt"
    identity.write_text("a1 -> h1\na2 -> h2\na3 -> h3\n")
    code = main(["check", str(instance), str(identity), "--pair"])
    out = capsys.readouterr().out
    assert code == 1
    assert "blocking pair: a1 a2" in out

    swapped = tmp_path / "swapped.txt"
    swapped.write_text("a1 -> h3\na2 -> h2\na3 -> h1\n")
    code = main(["check", str(instance), str(swapped), "--ir"])
    out = capsys.readouterr().out
    assert code == 1
    assert "individually-rational: no" in out
    assert "hurt agent: a1 (assigned h3, endowed h1)" in out


def test_check_parse_failures_exit_two(example_files, tmp_path, capsys):
    instance, mu, _ = example_files
    bad = tmp_path / "bad.txt"
    bad.write_text("order: h1 h2 h3\nagent a1: h2 h9 h1\n")
    assert main(["check", str(bad), str(mu)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert main(["check", str(tmp_path / "missing.txt"), str(mu)]) == 2
    capsys.readouterr()


def test_verify_command_outputs(capsys):
    assert main(["verify", "--domain", "sp", "--n", "3", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "domain: sp",
        "n: 3",
        "scope: exhaustive",
        "profiles checked: 64",
        "allocations checked: 384",
        "violations: 0",
    ]

    assert main(["verify", "--domain", "sp,sd,sp", "--n", "3", "--exhaustive"]) == 1
    out = capsys.readouterr().out
    assert "violations: 4" in out
    assert "  profile: a1: h2 h3 h1 | a2: h3 h1 h2 | a3: h1 h2 h3" in out
    assert "  mu: a1->h3 a2->h1 a3->h2" in out
    assert "  nu: a1->h2 a2->h3 a3->h1" in out

    assert main(["verify", "--domain", "union", "--n", "3", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "profiles checked: 120" in out


@pytest.mark.usefixtures("small_sweeps_pool")
def test_verify_is_deterministic_across_jobs(capsys):
    args = ["verify", "--domain", "sp,sd,sp", "--n", "3", "--exhaustive"]
    main(args)
    one = capsys.readouterr().out
    main(args + ["--jobs", "2"])
    two = capsys.readouterr().out
    assert one == two

    args = ["verify", "--domain", "sd", "--n", "4", "--random", "30", "--seed", "7"]
    main(args)
    one = capsys.readouterr().out
    main(args + ["--jobs", "2"])
    two = capsys.readouterr().out
    assert one == two


def test_verify_budget_exit(monkeypatch, capsys):
    monkeypatch.setenv("REALLOT_BUDGET", "5")
    assert main(["verify", "--domain", "sp", "--n", "3", "--exhaustive"]) == 3
    capsys.readouterr()


def test_verify_n5_exhaustive_is_refused_by_the_default_budget(monkeypatch, capsys):
    monkeypatch.delenv("REALLOT_BUDGET", raising=False)
    assert main(["verify", "--domain", "sp", "--n", "5", "--exhaustive"]) == 3
    err = capsys.readouterr().err
    assert err == "error: exhaustive sweep needs 125829120 checks, budget is 100000000\n"


def test_verify_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-3"):
        args = ["verify", "--domain", "sp", "--n", "3", "--exhaustive", "--jobs", jobs]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"


def test_verify_checks_the_agent_count_before_the_spec(capsys):
    for n in ("-1", "0", "2"):
        for domain in ("sp", "union", "sp,sd"):
            assert main(["verify", "--domain", domain, "--n", n, "--random", "3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: need at least 3 agents, got {n}\n"
    assert main(["verify", "--domain", "sp", "--n", "9", "--random", "3"]) == 3
    assert capsys.readouterr().err == "error: domain sweeps are guarded to n <= 8\n"


def test_verify_guards_huge_agent_counts_before_the_spec(capsys):
    # The spec holds one entry per agent; the guard must refuse first,
    # so neither count allocates anything.
    for n in ("1000000000000", "100000000000000000000"):
        assert main(["verify", "--domain", "sp", "--n", n, "--random", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: domain sweeps are guarded to n <= 8\n"


def test_internal_invariant_failure_exits_four(monkeypatch, capsys):
    # An oracle that finds no dominator for any gap the cycle checker saw.
    monkeypatch.setattr(
        equivalence, "_first_dominators", lambda prefs, assigns: [None] * len(assigns)
    )
    assert main(["verify", "--domain", "sp,sd,sp", "--n", "3", "--exhaustive"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: cycle checker and brute-force oracle disagree\n"
    assert "Traceback" not in captured.out + captured.err


SRC = str(Path(equivalence.__file__).resolve().parents[1])

# Runs in a fresh interpreter: the reallot modules loaded, space-separated.
LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'reallot'))"


def _fresh(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def test_cli_import_leaves_the_worker_pool_unloaded():
    code = (
        "import sys, reallot.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)); "
        + LOADED
    )
    done = _fresh(code)
    assert done.stdout == "[]\nreallot reallot.cli reallot.core\n"


def test_package_import_loads_no_submodule():
    assert _fresh("import sys, reallot; " + LOADED).stdout == "reallot\n"


def test_every_public_name_resolves():
    import reallot

    star: dict = {}
    exec("from reallot import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(reallot.__all__)
    listed = dir(reallot)
    for name in reallot.__all__:
        assert name in listed
        assert star[name] is getattr(reallot, name)
    assert "EnvyGraph" not in listed
    with pytest.raises(AttributeError):
        reallot.EnvyGraph


# The heavy stdlib modules the value types used to load through
# ``dataclasses``, as a second line: those of them already loaded.
HEAVY = "print(*sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"


def _run_main(argv, cwd) -> subprocess.CompletedProcess:
    """``reallot.cli.main`` in a fresh interpreter, its exit code printed to
    stderr and its stdout swallowed; stdout is ``LOADED`` then ``HEAVY``."""
    code = (
        "import contextlib, io, sys, reallot.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    print(reallot.cli.main(sys.argv[1:]), file=sys.stderr)\n"
        + LOADED + "\n" + HEAVY
    )
    return _fresh(code, *argv, cwd=cwd)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["check", "instance.txt", "mu.txt"], "efficiency"),
        (["check", "--ir", "instance.txt", "nu.txt"], "efficiency"),
        (["count", "instance.txt"], "efficiency"),
        (["enum", "--sd", "--m", "4"], "domains"),
        (["ttc", "instance.txt"], "rules"),
        (
            ["verify", "--domain", "sp", "--n", "3", "--exhaustive"],
            "domains efficiency equivalence",
        ),
        (
            ["synth", "--mode", "sd", "--pref", "h2 h3 h1", "--out", "b"],
            "construct domains efficiency",
        ),
    ],
    ids=["check", "check-ir", "count", "enum", "ttc", "verify", "synth"],
)
def test_each_subcommand_loads_only_what_it_runs(example_files, tmp_path, argv, extra):
    done = _run_main(argv, tmp_path)
    assert done.stderr in ("0\n", "1\n")
    loaded, heavy = done.stdout.splitlines()
    expected = {"reallot", "reallot.cli", "reallot.core"} | {f"reallot.{m}" for m in extra.split()}
    assert loaded.split() == sorted(expected)
    # No command loads what a bare interpreter does not already hold.
    assert heavy == _fresh("import sys\n" + HEAVY).stdout.rstrip("\n")


@pytest.mark.parametrize("argv", [["check", "mu.txt", "mu.txt"], ["count", "mu.txt"], ["ttc", "mu.txt"]])
def test_a_malformed_input_loads_only_the_core(example_files, tmp_path, argv):
    # An allocation file read as the instance fails on its first line.
    done = _run_main(argv, tmp_path)
    assert done.stderr == "error: line 1: expected an 'order:' line first\n2\n"
    assert done.stdout.splitlines()[0].split() == ["reallot", "reallot.cli", "reallot.core"]


def test_runtime_is_stdlib_only_and_the_module_map_is_complete():
    package = Path(SRC) / "reallot"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    readme = (Path(SRC).parent / "README.md").read_text()
    table = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)`", table, re.MULTILINE)) == modules


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_nonpositive_trials(trials):
    done = _fresh(
        "import sys, reallot.cli; sys.exit(reallot.cli.main(sys.argv[1:]))",
        "verify", "--domain", "sp", "--n", "3", "--random", trials,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_closed_output_pipe_exits_one_without_a_traceback():
    # 40,320 lines overflow any pipe buffer, so the writer meets the closed end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "reallot.cli", "enum", "--all", "--m", "8"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"h1 h2 h3 h4 h5 h6 h7 h8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err
    assert err == b""


def _capped_enum(*args: str) -> subprocess.Popen:
    """``reallot enum`` in a child whose address space is capped at 400 MB,
    far below what listing a family of 2^26 or more would take."""
    import resource

    cap = 400 << 20
    env = {k: v for k, v in os.environ.items() if k != "REALLOT_BUDGET"}
    return subprocess.Popen(
        [sys.executable, "-m", "reallot.cli", "enum", *args],
        env=dict(env, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize(
    "args, size",
    [(("--sp", "--m", "30"), "2^29"), (("--all", "--m", "1000000000000"), "1000000000000!")],
)
def test_enum_refuses_families_over_the_budget_before_building_them(args, size):
    proc = _capped_enum(*args)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert out == b""
    assert err == f"error: enum needs {size} preferences, budget is 100000000\n".encode()


@pytest.mark.parametrize("family", ["--sp", "--sd"])
def test_enum_streams_families_under_the_budget(family):
    # 2^26 preferences fit the budget but not the cap: the first line must
    # come out before the rest is built.
    proc = _capped_enum(family, "--m", "27")
    assert proc.stdout.readline() == " ".join(f"h{i}" for i in range(1, 28)).encode() + b"\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_enum_budget_follows_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("REALLOT_BUDGET", "7")
    assert main(["enum", "--sp", "--m", "4"]) == 3
    assert capsys.readouterr().err == "error: enum needs 2^3 preferences, budget is 7\n"
    assert main(["enum", "--all", "--m", "4"]) == 3
    assert capsys.readouterr().err == "error: enum needs 4! preferences, budget is 7\n"
    assert main(["enum", "--sd", "--m", "3"]) == 0
    assert capsys.readouterr().out == "h1 h2 h3\nh1 h3 h2\nh3 h1 h2\nh3 h2 h1\n"
    assert main(["enum", "--all", "--m", "0"]) == 2
    assert capsys.readouterr().err == "error: need at least one house\n"


def test_a_malformed_budget_names_the_variable(monkeypatch, capsys):
    # Not a count of checks: an input error (exit 2) that says which
    # variable is wrong, not int()'s message or a refusal of every sweep.
    sweeps = (["verify", "--domain", "sp", "--n", "3", "--exhaustive"], ["enum", "--sp", "--m", "3"])
    for value in ("abc", "1e9", "-5"):
        monkeypatch.setenv("REALLOT_BUDGET", value)
        for args in sweeps:
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: REALLOT_BUDGET must be a non-negative integer, got '{value}'\n"
            )
    # Any spelling int() reads as a count is still a budget.
    for value in ("+7", "0_7", " 7 "):
        monkeypatch.setenv("REALLOT_BUDGET", value)
        assert main(["enum", "--sp", "--m", "4"]) == 3
        assert capsys.readouterr().err == "error: enum needs 2^3 preferences, budget is 7\n"


def test_synth_command_writes_expected_bundle(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code = main(
        ["synth", "--mode", "sd", "--pref", "h2 h3 h1", "--n", "3", "--out", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "mode: sd (case 1)" in out
    assert "roles: a=a1 a'=a2 a~=a3" in out
    assert "witness: h=h1 h'=h2 h~=h3" in out
    assert EXAMPLE_TABLE in out
    assert (out_dir / "instance.txt").read_text() == EXAMPLE_INSTANCE
    assert (out_dir / "mu.txt").read_text() == EXAMPLE_MU
    assert (out_dir / "nu.txt").read_text() == EXAMPLE_NU


def test_synth_sp_mode(tmp_path, capsys):
    code = main(
        ["synth", "--mode", "sp", "--pref", "h1 h3 h2", "--out", str(tmp_path / "b")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "mode: sp" in out and "case" not in out.splitlines()[0]
    text = (tmp_path / "b" / "instance.txt").read_text()
    assert "agent a2: h2 h1 h3" in text
    assert "agent a3: h3 h2 h1" in text


def test_synth_rejects_family_members(capsys):
    assert main(["synth", "--mode", "sp", "--pref", "h1 h2 h3"]) == 1
    assert "single-peaked" in capsys.readouterr().err
    assert main(["synth", "--mode", "sd", "--pref", "h3 h1 h2"]) == 1
    capsys.readouterr()


def test_synth_argument_validation(capsys):
    assert main(["synth", "--mode", "sp", "--pref", "h1 h3 h2", "--n", "4"]) == 2
    assert main(["synth", "--mode", "sp", "--pref", "h1 h3 h2", "--order", "h1 h2"]) == 2
    capsys.readouterr()


# House names that collide with the file formats' separators and keywords.
HOSTILE_NAME = st.one_of(
    st.sampled_from(["x:y", "a->b", "#c", "endow:", "order:", "agent", "->", ":"]), NAME
)


@st.composite
def synth_argv(draw):
    houses = draw(st.lists(HOSTILE_NAME, min_size=1, max_size=6, unique=True))
    argv = ["synth", "--mode", draw(st.sampled_from(["sp", "sd"]))]
    argv.append("--pref=" + " ".join(draw(st.permutations(houses))))
    if draw(st.booleans()):
        argv.append("--order=" + " ".join(draw(st.permutations(houses))))
    seed = draw(st.none() | st.integers(0, 1000))
    if seed is not None:
        argv += ["--seed", str(seed)]
    # A fresh directory, a nested one, an existing one, or an existing file.
    return argv, draw(st.sampled_from(["out", "a/b", ".", "taken.txt"]))


@settings(max_examples=200, deadline=None)
@given(synth_argv())
def test_synth_fuzz_exits_cleanly_and_writes_a_checked_bundle(case):
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "taken.txt").write_text("not a directory\n")
        target = os.path.join(tmp, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", target])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert stdout.getvalue() == ""
            return
        profile = parse_instance(Path(target, "instance.txt").read_text(encoding="utf-8"))
        mu, nu = (
            parse_allocation(Path(target, name).read_text(encoding="utf-8"), profile.instance)
            for name in ("mu.txt", "nu.txt")
        )
    assert find_blocking_pair(profile, mu) is None
    assert find_improving_cycle(profile, mu) is not None
    assert pareto_dominates(profile, nu, mu)


@st.composite
def cli_files(draw):
    """Instance and allocation bytes: a valid pair at n <= 4, each file kept,
    spliced with a few bytes, or replaced by arbitrary bytes or by text
    near the grammar, so that some runs get past the parsers."""
    profile, mu = draw(named_profiles(max_n=4))
    files = []
    for text in (serialize_instance(profile), serialize_allocation(profile.instance, mu)):
        data = text.encode()
        how = draw(st.sampled_from(["valid", "valid", "spliced", "binary", "text"]))
        if how == "spliced":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
        elif how == "binary":
            data = draw(st.binary(max_size=120))
        elif how == "text":
            data = draw(TEXT).encode()
        files.append(data)
    return files


KINDS = st.sampled_from(["sp", "sd", "all"])


@st.composite
def cli_argv(draw):
    """An argv for one of check, ttc, count, enum and verify, and the
    --jobs it asks for. Sweeps stay at n <= 4 and --random <= 50."""
    command = draw(st.sampled_from(["check", "ttc", "count", "enum", "verify"]))
    instance = draw(st.sampled_from(["{instance}"] * 3 + ["{missing}"]))
    jobs = 1
    if command == "check":
        argv = ["check", instance, "{allocation}"]
        argv += [f for f in ("--pair", "--pareto", "--ir") if draw(st.booleans())]
    elif command == "ttc":
        argv = ["ttc", instance] + draw(st.sampled_from([[], ["--out", "{out}"]]))
    elif command == "count":
        argv = ["count", instance]
    elif command == "enum":
        kind = draw(st.sampled_from(["--sp", "--sd", "--all"]))
        argv = ["enum", kind, "--m", str(draw(st.integers(-2, 4)))]
    else:
        n = draw(st.integers(3, 4) | st.integers(-1, 4))
        domain = draw(
            st.sampled_from(["sp", "sd", "all", "union", "x", ""])
            | st.lists(KINDS, min_size=max(n, 1), max_size=max(n, 1)).map(",".join)
            | st.lists(KINDS, min_size=1, max_size=5).map(",".join)
        )
        argv = ["verify", "--domain", domain, "--n", str(n)]
        if draw(st.booleans()):
            argv.append("--exhaustive")
        else:
            argv += ["--random", str(draw(st.integers(-2, 50)))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(-5, 2**40)))]
        if draw(st.booleans()):
            jobs = draw(st.integers(2, 4) | st.integers(-1, 10**6))
            argv += ["--jobs", str(jobs)]
    if draw(st.integers(0, 9)) == 0:  # an argparse error: one argument dropped
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, jobs


@settings(max_examples=200, deadline=None)
@given(cli_argv(), cli_files())
def test_cli_fuzz_exits_cleanly_and_starts_no_runaway_pool(case, files):
    argv, jobs = case
    instance_bytes, allocation_bytes = files
    sizes = []

    class RecordingPool:
        """Records the worker count it is asked for and runs the tasks in
        this process, so that no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    with tempfile.TemporaryDirectory() as tmp:
        keys = ("instance", "allocation", "missing", "out")
        paths = {key: os.path.join(tmp, f"{key}.txt") for key in keys}
        Path(paths["instance"]).write_bytes(instance_bytes)
        Path(paths["allocation"]).write_bytes(allocation_bytes)
        stdout, stderr = io.StringIO(), io.StringIO()
        # A small budget keeps exhaustive n = 4 sweeps of `all` on the
        # refusal path (exit 3) and the rest quick. Every sweep with jobs
        # >= 2 reaches the recording pool, however small its work, so the
        # worker counts below are those the pool would be asked for.
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", RecordingPool), \
                pool_small_sweeps(), mock.patch.dict(os.environ, {"REALLOT_BUDGET": "100000"}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    assert all(size <= min(jobs, equivalence._usable_cpus()) for size in sizes)


def test_ttc_command(example_files, tmp_path, capsys):
    instance, _, _ = example_files
    assert main(["ttc", str(instance)]) == 0
    assert capsys.readouterr().out == EXAMPLE_NU
    out_file = tmp_path / "result.txt"
    assert main(["ttc", str(instance), "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text() == EXAMPLE_NU


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "reallot.cli", *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )


def test_unwritable_outputs_exit_two_without_a_traceback(example_files, tmp_path):
    instance, _, _ = example_files
    missing = tmp_path / "missing" / "x.txt"
    ttc = _cli("ttc", str(instance), "--out", str(missing))
    synth = _cli("synth", "--mode", "sp", "--pref", "h1 h3 h2", "--out", str(instance))
    for done, path, reason in (
        (ttc, missing, "No such file or directory"),
        (synth, instance, "File exists"),
    ):
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == f"error: cannot write {path}: {reason}\n"
    assert not missing.parent.exists()
    assert instance.read_text() == EXAMPLE_INSTANCE


def test_a_failed_synth_write_leaves_no_partial_bundle(tmp_path):
    # mu.txt cannot be written, so instance.txt, already written, must go
    # again, and so must every temporary file.
    out = tmp_path / "out"
    (out / "mu.txt").mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, "-m", "reallot.cli", "synth", "--mode", "sp", "--pref", "h1 h3 h2",
         "--out", "out"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: cannot write out/mu.txt: Is a directory\n"
    assert os.listdir(out) == ["mu.txt"]
    assert os.listdir(out / "mu.txt") == []
    (out / "mu.txt").rmdir()
    assert _cli("synth", "--mode", "sp", "--pref", "h1 h3 h2", "--out", str(out)).returncode == 0
    assert sorted(os.listdir(out)) == ["instance.txt", "mu.txt", "nu.txt"]


def test_files_that_are_not_utf8_are_named_in_one_error_line(example_files, tmp_path, capsys):
    instance, _, _ = example_files
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"order: h1 h2 h3\n\xff\xfe\n")
    assert main(["count", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {bad}: not UTF-8 text\n"
    assert main(["check", str(instance), str(bad)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {bad}: not UTF-8 text\n"


def test_count_command(example_files, capsys):
    instance, _, _ = example_files
    assert main(["count", str(instance)]) == 0
    out = capsys.readouterr().out
    assert out == "pair_count  pareto_count\n2           1\n"


def test_count_command_common_ranking(tmp_path, capsys):
    shared = tmp_path / "shared.txt"
    shared.write_text(
        "order: h1 h2 h3\nagent a1: h2 h3 h1\nagent a2: h2 h3 h1\nagent a3: h2 h3 h1\n"
    )
    assert main(["count", str(shared)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["6", "6"]


def test_enum_command(capsys):
    assert main(["enum", "--sp", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "h1 h2 h3\nh2 h1 h3\nh2 h3 h1\nh3 h2 h1\n"
    assert main(["enum", "--sd", "--m", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert main(["enum", "--all", "--m", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_bad_flags_exit_two(capsys):
    assert main(["verify", "--domain", "sp", "--n", "3"]) == 2  # no scope picked
    assert main(["nonsense"]) == 2
    capsys.readouterr()
