"""Command-line surface and the line-based text formats.

Instance files carry the order line, an optional endowment line, and one
ranking line per agent; allocation files carry one ``agent -> house`` line
per agent. In canonical form the house indices follow the order line, so
parse and serialize round-trip byte-identically.

Exit codes: 0 all requested checks pass, 1 semantic failure or a reader
that closed the output pipe early, 2 input error, 3 budget or guard
exceeded, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# Each command imports what it runs, so that a one-instance check does not
# load the sweeps, the rules or the synthesizers; the commands that read
# files import only after the files parse, so malformed input loads core
# alone.
from .core import (
    SINGLE_DIPPED,
    SINGLE_PEAKED,
    Allocation,
    BudgetError,
    Instance,
    LinearOrder,
    ParseError,
    Preference,
    Profile,
    _resolve_budget,
)

BLUE = "\x1b[34m"
RED = "\x1b[31m"
RESET = "\x1b[0m"


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_instance(text: str) -> Profile:
    """Parse an instance file into a profile (instance plus preferences)."""
    houses: tuple[str, ...] | None = None
    endow_line: tuple[int, str] | None = None
    agent_lines: list[tuple[int, str, str]] = []
    for lineno, line in _significant_lines(text):
        if houses is None:
            if not line.startswith("order:"):
                raise ParseError("expected an 'order:' line first", lineno)
            names = line[len("order:") :].split()
            if len(set(names)) != len(names) or not names:
                raise ParseError("order line must list distinct houses", lineno)
            houses = tuple(names)
        elif line.startswith("endow:"):
            if endow_line is not None:
                raise ParseError("duplicate 'endow:' line", lineno)
            endow_line = (lineno, line[len("endow:") :])
        elif line.startswith("agent "):
            body = line[len("agent ") :]
            name, sep, ranking = body.partition(":")
            name = name.strip()
            if not sep or not name:
                raise ParseError("expected 'agent <name>: <ranking>'", lineno)
            # The allocation format reads '#' as a comment and '->' as its
            # separator, and both formats split on whitespace.
            if name.startswith("#") or "->" in name or name.split() != [name]:
                raise ParseError(
                    f"agent name {name!r} may not start with '#' or hold '->' or whitespace",
                    lineno,
                )
            agent_lines.append((lineno, name, ranking))
        else:
            raise ParseError(f"unrecognized line: {line}", lineno)
    if houses is None:
        raise ParseError("missing 'order:' line")
    if not agent_lines:
        raise ParseError("no agent lines found")

    house_index = {name: i for i, name in enumerate(houses)}
    n = len(houses)

    def indices(names, where: str, lineno: int) -> list[int]:
        for name in names:
            if name not in house_index:
                raise ParseError(f"unknown house in {where}: {name}", lineno)
        return [house_index[name] for name in names]

    agents: list[str] = []
    prefs: list[Preference] = []
    for lineno, name, ranking_text in agent_lines:
        if name in agents:
            raise ParseError(f"duplicate agent name: {name}", lineno)
        agents.append(name)
        ranking = indices(ranking_text.split(), "ranking", lineno)
        if sorted(ranking) != list(range(n)):
            raise ParseError("ranking must list every house exactly once", lineno)
        prefs.append(Preference(ranking))
    if len(agents) != n:
        raise ParseError(f"found {len(agents)} agents for {n} houses")

    endowment = tuple(range(n))
    if endow_line is not None:
        lineno, body = endow_line
        pairs = body.split()
        mapping: dict[str, str] = {}
        for pair in pairs:
            agent, sep, house = pair.partition(":")
            if not sep:
                raise ParseError(f"expected '<agent>:<house>', got {pair}", lineno)
            if agent in mapping:
                raise ParseError(f"duplicate agent in endow line: {agent}", lineno)
            mapping[agent] = house
        if set(mapping) != set(agents):
            raise ParseError("endow line must cover every agent exactly once", lineno)
        endowment = indices([mapping[name] for name in agents], "endow line", lineno)
        if sorted(endowment) != list(range(n)):
            raise ParseError("endowment must be a bijection", lineno)

    try:
        instance = Instance(agents, houses, endowment, LinearOrder.identity(n))
        return Profile(instance, prefs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(profile: Profile) -> str:
    """Canonical text for a profile: order, endowment, one agent line each."""
    inst = profile.instance
    order_names = " ".join(inst.houses[h] for h in inst.order.by_rank)
    endow = " ".join(
        f"{inst.agents[a]}:{inst.houses[inst.endowment[a]]}" for a in range(inst.n)
    )
    lines = [f"order: {order_names}", f"endow: {endow}"]
    rankings = (format_preference(inst, pref) for pref in profile.prefs)
    lines += [f"agent {name}: {ranking}" for name, ranking in zip(inst.agents, rankings)]
    return "\n".join(lines) + "\n"


def parse_allocation(text: str, instance: Instance) -> Allocation:
    """Parse an allocation file; agent order must match the instance."""
    rows: list[tuple[int, str, str]] = []
    for lineno, line in _significant_lines(text):
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError("expected '<agent> -> <house>'", lineno)
        rows.append((lineno, left.strip(), right.strip()))
    if len(rows) != instance.n:
        raise ParseError(f"expected {instance.n} assignment lines, found {len(rows)}")
    assign = []
    for i, (lineno, agent, house) in enumerate(rows):
        if agent != instance.agents[i]:
            raise ParseError(
                f"expected agent {instance.agents[i]} on this line, got {agent}", lineno
            )
        try:
            assign.append(instance.house_index(house))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    try:
        return Allocation(assign)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_allocation(instance: Instance, allocation: Allocation) -> str:
    lines = [
        f"{instance.agents[a]} -> {instance.houses[allocation.assign[a]]}"
        for a in range(instance.n)
    ]
    return "\n".join(lines) + "\n"


def format_preference(instance: Instance, pref: Preference) -> str:
    return " ".join(instance.houses[h] for h in pref.ranking)


def format_allocation_inline(instance: Instance, allocation: Allocation) -> str:
    return " ".join(
        f"{instance.agents[a]}->{instance.houses[allocation.assign[a]]}"
        for a in range(instance.n)
    )


def render_profile_table(
    profile: Profile,
    mu: Allocation | None = None,
    nu: Allocation | None = None,
    color: bool = False,
) -> str:
    """Per-agent ranking columns with the mu and nu assignments marked.

    Markers are the literal [mu] and [nu] tags; with ``color`` the cells
    are tinted instead (blue for mu, red for nu), for terminals.
    """
    inst = profile.instance
    n = inst.n
    columns: list[list[str]] = []
    for a in range(n):
        cells = [f"P_{inst.agents[a]}"]
        for house in profile.prefs[a].ranking:
            name = inst.houses[house]
            is_mu = mu is not None and mu.assign[a] == house
            is_nu = nu is not None and nu.assign[a] == house
            if color:
                tint = (RED if is_nu else "") + (BLUE if is_mu else "")
                cell = f"{tint}{name}{RESET}" if tint else name
            else:
                tags = ("[mu]" if is_mu else "") + ("[nu]" if is_nu else "")
                cell = f"{name} {tags}" if tags else name
            cells.append(cell)
        columns.append(cells)
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    for row in range(n + 1):
        line = "  ".join(columns[a][row].ljust(widths[a]) for a in range(n))
        lines.append(line.rstrip())
    return "\n".join(lines)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc


def _write_all(folder: str, files: dict[str, str]):
    """Make the directory ``folder`` and write every named file in it, or
    none: each text goes to a temporary file beside its path, and the
    temporaries are renamed into place only once all are written. A failure
    removes the temporaries and the files already renamed."""
    path = folder
    staged: list[str] = []
    placed: list[str] = []
    try:
        os.makedirs(folder, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(folder, name)
            temp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
            with open(temp, "w", encoding="utf-8") as fh:
                staged.append(temp)
                fh.write(text)
        for temp, name in zip(staged, files):
            path = os.path.join(folder, name)
            os.replace(temp, path)
            placed.append(path)
    except OSError as exc:
        for left in staged + placed:
            try:
                os.remove(left)
            except OSError:
                pass
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_check(args) -> int:
    profile = parse_instance(_read(args.instance))
    allocation = parse_allocation(_read(args.allocation), profile.instance)
    from .efficiency import _hurt_agent, find_blocking_pair, find_improving_cycle

    inst = profile.instance
    agents, houses = inst.agents, inst.houses
    # (flag, verdict, checker, the line that names what the checker found)
    rows = (
        (args.pair, "pair-efficient", find_blocking_pair,
         lambda pair: f"blocking pair: {agents[pair[0]]} {agents[pair[1]]}"),
        (args.pareto, "pareto-efficient", find_improving_cycle,
         lambda cycle: "improving cycle: " + " ".join(agents[a] for a in cycle.agents)),
        (args.ir, "individually-rational", _hurt_agent,
         lambda a: f"hurt agent: {agents[a]} (assigned {houses[allocation.assign[a]]}, "
         f"endowed {houses[inst.endowment[a]]})"),
    )
    run_all = not any(row[0] for row in rows)
    failed = False
    for flag, verdict, checker, detail in rows:
        if flag or run_all:
            found = checker(profile, allocation)
            print(f"{verdict}: {'yes' if found is None else 'no'}")
            if found is not None:
                failed = True
                print(f"  {detail(found)}")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    from .domains import DomainSpec, Scope
    from .equivalence import _check_sweep_agents, verify_equivalence

    # Both bounds before the spec: it holds one entry per agent, so a huge
    # count would exhaust memory, and its errors would hide a low count.
    _check_sweep_agents(args.n)
    inst = Instance.default(args.n)
    spec = DomainSpec.parse(args.domain, args.n)
    scope = Scope.exhaustive() if args.random is None else Scope.randomized(args.seed, args.random)
    report = verify_equivalence(spec, args.n, scope, jobs=args.jobs)
    print(f"domain: {spec.describe()}")
    print(f"n: {args.n}")
    print(f"scope: {report.scope.describe()}")
    print(f"profiles checked: {report.profiles_checked}")
    print(f"allocations checked: {report.allocations_checked}")
    print(f"violations: {len(report.violations)}")
    for i, violation in enumerate(report.violations, start=1):
        print(f"violation {i}:")
        prof = " | ".join(
            f"{inst.agents[a]}: {format_preference(inst, violation.profile.prefs[a])}"
            for a in range(args.n)
        )
        print(f"  profile: {prof}")
        print(f"  mu: {format_allocation_inline(inst, violation.mu)}")
        print(f"  nu: {format_allocation_inline(inst, violation.witness.nu)}")
    return 0 if report.ok else 1


def _natural_key(name: str):
    parts = re.split(r"(\d+)", name)
    return [int(p) if p.isdigit() else p for p in parts]


def cmd_synth(args) -> int:
    from .construct import build_sd_counterexample, build_sp_counterexample
    from .domains import is_single_dipped, is_single_peaked

    tokens = args.pref.split()
    if args.order is not None:
        universe = args.order.split()
        if sorted(universe) != sorted(tokens):
            raise ParseError("order and preference must mention the same houses")
    else:
        universe = sorted(tokens, key=_natural_key)
    if len(set(universe)) != len(universe):
        raise ParseError("house names must be distinct")
    if args.n is not None and args.n != len(universe):
        raise ParseError(f"--n {args.n} disagrees with {len(universe)} houses")
    index = {name: i for i, name in enumerate(universe)}
    pref = Preference(tuple(index[t] for t in tokens))
    order = LinearOrder.identity(len(universe))

    member, family, build = {
        "sp": (is_single_peaked, "single-peaked", build_sp_counterexample),
        "sd": (is_single_dipped, "single-dipped", build_sd_counterexample),
    }[args.mode]
    if member(pref, order):
        print(f"preference is {family}; nothing to build", file=sys.stderr)
        return 1
    bundle = build(order, pref, seed=args.seed)

    # Rebuild the profile over the user's house names; agents stay a1..an.
    # The rankings and order are the bundle's, which the builder has
    # already machine-checked.
    inst = Instance(
        bundle.profile.instance.agents,
        universe,
        bundle.profile.instance.endowment,
        order,
    )
    profile = Profile(inst, bundle.profile.prefs)

    # The three files are written, all or none, before anything is
    # printed, so a failed write leaves stdout empty and no partial bundle.
    files = {
        "instance.txt": serialize_instance(profile),
        "mu.txt": serialize_allocation(inst, bundle.mu),
        "nu.txt": serialize_allocation(inst, bundle.nu),
    }
    _write_all(args.out, files)

    a, ap, at = bundle.roles
    h, hp, ht = bundle.witness_triple
    case = f" (case {bundle.case})" if bundle.case is not None else ""
    print(f"mode: {args.mode}{case}")
    print(f"roles: a={inst.agents[a]} a'={inst.agents[ap]} a~={inst.agents[at]}")
    print(f"witness: h={inst.houses[h]} h'={inst.houses[hp]} h~={inst.houses[ht]}")
    print()
    print(render_profile_table(profile, bundle.mu, bundle.nu, color=sys.stdout.isatty()))
    print()
    for name in files:
        print(f"wrote: {os.path.join(args.out, name)}")
    return 0


def cmd_ttc(args) -> int:
    profile = parse_instance(_read(args.instance))
    from .rules import ttc

    allocation = ttc(profile)
    text = serialize_allocation(profile.instance, allocation)
    if args.out:
        _write(args.out, text)
        print(f"wrote: {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_count(args) -> int:
    profile = parse_instance(_read(args.instance))
    from .efficiency import count_efficient

    pair_count, pareto_count = count_efficient(profile)
    header = ("pair_count", "pareto_count")
    width = max(len(header[0]), len(str(pair_count)))
    print(f"{header[0].ljust(width)}  {header[1]}")
    print(f"{str(pair_count).ljust(width)}  {pareto_count}")
    return 0


def cmd_enum(args) -> int:
    from .domains import (
        UNRESTRICTED,
        _family_exceeds,
        enumerate_all_preferences,
        enumerate_single_dipped,
        enumerate_single_peaked,
    )

    kind, m = args.family, args.m
    size, enumerate_family = {
        SINGLE_PEAKED: (f"2^{m - 1}", enumerate_single_peaked),
        SINGLE_DIPPED: (f"2^{m - 1}", enumerate_single_dipped),
        UNRESTRICTED: (f"{m}!", lambda order: enumerate_all_preferences(m)),
    }[kind]
    # Sized before any name or order is built: a huge --m must be refused,
    # not allocated. Under the budget the families stream.
    budget = _resolve_budget(None)
    if _family_exceeds(kind, m, budget):
        raise BudgetError(f"enum needs {size} preferences, budget is {budget}")
    inst_names = tuple(f"h{i + 1}" for i in range(m))
    for pref in enumerate_family(LinearOrder.identity(m)):
        print(" ".join(inst_names[h] for h in pref.ranking))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reallot",
        description="Check, sweep, and synthesize reallocation efficiency gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check an allocation against an instance")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--pair", action="store_true", help="check pair-efficiency")
    p.add_argument("--pareto", action="store_true", help="check Pareto-efficiency")
    p.add_argument("--ir", action="store_true", help="check individual rationality")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="sweep a domain for pair/Pareto gaps")
    p.add_argument("--domain", required=True, help="sp|sd|all|union|comma list like sp,sd,sp")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--random", type=int, metavar="TRIALS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="build a gap bundle from an offending preference")
    p.add_argument("--mode", choices=("sp", "sd"), required=True)
    p.add_argument("--pref", required=True, help='ranking, best first, e.g. "h2 h3 h1"')
    p.add_argument("--order", help="house names left to right; default sorts the names")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=".", help="directory for the bundle files")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ttc", help="run top trading cycles on an instance")
    p.add_argument("instance")
    p.add_argument("--out", help="write the allocation file here instead of stdout")
    p.set_defaults(func=cmd_ttc)

    p = sub.add_parser("count", help="count pair- and Pareto-efficient allocations")
    p.add_argument("instance")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enum", help="list a preference family")
    g = p.add_mutually_exclusive_group(required=True)
    for kind in ("sp", "sd", "all"):  # each flag stores its family's kind
        g.add_argument(f"--{kind}", dest="family", action="store_const", const=kind)
    p.add_argument("--m", type=int, required=True, help="number of houses")
    p.set_defaults(func=cmd_enum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``reallot enum --all --m 8 | head -1``).
        # Point stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
