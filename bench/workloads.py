"""The three workloads: their inputs, drawn from a seed, and their requests.

A request is one timed call (or short series of calls) into reallot plus an
untimed check that turns the result into an :class:`Outcome`: the record
compared against the golden value, the scan work done, and any
disagreement with the independent checks in :mod:`oracle`.

Every workload function takes the freshly imported ``reallot`` module ``r``, the
call table ``api`` (plain or traced functions, see :func:`make_api`), a
seeded ``random.Random``, a size name and a working directory, and returns
a :class:`Workload`. It draws every input before returning, so that
input generation counts toward set-up time.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLI_KINDS = ("check", "ttc", "count", "enum", "synth", "verify", "error")


def workers() -> int:
    """Worker processes for the parallel sweeps: never more than
    ``min(2, nproc)``."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Outcome:
    record: list  # compared with the golden value
    profiles: int = 0  # scan work, for profiles_per_s (0: not a scan call)
    allocations: int = 0  # scan work, for allocs_per_s
    problems: list = field(default_factory=list)  # independent-check failures
    counters: dict = field(default_factory=dict)  # per-layer counts


@dataclass
class Request:
    rid: str  # stable id; golden values are keyed by it
    kind: str
    call: Callable  # call(api) -> raw result; the timed part
    check: Callable  # check(raw) -> Outcome; untimed


@dataclass
class Calibration:
    """A fixed task that runs no reallot code, timed after every request:
    latencies are scaled to a machine on which it takes ``ref_s``."""

    probe: Callable[[], float]  # seconds the task took just now
    ref_s: float


def python_loop() -> float:
    """A pure-Python loop with the collector off: how fast the machine runs
    Python code at this moment."""
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for perm in permutations(range(7)):
            total += perm[0] * perm[3] - perm[5]
        return perf_counter() - start
    finally:
        gc.enable()


def interpreter_start() -> float:
    """A bare ``python -c pass``: how fast the machine starts a process."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=cli_env(), check=True)
    return perf_counter() - start


IN_PROCESS = Calibration(python_loop, 0.0007)
SUBPROCESS = Calibration(interpreter_start, 0.05)


@dataclass
class Workload:
    requests: list
    warm: Callable  # cache warm-up, run once per set-up repetition
    latency_kind: str | None  # requests timed by call_p50/p90_ms (None: all)
    calibration: Calibration
    min_calls: int = 0  # requests a run must make at least


def make_api(r, tracer) -> SimpleNamespace:
    """The public reallot functions the benchmark calls, each wrapped in a
    span named ``module.function`` when tracing is on."""

    def w(fn, suffix=""):
        return tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}{suffix}", fn)

    return SimpleNamespace(
        sample_profile=w(r.sample_profile),
        is_single_peaked=w(r.is_single_peaked),
        is_single_dipped=w(r.is_single_dipped),
        find_blocking_pair=w(r.find_blocking_pair),
        find_improving_cycle=w(r.find_improving_cycle),
        pareto_dominates=w(r.pareto_dominates),
        brute_force_dominator=w(r.brute_force_dominator),
        count_efficient=w(r.count_efficient),
        verify_exhaustive=w(r.verify_equivalence, ".exhaustive"),
        verify_randomized=w(r.verify_equivalence, ".randomized"),
        verify_jobs2=w(r.verify_equivalence, ".jobs2"),
        build_witness=w(r.build_witness),
        find_gap_witness=w(r.find_gap_witness),
        validate_extraction_claims=w(r.validate_extraction_claims),
        extract_blocking_pair_sp=w(r.extract_blocking_pair_sp),
        extract_blocking_pair_sd=w(r.extract_blocking_pair_sd),
        check_strategy_proofness=w(r.check_strategy_proofness),
        check_corollary_sd=w(r.check_corollary_sd),
        ttc=w(r.ttc),
        build_sp_counterexample=w(r.build_sp_counterexample),
        build_sd_counterexample=w(r.build_sd_counterexample),
        cli={kind: tracer.wrap(f"cli.{kind}", run_cli) for kind in CLI_KINDS},
    )


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def rankings(profile) -> tuple:
    return tuple(p.ranking for p in profile.prefs)


def profile_key(ranks, assign) -> str:
    rows = ".".join("".join(map(str, ranking)) for ranking in ranks)
    return f"{rows}|{''.join(map(str, assign))}"


def mixed_spec(rng, n) -> str:
    """A comma spec with at least one sp and one sd agent."""
    kinds = ["sp", "sd"] + [rng.choice(("sp", "sd")) for _ in range(n - 2)]
    rng.shuffle(kinds)
    return ",".join(kinds)


def warm_families(r):
    for n in range(3, 8):
        order = r.LinearOrder.identity(n)
        list(r.enumerate_single_peaked(order))
        list(r.enumerate_single_dipped(order))
    r.verify_equivalence(r.DomainSpec.parse("sp,sd,sp", 3), 3, r.Scope.exhaustive())


# --- outcomes shared by the in-process workloads ---------------------------


def verify_outcome(mode):
    def check(report):
        problems = []
        for v in report.violations:
            problem = oracle.gap_problem(rankings(v.profile), v.mu.assign, v.witness.nu.assign)
            if problem:
                problems.append(problem)
        first = report.violations[0] if report.violations else None
        return Outcome(
            record=[
                report.profiles_checked,
                report.allocations_checked,
                len(report.violations),
                first and profile_key(rankings(first.profile), first.mu.assign),
            ],
            profiles=report.profiles_checked,
            allocations=report.allocations_checked,
            problems=problems,
            counters={f"verify.{mode}.allocs": report.allocations_checked,
                      "verify.violations": len(report.violations)},
        )

    return check


def verify_request(r, rid, mode, spec_text, n, scope, jobs=1, kind="verify") -> Request:
    """A ``verify_equivalence`` request; ``mode`` names its span."""
    spec = r.DomainSpec.parse(spec_text, n)
    call = f"verify_{mode}"
    return Request(rid, kind, lambda api: getattr(api, call)(spec, n, scope, jobs=jobs),
                   verify_outcome(mode))


def strategy_outcome(report) -> Outcome:
    problems = [
        "reported manipulation does not help the lying agent"
        for m in report.violations
        if not m.profile.prefs[m.agent].rank_of[m.misreport_house]
        < m.profile.prefs[m.agent].rank_of[m.truthful_house]
    ]
    return Outcome(
        record=[report.profiles_checked, report.cases_checked, len(report.violations)],
        problems=problems,
        counters={"cases": report.cases_checked},
    )


# --- clean ------------------------------------------------------------------

CLEAN_SIZES = {
    # exhaustive n; randomized (n, trials, requests per kind), the first
    # entry being the "sweep" requests timed by call_p50/p90_ms; jobs=2
    # twins (kind, n, trials); TTC sweeps; corollary (n, trials, requests)
    "full": dict(ex_n=4, rand=((6, 10, 8), (7, 4, 2)), twins=(("sd", 6, 60), ("sp", 6, 60)),
                 sp_ex=("sd", 4), sp_rand=("sp", 6, 20, 3), corollary=(6, 100, 4)),
    "tiny": dict(ex_n=3, rand=((4, 4, 2),), twins=(("sd", 4, 8),),
                 sp_ex=("sd", 3), sp_rand=("sp", 4, 4, 1), corollary=(4, 8, 1)),
}


def clean(r, api, rng, size, workdir) -> Workload:
    """In-family sweeps whose known answer is zero violations."""
    cfg = CLEAN_SIZES[size]
    D, S = r.DomainSpec, r.Scope
    reqs = []

    def verify(*args, **kwargs):
        reqs.append(verify_request(r, *args, **kwargs))

    n = cfg["ex_n"]
    for kind in ("sp", "sd", "union"):
        verify(f"verify-ex-{kind}{n}", "exhaustive", kind, n, S.exhaustive())
    for j, (n, trials, count) in enumerate(cfg["rand"]):
        for kind in ("sp", "sd", "union"):
            for i in range(count):
                scope = S.randomized(rng.getrandbits(32), trials)
                verify(f"verify-rand-{kind}{n}-{i}", "randomized", kind, n, scope,
                       kind="sweep" if j == 0 else "verify")
    for kind, n, trials in cfg["twins"]:
        scope = S.randomized(rng.getrandbits(32), trials)
        verify(f"twin-{kind}{n}", "randomized", kind, n, scope)
        verify(f"jobs2-{kind}{n}", "jobs2", kind, n, scope, jobs=workers())

    def strategy(rid, spec_text, n, scope):
        spec = D.parse(spec_text, n)
        reqs.append(Request(
            rid, "strategy",
            lambda api: api.check_strategy_proofness(r.Rule("ttc", api.ttc), spec, n, scope),
            strategy_outcome))

    kind, n = cfg["sp_ex"]
    strategy(f"sp-ttc-ex-{kind}{n}", kind, n, S.exhaustive())
    kind, n, trials, count = cfg["sp_rand"]
    for i in range(count):
        strategy(f"sp-ttc-rand-{kind}{n}-{i}", kind, n, S.randomized(rng.getrandbits(32), trials))

    n, trials, count = cfg["corollary"]
    for i in range(count):
        scope = S.randomized(rng.getrandbits(32), trials)
        reqs.append(Request(
            f"corollary-sd{n}-{i}", "corollary",
            lambda api, scope=scope, n=n: api.check_corollary_sd(n, scope),
            lambda report: Outcome(record=[report.profiles_checked, len(report.failures)],
                                   counters={"corollary.profiles": report.profiles_checked})))
    return Workload(reqs, lambda: warm_families(r), "sweep", IN_PROCESS)


# --- witness ----------------------------------------------------------------

WITNESS_SIZES = {
    # exhaustive (spec, n); randomized (n, trials, requests); gap search n;
    # extraction (n, profiles per family), timed by call_p50/p90_ms;
    # per-allocation leg n; count_efficient (n, profiles); bundle n;
    # worst-house dictatorship sweeps (kind, n, trials or 0 for exhaustive)
    "full": dict(ex=(("all", 3), ("sp,sd,sp,sd", 4), ("sd,sp,sp,sd", 4), ("sp,sp,sd,sd", 4)),
                 rand_all=(6, 20, 3),
                 rand_mixed=(6, 30, 4), gaps=(3, 4, 5, 6, 6, 6), extract=(6, 12),
                 leg=(3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4), count=(7, 16),
                 construct=(3, 4, 5, 6, 3, 4, 5, 6), manip=(("sp", 4, 60), ("sd", 3, 0))),
    "tiny": dict(ex=(("all", 3), ("sp,sd,sp", 3)), rand_all=(4, 4, 1), rand_mixed=(4, 4, 1),
                 gaps=(3, 4), extract=(4, 1), leg=(3, 3, 3), count=(4, 2),
                 construct=(3, 4), manip=(("sd", 3, 0),)),
}


def witness(r, api, rng, size, workdir) -> Workload:
    """Sweeps and scans whose every hit has to produce a certificate."""
    cfg = WITNESS_SIZES[size]
    D, S = r.DomainSpec, r.Scope
    reqs = []

    def verify(*args):
        reqs.append(verify_request(r, *args))

    for i, (spec_text, n) in enumerate(cfg["ex"]):
        verify(f"verify-ex-{i}", "exhaustive", spec_text, n, S.exhaustive())
    n, trials, count = cfg["rand_all"]
    for i in range(count):
        verify(f"verify-rand-all{n}-{i}", "randomized", "all", n,
               S.randomized(rng.getrandbits(32), trials))
    n, trials, count = cfg["rand_mixed"]
    for i in range(count):
        verify(f"verify-rand-mixed{n}-{i}", "randomized", mixed_spec(rng, n), n,
               S.randomized(rng.getrandbits(32), trials))

    # Gap search: exhaustive where the space fits the default budget, and
    # sampled (a budget of 1 forces sampling) at n = 6.
    for i, n in enumerate(cfg["gaps"]):
        spec = D.parse(mixed_spec(rng, n), n)
        seed = rng.getrandbits(32)
        kwargs = dict(trials=200, budget=1) if n >= 6 else {}
        reqs.append(Request(f"gap-{i}", "gap",
                            lambda api, spec=spec, n=n, seed=seed, kwargs=kwargs:
                            api.find_gap_witness(spec, n, seed, **kwargs),
                            gap_outcome))

    # The criterion-5 path: extractors on every dominated allocation.
    n, count = cfg["extract"]
    inst = r.Instance.default(n)
    for kind in ("sp", "sd"):
        spec = D.parse(kind, n)
        for i in range(count):
            profile = api.sample_profile(spec, inst, rng.getrandbits(32))
            reqs.append(Request(
                f"extract-{kind}{n}-{i}", "extract",
                lambda api, profile=profile, kind=kind: api.validate_extraction_claims(profile, kind),
                lambda res, n=n: Outcome(record=list(res), profiles=1, allocations=math.factorial(n),
                                         problems=[] if res[0] == res[1] else ["unvalidated pair"],
                                         counters={"extract.dominated": res[0]})))

    for i, n in enumerate(cfg["leg"]):
        kind = ("sp", "sd", "mixed")[i % 3]
        spec = D.parse(mixed_spec(rng, n) if kind == "mixed" else kind, n)
        profile = api.sample_profile(spec, r.Instance.default(n), rng.getrandbits(32))
        reqs.append(Request(f"leg-{kind}{n}-{i}", "leg",
                            lambda api, profile=profile, kind=kind: allocation_leg(r, api, profile, kind),
                            lambda rows, profile=profile: leg_outcome(profile, rows)))

    n, count = cfg["count"]
    spec, inst = D.unrestricted(n), r.Instance.default(n)
    for i in range(count):
        profile = api.sample_profile(spec, inst, rng.getrandbits(32))
        reqs.append(Request(
            f"count-all{n}-{i}", "count", lambda api, profile=profile: api.count_efficient(profile),
            lambda res, n=n: Outcome(record=list(res), profiles=1, allocations=math.factorial(n),
                                     problems=[] if res[1] <= res[0] else ["more Pareto than pair"],
                                     counters={"count.allocs": math.factorial(n)})))

    for i, n in enumerate(cfg["construct"]):
        mode = ("sp", "sd")[i % 2]
        order = r.LinearOrder.identity(n)
        inside = r.is_single_peaked if mode == "sp" else r.is_single_dipped
        pref = r.Preference(tuple(rng.sample(range(n), n)))
        while inside(pref, order):
            pref = r.Preference(tuple(rng.sample(range(n), n)))
        seed = rng.getrandbits(32)
        reqs.append(Request(f"construct-{mode}{n}-{i}", "construct",
                            lambda api, mode=mode, order=order, pref=pref, seed=seed:
                            build_bundle(api, mode, order, pref, seed),
                            construct_outcome))

    for kind, n, trials in cfg["manip"]:
        spec = D.parse(kind, n)
        scope = S.randomized(rng.getrandbits(32), trials) if trials else S.exhaustive()
        reqs.append(Request(
            f"manip-{kind}{n}", "strategy",
            lambda api, spec=spec, n=n, scope=scope:
            api.check_strategy_proofness(r.worst_house_dictatorship(), spec, n, scope),
            strategy_outcome))
    return Workload(reqs, lambda: warm_families(r), "extract", IN_PROCESS)


def gap_outcome(found) -> Outcome:
    if found is None:
        return Outcome(record=[None])
    profile, mu, nu = found
    ranks = rankings(profile)
    problem = oracle.gap_problem(ranks, mu.assign, nu.assign)
    return Outcome(record=[profile_key(ranks, mu.assign), list(nu.assign)],
                   problems=[problem] if problem else [])


def allocation_leg(r, api, profile, kind):
    """Every allocation of one small profile through the per-allocation
    checkers, the brute-force oracle, the witness and the extractors."""
    extract = {"sp": api.extract_blocking_pair_sp, "sd": api.extract_blocking_pair_sd}.get(kind)
    rows = []
    for assign in permutations(range(profile.n)):
        mu = r.Allocation(assign)
        pair = api.find_blocking_pair(profile, mu)
        cycle = api.find_improving_cycle(profile, mu)
        if cycle is None:
            rows.append((assign, pair, None, None, None, None))
            continue
        nu = api.brute_force_dominator(profile, mu)
        dominated = api.pareto_dominates(profile, nu, mu)
        witness = api.build_witness(profile, mu, nu)
        extracted = extract(profile, mu, witness) if extract else None
        rows.append((assign, pair, cycle.agents, nu.assign if dominated else None,
                     witness.labels, extracted))
    return rows


def leg_outcome(profile, rows) -> Outcome:
    ranks = rankings(profile)
    problems = []
    found = 0
    for assign, pair, cycle, nu, _labels, extracted in rows:
        if pair is not None and not oracle.mutually_envious(ranks, assign, *pair):
            problems.append("blocking pair is not mutually envious")
        if cycle is None:
            if not oracle.pareto_efficient(ranks, assign):
                problems.append("no improving cycle reported for a dominated allocation")
            continue
        found += nu is not None
        if not oracle.improving_cycle(ranks, assign, cycle):
            problems.append("reported cycle does not improve")
        if nu is None or not oracle.dominates(ranks, nu, assign):
            problems.append("brute-force dominator does not dominate")
        if extracted is not None and not oracle.mutually_envious(ranks, assign, *extracted):
            problems.append("extracted pair is not mutually envious")
    return Outcome(record=[len(rows), found, digest(rows)], profiles=1, allocations=len(rows),
                   problems=problems, counters={"leg.found": found})


def build_bundle(api, mode, order, pref, seed):
    inside = api.is_single_peaked if mode == "sp" else api.is_single_dipped
    build = api.build_sp_counterexample if mode == "sp" else api.build_sd_counterexample
    if inside(pref, order):
        return None
    bundle = build(order, pref, seed=seed)
    return bundle, tuple(inside(p, order) for p in bundle.profile.prefs)


def construct_outcome(result) -> Outcome:
    bundle, in_family = result
    ranks = rankings(bundle.profile)
    problems = []
    problem = oracle.gap_problem(ranks, bundle.mu.assign, bundle.nu.assign)
    if problem:
        problems.append(problem)
    designated = bundle.roles[0]
    if not all(ok for agent, ok in enumerate(in_family) if agent != designated):
        problems.append("a helper preference lies outside the family")
    record = [profile_key(ranks, bundle.mu.assign), list(bundle.nu.assign),
              list(bundle.roles), bundle.case]
    return Outcome(record=record, problems=problems)


# --- cli ----------------------------------------------------------------------

CLI_SIZES = {
    "full": dict(instances=(3, 4, 5, 6, 7, 3, 5, 7), bundles=(3, 4, 5, 6), ttc=6, count=6,
                 synth=(3, 4, 5, 6), min_calls=100),
    "tiny": dict(instances=(3, 4), bundles=(3,), ttc=1, count=1, synth=(3,), min_calls=0),
}


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("REALLOT_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv):
    """One ``python -m reallot.cli`` invocation from the checkout root."""
    proc = subprocess.run([sys.executable, "-m", "reallot.cli", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def instance_text(ranks, endowment) -> str:
    n = len(ranks)
    lines = ["order: " + " ".join(f"h{h + 1}" for h in range(n)),
             "endow: " + " ".join(f"a{a + 1}:h{endowment[a] + 1}" for a in range(n))]
    lines += [f"agent a{a + 1}: " + " ".join(f"h{h + 1}" for h in ranking)
              for a, ranking in enumerate(ranks)]
    return "\n".join(lines) + "\n"


def allocation_text(assign) -> str:
    return "".join(f"a{a + 1} -> h{h + 1}\n" for a, h in enumerate(assign))


def cli(r, api, rng, size, workdir) -> Workload:
    """A closed loop of one client running the CLI as sequential
    subprocesses on files generated from the seed."""
    cfg = CLI_SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(ROOT)
    reqs = []

    def write(name, text):
        (workdir / name).write_text(text, encoding="utf-8")
        return str(rel / name)

    def add(rid, kind, argv, check=None):
        reqs.append(Request(rid, kind, lambda api: api.cli[kind](argv),
                            lambda res: cli_outcome(res, check)))

    instances = []
    for i, n in enumerate(cfg["instances"]):
        spec = r.DomainSpec(tuple(rng.choice(("sp", "sd", "all")) for _ in range(n)))
        ranks = rankings(api.sample_profile(spec, r.Instance.default(n), rng.getrandbits(32)))
        endowment = tuple(rng.sample(range(n), n))
        assign = tuple(rng.sample(range(n), n))
        path = write(f"inst{i}.txt", instance_text(ranks, endowment))
        alloc = write(f"alloc{i}.txt", allocation_text(assign))
        instances.append((path, n))
        flags = rng.choice(([], ["--pair"], ["--pareto"], ["--ir"], ["--pair", "--pareto"]))
        add(f"check-{i}", "check", ["check", path, alloc, *flags],
            lambda res, ranks=ranks, assign=assign, endowment=endowment, flags=flags:
            check_verdicts(ranks, assign, endowment, flags, res))

    for i, n in enumerate(cfg["bundles"]):
        order = r.LinearOrder.identity(n)
        pref = r.Preference(tuple(rng.sample(range(n), n)))
        while r.is_single_peaked(pref, order):
            pref = r.Preference(tuple(rng.sample(range(n), n)))
        bundle = r.build_sp_counterexample(order, pref, seed=rng.getrandbits(32))
        ranks = rankings(bundle.profile)
        path = write(f"bundle{i}.txt", instance_text(ranks, tuple(range(n))))
        for name, alloc in (("mu", bundle.mu.assign), ("nu", bundle.nu.assign)):
            apath = write(f"bundle{i}-{name}.txt", allocation_text(alloc))
            add(f"check-bundle{i}-{name}", "check", ["check", path, apath],
                lambda res, ranks=ranks, alloc=alloc, n=n:
                check_verdicts(ranks, alloc, tuple(range(n)), [], res))

    for i in range(cfg["ttc"]):
        add(f"ttc-{i}", "ttc", ["ttc", instances[i % len(instances)][0]])
    for i in range(cfg["count"]):
        path, n = instances[i % len(instances)]
        add(f"count-{i}", "count", ["count", path], lambda res, n=n: (1, math.factorial(n), []))
    for i, (family, m) in enumerate((("--sp", 5), ("--sd", 6), ("--all", 4), ("--all", 5))):
        if size == "full" or i == 0:
            add(f"enum-{i}", "enum", ["enum", family, "--m", str(m)])
    for i, n in enumerate(cfg["synth"]):
        mode = ("sp", "sd")[i % 2]
        pref = " ".join(f"h{h + 1}" for h in rng.sample(range(n), n))
        add(f"synth-{i}", "synth", ["synth", "--mode", mode, "--pref", pref, "--seed",
                                    str(rng.getrandbits(16)), "--out", str(rel / f"synth{i}")])

    verifies = [["--domain", mixed_spec(rng, 3), "--n", "3", "--exhaustive"]]
    if size == "full":
        verifies += [["--domain", rng.choice(("all", mixed_spec(rng, 3))), "--n", "3", "--exhaustive"],
                     ["--domain", mixed_spec(rng, 4), "--n", "4", "--random", "50",
                      "--seed", str(rng.getrandbits(16))],
                     ["--domain", "sd", "--n", "4", "--exhaustive"]]
    for i, argv in enumerate(verifies):
        add(f"verify-{i}", "verify", ["verify", *argv], verify_cli_check)

    # Malformed inputs (exit 2) and a sweep over the budget (exit 3).
    path, n = instances[0]
    text = (workdir / "inst0.txt").read_text(encoding="utf-8")
    alloc = str(rel / "alloc0.txt")
    broken = {
        "no-order": text.split("\n", 1)[1],
        "unknown-house": text.replace(": h", ": hX", 1),
        "duplicate-agent": text + text.splitlines()[-1] + "\n",
    }
    for i, (name, body) in enumerate(broken.items()):
        add(f"error-{name}", "error", ["check", write(f"broken{i}.txt", body), alloc])
    add("error-bad-allocation", "error",
        ["check", path, write("broken-alloc.txt", allocation_text(range(n)).replace("a1 ->", "z9 ->"))])
    add("error-budget", "error", ["verify", "--domain", "sp", "--n", "5", "--exhaustive"])

    def warm():
        code, _out, err = run_cli(["enum", "--sp", "--m", "3"])
        if code != 0:
            raise RuntimeError(f"reallot CLI does not start: {err.strip()}")

    return Workload(reqs, warm, None, SUBPROCESS, cfg["min_calls"])


def cli_outcome(res, check) -> Outcome:
    code, out, err = res
    profiles, allocations, problems = check(res) if check else (0, 0, [])
    if "Traceback" in err:
        problems = [*problems, "traceback on stderr"]
    return Outcome(record=[code, digest(out)], profiles=profiles, allocations=allocations,
                   problems=problems)


def _agent(name) -> int:
    return int(name[1:]) - 1


def check_verdicts(ranks, assign, endowment, flags, res):
    """Re-derive each ``check`` verdict with the independent oracle; one
    profile and one allocation of scan work."""
    code, out, _err = res
    run_all = not flags
    expected = {
        "pair-efficient": oracle.pair_efficient(ranks, assign),
        "pareto-efficient": oracle.pareto_efficient(ranks, assign),
        "individually-rational": oracle.individually_rational(ranks, assign, endowment),
    }
    wanted = [name for name, flag in (("pair-efficient", "--pair"), ("pareto-efficient", "--pareto"),
                                      ("individually-rational", "--ir"))
              if run_all or flag in flags]
    verdicts = {}
    problems = []
    for line in out.splitlines():
        label, _, value = line.strip().partition(": ")
        if label in expected:
            verdicts[label] = value == "yes"
        elif label == "blocking pair":
            if not oracle.mutually_envious(ranks, assign, *map(_agent, value.split())):
                problems.append("reported blocking pair is not mutually envious")
        elif label == "improving cycle":
            if not oracle.improving_cycle(ranks, assign, [_agent(a) for a in value.split()]):
                problems.append("reported cycle does not improve")
    if sorted(verdicts) != sorted(wanted):
        problems.append(f"verdict lines {sorted(verdicts)}, expected {sorted(wanted)}")
    for label, verdict in verdicts.items():
        if verdict != expected[label]:
            problems.append(f"{label}: CLI says {verdict}, independent check says {expected[label]}")
    if code != (0 if all(verdicts.values()) else 1):
        problems.append(f"exit code {code} does not match the verdicts")
    return 1, 1, problems


def verify_cli_check(res):
    """Re-check every violation ``verify`` prints; count its scan work."""
    _code, out, _err = res
    fields = {}
    violations = []
    for line in out.splitlines():
        label, _, value = line.strip().partition(": ")
        if label == "profile":
            rows = [row.split(": ", 1)[1].split() for row in value.split(" | ")]
            violations.append({"ranks": [tuple(_agent(h) for h in row) for row in rows]})
        elif label in ("mu", "nu"):
            violations[-1][label] = tuple(_agent(pair.split("->")[1]) for pair in value.split())
        else:
            fields[label] = value
    problems = [oracle.gap_problem(v["ranks"], v["mu"], v["nu"]) for v in violations]
    problems = [p for p in problems if p]
    if int(fields["violations"]) != len(violations):
        problems.append("violation count does not match the violations listed")
    return int(fields["profiles checked"]), int(fields["allocations checked"]), problems
