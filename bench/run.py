"""reallot benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {clean,witness,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (import, input generation from the seed, cache warm-up) is repeated
``SETUP_REPS`` times and its median reported as ``setup_s``. Then the
workload's fixed request list runs in passes until ``--seconds`` are used.
Every request's result is compared with the golden value captured for its
input set and re-checked by the independent checks in ``oracle.py``; a
request that raises, mismatches or disagrees counts as failed.

The machine's speed drifts by a quarter and more within minutes on shared
hardware, so a fixed calibration probe that runs no reallot code follows
every request and every set-up repetition, and each time is scaled to a
machine on which the probe takes the workload's reference time (see
``workloads.Calibration``). All end-to-end times are scaled this way; the
unscaled figures are printed on the ``#`` lines.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, and it holds the per-layer metrics from the traced ones.
Spans, per-request failures and provenance are written to ``.bench_out/``.

``--capture`` runs one pass and stores its records as the golden values for
this workload and seed; ``capture.sh`` does so for every golden seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = workloads.ROOT
SRC = workloads.SRC
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).with_name("golden.json")

# Inputs come from ``seed % GOLDEN_SEEDS``; golden values exist for each.
GOLDEN_SEEDS = 16
SETUP_REPS = 9

WORKLOADS = {"clean": workloads.clean, "witness": workloads.witness, "cli": workloads.cli}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "allocs_per_s": "1/s",
    "profiles_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Spans whose calls and busy time are reported as per-layer metrics.
TIMED_SPANS = (
    "efficiency.find_blocking_pair",
    "efficiency.find_improving_cycle",
    "efficiency.pareto_dominates",
    "efficiency.brute_force_dominator",
    "efficiency.count_efficient",
    "equivalence.verify_equivalence.exhaustive",
    "equivalence.verify_equivalence.randomized",
    "equivalence.build_witness",
    "equivalence.find_gap_witness",
    "equivalence.validate_extraction_claims",
    "equivalence.extract_blocking_pair_sp",
    "equivalence.extract_blocking_pair_sd",
    "rules.check_strategy_proofness",
    "rules.check_corollary_sd",
    "rules.ttc",
    "construct.build_sp_counterexample",
    "construct.build_sd_counterexample",
    "domains.is_single_peaked",
    "domains.is_single_dipped",
    "domains.sample_profile",
)

PER_LAYER = {
    **{f"{name}.{field}": unit for name in TIMED_SPANS for field, unit in (("calls", "count"), ("busy_s", "s"))},
    "efficiency.brute_force_dominator.found": "count",
    "efficiency.count_efficient.allocs_per_s": "1/s",
    "equivalence.verify_equivalence.exhaustive.allocs_per_s": "1/s",
    "equivalence.verify_equivalence.randomized.allocs_per_s": "1/s",
    "equivalence.verify_equivalence.violations": "count",
    "equivalence.verify_equivalence.violations_per_s": "1/s",
    "equivalence.verify_equivalence.jobs2.busy_s": "s",
    "equivalence.verify_equivalence.jobs2.speedup": "ratio",
    "equivalence.validate_extraction_claims.ms_per_profile": "ms",
    "equivalence.validate_extraction_claims.dominated": "count",
    "rules.check_strategy_proofness.self_s": "s",
    "rules.check_strategy_proofness.cases_per_s": "1/s",
    "rules.check_corollary_sd.profiles_per_s": "1/s",
    "proc.children_peak_rss_mb": "MB",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{kind}.p50_ms": "ms" for kind in workloads.CLI_KINDS},
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
    "bench.calibration_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the benchmark's own tests")
    p.add_argument("--golden", type=Path, default=GOLDEN, help="golden values file")
    p.add_argument("--capture", action="store_true",
                   help="run one pass and store its records as golden values")
    return p.parse_args(argv)


def fresh_reallot():
    """Import reallot afresh, so that each set-up repetition pays for
    the import and starts with cold module-level caches."""
    for name in [m for m in sys.modules if m == "reallot" or m.startswith("reallot.")]:
        del sys.modules[name]
    return importlib.import_module("reallot")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run: set-up, passes, and what they recorded."""

    def __init__(self, args):
        self.args = args
        self.input_seed = args.seed % GOLDEN_SEEDS
        self.tracer = spans.Tracer() if args.trace else spans.NullTracer()
        self.workdir = OUT / args.workload / f"seed{self.input_seed}"
        golden = {}
        if not args.capture:
            with open(args.golden, encoding="utf-8") as fh:
                golden = json.load(fh).get(args.workload, {}).get(str(self.input_seed), {})
        self.golden = golden
        self.setup_times: list[float] = []
        self.setup_scaled: list[float] = []  # each scaled by the probe run after it
        self.passes: list[dict] = []  # {traced, wall, latencies, outcomes}
        self.failures: list[str] = []
        self.records: dict = {}

    def setup(self):
        reps = 1 if self.args.capture else SETUP_REPS
        for k in range(reps):
            start = perf_counter()
            with self.tracer.request(f"setup{k}"):
                r = fresh_reallot()
                api = workloads.make_api(r, self.tracer)
                rng = random.Random(f"{self.args.workload}:{self.input_seed}")
                wl = WORKLOADS[self.args.workload](r, api, rng, self.args.size, self.workdir)
                wl.warm()
            elapsed = perf_counter() - start
            self.setup_times.append(elapsed)
            self.setup_scaled.append(elapsed * wl.calibration.ref_s / wl.calibration.probe())
        self.workload = wl
        self.plain_api = workloads.make_api(r, spans.NullTracer())
        self.traced_api = api

    def run_pass(self, traced: bool):
        index = len(self.passes)
        api = self.traced_api if traced else self.plain_api
        tracer = self.tracer if traced else spans.NullTracer()
        latencies, outcomes, calibration = {}, {}, []
        for req in self.workload.requests:
            error = None
            start = perf_counter()
            try:
                with tracer.request(f"p{index}/{req.rid}"):
                    raw = req.call(api)
            except Exception as exc:  # a failed request is counted, not fatal
                error = exc
            latencies[req.rid] = perf_counter() - start
            calibration.append(self.workload.calibration.probe())
            if error is not None:
                self.fail(req.rid, f"raised {type(error).__name__}: {error}")
                continue
            try:
                outcome = req.check(raw)
            except Exception as exc:
                self.fail(req.rid, f"result check raised {type(exc).__name__}: {exc}")
                continue
            outcomes[req.rid] = outcome
            self.judge(req.rid, outcome)
        # Scale each latency by the median probe time of the five requests
        # around it, so that the scale follows the machine's drift.
        ref = self.workload.calibration.ref_s
        scaled = {}
        for i, (rid, t) in enumerate(latencies.items()):
            scaled[rid] = t * ref / statistics.median(calibration[max(0, i - 2) : i + 3])
        self.passes.append(dict(traced=traced, latencies=latencies, scaled=scaled, outcomes=outcomes,
                                calibration_s=statistics.median(calibration)))

    def judge(self, rid, outcome):
        record = json.loads(json.dumps(outcome.record))
        if self.args.capture:
            self.records[rid] = record
        elif rid not in self.golden:
            self.fail(rid, "no golden value")
        elif record != self.golden[rid]:
            self.fail(rid, f"golden mismatch: expected {self.golden[rid]}, got {record}")
        for problem in outcome.problems:
            self.fail(rid, f"independent check: {problem}")

    def fail(self, rid, message):
        # The pass in progress is appended to self.passes when it ends.
        self.failures.append(f"p{len(self.passes)}/{rid}: {message}")

    def measure(self):
        args = self.args
        min_passes = 2 if args.trace else 1
        start = perf_counter()
        while True:
            self.run_pass(traced=bool(args.trace) and len(self.passes) % 2 == 1)
            if args.capture:
                return
            elapsed = perf_counter() - start
            calls = sum(len(p["latencies"]) for p in self.passes)
            mean_pass = elapsed / len(self.passes)
            if (elapsed + mean_pass > args.seconds and len(self.passes) >= min_passes
                    and calls >= self.workload.min_calls):
                return

    @property
    def attempted(self) -> int:
        return sum(len(p["latencies"]) for p in self.passes)

    @property
    def failed(self) -> int:
        return len({f.split(": ", 1)[0] for f in self.failures})


def ratio(a, b) -> float:
    return a / b if b else 0.0


def end_to_end(run: Run, scaled: bool = True) -> dict:
    """The end-to-end metrics over the untraced passes, from latencies
    scaled to the calibration reference speed or, if not ``scaled``, as
    timed."""
    key = "scaled" if scaled else "latencies"
    passes = [p for p in run.passes if not p["traced"]]
    unit = {req.rid for req in run.workload.requests
            if run.workload.latency_kind in (None, req.kind)}
    latencies = [t for p in passes for rid, t in p[key].items() if rid in unit]
    scan_time = work_profiles = work_allocs = 0
    for p in passes:
        for rid, outcome in p["outcomes"].items():
            if outcome.profiles:
                scan_time += p[key][rid]
                work_profiles += outcome.profiles
                work_allocs += outcome.allocations
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(run.setup_scaled if scaled else run.setup_times),
        "wall_s": statistics.median(sum(p[key].values()) for p in passes),
        "allocs_per_s": ratio(work_allocs, scan_time),
        "profiles_per_s": ratio(work_profiles, scan_time),
        "call_p50_ms": statistics.median(latencies) * 1000 if latencies else 0.0,
        "call_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000 if len(latencies) > 1 else 0.0,
        "peak_rss_mb": (self_kb + child_kb) / 1024,
    }


def per_layer(run: Run, import_ms: float) -> dict:
    traced = [i for i, p in enumerate(run.passes) if p["traced"]]
    plain = [sum(p["scaled"].values()) for p in run.passes if not p["traced"]]
    sums = spans.summarize(run.tracer.spans)  # group -> name -> [calls, busy, self]

    def span_stat(name, field, rid_prefix=""):
        """Median over traced passes (over set-up repetitions for spans made
        during set-up) of one span field summed within the pass."""
        per_group = defaultdict(float)
        for group, names in sums.items():
            key, _, rid = group.partition("/")
            if name in names and rid.startswith(rid_prefix):
                per_group[key] += names[name][field]
        keys = [f"p{i}" for i in traced]
        if not any(k in per_group for k in keys):
            keys = [k for k in per_group if k.startswith("setup")] or keys
        return statistics.median(per_group.get(k, 0.0) for k in keys)

    def counter(name):
        return statistics.median(
            sum(o.counters.get(name, 0) for o in run.passes[i]["outcomes"].values()) for i in traced)

    calibration_ms = statistics.median(p["calibration_s"] for p in run.passes) * 1000
    m = {}
    for name in TIMED_SPANS:
        m[f"{name}.calls"] = span_stat(name, 0)
        m[f"{name}.busy_s"] = span_stat(name, 1)
    verify = "equivalence.verify_equivalence"
    verify_busy = sum(span_stat(f"{verify}.{mode}", 1) for mode in ("exhaustive", "randomized", "jobs2"))
    jobs2_busy = span_stat(f"{verify}.jobs2", 1)
    extract_calls = m["equivalence.validate_extraction_claims.calls"]
    m.update({
        "efficiency.brute_force_dominator.found": counter("leg.found"),
        "efficiency.count_efficient.allocs_per_s":
            ratio(counter("count.allocs"), m["efficiency.count_efficient.busy_s"]),
        f"{verify}.exhaustive.allocs_per_s":
            ratio(counter("verify.exhaustive.allocs"), m[f"{verify}.exhaustive.busy_s"]),
        f"{verify}.randomized.allocs_per_s":
            ratio(counter("verify.randomized.allocs"), m[f"{verify}.randomized.busy_s"]),
        f"{verify}.violations": counter("verify.violations"),
        f"{verify}.violations_per_s": ratio(counter("verify.violations"), verify_busy),
        f"{verify}.jobs2.busy_s": jobs2_busy,
        f"{verify}.jobs2.speedup": ratio(span_stat(f"{verify}.randomized", 1, "twin-"), jobs2_busy),
        "equivalence.validate_extraction_claims.ms_per_profile":
            ratio(m["equivalence.validate_extraction_claims.busy_s"] * 1000, extract_calls),
        "equivalence.validate_extraction_claims.dominated": counter("extract.dominated"),
        "rules.check_strategy_proofness.self_s": span_stat("rules.check_strategy_proofness", 2),
        "rules.check_strategy_proofness.cases_per_s":
            ratio(counter("cases"), m["rules.check_strategy_proofness.busy_s"]),
        "rules.check_corollary_sd.profiles_per_s":
            ratio(counter("corollary.profiles"), m["rules.check_corollary_sd.busy_s"]),
        "proc.children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cli.interp_ms": calibration_ms if run.args.workload == "cli" else 0.0,
        "cli.import_ms": import_ms,
        "trace.spans": statistics.median(
            sum(names[n][0] for g, names in sums.items() if g.startswith(f"p{i}/") for n in names)
            for i in traced),
        "trace.overhead_frac": statistics.median(sum(run.passes[i]["scaled"].values())
                                                 for i in traced) / statistics.median(plain) - 1,
        "bench.calibration_ms": calibration_ms,
        "failed_frac": run.failed / run.attempted,
    })
    for kind in workloads.CLI_KINDS:
        durations = [end - start for name, start, end, _p, g in run.tracer.spans if name == f"cli.{kind}"]
        m[f"cli.{kind}.p50_ms"] = statistics.median(durations) * 1000 if durations else 0.0
    return m


def import_probe_ms() -> float:
    """Median start-up time of the interpreter importing reallot and nothing
    else, over five subprocesses."""
    times = []
    for _ in range(5):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import reallot"], cwd=ROOT, env=workloads.cli_env(),
                       check=True)
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


def save_golden(path: Path, workload: str, seed: int, records: dict):
    """Merge one input set's records into the golden file, one record per
    line."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = records
    blocks = []
    for w in sorted(data):
        seeds = []
        for s in sorted(data[w], key=int):
            lines = ",\n".join(f"   {json.dumps(rid)}: {json.dumps(rec)}" for rid, rec in data[w][s].items())
            seeds.append(f'  "{s}": {{\n{lines}\n  }}')
        blocks.append(f' "{w}": {{\n' + ",\n".join(seeds) + "\n }")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reallot" / "__init__.py").is_file():
        print(f"error: no reallot package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not args.capture and not args.golden.is_file():
        print(f"error: golden values file {args.golden} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REALLOT_BUDGET", None)  # sweeps run under the default budget
    OUT.mkdir(exist_ok=True)

    run = Run(args)
    run.setup()
    run.measure()
    if args.capture:
        if run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        save_golden(args.golden, args.workload, run.input_seed, run.records)
        print(f"captured {len(run.records)} golden records for {args.workload} seed {run.input_seed}")
        return 0

    if args.trace:
        import_ms = import_probe_ms() if args.workload == "cli" else 0.0
        values, units = per_layer(run, import_ms), PER_LAYER
    else:
        values, units = end_to_end(run), END_TO_END

    provenance = {
        "workload": args.workload, "seed": args.seed, "input_seed": run.input_seed,
        "size": args.size, "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "workers": workloads.workers(),
        "git_sha": git_sha(), "passes": len(run.passes),
        "pass_walls": [sum(p["latencies"].values()) for p in run.passes],
        "pass_calibration_s": [p["calibration_s"] for p in run.passes],
        "setup_times": run.setup_times,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**provenance, **result, "failures": run.failures}, indent=1) + "\n")
    if args.trace:
        run.tracer.write(OUT / f"spans-{stem}.jsonl")

    for message in run.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items() if not isinstance(v, list)))
    print(f"# requests attempted={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / run.attempted}")
    kinds = Counter(req.kind for req in run.workload.requests)
    print("# requests per pass: " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    for name, unit in units.items():
        print(f"# {name} = {values[name]} {unit}")
    if not args.trace:
        raw = end_to_end(run, scaled=False)
        print("# unscaled: " + " ".join(f"{k}={v}" for k, v in raw.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
