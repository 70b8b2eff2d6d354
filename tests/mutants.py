"""Replay a catalogue of mutants against the tests that should kill them.

Each mutant replaces one exact snippet of one module under ``src/reallot``.
For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a fresh temporary directory, applies the mutant
there and runs that mutant's pytest ids with ``-x`` under a timeout of
``TIMEOUT`` seconds. The mutant must be killed: its tests fail, or hang
past the timeout, which counts as killed and is reported as a hang. A
mutant whose tests pass (a survivor), or whose snippet does not occur
exactly once in the current source (a stale entry, left behind by the
change that moved the code), makes the script exit 1. The working tree is never modified.

Opt-in tooling, not part of the test suite (pytest does not collect this
file). Standard library only. From the repository root:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180  # seconds per mutant; each takes a few seconds on 2 vCPUs


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/reallot
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # pytest ids that must fail


CATALOGUE = (
    Mutant(
        "colour-by-house-index",
        "efficiency.py",
        "colors.append(RED if p < pos[dest[h]] else BLUE)",
        "colors.append(RED if h < dest[h] else BLUE)",
        ("tests/test_library_bytes.py",),
    ),
    Mutant(
        "trade-closure-check-dropped",
        "efficiency.py",
        '    if gave != got:\n        raise ValueError("improving agents must trade houses among themselves")\n',
        "",
        ("tests/test_witness.py::test_witness_errors_match_the_oracle_on_wrong_way_and_misfit_trades",),
    ),
    Mutant(
        "completion-weight-one",
        "efficiency.py",
        "completions = math.factorial(n - known.bit_count())",
        "completions = 1",
        ("tests/test_extraction.py::test_dominated_count_is_n_factorial_minus_the_kernels_efficient_count",),
    ),
    Mutant(
        "resume-drops-the-paused-node",
        "efficiency.py",
        "            state[0] = live\n",
        "            state[0] = live ^ step\n",
        ("tests/test_extraction.py::test_dominated_count_is_n_factorial_minus_the_kernels_efficient_count",),
    ),
    Mutant(
        "misreport-skip-at-rank-one",
        "rules.py",
        "if rank[mine] == 0:",
        "if rank[mine] <= 1:",
        ("tests/test_rules.py::test_strategy_proofness_matches_the_object_loop",),
    ),
    Mutant(
        "pool-without-cpu-cap",
        "equivalence.py",
        "workers = min(jobs, _usable_cpus(), len(tasks))",
        "workers = min(jobs, len(tasks))",
        # Runs on the recording stand-in for the pool: no process starts.
        ("tests/test_equivalence.py::test_worker_count_is_capped_by_cores_and_tasks",),
    ),
    Mutant(
        "kernel-prunes-no-prefix",
        "efficiency.py",
        "if succ[g] & bit:",
        "if False:",
        ("tests/test_efficiency.py::test_pruned_enumeration_matches_the_flat_scan",),
    ),
    Mutant(
        "mask-table-one-house-short",
        "efficiency.py",
        "for h in range(n):",
        "for h in range(n - 1):",
        ("tests/test_efficiency.py::test_pruned_enumeration_matches_the_flat_scan",),
    ),
    Mutant(
        "dominator-survivor-not-strict",
        "efficiency.py",
        "if rank[perm[a]] < rank[assigns[i][a]]:",
        "if rank[perm[a]] <= rank[assigns[i][a]]:",
        ("tests/test_efficiency.py::test_first_dominators_match_the_one_allocation_scan",),
    ),
    Mutant(
        "wrong-stride",
        "rules.py",
        "lie = code + (j - own) * stride",
        "lie = code + (j - own) * strides[agent - 1]",
        ("tests/test_rules.py::test_strategy_proofness_matches_the_object_loop",),
    ),
    Mutant(
        "union-redraw-dropped",
        "domains.py",
        "            if not skip or not all(p in skip for p in prefs):\n                break\n",
        "            break\n",
        ("tests/test_domains.py::test_union_sampling_is_uniform_on_the_overlap",),
    ),
    Mutant(
        "generator-skips-block-one",
        "domains.py",
        "        for k, block in enumerate(spec.blocks):\n            skip = _swept_before(order, k)\n            for prefs",
        "        for k, block in enumerate(spec.blocks[:1]):\n            skip = _swept_before(order, k)\n            for prefs",
        ("tests/test_domains.py::test_generator_yields_each_profile_of_the_spec_once",),
    ),
    Mutant(
        "value-hash-over-no-fields",
        "core.py",
        "return hash(({mine}))",
        "return hash(())",
        ("tests/test_core.py::test_value_types_keep_the_frozen_dataclass_contract",),
    ),
    Mutant(
        "value-eq-without-class-check",
        "core.py",
        "if other.__class__ is self.__class__:",
        "if True:",
        ("tests/test_core.py::test_value_types_keep_the_frozen_dataclass_contract",),
    ),
    # One mutant per invariant guard that no valid input reaches: each breaks
    # what its guard protects, and the named test fails on the guard's error.
    Mutant(
        "bundle-mu-gives-a-the-pivot",
        "construct.py",
        "mu_map = dict(zip(roles, (ht, h, hp)))",
        "mu_map = dict(zip(roles, (h, ht, hp)))",
        ("tests/test_construct.py::test_sp_bundle_golden_three_houses",),
    ),
    Mutant(
        "sp-bundle-nu-trio-swapped",
        "construct.py",
        "(h, hp, ht), None,",
        "(hp, h, ht), None,",
        ("tests/test_construct.py::test_sp_bundle_golden_three_houses",),
    ),
    Mutant(
        "improving-cycle-never-reported",
        "efficiency.py",
        "return None if cycle is None else ImprovingCycle(tuple(cycle))",
        "return None",
        ("tests/test_construct.py::test_sd_bundle_reproduces_the_gap_example",),
    ),
    Mutant(
        "sp-filler-not-single-peaked",
        "construct.py",
        "lambda house: complete_sp(order, [], peak_hint=house)",
        "lambda house: Preference((house, *(g for g in reversed(range(order.n)) if g != house)))",
        ("tests/test_construct.py::test_random_bundles_pass_machine_checks",),
    ),
    Mutant(
        "colours-swapped",
        "efficiency.py",
        "colors.append(RED if p < pos[dest[h]] else BLUE)",
        "colors.append(BLUE if p < pos[dest[h]] else RED)",
        ("tests/test_equivalence.py::test_validate_extraction_claims_counts",),
    ),
    Mutant(
        "kernel-skips-the-first-envied-house",
        "efficiency.py",
        "for g in houses[row[h] & taken]:",
        "for g in houses[row[h] & taken][1:]:",
        ("tests/test_equivalence.py::test_verify_equivalence_clean_domains",),
    ),
    Mutant(
        "blocking-pair-one-sided",
        "efficiency.py",
        "if ra[hb] < own and ranks[b][ha] < ranks[b][hb]:",
        "if ra[hb] < own:",
        ("tests/test_equivalence.py::test_verify_equivalence_clean_domains",),
    ),
    Mutant(
        "corollary-rule-keeps-the-endowment",
        "rules.py",
        "mu = ttc(profile)",
        "mu = Allocation(profile.instance.endowment)",
        ("tests/test_rules.py::test_corollary_holds_exhaustively_n3",),
    ),
    Mutant(
        # Without the pair check the kept endowment reaches the cycle check.
        "corollary-pair-check-dropped",
        "rules.py",
        "        mu = ttc(profile)\n        if find_blocking_pair(profile, mu) is not None:\n",
        "        mu = Allocation(profile.instance.endowment)\n        if False:\n",
        ("tests/test_rules.py::test_corollary_holds_exhaustively_n3",),
    ),
)


def replay(mutant: Mutant) -> str:
    """'killed' or 'hang', or why the mutant is not killed: 'stale',
    'survived' or 'pytest exit N' (a usage error, say a test id that is
    gone)."""
    with tempfile.TemporaryDirectory(prefix="reallot-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / "src" / "reallot" / mutant.module
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "hang"
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")


def main() -> int:
    failed = 0
    for mutant in CATALOGUE:
        verdict = replay(mutant)
        failed += verdict not in ("killed", "hang")
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(CATALOGUE) - failed} of {len(CATALOGUE)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
