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
        "runner-always-pools",
        "equivalence.py",
        "jobs if checks >= _POOL_MIN_WORK else 1)",
        "jobs)",
        ("tests/test_equivalence.py::test_a_sweep_starts_its_pool_at_its_estimated_work",),
    ),
    Mutant(
        "runner-never-pools",
        "equivalence.py",
        "jobs if checks >= _POOL_MIN_WORK else 1)",
        "1)",
        ("tests/test_equivalence.py::test_a_sweep_starts_its_pool_at_its_estimated_work",),
    ),
    Mutant(
        # Classes with a 2-cycle reach the leaf, and their cycle makes them gaps.
        "class-search-keeps-two-cycles",
        "equivalence.py",
        "                if succ[g] & bit:\n                    break  # the holder of g envies agent a back\n",
        "                if False:\n                    break\n",
        ("tests/test_equivalence.py::test_orbit_sweep_matches_the_unreduced_sweep",),
    ),
    Mutant(
        # Each member lands in the class of its above set at the mirrored house.
        "class-members-grouped-by-another-house",
        "equivalence.py",
        "members.setdefault(p.better[h], []).append(i)",
        "members.setdefault(p.better[n - 1 - h], []).append(i)",
        ("tests/test_equivalence.py::test_orbit_sweep_matches_the_unreduced_sweep",),
    ),
    Mutant(
        "class-search-ignores-its-skip",
        "equivalence.py",
        "if not skip or not all(i in s for i, s in zip(profile, skipped)):",
        "if True:",
        ("tests/test_contour_classes.py::test_the_class_search_leaves_out_the_profiles_its_skip_names",),
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
        "peel-ignores-self-loops",
        "efficiency.py",
        "if not succ[h] & live:",
        "if not succ[h] & live & ~(1 << h):",
        ("tests/test_efficiency.py::test_sink_peel_agrees_with_the_walk_on_every_small_digraph",),
    ),
    Mutant(
        "peel-stops-after-one-sink",
        "efficiency.py",
        "                live ^= 1 << h\n                break\n",
        "                return True\n",
        ("tests/test_efficiency.py::test_pruned_enumeration_matches_the_flat_scan",),
    ),
    Mutant(
        "gap-expansion-dropped",
        "efficiency.py",
        "    if weight > 1 and gaps:\n",
        "    if False:\n",
        ("tests/test_efficiency.py::test_kernel_matches_the_flat_scan_on_repeated_agents",),
    ),
    Mutant(
        "canonical-bound-skips-a-house",
        "efficiency.py",
        "free & -(2 << assign[mate])",
        "free & -(4 << assign[mate])",
        ("tests/test_efficiency.py::test_kernel_matches_the_flat_scan_on_repeated_agents",),
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
    Mutant(
        # A float equal to an index passes, and fails later as a TypeError.
        "index-rule-compares-the-value",
        "core.py",
        "return 0 <= operator.index(x) < n",
        "return 0 <= x < n",
        ("tests/test_core.py::test_prefers_basics",),
    ),
    Mutant(
        "count-rule-accepts-a-bool",
        "core.py",
        "if isinstance(value, bool) or not isinstance(value, int):",
        "if not isinstance(value, int):",
        ("tests/test_equivalence.py::test_verify_equivalence_rejects_nonpositive_jobs",),
    ),
    Mutant(
        # The one size rule of the per-allocation API checks nothing.
        "rank-rows-check-no-allocation",
        "efficiency.py",
        "    for mu in allocations:\n",
        "    for mu in ():\n",
        ("tests/test_efficiency.py::test_allocation_size_mismatch_rejected",),
    ),
    Mutant(
        "check-runs-only-the-flagged-checks",
        "cli.py",
        "        if flag or run_all:\n",
        "        if flag:\n",
        ("tests/test_cli_golden.py",),
    ),
    Mutant(
        # A float peak then fails as a TypeError, and 7 or -1 as no match.
        "peak-hint-guard-dropped",
        "construct.py",
        '    if peak_hint is not None and not _is_index(peak_hint, m):\n        raise ValueError(f"unknown house index: {peak_hint}")\n',
        "",
        ("tests/test_construct.py::test_complete_sp_picks_first_canonical_match",),
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
        "return None if cycle is None else ImprovingCycle(cycle)",
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
        # A clean randomized sweep: exhaustive sweeps search classes, not the kernel.
        ("tests/test_equivalence.py::test_clean_sweeps_never_reach_the_dominator_scan",),
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
    Mutant(
        "sd-sampler-reads-the-sp-table",
        "domains.py",
        "is_single_dipped, functools.partial(_mask_sampler, 1)",
        "is_single_dipped, functools.partial(_mask_sampler, -1)",
        ("tests/test_domains.py::test_sampled_sp_and_sd_draws_read_the_family_table_by_mask",),
    ),
    Mutant(
        # Still uniform over the family, but not the draw the mask names.
        "draw-table-in-lexicographic-order",
        "domains.py",
        "return tuple(member[tuple(_sp_from_mask(order, mask)[::step])] for mask in range(len(family)))",
        "return family",
        ("tests/test_domains.py::test_sampled_sp_and_sd_draws_read_the_family_table_by_mask",),
    ),
    # Values built through ``_make`` skip their checks: the gates are the
    # pinned bytes, the checked rebuild and the oracles, not the constructor.
    Mutant(
        "witness-make-swaps-labels-and-colors",
        "equivalence.py",
        "ImprovementWitness._make(nu, frozenset(labels), labels, tuple(colors))",
        "ImprovementWitness._make(nu, frozenset(labels), tuple(colors), labels)",
        (
            "tests/test_library_bytes.py",
            "tests/test_equivalence.py::test_certified_values_are_those_the_checked_constructors_build",
        ),
    ),
    Mutant(
        # Still a bijection, so only the oracle sees that it is not TTC's.
        "ttc-make-sorts-the-outcome",
        "rules.py",
        "    return Allocation._make(tuple(assigned))\n\n\nTTC = ",
        "    return Allocation._make(tuple(sorted(assigned)))\n\n\nTTC = ",
        ("tests/test_rules.py::test_ttc_matches_the_round_based_oracle_exhaustively_n3",),
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
