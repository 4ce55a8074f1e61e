"""Output checks for one finished sweep.

`fingerprint` condenses a sweep into what the reference records: each
cell's final cumulative regret (as `repr`) and chosen arm, plus the sha256
of `summary.csv`.  `invariants` holds on any seed, with or without a
reference.  `compare` matches a fingerprint against a recorded reference.
"""

import hashlib
import math


def fingerprint(traces: dict, summary_path: str) -> dict:
    with open(summary_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    cells = {f"{variant}/{seed}": [repr(float(trace.final_regret)), trace.chosen_arm]
             for (variant, seed), trace in sorted(traces.items())}
    return {"cells": cells, "summary_sha256": digest}


def invariants(traces: dict, horizon: int, variants: list[str], seeds: list[int],
               summary_rows: list[dict]) -> dict[str, str]:
    """Cell -> problem, for cells whose trace is missing or inconsistent."""
    problems = {}
    for (variant, seed), trace in traces.items():
        key = f"{variant}/{seed}"
        # Recompute the final regret from the run-length segments in exact
        # arithmetic; the program sums them with a running cumsum.
        exact = math.fsum(count * value for count, value in trace.segments)
        if trace.total_plays != horizon:
            problems[key] = f"{trace.total_plays} plays, horizon is {horizon}"
        elif any(value < -1e-12 for _, value in trace.segments):
            problems[key] = "negative per-play regret"
        elif not math.isclose(trace.final_regret, exact, rel_tol=1e-9, abs_tol=1e-9):
            problems[key] = f"final regret {trace.final_regret!r} != segment sum {exact!r}"
        elif trace.chosen_arm not in trace.final_active:
            problems[key] = f"chosen arm {trace.chosen_arm} not in the final active set"
    for variant in variants:
        for seed in seeds:
            if (variant, seed) not in traces:
                problems[f"{variant}/{seed}"] = "no trace"
    for row in summary_rows:
        if row["n_seeds"] != len(seeds):
            problems[f"summary/{row['variant']}"] = f"n_seeds {row['n_seeds']}"
    return problems


def compare(found: dict, reference: dict) -> set[str]:
    """Cells whose output differs from the reference.

    A summary.csv mismatch marks every cell, since each feeds the summary.
    """
    bad = {key for key, want in reference["cells"].items()
           if found["cells"].get(key) != want}
    bad |= set(found["cells"]) - set(reference["cells"])
    if found["summary_sha256"] != reference["summary_sha256"]:
        bad |= set(reference["cells"])
    return bad
