"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py wraps entry points at the names their callers look up
(for example `rpbandits.env.laplace_icdf`), and `install` fails if one of
them is gone.  Running it here makes a rename fail in the test suite rather
than only in the benchmark.  A caller that stops looking a name up would
leave its span empty instead, so the test also checks what the spans and
counters saw.  It runs in a subprocess because `install` patches the
modules for the whole process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import itertools, json, sys
    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install
    from rpbandits import harness

    tracer = Tracer(sys.argv[2])
    install(tracer)

    def clients(model, entries):
        return sum(n for _, n in entries) if model == "M1" else len(entries)

    def spans_of(name):
        return sum(1 for s in tracer.spans if s[2] == name)

    def filter_spans():
        return spans_of("robust.spectral_filter")

    cells, configs = {}, {}
    for model, threshold in (("M1", {}), ("M2", {"nu": 0.02})):
        config = configs[model] = {
            "version": 1,
            "instance": {"generate": {"dim": 3, "num_actions": 10, "seed": 5}},
            "schedule": {"horizon": 3000},
            "model": model,
            "adversary": {"alpha": 0.05, "strategy": "anti-optimal"},
            "privacy": {"enabled": True, "epsilon": 1.0},
            "threshold": {"delta": 0.05, "alpha": 0.05, **threshold},
        }
        before = tracer.counters["env.reports"]
        points_before = tracer.counters["robust.filter.points"]
        filters_before = filter_spans()
        trace = harness.run_cell(config, "robust", 0)
        entries = [e for rec in trace.rounds if rec.coreset_entries
                   for e in rec.coreset_entries]
        filtered = [e for rec in trace.rounds if rec.filter_diagnostics is not None
                    for e in rec.coreset_entries]
        cells[model] = {
            "reports": tracer.counters["env.reports"] - before,
            "clients": clients(model, entries),
            "filter_spans": filter_spans() - filters_before,
            "filter_points": tracer.counters["robust.filter.points"] - points_before,
            "filtered_clients": clients(model, filtered),
        }
    vanilla = {}
    for (model, config), variant in itertools.product(configs.items(),
                                                      ("vanilla", "non-robust")):
        before = spans_of("robust.vanilla_least_squares")
        trace = harness.run_cell(config, variant, 0)
        vanilla[f"{model}/{variant}"] = {
            "spans": spans_of("robust.vanilla_least_squares") - before,
            "estimated_rounds": sum(1 for rec in trace.rounds
                                    if rec.coreset_entries is not None),
        }
    print(json.dumps({"spans": sorted({s[2] for s in tracer.spans}), "cells": cells,
                      "vanilla": vanilla}))
""")


DESIGN_SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install
    from rpbandits import harness

    tracer = Tracer(sys.argv[2])
    install(tracer)

    config = {
        "version": 1,
        "instance": {"generate": {"dim": 3, "num_actions": 12, "seed": 4}},
        "schedule": {"horizon": 5000},
        "model": "M1",
        "threshold": {"delta": 0.05, "c_gamma": 0.2},
    }
    sets, rounds = set(), 0
    for variant in ("robust", "vanilla"):
        trace = harness.run_cell(config, variant, 0)
        explored = [rec for rec in trace.rounds if rec.coreset_entries is not None]
        rounds += len(explored)
        sets.update(tuple(rec.active_before) for rec in explored)
    spans = sum(1 for s in tracer.spans if s[2] == "design.compute_design")
    print(json.dumps({"spans": spans, "distinct_sets": len(sets), "rounds": rounds}))
""")


def _run_traced(script: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), str(tmp_path / "spans")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_wraps_env_and_privacy(tmp_path):
    out = _run_traced(SCRIPT, tmp_path)
    assert "env.play_batch" in out["spans"]
    assert "privacy.laplace_icdf" in out["spans"]
    for model in ("M1", "M2"):
        cell = out["cells"][model]
        assert cell["clients"] > 0
        assert cell["reports"] == cell["clients"], model
        # robust_least_squares calls the filter at the name the tracer wraps,
        # with one point per reporting client.
        assert cell["filter_spans"] > 0, model
        assert cell["filtered_clients"] > 0, model
        assert cell["filter_points"] == cell["filtered_clients"], model
    # The vanilla and non-robust baselines estimate every exploration round
    # through the name the tracer wraps.
    assert len(out["vanilla"]) == 4
    for variant, cell in out["vanilla"].items():
        assert cell["estimated_rounds"] > 0, variant
        assert cell["spans"] == cell["estimated_rounds"], variant


def test_tracer_sees_one_design_per_distinct_active_set(tmp_path):
    # The policy reuses a design when it meets an active set again, and it
    # calls compute_design at the name the tracer wraps on every miss.  So
    # the traced calls are the distinct active sets: fewer than the rounds
    # (both cells start on the full set), and more than none.
    out = _run_traced(DESIGN_SCRIPT, tmp_path)
    assert out["rounds"] > out["distinct_sets"] > 0
    assert out["spans"] == out["distinct_sets"]
