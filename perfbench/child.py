"""One sweep of one workload, in a fresh process; prints one JSON line.

Mirrors `rpbandits run`: import the package, validate the config, resolve
the instance, start the worker pool where the workload uses one, then run
the sweep, summarize, and write summary.csv and plotdata.csv.  `t_ready`
(CLOCK_MONOTONIC, shared across processes) marks the end of set-up, so the
parent can time set-up from the moment it spawned this process.

Run by run.py with PYTHONPATH pointing at the checkout's src/.
"""

import argparse
import concurrent.futures
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict

import check
from tracer import Tracer, install, load_all, self_times
from workloads import WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _start_pool(workers: int) -> None:
    """Start and stop a pool of `workers` processes, as run_sweep does.

    run_sweep owns its pool, so set-up pays for starting one of the same
    size from the same process state.
    """
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(os.getpid) for _ in range(workers)]:
            fut.result()


def _run_cells(harness, config: dict, variants: list[str], seeds: list[int],
               out_dir: str):
    """run_sweep without the robust variant: run_cell + trace_to_bytes per cell."""
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    traces, failures = {}, []
    for variant in variants:
        for seed in seeds:
            try:
                trace = harness.run_cell(config, variant, seed)
                payload = harness.trace_to_bytes(trace)
            except Exception as exc:  # noqa: BLE001 - counted as a failed cell
                failures.append({"variant": variant, "seed": seed,
                                 "error": f"{type(exc).__name__}: {exc}"})
                continue
            with open(os.path.join(out_dir, "traces", f"{variant}_{seed}.json"), "wb") as fh:
                fh.write(payload)
            traces[(variant, seed)] = trace
    return harness.SweepResult(
        out_dir=out_dir, config=config, variants=variants, seeds=seeds,
        checkpoints=list(config["checkpoints"]), traces=traces, stats={},
        survival={}, failures=failures, wall_clock_s=0.0,
    )


def _layer_metrics(tracer: Tracer, workers: int, sweep_wall_s: float,
                   import_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and each layer's share of traced self time."""
    tracer.dump()
    spans, counters = load_all(tracer.spans_dir)
    selfs = self_times(spans)
    calls, self_s, dur = Counter(), defaultdict(float), defaultdict(float)
    for sid, _parent, name, start, end in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        dur[name] += (end - start) / 1e9
    m = {f"{name}.calls": calls[name] for name in (
        "design.compute_design", "robust.spectral_filter",
        "robust.vanilla_least_squares", "env.play_batch", "privacy.laplace_icdf")}
    for name in ("design.compute_design", "design.build_coreset",
                 "robust.spectral_filter", "robust.robust_least_squares",
                 "robust.vanilla_least_squares", "env.play_batch",
                 "privacy.laplace_icdf", "policy.run", "harness.run_cell",
                 "harness.trace_to_bytes", "harness.run_sweep", "harness.summarize",
                 "harness.validate_config", "harness.resolve_instance"):
        m[f"{name}.self_s"] = self_s[name]
    for key in ("design.arms_in", "design.support_out", "robust.filter.points",
                "robust.filter.removed", "robust.filter.iterations",
                "robust.filter.fallbacks", "env.plays", "env.reports",
                "policy.rounds", "policy.eliminated", "policy.vacuous_rounds",
                "harness.trace_bytes"):
        m[key] = counters[key]
    filter_calls = calls["robust.spectral_filter"]
    m["robust.filter.fallback_rate"] = (
        counters["robust.filter.fallbacks"] / filter_calls if filter_calls else 0.0)
    m["harness.worker_busy_frac"] = dur["harness.run_cell"] / (workers * sweep_wall_s)
    m["cli.import_s"] = import_s

    by_layer = defaultdict(float)  # span names are "<layer>.<function>"
    for name, secs in self_s.items():
        by_layer[name.split(".")[0]] += secs
    total = sum(by_layer.values())
    shares = {layer: secs / total for layer, secs in sorted(by_layer.items())}
    return m, shares


def _environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="working directory for this sweep")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shrink", action="store_true", help="run the small copy")
    args = ap.parse_args()

    t0 = time.monotonic()
    import rpbandits.cli  # noqa: F401 - what the `rpbandits` entry point imports
    from rpbandits import harness
    import_s = time.monotonic() - t0
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rpbandits imported from {harness.__file__}, not {SRC}")

    tracer = None
    if args.trace:
        tracer = Tracer(os.path.join(args.out, "spans"))
        install(tracer)

    wl = WORKLOADS[args.workload]
    if args.shrink:
        wl = wl.shrunk()
    workers = min(wl.workers, len(os.sched_getaffinity(0)))
    config = wl.config(args.seed)
    harness.validate_config(config)
    harness.resolve_instance(config)
    if workers > 1:
        _start_pool(workers)
    t_ready = time.monotonic()

    sweep_dir = os.path.join(args.out, "sweep")
    seeds = list(range(wl.seeds))
    if wl.skip_robust:
        result = _run_cells(harness, config, wl.variants, seeds, sweep_dir)
    else:
        result = harness.run_sweep(config, sweep_dir, workers=workers)
    rows = harness.summarize(result)
    summary_path = os.path.join(sweep_dir, "summary.csv")
    harness.write_summary_csv(rows, summary_path)
    harness.emit_plotdata(result, os.path.join(sweep_dir, "plotdata.csv"))
    sweep_wall_s = time.monotonic() - t_ready
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems = check.invariants(result.traces, wl.horizon, wl.variants, seeds, rows)
    failed = {f"{f['variant']}/{f['seed']}" for f in result.failures}
    failed |= {key for key in problems if not key.startswith("summary/")}
    if any(key.startswith("summary/") for key in problems):
        failed |= {f"{v}/{s}" for v in wl.variants for s in seeds}
    out = {
        "t_ready": t_ready,
        "import_s": import_s,
        "sweep_wall_s": sweep_wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "workers": workers,
        "cells": wl.cells,
        "plays": wl.plays,
        "failed_cells": sorted(failed),
        "problems": {**problems, **{f"{f['variant']}/{f['seed']}": f["error"]
                                    for f in result.failures}},
        "fingerprint": check.fingerprint(result.traces, summary_path),
        "env": _environment(),
    }
    if tracer is not None:
        out["layers"], out["shares"] = _layer_metrics(tracer, workers, sweep_wall_s,
                                                      import_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
