"""Sweep benchmark for rpbandits.

Each measured run is one sweep of a workload on a fresh instance, in a
fresh process (child.py), repeated until --seconds are used.  With
--trace 0 the runs are untraced and the result holds the end-to-end
metrics.  With --trace 1 each sweep runs untraced and then traced; the
result holds the per-layer metrics of the traced runs and the tracing
overhead.  Every run's output is checked (see check.py) and compared with
the recorded reference where reference.jsonl has one for the sweep.

    python3 perfbench/run.py --workload m1-attack --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes
    python3 perfbench/run.py --record-reference 0-9 --sweeps 18

The last line of standard output is one JSON object: correct, attempted,
failed (cells) and metrics.  The exit code is 1 when a check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
REFERENCE = os.path.join(BENCH, "reference.jsonl")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, BENCH)
import check  # noqa: E402
from workloads import WORKLOADS, sweep_seed  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
# Stop starting rounds past this, whatever --seconds says, so that a run
# ends within 180 s even when sweeps are slow.
HARD_STOP_S = 120


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Users run from cached bytecode; warm_up writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(name: str, seed: int, trace: int, shrink: bool = False,
              keep: str | None = None) -> dict:
    """The sweep with this sweep seed, in a fresh process.

    Returns child.py's record plus setup_s, timed from the spawn.
    """
    os.makedirs(WORK, exist_ok=True)
    out = keep or tempfile.mkdtemp(dir=WORK)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", name,
           "--seed", str(seed), "--out", out, "--trace", str(trace)]
    if shrink:
        cmd.append("--shrink")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        _kill_session(proc)
        proc.communicate()
        raise
    finally:
        if keep is None:
            shutil.rmtree(out, ignore_errors=True)
    # A child that died can leave its pool workers running.
    _kill_session(proc)
    if proc.returncode != 0:
        raise BenchError(f"{name} seed {seed} exited {proc.returncode}:\n{stderr[-3000:]}")
    rec = json.loads(stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("t_ready") - t_spawn
    rec["seed"] = seed
    return rec


def _kill_session(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the child's session (its pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm_up() -> None:
    """Compile and cache bytecode once, so no measured run pays for it."""
    subprocess.run([sys.executable, "-c", "import rpbandits.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def load_reference() -> dict:
    """workload -> sweep seed (as str) -> recorded fingerprint."""
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            for line in fh:
                rec = json.loads(line)
                ref.setdefault(rec.pop("workload"), {})[str(rec.pop("sweep"))] = rec
    return ref


def save_reference(ref: dict) -> None:
    """One line per recorded sweep, so a re-recording diffs line by line."""
    with open(REFERENCE, "w") as fh:
        for name in sorted(ref):
            for sweep in sorted(ref[name], key=int):
                line = {"workload": name, "sweep": int(sweep), **ref[name][sweep]}
                fh.write(json.dumps(line, sort_keys=True) + "\n")


def environment(child_env_info: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": nproc(), "cpu": cpu, **child_env_info,
            "commit": git_commit(), "src_sha256": src_digest()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest() -> str:
    """sha256 over src/*.py, naming the code under test without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Sweep fresh instances in fresh processes for `seconds`; medians and checks.

    With trace=1 each sweep runs twice, untraced then traced; the pair must
    give identical outputs, and their wall-time difference is the overhead.
    """
    modes = (0, 1) if trace else (0,)
    reps = {mode: [] for mode in modes}
    start = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            reps[mode].append(run_child(name, sweep_seed(seed, rounds), mode))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
        if elapsed > HARD_STOP_S:
            break

    reference = load_reference().get(name, {})
    attempted = failed = 0
    checked = mismatched = 0
    notes = []
    for i, rec in enumerate(r for mode in modes for r in reps[mode]):
        bad = set(rec["failed_cells"])
        notes += [f"{key}: {problem}" for key, problem in rec["problems"].items()]
        ref = reference.get(str(rec["seed"]))
        if ref is not None:
            checked += 1
            diff = check.compare(rec["fingerprint"], ref)
            mismatched += bool(diff)
            bad |= diff
        if trace and i >= rounds:  # traced twin of untraced run i - rounds
            diff = check.compare(rec["fingerprint"], reps[0][i - rounds]["fingerprint"])
            if diff:
                notes.append(f"sweep {rec['seed']}: traced output differs from untraced")
            bad |= diff
        attempted += rec["cells"]
        failed += len(bad)
    runs = rounds * len(modes)
    if mismatched:
        ref_status = f"FAILED: {mismatched} of {checked} checked runs differ from the reference"
    elif checked:
        ref_status = f"passed on {checked} of {runs} runs"
    else:
        ref_status = "skipped: no reference for these sweeps"
    if checked and checked < runs:
        ref_status += f"; skipped on {runs - checked} (no reference)"

    # A sweep's cost depends on its instance, so sweep time and throughput
    # are totals over the run's sweeps (a mean over instances); set-up and
    # memory, which do not, are medians.
    untraced = reps[0]
    wall = [r["sweep_wall_s"] for r in untraced]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "sweep_wall_s": statistics.fmean(wall),
        "plays_per_s": sum(r["plays"] for r in untraced) / sum(wall),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    shares = {}
    if trace:
        traced = reps[1]
        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced)
        values["trace.overhead_s"] = statistics.median(
            t["sweep_wall_s"] - u["sweep_wall_s"] for t, u in zip(traced, untraced))
        shares = {layer: statistics.median(r["shares"].get(layer, 0.0) for r in traced)
                  for layer in traced[0]["shares"]}
    first = untraced[0]
    return {
        "workload": name, "seed": seed, "trace": trace, "runs": rounds,
        "values": values, "shares": shares, "wall_samples": wall,
        "attempted": attempted, "failed": failed, "reference": ref_status,
        "notes": sorted(set(notes)), "env": environment(first["env"]),
        "workers": first["workers"], "cells": first["cells"], "plays": first["plays"],
    }


def spec_metrics(trace: int) -> list[dict]:
    with open(SPEC) as fh:
        spec = json.load(fh)
    return spec["per_layer"] if trace else spec["end_to_end"]


def report(m: dict, prefix: str = "") -> dict:
    """Print one measurement for people; return its metrics for the JSON line."""
    mode = "each untraced, then traced" if m["trace"] else "untraced"
    print(f"# {m['workload']} seed {m['seed']}: {m['runs']} sweeps on fresh instances, "
          f"{mode}, each in a fresh process; {m['cells']} cells and {m['plays']} plays "
          f"per sweep, {m['workers']} worker(s)")
    print(f"# env {json.dumps(m['env'], sort_keys=True)}")
    print(f"# reference check: {m['reference']}")
    for note in m["notes"]:
        print(f"# problem: {note}")
    if m["shares"]:
        print("# traced self-time share: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in m["shares"].items()))
    frac = m["failed"] / m["attempted"]
    print(f"{prefix}failed_frac {frac:.4g} (of {m['attempted']} cells)")
    metrics = {}
    for spec in spec_metrics(m["trace"]):
        value = m["values"][spec["name"]]
        metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{prefix}{spec['name']} {value:.6g} {spec['unit']}")
    if not m["trace"]:
        print(f"# sweep_wall_s samples: {' '.join(f'{w:.4f}' for w in m['wall_samples'])}")
    return metrics


def record_reference(names: list[str], seeds: list[int], sweeps: int) -> int:
    """Record the outputs of the first `sweeps` sweeps of each workload seed."""
    ref = load_reference()
    for name in names:
        for seed in seeds:
            for rep in range(sweeps):
                rec = run_child(name, sweep_seed(seed, rep), 0)
                if rec["failed_cells"]:
                    print(f"{name} sweep {rec['seed']}: not recorded, {rec['problems']}",
                          file=sys.stderr)
                    return 1
                ref.setdefault(name, {})[str(rec["seed"])] = rec["fingerprint"]
            print(f"recorded {name} seed {seed}", flush=True)
    save_reference(ref)
    return 0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics "
                         "(default: 0 for one workload, both for all)")
    ap.add_argument("--record-reference", metavar="SEEDS",
                    help="record reference outputs for these workload seeds (e.g. 0-9) "
                         "and exit")
    ap.add_argument("--sweeps", type=int, default=18,
                    help="with --record-reference: sweeps recorded per seed")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(SRC, "rpbandits")):
        print(f"error: no rpbandits sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        warm_up()
        if args.record_reference:
            return record_reference(names, parse_seeds(args.record_reference), args.sweeps)
        if args.trace is not None:
            modes = [args.trace]
        else:
            modes = [0, 1] if args.workload == "all" else [0]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            for trace in modes:
                m = measure(name, args.seed, args.seconds, trace)
                prefix = f"{name}." if len(names) > 1 else ""
                metrics.update(report(m, prefix))
                attempted += m["attempted"]
                failed += m["failed"]
                sys.stdout.flush()
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(WORK)  # each run removes its own directory
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
