"""Experiment harness: validated configs, seeded sweeps, and summaries.

A sweep runs every (variant, seed) cell of a config, writing one trace file
per cell under out/traces/ plus an append-only manifest, so an interrupted
sweep resumes without recomputing finished cells.  All randomness derives
from (master_seed, seed, variant) labels, which makes parallel execution
produce byte-identical trace files to a sequential run.
"""

import concurrent.futures
import contextlib
import functools
import hashlib
import itertools
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import get_args

import numpy as np

from .design import is_int, is_real, json_fields
from .env import AdversaryConfig, BanditInstance, LearnerEnv, generate_instance
from .errors import BanditError, ConfigInvalid
from .policy import (
    RegretTrace,
    Schedule,
    ThresholdConfig,
    default_num_rounds,
    run_elimination,
    run_nonrobust_elimination,
    run_vanilla_elimination,
)
from .privacy import PrivacyParams
from .seeding import INT_LABEL_BITS, INT_LABELS, rng_from, seed_sequence

CONFIG_VERSION = 1
VARIANTS = ("robust", "vanilla", "non-private", "non-robust")
PLOTDATA_HEADER = "variant,seed,plays,cumulative_regret"


# A config's keys and their JSON types (version 1.0 counts as 1), the keys
# it must give, and its instance sources.  A section's keys and types are
# its dataclass's fields (see _section), and each range is checked by the
# object its value builds, so no key, type or range is written twice.
CONFIG_KEYS = {"version": float, "instance": dict, "schedule": dict, "model": str,
               "threshold": dict, "adversary": dict, "privacy": dict, "seeds": int | list,
               "master_seed": int, "baselines": list, "checkpoints": list}
REQUIRED_KEYS = ("version", "instance", "schedule", "model", "threshold")
INSTANCE_SOURCES = {"file": str, "inline": dict, "generate": dict}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               list: "an array", dict: "an object", type(None): "null"}
_SEEDS = f"integers in [-2^{INT_LABEL_BITS - 1}, 2^{INT_LABEL_BITS - 1})"


def _invalid(path: str, message: str) -> ConfigInvalid:
    return ConfigInvalid(f"config field {path or '<root>'}: {message}")


def _object_error(data, kinds: dict, required: tuple = ()) -> tuple[str, str] | None:
    """None if `data` is a JSON object with every required key, no key
    outside `kinds`, and each value of its annotation's JSON type (`X | None`
    is X or null; a bool is no number and 2.0 no integer).  Otherwise the
    first problem, as (key, message), with key "" for the object itself."""
    try:
        json_fields(data, required, tuple(kinds))
    except (TypeError, ValueError) as exc:
        return "", str(exc)
    for key, value in data.items():
        options = get_args(kinds[key]) or (kinds[key],)
        if not any(is_int(value) if kind is int else is_real(value) if kind is float
                   else isinstance(value, kind) for kind in options):
            return key, f"{value!r} is not " + " or ".join(_TYPE_NAMES[kind] for kind in options)
    return None


def _check_object(path: str, data, kinds: dict, required: tuple = ()) -> None:
    """Raise ConfigInvalid with the field path of _object_error's problem."""
    error = _object_error(data, kinds, required)
    if error is not None:
        key, message = error
        raise _invalid(f"{path}/{key}".strip("/"), message)


def validate_config(config: dict) -> tuple[list[str], list[int], list[int]]:
    """Check a config's keys, their JSON types and the sweep's own rules, and
    build its sections; raises ConfigInvalid with a field path.  Returns the
    sweep's variants ("robust", then the baselines), seeds and checkpoints,
    with the default of each key the config omits; run_sweep and load_sweep
    read them from here and nowhere else."""
    _check_object("", config, CONFIG_KEYS, REQUIRED_KEYS)
    if config["version"] != CONFIG_VERSION:
        raise _invalid("version", f"need {CONFIG_VERSION}, got {config['version']!r}")
    _check_object("instance", config["instance"], INSTANCE_SOURCES)
    if len(config["instance"]) != 1:
        raise _invalid("instance", f"need exactly one of {', '.join(INSTANCE_SOURCES)}")
    seeds = config.get("seeds", 8)
    # A count is a range length, which sys.maxsize bounds.
    if not (1 <= seeds <= sys.maxsize if is_int(seeds)
            else all(is_int(s) and s in INT_LABELS for s in seeds)
            and 0 < len(set(seeds)) == len(seeds)):
        raise _invalid("seeds", f"need a count in [1, {sys.maxsize}] or distinct {_SEEDS}, "
                                f"got {seeds!r}")
    baselines = config.get("baselines", [])
    if not (all(b in VARIANTS[1:] for b in baselines) and len(set(baselines)) == len(baselines)):
        raise _invalid("baselines", f"need distinct variants of {VARIANTS[1:]}, got {baselines!r}")
    horizon = _sections(config)[0].horizon
    quarters = sorted({max(1, horizon * q // 4) for q in (1, 2, 3, 4)})
    checkpoints = config.get("checkpoints", quarters)
    if not (checkpoints and all(is_int(c) and c >= 0 for c in checkpoints)):
        raise _invalid("checkpoints", f"need play counts >= 0, got {checkpoints!r}")
    late = [c for c in checkpoints if c > horizon]
    if late:
        raise _invalid("checkpoints", f"{late[0]} is past the horizon {horizon}")
    return (["robust", *baselines], list(range(seeds)) if is_int(seeds) else list(seeds),
            list(checkpoints))


def _canonical_json(data) -> bytes:
    """Compact, sorted-key JSON: the bytes of a trace or manifest line
    (plus a newline) and of what config_hash hashes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config)).hexdigest()


def resolve_instance(config: dict, base_dir: str | None = None) -> BanditInstance:
    source = config["instance"]
    if "inline" in source:
        return BanditInstance.from_json_dict(source["inline"])
    if "file" in source:
        path = source["file"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path) as fh:
            return BanditInstance.from_json_dict(json.load(fh))
    return generate_instance(**source["generate"])


def _section(config: dict, name: str, cls, required: tuple = (), linked=()) -> dict:
    """config[name] ({} when absent), checked to hold every `required` key and
    no key but cls's fields other than `linked`, each of its field's type."""
    values = config.get(name, {})
    _check_object(name, values, {f.name: f.type for f in fields(cls) if f.name not in linked},
                  required)
    return values


def _build(cls, section: str, values: dict, **linked):
    """cls(**values, **linked).  Each dataclass message starts with the field
    it rejects, so a rejected value raises ConfigInvalid with its path;
    `linked` fields come from top-level keys or other sections."""
    try:
        return cls(**values, **linked)
    except ValueError as exc:
        field = str(exc).split()[0]
        raise _invalid(field if field in linked else f"{section}/{field}", str(exc)) from exc


def _sections(config: dict, variant: str = "robust"):
    """The (Schedule, PrivacyParams, ThresholdConfig, AdversaryConfig, master
    seed) of a cell."""
    master = config.get("master_seed", 0)
    if master not in INT_LABELS:
        raise _invalid("master_seed", f"need one of the {_SEEDS}, got {master!r}")
    sched = _section(config, "schedule", Schedule, ("horizon",))
    schedule = _build(Schedule, "schedule",
                      {"num_rounds": default_num_rounds(sched["horizon"]), **sched})
    # The dataclasses own every default but one: a config without a privacy
    # section runs non-private, while PrivacyParams() is private.
    privacy = _build(PrivacyParams, "privacy",
                     {"enabled": False, **_section(config, "privacy", PrivacyParams)})
    if variant == "non-private":
        privacy = replace(privacy, enabled=False)
    linked = {"model": config["model"]}
    threshold = _build(ThresholdConfig, "threshold",
                       _section(config, "threshold", ThresholdConfig, ("delta",), linked),
                       **linked)
    adversary = _build(AdversaryConfig, "adversary",
                       _section(config, "adversary", AdversaryConfig))
    return schedule, privacy, threshold, adversary, master


def run_cell(config: dict, variant: str, seed: int,
             instance: BanditInstance | None = None) -> RegretTrace:
    """Run one (variant, seed) cell of a sweep on `instance`, by default the
    one config resolves (a relative file path against the working directory)."""
    if variant not in VARIANTS:
        raise ConfigInvalid(f"unknown variant {variant!r}")
    if instance is None:
        instance = resolve_instance(config)
    schedule, privacy, cfg, adversary, master = _sections(config, variant)
    env = LearnerEnv(instance, adversary, privacy, seed_sequence(master, seed, variant, "env"))
    policy_rng = rng_from(master, seed, variant, "policy")
    runner = {
        "robust": run_elimination,
        "non-private": run_elimination,
        "vanilla": run_vanilla_elimination,
        "non-robust": run_nonrobust_elimination,
    }[variant]
    return runner(env, schedule, cfg, policy_rng)


def trace_to_bytes(trace: RegretTrace) -> bytes:
    return _canonical_json(trace.to_json_dict()) + b"\n"


@contextlib.contextmanager
def writing(path: str):
    """Raise an OSError of the block as a BanditError: path cannot be written."""
    try:
        yield
    except OSError as exc:
        raise BanditError(f"cannot write {path}: {exc.strerror or exc}") from exc


def atomic_write(path: str, payload: bytes) -> None:
    """Write payload to path whole or not at all: a temp file, fsync'd and
    renamed over path.  Raises BanditError when path cannot be written."""
    tmp = path + ".tmp"
    with writing(path):
        fh = open(tmp, "wb")
        try:
            with fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            os.remove(tmp)  # the temp file this call made, so nothing is left
            raise


def _trace_filename(variant: str, seed: int) -> str:
    return f"{variant}_{seed}.json"


@dataclass
class SweepResult:
    out_dir: str
    config: dict
    variants: list[str]
    seeds: list[int]
    checkpoints: list[int]
    traces: dict[tuple[str, int], RegretTrace]
    stats: dict[str, dict[int, dict[str, float]]]  # variant -> checkpoint -> stats
    survival: dict[str, float]
    failures: list[dict]
    wall_clock_s: float


def _percentile(ordered: list[float], q: float) -> float:
    """np.percentile(ordered, q) of sorted floats, bit for bit: numpy's linear
    method and its _lerp.  np.percentile and np.median import numpy.ma, which
    takes 15-40 ms, so the aggregate uses this and statistics.median."""
    last = len(ordered) - 1
    virtual = last * (q / 100)
    # At or past the last value numpy takes both neighbours, and the weight's
    # base, from index -1.
    below = -1 if virtual >= last else int(virtual)
    lower, upper = ordered[below], ordered[below + 1 if below >= 0 else -1]
    weight = virtual - below
    diff = upper - lower
    return upper - diff * (1 - weight) if weight >= 0.5 else lower + diff * weight


def _aggregate(
    traces: dict[tuple[str, int], RegretTrace],
    variants: list[str],
    seeds: list[int],
    checkpoints: list[int],
) -> tuple[dict, dict]:
    stats: dict[str, dict[int, dict[str, float]]] = {}
    survival: dict[str, float] = {}
    for variant in variants:
        have = [traces[(variant, s)] for s in seeds if (variant, s) in traces]
        if not have:
            continue
        per_cp: dict[int, dict[str, float]] = {}
        for cp in checkpoints:
            vals = [float(t.cumulative_at(cp)) for t in have]
            ordered = sorted(vals)
            per_cp[cp] = {
                "n_seeds": len(vals),
                "mean": float(np.mean(vals)),
                "median": statistics.median(ordered),
                "iqr": _percentile(ordered, 75) - _percentile(ordered, 25),
            }
        stats[variant] = per_cp
        survival[variant] = float(np.mean([t.optimal_arm_survived() for t in have]))
    return stats, survival


def run_sweep(
    config: dict,
    out_dir: str,
    workers: int = 1,
    resume: bool = False,
    base_dir: str | None = None,
) -> SweepResult:
    """Run all (variant, seed) cells, writing traces and a manifest to out_dir.

    The cells are validate_config's variants times its seeds, in that
    order, and the result aggregates at its checkpoints.  Each finished
    cell is durably written (temp file + rename + manifest append) before
    the sweep moves on, so a crashed sweep can be resumed with resume=True.
    A cell's last manifest record decides: the resume skips it when that
    record is ok and its trace file exists, and reruns it otherwise.
    Failed cells are recorded in the manifest with their error and
    reported in the result rather than silently dropped.  The instance
    source is read once, before anything is written: a config that fails
    validation, or whose instance cannot be built, raises ConfigInvalid.
    Every cell plays that one instance (a pool gets it with each cell), so
    a `file` instance edited or deleted during or after the run changes
    nothing in it; load_sweep never reads the instance.
    """
    variants, seeds, checkpoints = validate_config(config)
    try:
        instance = resolve_instance(config, base_dir)
    except (OSError, TypeError, ValueError) as exc:
        source = next(iter(config["instance"]))
        raise ConfigInvalid(f"config field instance/{source}: {exc}") from exc
    started = time.monotonic()
    with writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")

    digest = config_hash(config)
    header = {"kind": "header", "schema": CONFIG_VERSION,
              "config_hash": digest, "config": config}
    # Each cell's last record, or None; the keys keep (variant, seed) order.
    records: dict[tuple[str, int], dict | None] = dict.fromkeys(
        itertools.product(variants, seeds))
    if os.path.isfile(manifest_path):
        prior, found = _read_manifest(manifest_path)
        # A manifest without a header can be started over, not resumed.
        if resume if prior is None else prior["config_hash"] != digest:
            raise ConfigInvalid(
                "manifest does not match this config; cannot resume" if resume else
                "out_dir already holds results for a different config; "
                "choose a fresh directory")
        if resume:
            records = {cell: found.get(cell) for cell in records}

    written: list[bytes] = []  # the manifest's lines, as this sweep wrote them

    def rewrite_manifest():
        lines = [_canonical_json(rec) + b"\n" for rec in (header, *records.values()) if rec]
        if lines != written:
            atomic_write(manifest_path, b"".join(lines))
            written[:] = lines

    # Written whole before the first append, so that no record is appended
    # to the torn tail an interrupted append may have left.
    rewrite_manifest()
    with writing(os.path.join(out_dir, "traces")):
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    pending = [cell for cell, rec in records.items()
               if not (rec and rec["status"] == "ok"
                       and os.path.exists(os.path.join(out_dir, rec["path"])))]

    def finish(cell: tuple[str, int], payload: bytes | None, error: str | None):
        variant, seed = cell
        rec = {"kind": "cell", "variant": variant, "seed": seed}
        if error is None:
            rec.update(status="ok", path=os.path.join("traces", _trace_filename(variant, seed)))
            atomic_write(os.path.join(out_dir, rec["path"]), payload)
        else:
            rec.update(status="error", error=error)
        line = _canonical_json(rec) + b"\n"
        with writing(manifest_path), open(manifest_path, "ab") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        written.append(line)
        records[cell] = rec

    # A pool forks all its processes at the first submit, so it gets no more
    # of them than there are cells to run, and none when no cell is left.
    # When the sweep ends early, it drops the cells that have not started;
    # its workers ignore SIGINT, so only the main process sees a Ctrl-C.
    pool = (concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
            if workers > 1 and pending else None)
    try:
        if pool is None:
            jobs = ((cell, functools.partial(_cell_bytes, config, *cell, instance))
                    for cell in pending)
        else:
            futs = {pool.submit(_cell_bytes, config, *cell, instance): cell for cell in pending}
            jobs = ((futs[fut], fut.result) for fut in concurrent.futures.as_completed(futs))
        # Only the cell's own run can fail it; a file that cannot be written
        # ends the sweep (BanditError, exit 2).
        for cell, thunk in jobs:
            try:
                payload, error = thunk(), None
            except Exception as exc:  # noqa: BLE001 - recorded, not dropped
                payload, error = None, f"{type(exc).__name__}: {exc}"
            finish(cell, payload, error)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    # Rewritten in cell order, so reruns of a finished sweep compare byte for
    # byte; a pool's completion order or a resume's reruns can leave another.
    rewrite_manifest()
    result = _sweep_result(out_dir, config, records, variants, seeds, checkpoints)
    result.wall_clock_s = time.monotonic() - started
    return result


def _cell_bytes(config: dict, variant: str, seed: int, instance: BanditInstance) -> bytes:
    return trace_to_bytes(run_cell(config, variant, seed, instance))


# The keys and JSON types of a manifest's records, and the keys each needs.
# A cell needs "path" as well when its status is "ok", and "error" when not.
MANIFEST_KEYS = {
    "header": ({"kind": str, "schema": int, "config_hash": str, "config": dict},
               ("config_hash", "config")),
    "cell": ({"kind": str, "variant": str, "seed": int, "status": str, "path": str,
              "error": str}, ("variant", "seed", "status")),
}


def _read_manifest(path: str) -> tuple[dict | None, dict[tuple[str, int], dict]]:
    """A manifest's header and each cell's last record, keyed by (variant, seed).

    A final line with no newline is what an interrupted append leaves, and
    is ignored.  Any other line that is not a JSON object, and any header
    or cell record without its keys (MANIFEST_KEYS) or with a value of the
    wrong JSON type, raises ConfigInvalid naming the file and the line.
    """
    header = None
    cells = {}
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not isinstance(rec, dict):
                raise ConfigInvalid(f"{path} line {number} is not a manifest record")
            kind = rec.get("kind")
            if kind not in ("header", "cell"):
                continue
            kinds, required = MANIFEST_KEYS[kind]
            if kind == "cell":
                required += ("path",) if rec.get("status") == "ok" else ("error",)
            error = _object_error(rec, kinds, required)
            if error is not None:
                key, message = error
                raise ConfigInvalid(f"{path} line {number} is not a manifest record: "
                                    f"{key + ': ' if key else ''}{message}")
            if kind == "header":
                header = rec
            else:
                cells[(rec["variant"], rec["seed"])] = rec
    return header, cells


def _sweep_result(out_dir: str, config: dict, records: dict, variants: list[str],
                  seeds: list[int], checkpoints: list[int]) -> SweepResult:
    """Load and aggregate the config's cells whose last manifest record is ok.

    Only those count, in (variant, seed) order; a record of any other cell
    is ignored, and a trace file left over from an earlier run of a cell
    that has since failed is stale.  An ok cell whose trace file is missing
    or is not a trace raises ConfigInvalid.
    """
    cells = [records[c] for c in itertools.product(variants, seeds) if records.get(c)]
    traces: dict[tuple[str, int], RegretTrace] = {}
    for cell in cells:
        if cell["status"] == "ok":
            path = os.path.join(out_dir, cell["path"])
            try:
                with open(path) as fh:
                    trace = RegretTrace.from_json_dict(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigInvalid(f"no trace in {path}: {type(exc).__name__}: {exc}") from exc
            traces[(cell["variant"], cell["seed"])] = trace
    stats, survival = _aggregate(traces, variants, seeds, checkpoints)
    return SweepResult(
        out_dir=out_dir, config=config, variants=variants, seeds=seeds,
        checkpoints=checkpoints, traces=traces, stats=stats,
        survival=survival, failures=[c for c in cells if c["status"] != "ok"],
        wall_clock_s=0.0,
    )


def load_sweep(out_dir: str) -> SweepResult:
    """Reconstruct a SweepResult from a finished sweep directory."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ConfigInvalid(f"no sweep under {out_dir}")
    header, records = _read_manifest(manifest_path)
    if header is None:
        raise ConfigInvalid(f"no manifest header found under {out_dir}")
    config = header["config"]
    return _sweep_result(out_dir, config, records, *validate_config(config))


SUMMARY_FIELDS = ["variant", "checkpoint", "n_seeds", "mean_regret",
                  "median_regret", "iqr_regret", "survival_rate"]


def summarize(result: SweepResult, checkpoints: list[int] | None = None) -> list[dict]:
    """Per-variant, per-checkpoint aggregate rows.

    Raises CheckpointOutOfRange when a requested checkpoint exceeds the plays
    recorded in any trace.
    """
    cps = list(result.checkpoints if checkpoints is None else checkpoints)
    stats, survival = _aggregate(result.traces, result.variants, result.seeds, cps)
    rows = []
    for variant in result.variants:
        if variant not in stats:
            continue
        for cp in cps:
            s = stats[variant][cp]
            rows.append({
                "variant": variant,
                "checkpoint": cp,
                "n_seeds": s["n_seeds"],
                "mean_regret": repr(s["mean"]),
                "median_regret": repr(s["median"]),
                "iqr_regret": repr(s["iqr"]),
                "survival_rate": repr(survival[variant]),
            })
    return rows


def write_summary_csv(rows: list[dict], path: str) -> None:
    lines = [",".join(SUMMARY_FIELDS),
             *(",".join(str(row[f]) for f in SUMMARY_FIELDS) for row in rows)]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def summary_table(rows: list[dict]) -> str:
    """Aligned text rendering of summary rows."""
    headers = SUMMARY_FIELDS
    display = [[str(r[h]) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[j]) for row in display)) if display else len(h)
              for j, h in enumerate(headers)]
    out = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(headers))]
    for row in display:
        out.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
    return "\n".join(out)


def emit_plotdata(result: SweepResult, path: str) -> int:
    """Write long-format per-round regret curves; returns the row count."""
    lines = [PLOTDATA_HEADER]
    for variant in result.variants:
        for seed in result.seeds:
            trace = result.traces.get((variant, seed))
            lines += [f"{variant},{seed},{rec.cumulative_plays},{rec.cumulative_regret!r}"
                      for rec in (trace.rounds if trace is not None else [])]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return len(lines) - 1
