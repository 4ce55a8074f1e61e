"""Experiment harness: validated configs, seeded sweeps, and summaries.

A sweep runs every (variant, seed) cell of a config, writing one trace file
per cell under out/traces/ plus an append-only manifest, so an interrupted
sweep resumes without recomputing finished cells.  All randomness derives
from (master_seed, seed, variant) labels, which makes parallel execution
produce byte-identical trace files to a sequential run.
"""

import concurrent.futures
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import jsonschema
import numpy as np

from .design import MODELS
from .env import (
    CORRUPT_STAGES,
    MAX_MAGNITUDE,
    NOISE_KINDS,
    STRATEGIES,
    AdversaryConfig,
    BanditInstance,
    LearnerEnv,
    generate_instance,
    load_instance,
)
from .errors import ConfigInvalid
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
from .seeding import rng_from, seed_sequence

CONFIG_VERSION = 1
VARIANTS = ("robust", "vanilla", "non-private", "non-robust")
PLOTDATA_HEADER = "variant,seed,plays,cumulative_regret"

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "instance", "schedule", "model", "threshold"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "instance": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "file": {"type": "string"},
                "inline": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["theta_star", "actions"],
                    "properties": {
                        "theta_star": {"type": "array", "items": {"type": "number"}},
                        "actions": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["dim", "actions"],
                            "properties": {
                                "dim": {"type": "integer", "minimum": 1},
                                "actions": {"type": "array"},
                            },
                        },
                        "noise": {"enum": list(NOISE_KINDS)},
                    },
                },
                "generate": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["dim", "num_actions", "seed"],
                    "properties": {
                        "dim": {"type": "integer", "minimum": 1},
                        "num_actions": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                        "noise": {"enum": list(NOISE_KINDS)},
                        "theta_norm": {"type": "number", "minimum": 0, "maximum": 1},
                    },
                },
            },
            "minProperties": 1,
            "maxProperties": 1,
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["horizon"],
            "properties": {
                "horizon": {"type": "integer", "minimum": 1},
                "num_rounds": {"type": "integer", "minimum": 2},
            },
        },
        "model": {"enum": list(MODELS)},
        "adversary": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.25},
                "strategy": {"enum": list(STRATEGIES)},
                "magnitude": {"type": "number", "minimum": 0, "maximum": MAX_MAGNITUDE},
                "corrupt_stage": {"enum": list(CORRUPT_STAGES)},
                "aggregate_corruption": {"type": "boolean"},
            },
        },
        "privacy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "enabled": {"type": "boolean"},
                "clip": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
        },
        "threshold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["delta"],
            "properties": {
                "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "alpha": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.25},
                "c_gamma": {"type": "number", "exclusiveMinimum": 0},
                "nu": {"type": ["number", "null"], "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "seeds": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {"type": "array", "items": {"type": "integer"}, "minItems": 1,
                 "uniqueItems": True},
            ]
        },
        "master_seed": {"type": "integer"},
        "baselines": {
            "type": "array",
            "items": {"enum": list(VARIANTS[1:])},
            "uniqueItems": True,
        },
        "checkpoints": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
    },
}


def validate_config(config: dict) -> None:
    """Schema-validate a config dict; raises ConfigInvalid with a field path."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigInvalid(f"config field {path}: {err.message}")
    model = config["model"]
    thr = config["threshold"]
    if model == "M2" and thr.get("nu") is None:
        raise ConfigInvalid("config field threshold/nu: required when model is M2")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def resolve_instance(config: dict, base_dir: str | None = None) -> BanditInstance:
    source = config["instance"]
    if "inline" in source:
        return BanditInstance.from_json_dict(source["inline"])
    if "file" in source:
        path = source["file"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_instance(path)
    return generate_instance(**source["generate"])


def _seeds_of(config: dict) -> list[int]:
    seeds = config.get("seeds", 8)
    if isinstance(seeds, int):
        return list(range(seeds))
    return list(seeds)


def _variants_of(config: dict) -> list[str]:
    return ["robust"] + list(config.get("baselines", []))


def _cells_of(config: dict) -> list[tuple[str, int]]:
    return [(v, s) for v in _variants_of(config) for s in _seeds_of(config)]


def _schedule_of(config: dict) -> Schedule:
    sched = config["schedule"]
    horizon = sched["horizon"]
    num_rounds = sched.get("num_rounds", default_num_rounds(horizon))
    return Schedule(horizon=horizon, num_rounds=num_rounds)


def run_cell(config: dict, variant: str, seed: int, base_dir: str | None = None) -> RegretTrace:
    """Run one (variant, seed) cell of a sweep."""
    if variant not in VARIANTS:
        raise ConfigInvalid(f"unknown variant {variant!r}")
    instance = resolve_instance(config, base_dir)
    schedule = _schedule_of(config)
    # Each section's keys are its dataclass's fields, so the dataclass owns
    # every default but one: a config without a privacy section runs
    # non-private, while PrivacyParams() is private.
    privacy = PrivacyParams(**{"enabled": False, **config.get("privacy", {})})
    if variant == "non-private":
        privacy = replace(privacy, enabled=False)
    cfg = ThresholdConfig(**config["threshold"], model=config["model"],
                          epsilon=privacy.epsilon if privacy.enabled else None)
    adversary = AdversaryConfig(**config.get("adversary", {}))

    master = config.get("master_seed", 0)
    env = LearnerEnv(instance, adversary, seed_sequence(master, seed, variant, "env"))
    policy_rng = rng_from(master, seed, variant, "policy")
    runner = {
        "robust": run_elimination,
        "non-private": run_elimination,
        "vanilla": run_vanilla_elimination,
        "non-robust": run_nonrobust_elimination,
    }[variant]
    return runner(env, schedule, cfg, privacy, policy_rng)


def trace_to_bytes(trace: RegretTrace) -> bytes:
    data = json.dumps(trace.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return (data + "\n").encode("utf-8")


def _atomic_write(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


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


def _default_checkpoints(horizon: int) -> list[int]:
    marks = sorted({max(1, horizon // 4), max(1, horizon // 2),
                    max(1, (3 * horizon) // 4), horizon})
    return marks


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
            vals = np.asarray([t.cumulative_at(cp) for t in have])
            per_cp[cp] = {
                "n_seeds": int(vals.size),
                "mean": float(np.mean(vals)),
                "median": float(np.median(vals)),
                "iqr": float(np.percentile(vals, 75) - np.percentile(vals, 25)),
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

    Each finished cell is durably written (temp file + rename + manifest
    append) before the sweep moves on, so a crashed sweep can be resumed with
    resume=True; completed cells are detected via the manifest and skipped.
    Failed cells are recorded in the manifest with their error and reported
    in the result rather than silently dropped.  An instance source that
    passes the schema but cannot be built raises ConfigInvalid before
    anything is written.
    """
    validate_config(config)
    try:
        resolve_instance(config, base_dir)
    except (OSError, KeyError, ValueError) as exc:
        source = next(iter(config["instance"]))
        raise ConfigInvalid(f"config field instance/{source}: {exc}") from exc
    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")

    digest = config_hash(config)
    header = {"kind": "header", "schema": CONFIG_VERSION,
              "config_hash": digest, "config": config}
    completed: set[tuple[str, int]] = set()
    if os.path.exists(manifest_path):
        if not resume:
            prior = _read_manifest(manifest_path)
            if prior["header"] is not None and prior["header"]["config_hash"] != digest:
                raise ConfigInvalid(
                    "out_dir already holds results for a different config; "
                    "choose a fresh directory"
                )
        else:
            prior = _read_manifest(manifest_path)
            if prior["header"] is None or prior["header"]["config_hash"] != digest:
                raise ConfigInvalid("manifest does not match this config; cannot resume")
            completed = {
                (c["variant"], c["seed"])
                for c in prior["cells"]
                if c["status"] == "ok"
                and os.path.exists(os.path.join(out_dir, c["path"]))
            }
    if not os.path.exists(manifest_path) or not resume:
        _atomic_write(manifest_path, _manifest_line(header))

    pending = [c for c in _cells_of(config) if c not in completed]

    def finish(variant: str, seed: int, payload: bytes | None, error: str | None):
        rel = os.path.join("traces", _trace_filename(variant, seed))
        if error is None:
            _atomic_write(os.path.join(out_dir, rel), payload)
            rec = {"kind": "cell", "variant": variant, "seed": seed,
                   "status": "ok", "path": rel}
        else:
            rec = {"kind": "cell", "variant": variant, "seed": seed,
                   "status": "error", "error": error}
        with open(manifest_path, "ab") as fh:
            fh.write(_manifest_line(rec))
            fh.flush()
            os.fsync(fh.fileno())

    # A pool forks all its processes at the first submit, so it gets no more
    # of them than there are cells to run, and none when no cell is left.
    if workers <= 1 or not pending:
        for variant, seed in pending:
            try:
                trace = run_cell(config, variant, seed, base_dir)
                finish(variant, seed, trace_to_bytes(trace), None)
            except Exception as exc:  # noqa: BLE001 - recorded, not dropped
                finish(variant, seed, None, f"{type(exc).__name__}: {exc}")
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futs = {
                pool.submit(_cell_bytes, config, variant, seed, base_dir): (variant, seed)
                for variant, seed in pending
            }
            for fut in concurrent.futures.as_completed(futs):
                variant, seed = futs[fut]
                try:
                    finish(variant, seed, fut.result(), None)
                except Exception as exc:  # noqa: BLE001
                    finish(variant, seed, None, f"{type(exc).__name__}: {exc}")

    # Rewrite the manifest in canonical cell order once the sweep is complete,
    # so reruns of a finished sweep compare byte for byte.
    records = _canonical_cells(config, _read_manifest(manifest_path)["cells"])
    _atomic_write(manifest_path, b"".join(map(_manifest_line, [header, *records])))

    # A resume re-runs every cell not marked ok, so the failures among the
    # canonical records are exactly this run's.
    result = _sweep_result(out_dir, config, records)
    result.wall_clock_s = time.monotonic() - started
    return result


def _cell_bytes(config: dict, variant: str, seed: int, base_dir: str | None) -> bytes:
    return trace_to_bytes(run_cell(config, variant, seed, base_dir))


def _manifest_line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _read_manifest(path: str) -> dict:
    header = None
    cells = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "header":
                header = rec
            elif rec.get("kind") == "cell":
                cells.append(rec)
    return {"header": header, "cells": cells}


def _canonical_cells(config: dict, records: list[dict]) -> list[dict]:
    """The last manifest record of each cell, in (variant, seed) order."""
    by_cell = {(c["variant"], c["seed"]): c for c in records}
    return [by_cell[c] for c in _cells_of(config) if c in by_cell]


def _sweep_result(out_dir: str, config: dict, records: list[dict]) -> SweepResult:
    """Load and aggregate the cells canonical manifest records mark ok.

    Only those count: a trace file left over from an earlier run of a cell
    that has since failed is stale.  An ok cell whose trace file is missing
    or is not a trace raises ConfigInvalid.
    """
    traces: dict[tuple[str, int], RegretTrace] = {}
    for cell in records:
        if cell["status"] == "ok":
            path = os.path.join(out_dir, cell["path"])
            try:
                with open(path) as fh:
                    trace = RegretTrace.from_json_dict(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigInvalid(f"no trace in {path}: {type(exc).__name__}: {exc}") from exc
            traces[(cell["variant"], cell["seed"])] = trace
    variants = _variants_of(config)
    seeds = _seeds_of(config)
    checkpoints = config.get("checkpoints", _default_checkpoints(_schedule_of(config).horizon))
    stats, survival = _aggregate(traces, variants, seeds, checkpoints)
    return SweepResult(
        out_dir=out_dir, config=config, variants=variants, seeds=seeds,
        checkpoints=list(checkpoints), traces=traces, stats=stats,
        survival=survival, failures=[c for c in records if c["status"] != "ok"],
        wall_clock_s=0.0,
    )


def load_sweep(out_dir: str) -> SweepResult:
    """Reconstruct a SweepResult from a finished sweep directory."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ConfigInvalid(f"no sweep under {out_dir}")
    manifest = _read_manifest(manifest_path)
    if manifest["header"] is None:
        raise ConfigInvalid(f"no manifest header found under {out_dir}")
    config = manifest["header"]["config"]
    validate_config(config)
    return _sweep_result(out_dir, config, _canonical_cells(config, manifest["cells"]))


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
    lines = [",".join(SUMMARY_FIELDS)]
    for row in rows:
        lines.append(",".join(str(row[f]) for f in SUMMARY_FIELDS))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
    count = 0
    for variant in result.variants:
        for seed in result.seeds:
            trace = result.traces.get((variant, seed))
            if trace is None:
                continue
            for rec in trace.rounds:
                lines.append(
                    f"{variant},{seed},{rec.cumulative_plays},{rec.cumulative_regret!r}"
                )
                count += 1
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return count
