"""Harness tests: config validation, sweep execution, resume, aggregation,
and the CLI entry points."""

import concurrent.futures
import contextlib
import dataclasses
import errno
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpbandits.harness as harness
import rpbandits.policy as policy
from rpbandits.cli import main
from rpbandits.design import MODELS
from rpbandits.env import (
    CORRUPT_STAGES,
    NOISE_KINDS,
    STRATEGIES,
    AdversaryConfig,
    LearnerEnv,
    generate_instance,
)
from rpbandits.errors import CheckpointOutOfRange, ConfigInvalid
from rpbandits.harness import (
    PLOTDATA_HEADER,
    SUMMARY_FIELDS,
    config_hash,
    emit_plotdata,
    load_sweep,
    resolve_instance,
    run_cell,
    run_sweep,
    summarize,
    summary_table,
    trace_to_bytes,
    validate_config,
    write_summary_csv,
)
from rpbandits.policy import Schedule, ThresholdConfig, run_elimination
from rpbandits.privacy import PrivacyParams
from rpbandits.seeding import rng_from, seed_sequence

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_CONFIG = {
    "version": 1,
    "instance": {"generate": {"dim": 2, "num_actions": 6, "seed": 3}},
    "schedule": {"horizon": 200, "num_rounds": 3},
    "model": "M1",
    "adversary": {"alpha": 0.1, "strategy": "constant", "magnitude": 25.0},
    "threshold": {"delta": 0.05, "alpha": 0.1},
    "seeds": 2,
    "baselines": ["vanilla"],
    "master_seed": 7,
}


def file_tree(root: Path) -> list:
    """Every path under root, with the bytes of each file."""
    return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None)
                  for p in root.rglob("*"))


def main_under_file_limit(argv: list[str], limit: int,
                          started: Path | None = None) -> subprocess.CompletedProcess:
    """Run main(argv) in a child process that cannot grow a file past `limit`
    bytes: RLIMIT_FSIZE, with SIGXFSZ ignored so such a write fails with
    EFBIG.  The limit is the child's own and ends with it.  With `started`
    set, every run_cell call, in the child or in the pool processes it
    forks, first appends one byte to that file."""
    src = Path(__file__).resolve().parents[1] / "src"
    count = "" if started is None else (
        "import rpbandits.harness as harness\n"
        "run_cell = harness.run_cell\n"
        "def counted(*args):\n"
        f"    with open({str(started)!r}, 'ab') as fh:\n"
        "        fh.write(b'.')\n"
        "    return run_cell(*args)\n"
        "harness.run_cell = counted\n"
    )
    code = (
        "import resource, signal, sys\n"
        "from rpbandits.cli import main\n"
        f"{count}"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "PYTHONDONTWRITEBYTECODE": "1"})


def small_config(**overrides):
    config = {
        "version": 1,
        "instance": {"generate": {"dim": 2, "num_actions": 6, "seed": 3}},
        "schedule": {"horizon": 200, "num_rounds": 3},
        "model": "M1",
        "threshold": {"delta": 0.05},
        "seeds": 2,
        "baselines": ["vanilla"],
    }
    config.update(overrides)
    return config


class TestConfigValidation:
    def test_minimal_config_passes(self):
        validate_config(small_config())

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigInvalid, match="extra"):
            validate_config(small_config(extra=1))

    def test_missing_required_section(self):
        config = small_config()
        del config["threshold"]
        with pytest.raises(ConfigInvalid, match="threshold"):
            validate_config(config)

    def test_error_message_carries_field_path(self):
        config = small_config(schedule={"horizon": -5})
        with pytest.raises(ConfigInvalid, match="schedule/horizon"):
            validate_config(config)

    def test_instance_needs_exactly_one_source(self):
        with pytest.raises(ConfigInvalid, match="instance"):
            validate_config(small_config(instance={}))
        both = {
            "file": "x.json",
            "generate": {"dim": 2, "num_actions": 3, "seed": 0},
        }
        with pytest.raises(ConfigInvalid, match="instance"):
            validate_config(small_config(instance=both))

    def test_aggregating_model_requires_nu(self):
        config = small_config(model="M2")
        with pytest.raises(ConfigInvalid, match="threshold/nu"):
            validate_config(config)
        config["threshold"]["nu"] = 0.01
        validate_config(config)

    def test_robust_is_not_a_baseline(self):
        with pytest.raises(ConfigInvalid, match="baselines"):
            validate_config(small_config(baselines=["robust"]))

    def test_seed_forms(self):
        validate_config(small_config(seeds=[0, 5, 9]))
        with pytest.raises(ConfigInvalid):
            validate_config(small_config(seeds=0))
        with pytest.raises(ConfigInvalid):
            validate_config(small_config(seeds=[]))
        # A repeated seed would run one cell twice and count it as two seeds.
        with pytest.raises(ConfigInvalid, match="seeds"):
            validate_config(small_config(seeds=[0, 3, 0]))

    def test_checkpoints_stop_at_the_horizon(self):
        validate_config(small_config(checkpoints=[0, 100, 200]))
        with pytest.raises(ConfigInvalid, match="checkpoints: 201 is past the horizon 200"):
            validate_config(small_config(checkpoints=[100, 201]))

    def test_version_is_pinned(self):
        with pytest.raises(ConfigInvalid, match="version"):
            validate_config(small_config(version=2))

    def test_returns_the_sweep_with_its_defaults(self):
        config = small_config()
        for key in ("seeds", "baselines", "checkpoints"):
            config.pop(key, None)
        assert validate_config(config) == (["robust"], list(range(8)), [50, 100, 150, 200])
        given = small_config(seeds=[5, 2], baselines=["non-robust", "vanilla"],
                             checkpoints=[200, 10])
        assert validate_config(given) == (["robust", "non-robust", "vanilla"], [5, 2],
                                          [200, 10])


class TestSectionKeys:
    """A section's keys and JSON types are its dataclass's fields, less the
    ones filled from other keys; no JSON Schema library is loaded."""

    @pytest.mark.parametrize("index,section,linked", [
        (0, "schedule", ()), (1, "privacy", ()),
        (2, "threshold", ("model",)), (3, "adversary", ()),
    ])
    def test_keys_are_the_dataclass_fields(self, index, section, linked):
        built = harness._sections(small_config(privacy={"enabled": True}))[index]
        names = {f.name for f in dataclasses.fields(built)}
        accepted = set()
        for name in names:
            config = small_config()
            config.setdefault(section, {})[name] = getattr(built, name)
            try:
                validate_config(config)
                accepted.add(name)
            except ConfigInvalid as exc:
                assert f"config field {section}: {name} is not a known key" in str(exc)
        assert accepted == names - set(linked)

    def test_threshold_takes_no_epsilon(self):
        # The privacy section alone sets epsilon, for the env and the widths.
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(small_config(threshold={"delta": 0.05, "epsilon": 1.0}))
        assert str(exc.value) == "config field threshold: epsilon is not a known key"

    def test_a_new_dataclass_field_is_a_key(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Adversary(AdversaryConfig):
            knob: float | None = None

        monkeypatch.setattr(harness, "AdversaryConfig", Adversary)
        validate_config(small_config(adversary={"knob": 0.5}))
        validate_config(small_config(adversary={"knob": None}))
        with pytest.raises(ConfigInvalid, match="adversary/knob: '0.5' is not a number or null"):
            validate_config(small_config(adversary={"knob": "0.5"}))

    def test_cli_import_loads_no_jsonschema(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, rpbandits.cli; print('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert proc.stdout.strip() == "False"


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        a = small_config()
        b = json.loads(json.dumps(a, sort_keys=True))
        scrambled = dict(reversed(list(b.items())))
        assert config_hash(a) == config_hash(scrambled)

    def test_value_changes_do(self):
        assert config_hash(small_config()) != config_hash(small_config(master_seed=1))


class TestResolveInstance:
    def test_generate_source(self):
        inst = resolve_instance(small_config())
        direct = generate_instance(dim=2, num_actions=6, seed=3)
        np.testing.assert_array_equal(inst.theta_star, direct.theta_star)
        np.testing.assert_array_equal(inst.actions.vectors, direct.actions.vectors)

    def test_inline_source(self):
        direct = generate_instance(dim=2, num_actions=4, seed=1)
        config = small_config(instance={"inline": direct.to_json_dict()})
        inst = resolve_instance(config)
        np.testing.assert_array_equal(inst.theta_star, direct.theta_star)

    def test_file_source_resolves_against_base_dir(self, tmp_path):
        direct = generate_instance(dim=2, num_actions=4, seed=1)
        (tmp_path / "inst.json").write_text(json.dumps(direct.to_json_dict()))
        config = small_config(instance={"file": "inst.json"})
        inst = resolve_instance(config, base_dir=str(tmp_path))
        np.testing.assert_array_equal(inst.theta_star, direct.theta_star)


# Every optional config setting that reaches a trace, at its default.
OPTIONAL_DEFAULTS = {
    "adversary": {"alpha": 0.0, "strategy": "none", "magnitude": 50.0,
                  "corrupt_stage": "pre-privacy", "aggregate_corruption": False},
    "privacy": {"enabled": False, "epsilon": 1.0},
    "threshold": {"alpha": 0.0, "c_gamma": 1.0},
    "generate": {"noise": "gaussian", "theta_norm": 1.0},
}

M2_THRESHOLD = {"delta": 0.05, "nu": 0.1}


def with_defaults_written_out(config: dict) -> dict:
    """A copy of `config` with every missing optional setting at its default."""
    full = json.loads(json.dumps(config))
    for section in ("adversary", "privacy", "threshold"):
        full[section] = {**OPTIONAL_DEFAULTS[section], **full.get(section, {})}
    gen = full["instance"]["generate"]
    full["instance"]["generate"] = {**OPTIONAL_DEFAULTS["generate"], **gen}
    full.setdefault("master_seed", 0)
    horizon = full["schedule"]["horizon"]
    full.setdefault("checkpoints", [horizon // 4, horizon // 2, 3 * horizon // 4, horizon])
    return full


def enum_cases() -> list[tuple[str, dict, str]]:
    """(id, config, variant) for every value of every config enum."""
    attack = {"alpha": 0.1, "strategy": "constant"}
    inline = {"theta_star": [0.6, 0.0],
              "actions": {"dim": 2, "actions": [[1.0, 0.0], [0.0, 1.0]]}}
    cases = []
    for model in MODELS:
        config = small_config(model=model)
        if model == "M2":
            config["threshold"] = dict(M2_THRESHOLD)
        cases.append((f"model={model}", config, "robust"))
    for noise in NOISE_KINDS:
        gen = {"dim": 2, "num_actions": 6, "seed": 3, "noise": noise}
        cases.append((f"generate-noise={noise}",
                      small_config(instance={"generate": gen}), "robust"))
    for noise in NOISE_KINDS:
        cases.append((f"inline-noise={noise}",
                      small_config(instance={"inline": {**inline, "noise": noise}}),
                      "robust"))
    for strategy in STRATEGIES:
        cases.append((f"strategy={strategy}", small_config(
            adversary={**attack, "strategy": strategy}), "robust"))
    for stage in CORRUPT_STAGES:
        cases.append((f"corrupt-stage={stage}", small_config(
            adversary={**attack, "corrupt_stage": stage},
            privacy={"enabled": True}), "robust"))
    for variant in harness.VARIANTS[1:]:
        cases.append((f"baseline={variant}",
                      small_config(baselines=[variant]), variant))
    return cases


def bound_cases() -> list[tuple[str, dict, str]]:
    """(id, config, variant) at the edge of each numeric bound."""
    below_quarter = float(np.nextafter(0.25, 0.0))
    cases = [
        ("adversary-alpha<0.25", small_config(
            adversary={"alpha": below_quarter, "strategy": "sign-flip"})),
        ("threshold-alpha<0.25", small_config(
            threshold={"delta": 0.05, "alpha": below_quarter})),
        ("magnitude=0", small_config(
            adversary={"alpha": 0.1, "strategy": "constant", "magnitude": 0})),
        ("magnitude=100", small_config(
            adversary={"alpha": 0.1, "strategy": "constant", "magnitude": 100})),
        ("theta_norm=0", small_config(instance={"generate": {
            "dim": 2, "num_actions": 6, "seed": 3, "theta_norm": 0}})),
        ("theta_norm=1", small_config(instance={"generate": {
            "dim": 2, "num_actions": 6, "seed": 3, "theta_norm": 1}})),
    ]
    for nu in (1e-9, float(np.nextafter(1.0, 0.0))):
        cases.append((f"nu={nu!r}", small_config(
            model="M2", threshold={"delta": 0.05, "nu": nu})))
    return [(name, config, "robust") for name, config in cases]


class TestConfigDefaults:
    """An omitted optional key means its documented default, and every enum
    value and every bound's edge builds a cell."""

    @pytest.mark.parametrize("model", ["M1", "M2"])
    @pytest.mark.parametrize("partial", [
        {},
        {"adversary": {"alpha": 0.1, "strategy": "constant"},
         "privacy": {"enabled": True}},
    ], ids=["minimal", "attack-and-privacy"])
    def test_written_out_defaults_give_identical_traces(self, model, partial):
        config = small_config(model=model, **partial)
        if model == "M2":
            config["threshold"] = dict(M2_THRESHOLD)
        full = with_defaults_written_out(config)
        assert full != config
        assert validate_config(config) == validate_config(full)
        for variant in harness.VARIANTS:
            assert trace_to_bytes(run_cell(config, variant, 0)) == trace_to_bytes(
                run_cell(full, variant, 0)
            ), variant

    @pytest.mark.parametrize("config,variant", [
        pytest.param(config, variant, id=name)
        for name, config, variant in enum_cases() + bound_cases()
    ])
    def test_admitted_values_build_a_cell(self, config, variant):
        validate_config(config)
        assert run_cell(config, variant, 0).total_plays == 200


class TestBadInstanceSource:
    """An instance source that cannot be built is a config error: not even
    the output directory is made, and the CLI exits with 2."""

    CASES = {
        "theta-norm": {"inline": {"theta_star": [1.0, 1.0],
                                  "actions": {"dim": 2, "actions": [[1.0, 0.0]]}}},
        "theta-length": {"inline": {"theta_star": [0.5],
                                    "actions": {"dim": 2, "actions": [[1.0, 0.0]]}}},
        "action-norm": {"inline": {"theta_star": [0.5, 0.0],
                                   "actions": {"dim": 2, "actions": [[1.0, 1.0]]}}},
        "missing-file": {"file": "missing.json"},
        "theta-nan": {"inline": {"theta_star": [float("nan"), 0.0],
                                 "actions": {"dim": 2, "actions": [[1.0, 0.0]]}}},
        "action-nan": {"inline": {"theta_star": [0.5, 0.0],
                                  "actions": {"dim": 2, "actions": [[float("nan"), 0.0]]}}},
        "action-inf": {"inline": {"theta_star": [0.5, 0.0],
                                  "actions": {"dim": 2, "actions": [[0.5, float("-inf")]]}}},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_sweep_refuses_before_writing(self, tmp_path, case):
        config = small_config(instance=self.CASES[case])
        validate_config(config)
        out = tmp_path / "out"
        with pytest.raises(ConfigInvalid, match="instance"):
            run_sweep(config, str(out), base_dir=str(tmp_path))
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_exits_2(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(instance=self.CASES[case])))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert "instance" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("instance", [
        {"theta_star": [float("inf"), 0.0], "actions": {"dim": 2, "actions": [[1.0, 0.0]]}},
        {"theta_star": [0.5, 0.0], "actions": {"dim": 2, "actions": [[0.0, float("nan")]]}},
        {"theta_star": [], "actions": {"dim": 0, "actions": [[]]}},
    ])
    def test_cli_exits_2_on_bad_instance_file(self, tmp_path, capsys, instance):
        (tmp_path / "inst.json").write_text(json.dumps(instance))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(instance={"file": "inst.json"})))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert "instance/file" in capsys.readouterr().err
        assert not out.exists()


DELETE = object()
INLINE = {"theta_star": [0.6, 0.0],
          "actions": {"dim": 2, "actions": [[1.0, 0.0], [0.0, 1.0]]}}


def edited(path: str, value, **overrides) -> dict:
    """small_config(**overrides) with the field at `path` set to `value`,
    or removed when `value` is DELETE."""
    config = json.loads(json.dumps(small_config(**overrides)))
    *parents, last = path.split("/")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return config


def row(path: str, value, **overrides):
    label = "missing" if value is DELETE else json.dumps(value)
    return pytest.param(edited(path, value, **overrides), id=f"{path}={label}")


def inline_row(path: str, value):
    return row(f"instance/inline/{path}", value, instance={"inline": INLINE})


NAN = float("nan")

# One row per rule that rejects a config.  The rows marked "new" used to
# pass validation, before config integers stopped admitting 2.0, instance
# JSON got one strict builder, and NaN stopped passing the positivity and
# range checks; each then ran, or failed every cell, or raised TypeError.
MALFORMED = [
    # Required keys.
    *[row(key, DELETE) for key in
      ("version", "instance", "schedule", "model", "threshold",
       "schedule/horizon", "threshold/delta",
       "instance/generate/dim", "instance/generate/num_actions", "instance/generate/seed")],
    *[inline_row(key, DELETE) for key in
      ("theta_star", "actions", "actions/dim", "actions/actions")],
    # An unknown key at every level.
    *[row(f"{section}extra", 1) for section in
      ("", "instance/", "instance/generate/", "schedule/", "adversary/", "privacy/",
       "threshold/")],
    inline_row("extra", 1),
    inline_row("actions/extra", 1),
    # A wrong JSON type per field: bool for a number, 2.0 for an integer.
    row("version", "1"), row("version", True),
    row("instance", "x"), row("instance", {"file": 5}),
    row("instance", {"inline": []}), row("instance", {"generate": []}),
    row("instance/generate/dim", 2.0),  # new
    row("instance/generate/dim", "2"), row("instance/generate/dim", True),
    row("instance/generate/num_actions", 6.0),  # new
    row("instance/generate/seed", 3.0),  # new
    row("instance/generate/seed", True),
    row("instance/generate/noise", 5),
    row("instance/generate/theta_norm", "1"), row("instance/generate/theta_norm", True),
    inline_row("theta_star", "x"), inline_row("theta_star", ["0.6", 0.0]),
    inline_row("theta_star", [True, 0.0]),
    inline_row("actions", []), inline_row("actions/dim", "2"),
    inline_row("actions/dim", 2.0),  # new
    inline_row("actions/dim", True), inline_row("actions/actions", "x"),
    inline_row("actions/actions", [["1", 0]]),  # new
    inline_row("actions/actions", [[True, 0.0]]),  # new
    inline_row("noise", 5),
    inline_row("actions/dim", 3),  # rows of 2 numbers
    row("schedule", []),
    row("schedule/horizon", 2e2),  # new
    row("schedule/horizon", "200"), row("schedule/horizon", True),
    row("schedule/num_rounds", 3.0),  # new
    row("schedule/num_rounds", True),
    row("model", 1), row("model", ["M1"]),
    row("adversary", "x"), row("adversary/alpha", True), row("adversary/alpha", "0.1"),
    row("adversary/strategy", 1), row("adversary/magnitude", True),
    row("adversary/corrupt_stage", 0), row("adversary/aggregate_corruption", 1),
    row("adversary/aggregate_corruption", "yes"),
    row("privacy", True), row("privacy/epsilon", True), row("privacy/epsilon", "1"),
    row("privacy/enabled", 1), row("privacy/enabled", "true"),
    row("privacy/clip", True), row("privacy/clip", "1"),
    row("threshold", "x"), row("threshold/delta", True), row("threshold/delta", "0.05"),
    row("threshold/alpha", True), row("threshold/c_gamma", True),
    row("threshold/nu", True), row("threshold/nu", "0.1"),
    row("seeds", 2.0), row("seeds", [1.0]),  # new
    row("seeds", True), row("seeds", "2"), row("seeds", [True]), row("seeds", [[0]]),
    row("master_seed", 0.0),  # new
    row("master_seed", True), row("master_seed", "0"),
    row("baselines", "vanilla"),
    row("checkpoints", [100.0]),  # new
    row("checkpoints", [True]), row("checkpoints", 100),
    # Each enum.
    row("model", "M3"), row("instance/generate/noise", "laplace"),
    inline_row("noise", "laplace"), row("adversary/strategy", "evil"),
    row("adversary/corrupt_stage", "mid"), row("baselines", ["robust"]),
    row("baselines", ["bogus"]),
    # Each bound.
    row("version", 2), row("schedule/horizon", 0), row("schedule/horizon", -5),
    row("schedule/num_rounds", 1),
    row("adversary/alpha", -0.1), row("adversary/alpha", 0.25),
    row("adversary/magnitude", -1), row("adversary/magnitude", 100.5),
    row("privacy", {"enabled": True, "epsilon": 0}), row("privacy/epsilon", 0),
    row("privacy/epsilon", -1),
    row("privacy/epsilon", NAN),  # new
    row("privacy/clip", 0), row("privacy/clip", -1),
    row("privacy/clip", NAN),  # new
    row("threshold/delta", 0), row("threshold/delta", 1),
    row("threshold/delta", NAN),  # new
    row("threshold/alpha", -0.1), row("threshold/alpha", 0.25),
    row("threshold/c_gamma", 0),
    row("threshold/c_gamma", NAN),  # new
    row("threshold/nu", 0), row("threshold/nu", 1),
    row("model", "M2"), row("threshold/nu", None, model="M2"),
    row("instance/generate/dim", 0), row("instance/generate/num_actions", 0),
    row("instance/generate/theta_norm", 1.5), row("instance/generate/theta_norm", -0.1),
    row("seeds", 0), row("seeds", []),
    row("seeds", 2**63),  # a count past sys.maxsize is no range length
    row("checkpoints", []), row("checkpoints", [-1]), row("checkpoints", [201]),
    # Seeds are hashed as 128-bit signed integers.
    row("seeds", [2**127]), row("seeds", [-2**127 - 1]),
    row("master_seed", 2**127), row("master_seed", -2**127 - 1),
    row("instance/generate/seed", 2**127), row("instance/generate/seed", -2**127 - 1),
    # Repeats.
    row("seeds", [0, 0]), row("baselines", ["vanilla", "vanilla"]),
    # An instance with no source or with two.
    row("instance", {}),
    pytest.param(small_config(instance={"inline": INLINE, "file": "inst.json"}),
                 id="instance=two-sources"),
]

# Edge values that are admitted and run.
ADMITTED = [
    row("privacy/clip", None), row("threshold/nu", 0.1, model="M2"),
    row("threshold/nu", None), row("threshold/nu", 0.5),
    row("instance/generate/theta_norm", 1), row("privacy", {"enabled": False, "epsilon": 2}),
    row("checkpoints", [0, 200]), row("seeds", [5]), row("adversary/magnitude", 0),
    inline_row("noise", "zero"),
    row("seeds", [2**127 - 1]), row("seeds", [-2**127]),
    row("master_seed", 2**127 - 1), row("master_seed", -2**127),
    row("instance/generate/seed", 2**127 - 1), row("instance/generate/seed", -2**127),
]


class TestMalformedConfig:
    """Every rule that rejects a config raises ConfigInvalid before anything
    is written, and `run` exits with 2."""

    @pytest.mark.parametrize("config", MALFORMED)
    def test_run_sweep_refuses_before_writing(self, tmp_path, request, config):
        out = tmp_path / "out"
        with pytest.raises(ConfigInvalid, match="config field") as exc:
            run_sweep(config, str(out))
        assert not out.exists()
        # The field named is on the edited field's branch: the field itself,
        # an ancestor (<root> is everyone's), or a field inside the edited
        # value.  The one linked rule names another field.
        edited_path = request.node.callspec.id.split("=")[0]
        named = re.match(r"config field (\S+):", str(exc.value)).group(1)
        if request.node.callspec.id == 'model="M2"':
            assert named == "threshold/nu"
        elif named != "<root>":
            common = min(len(named.split("/")), len(edited_path.split("/")))
            assert named.split("/")[:common] == edited_path.split("/")[:common], named

    @pytest.mark.parametrize("config", MALFORMED)
    def test_cli_exits_2(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error: config field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", ADMITTED)
    def test_admitted_edges_run(self, tmp_path, config):
        variants, seeds, _ = validate_config(config)
        result = run_sweep(config, str(tmp_path / "out"))
        assert not result.failures
        assert len(result.traces) == len(variants) * len(seeds)

    @pytest.mark.parametrize("content", ["", "{", '{"version": 1,}'])
    def test_unparsable_config_file_exits_2(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(content)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: cannot read config {cfg_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(out),
                   "--seeds", "2"])
        assert rc == 2
        assert "error: cannot read config" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_on_a_non_object_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("[]")
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--seeds", "2"])
        assert rc == 2
        assert "config field <root>" in capsys.readouterr().err


class TestOneInstanceValidator:
    """An instance is checked by the code that builds it, so a `file` source
    and the same JSON given `inline` get one verdict."""

    DEFECTS = {
        "typo-key": ("typo_noise", "uniform"),
        "string-dim": ("actions", {"dim": "2", "actions": INLINE["actions"]["actions"]}),
        "string-theta": ("theta_star", ["0.6", "0"]),
    }

    @pytest.mark.parametrize("source", ["file", "inline"])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_both_sources_exit_2(self, tmp_path, capsys, source, defect):
        key, value = self.DEFECTS[defect]
        instance = {**INLINE, key: value}
        if source == "file":
            (tmp_path / "inst.json").write_text(json.dumps(instance))
            instance = "inst.json"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(instance={source: instance})))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: config field instance/{source}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["file", "inline"])
    def test_well_formed_instance_runs_from_both_sources(self, tmp_path, source):
        instance = INLINE
        if source == "file":
            (tmp_path / "inst.json").write_text(json.dumps(instance))
            instance = "inst.json"
        config = small_config(instance={source: instance})
        result = run_sweep(config, str(tmp_path / "out"), base_dir=str(tmp_path))
        assert not result.failures


class TestRunCell:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigInvalid, match="variant"):
            run_cell(small_config(), "fancy", 0)

    def test_single_arm_instance_has_zero_regret(self):
        inline = {
            "theta_star": [0.7, 0.0],
            "actions": {"dim": 2, "actions": [[1.0, 0.0]]},
        }
        config = small_config(instance={"inline": inline})
        trace = run_cell(config, "robust", 0)
        assert trace.total_plays == 200
        assert trace.final_regret == 0.0

    def test_repeat_call_is_byte_identical(self):
        config = small_config()
        a = trace_to_bytes(run_cell(config, "robust", 0))
        b = trace_to_bytes(run_cell(config, "robust", 0))
        assert a == b
        c = trace_to_bytes(run_cell(config, "robust", 1))
        assert a != c

    @pytest.mark.parametrize("model", ["M1", "M2"])
    @pytest.mark.parametrize("variant", harness.VARIANTS)
    def test_reused_designs_change_no_trace_byte(self, model, variant, monkeypatch):
        # A cell run on a cold design cache and again after the other cells
        # have filled it gives the same bytes, and the second run computes
        # no design of its own.
        config = small_config(
            model=model,
            instance={"generate": {"dim": 3, "num_actions": 12, "seed": 4}},
            schedule={"horizon": 3000},
            adversary={"alpha": 0.1, "strategy": "anti-optimal"},
            privacy={"enabled": True},
            threshold={"delta": 0.05, "c_gamma": 0.5,
                       **({"nu": 0.1} if model == "M2" else {})},
        )
        monkeypatch.setattr(policy, "_designs", OrderedDict())
        cold = trace_to_bytes(run_cell(config, variant, 0))
        for other in harness.VARIANTS:
            for seed in (0, 1):
                if (other, seed) != (variant, 0):
                    run_cell(config, other, seed)
        computed = []
        real = policy.compute_design

        def counting(actions, tol):
            computed.append(actions.count)
            return real(actions, tol=tol)

        monkeypatch.setattr(policy, "compute_design", counting)
        assert trace_to_bytes(run_cell(config, variant, 0)) == cold
        assert computed == []

    def test_library_cell_is_the_harness_cell(self):
        # The README attack cell built through the library, with the
        # harness's seed labels, plays the same trace as run_cell: its widths
        # read epsilon from the env's PrivacyParams, as the harness's do.
        instance = generate_instance(dim=5, num_actions=50, seed=11)
        env = LearnerEnv(instance, AdversaryConfig(alpha=0.1, strategy="sign-flip"),
                         PrivacyParams(epsilon=1.0), seed_sequence(0, 0, "robust", "env"))
        trace = run_elimination(env, Schedule(horizon=40_000, num_rounds=11),
                                ThresholdConfig(delta=0.05, alpha=0.1),
                                rng_from(0, 0, "robust", "policy"))
        config = {
            "version": 1,
            "instance": {"generate": {"dim": 5, "num_actions": 50, "seed": 11}},
            "schedule": {"horizon": 40_000, "num_rounds": 11},
            "model": "M1",
            "adversary": {"alpha": 0.1, "strategy": "sign-flip"},
            "privacy": {"enabled": True, "epsilon": 1.0},
            "threshold": {"delta": 0.05, "alpha": 0.1},
        }
        assert trace_to_bytes(trace) == trace_to_bytes(run_cell(config, "robust", 0))
        # Without the 1/epsilon terms round 1's width would be 4.89.
        assert round(trace.rounds[0].gamma, 2) == 13.81

    def test_non_private_variant_drops_privacy(self):
        config = small_config(privacy={"enabled": True, "epsilon": 1.0})
        private = run_cell(config, "robust", 0)
        stripped = run_cell(config, "non-private", 0)
        # Same estimator, but the width loses its privacy terms.
        assert stripped.rounds[0].gamma < private.rounds[0].gamma
        assert stripped.rounds[0].filter_diagnostics is not None

    def test_long_m1_cell_memory_is_bounded(self):
        # The benchmark's m1-long cell (workload seed 0) at T = 1e7, without
        # the filter.  Its largest round has 3,874,680 plays, whose reports
        # take 31 MB; whole-batch env stages and a per-play n x d design
        # matrix for least squares peaked at 407 MB on this cell.
        config = {
            "version": 1,
            "instance": {"generate": {"dim": 5, "num_actions": 50, "seed": 0}},
            "schedule": {"horizon": 10**7},
            "model": "M1",
            "adversary": {"alpha": 0.1, "strategy": "anti-optimal", "magnitude": 50.0},
            "privacy": {"enabled": True, "epsilon": 1.0},
            "threshold": {"delta": 0.05, "alpha": 0.1},
            "master_seed": 0,
        }
        tracemalloc.start()
        try:
            trace = run_cell(config, "non-robust", 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2**20
        assert max(rec.batch_size for rec in trace.rounds[:-1]) == 3_874_680
        assert repr(trace.final_regret) == "16155180.151087925"


class TestRunSweep:
    def test_layout_and_repeat_byte_identity(self, tmp_path):
        config = small_config()
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        results = [run_sweep(config, d) for d in dirs]
        for result in results:
            assert sorted(result.traces) == [
                ("robust", 0), ("robust", 1), ("vanilla", 0), ("vanilla", 1)
            ]
            assert result.failures == []
        for rel in ["manifest.json", "traces/robust_0.json", "traces/robust_1.json",
                    "traces/vanilla_0.json", "traces/vanilla_1.json"]:
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert a == b, rel

    def test_manifest_structure(self, tmp_path):
        config = small_config()
        run_sweep(config, str(tmp_path / "s"))
        lines = (tmp_path / "s" / "manifest.json").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "header"
        assert records[0]["config_hash"] == config_hash(config)
        assert records[0]["config"] == config
        cells = records[1:]
        assert [(c["variant"], c["seed"]) for c in cells] == [
            ("robust", 0), ("robust", 1), ("vanilla", 0), ("vanilla", 1)
        ]
        assert all(c["status"] == "ok" for c in cells)

    def test_default_checkpoints_are_quarters(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        assert result.checkpoints == [50, 100, 150, 200]

    def test_aggregates_match_recomputation(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        for variant in result.variants:
            values = {
                cp: [result.traces[(variant, s)].cumulative_at(cp) for s in result.seeds]
                for cp in result.checkpoints
            }
            for cp, vals in values.items():
                stats = result.stats[variant][cp]
                assert stats["n_seeds"] == len(result.seeds)
                assert stats["mean"] == pytest.approx(np.mean(vals), rel=1e-12)
                assert stats["median"] == np.median(vals)
                assert stats["iqr"] == np.percentile(vals, 75) - np.percentile(vals, 25)
            survived = [
                result.traces[(variant, s)].optimal_arm_survived() for s in result.seeds
            ]
            assert result.survival[variant] == pytest.approx(np.mean(survived))

    def test_resume_skips_finished_cells(self, tmp_path, monkeypatch):
        config = small_config()
        out = str(tmp_path / "s")
        run_sweep(config, out)
        manifest_before = (tmp_path / "s" / "manifest.json").read_bytes()
        trace_path = tmp_path / "s" / "traces" / "vanilla_1.json"
        trace_before = trace_path.read_bytes()

        calls = []
        real = harness.run_cell

        def counting(cfg, variant, seed, instance=None):
            calls.append((variant, seed))
            return real(cfg, variant, seed, instance)

        monkeypatch.setattr(harness, "run_cell", counting)

        # Nothing missing: resume does zero work.
        run_sweep(config, out, resume=True)
        assert calls == []

        # One trace file lost: resume recomputes exactly that cell.
        trace_path.unlink()
        result = run_sweep(config, out, resume=True)
        assert calls == [("vanilla", 1)]
        assert trace_path.read_bytes() == trace_before
        assert (tmp_path / "s" / "manifest.json").read_bytes() == manifest_before
        assert result.failures == []

    def test_mismatched_config_is_refused(self, tmp_path):
        out = str(tmp_path / "s")
        run_sweep(small_config(), out)
        other = small_config(master_seed=99)
        with pytest.raises(ConfigInvalid, match="different config"):
            run_sweep(other, out)
        with pytest.raises(ConfigInvalid, match="resume"):
            run_sweep(other, out, resume=True)

    def test_resume_over_a_torn_manifest_tail(self, tmp_path):
        # An interrupted append leaves a last line with no newline.  Resume
        # ignores it and does not append onto it, and summarize ignores it.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        fresh, torn = tmp_path / "fresh", tmp_path / "torn"
        for out in (fresh, torn):
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(torn / "manifest.json", "a") as fh:
            fh.write('{"kind":"cell","variant":"rob')
        assert main(["summarize", "--out", str(torn)]) == 0
        (torn / "traces" / "vanilla_1.json").unlink()
        assert main(["run", "--config", str(cfg_path), "--out", str(torn), "--resume"]) == 0
        for rel in ("manifest.json", "traces/vanilla_1.json", "summary.csv"):
            assert (torn / rel).read_bytes() == (fresh / rel).read_bytes(), rel

    def test_garbage_manifest_line_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        run_sweep(small_config(), str(out))
        manifest = out / "manifest.json"
        lines = manifest.read_bytes().splitlines(keepends=True)
        for garbage in (b"not json\n", b"\xff\xfe\n"):
            manifest.write_bytes(b"".join([*lines[:2], garbage, *lines[2:]]))
            files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
            for argv in (["summarize", "--out", str(out)],
                         ["run", "--config", str(cfg_path), "--out", str(out), "--resume"]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert f"error: {manifest} line 3 is not a manifest record" in err
                assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files

    @pytest.mark.parametrize("record, line", [
        ('{"kind":"cell"}', "variant is required"),
        ('{"kind":"cell","variant":"robust","seed":0,"status":"ok"}', "path is required"),
        ('{"kind":"cell","variant":"robust","seed":0,"status":"error"}', "error is required"),
        ('{"kind":"cell","variant":"robust","seed":"0","status":"ok","path":"x"}',
         "seed: '0' is not an integer"),
        ('{"kind":"header","schema":1,"config":{}}', "config_hash is required"),
        ('{"kind":"header","config_hash":"x","config":[]}', "config: [] is not an object"),
    ])
    def test_manifest_record_without_its_keys_exits_2(self, tmp_path, capsys, record, line):
        out = tmp_path / "s"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        run_sweep(small_config(), str(out))
        manifest = out / "manifest.json"
        with open(manifest, "a") as fh:
            fh.write(record + "\n")
        number = len(manifest.read_text().splitlines())
        files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for argv in (["summarize", "--out", str(out)],
                     ["run", "--config", str(cfg_path), "--out", str(out), "--resume"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"error: {manifest} line {number} is not a manifest record: {line}" in err
            assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files

    def test_parallel_matches_sequential(self, tmp_path):
        config = small_config()
        run_sweep(config, str(tmp_path / "seq"), workers=1)
        run_sweep(config, str(tmp_path / "par"), workers=2)
        for rel in ["manifest.json", "traces/robust_0.json", "traces/robust_1.json",
                    "traces/vanilla_0.json", "traces/vanilla_1.json"]:
            assert (tmp_path / "seq" / rel).read_bytes() == (
                tmp_path / "par" / rel
            ).read_bytes(), rel

    def test_manifest_is_rewritten_only_when_its_records_are_out_of_order(
            self, tmp_path, monkeypatch):
        # The manifest is written whole at the start, then a record is
        # appended per finished cell, and it is rewritten in cell order at the
        # end only when its bytes differ: never in a fresh in-process sweep,
        # but after a pool's out-of-order completions and a resume's reruns.
        config = small_config()
        manifest_writes = []
        real_write, real_run = harness.atomic_write, harness.run_cell

        def recording(path, payload):
            if os.path.basename(path) == "manifest.json":
                manifest_writes.append(path)
            real_write(path, payload)

        def robust_0_last(cfg, variant, seed, instance=None):
            # Forked pool workers see this too: robust_0 waits until
            # vanilla_1, which the other worker runs, is done.
            trace = real_run(cfg, variant, seed, instance)
            (tmp_path / f"{variant}_{seed}.done").touch()
            deadline = time.monotonic() + 60
            while (variant, seed) == ("robust", 0) and time.monotonic() < deadline \
                    and not (tmp_path / "vanilla_1.done").exists():
                time.sleep(0.01)
            return trace

        monkeypatch.setattr(harness, "atomic_write", recording)
        run_sweep(config, str(tmp_path / "seq"))
        assert len(manifest_writes) == 1
        fresh = (tmp_path / "seq" / "manifest.json").read_bytes()

        monkeypatch.setattr(harness, "run_cell", robust_0_last)
        manifest_writes.clear()
        run_sweep(config, str(tmp_path / "par"), workers=2)
        assert len(manifest_writes) == 2
        assert (tmp_path / "par" / "manifest.json").read_bytes() == fresh

        (tmp_path / "seq" / "traces" / "robust_1.json").unlink()
        manifest_writes.clear()
        run_sweep(config, str(tmp_path / "seq"), resume=True)
        assert len(manifest_writes) == 2
        assert (tmp_path / "seq" / "manifest.json").read_bytes() == fresh

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_plays_the_instance_the_sweep_read(self, tmp_path, monkeypatch,
                                                           workers):
        # The first run_cell to create `marker`, in this process or in a
        # forked pool worker, rewrites the instance file after its own run.
        # The sweep read the file once, at its start, so no trace moves.
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(generate_instance(dim=2, num_actions=6, seed=3)
                                   .to_json_dict()))
        config = small_config(instance={"file": "inst.json"})
        run_sweep(config, str(tmp_path / "clean"), base_dir=str(tmp_path))
        other = json.dumps(generate_instance(dim=2, num_actions=6, seed=4).to_json_dict())
        marker, resolved = tmp_path / "marker", tmp_path / "resolved"
        run_cell, resolve = harness.run_cell, harness.resolve_instance

        def rewriting(*args):
            trace = run_cell(*args)
            with contextlib.suppress(FileExistsError):
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                (tmp_path / "inst.new").write_text(other)
                os.replace(tmp_path / "inst.new", inst)
            return trace

        def counted(*args):
            with open(resolved, "ab") as fh:
                fh.write(b".")
            return resolve(*args)

        monkeypatch.setattr(harness, "run_cell", rewriting)
        monkeypatch.setattr(harness, "resolve_instance", counted)
        run_sweep(config, str(tmp_path / "s"), workers=workers, base_dir=str(tmp_path))
        assert inst.read_text() == other
        assert resolved.read_bytes() == b"."
        assert file_tree(tmp_path / "s") == file_tree(tmp_path / "clean")

    def test_pool_is_sized_to_pending_cells(self, tmp_path, monkeypatch):
        real = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def recording(max_workers, **kwargs):
            sizes.append(max_workers)
            return real(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", recording)
        config = small_config(seeds=1, baselines=["vanilla", "non-robust"])
        out = tmp_path / "s"
        result = run_sweep(config, str(out), workers=64)
        assert sizes == [3]
        assert len(result.traces) == 3 and result.failures == []
        # Nothing pending: no pool at all.
        run_sweep(config, str(out), workers=64, resume=True)
        assert sizes == [3]
        (out / "traces" / "vanilla_0.json").unlink()
        run_sweep(config, str(out), workers=64, resume=True)
        assert sizes == [3, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partial_failure_is_recorded_not_raised(self, tmp_path, monkeypatch, workers):
        real = harness.run_cell

        def flaky(cfg, variant, seed, instance=None):
            if (variant, seed) == ("vanilla", 1):
                raise RuntimeError("synthetic cell failure")
            return real(cfg, variant, seed, instance)

        # Forked pool workers inherit the patched run_cell.
        monkeypatch.setattr(harness, "run_cell", flaky)
        result = run_sweep(small_config(), str(tmp_path / "s"), workers=workers)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert (failure["variant"], failure["seed"]) == ("vanilla", 1)
        assert failure["error"] == "RuntimeError: synthetic cell failure"
        assert not (tmp_path / "s" / "traces" / "vanilla_1.json").exists()
        assert (tmp_path / "s" / "traces" / "vanilla_0.json").exists()
        assert result.stats["vanilla"][200]["n_seeds"] == 1

        records = [
            json.loads(line)
            for line in (tmp_path / "s" / "manifest.json").read_text().splitlines()
        ]
        errors = [r for r in records if r.get("status") == "error"]
        assert len(errors) == 1
        assert errors[0]["error"].startswith("RuntimeError")
        # Pooled and in-process runs write the same bytes: the header, then
        # each cell's record in (variant, seed) order.
        expected = [
            {"kind": "header", "schema": 1, "config_hash": config_hash(small_config()),
             "config": small_config()},
            *({"kind": "cell", "variant": v, "seed": s, "status": "ok",
               "path": f"traces/{v}_{s}.json"}
              for v, s in [("robust", 0), ("robust", 1), ("vanilla", 0)]),
            {"kind": "cell", "variant": "vanilla", "seed": 1, "status": "error",
             "error": "RuntimeError: synthetic cell failure"},
        ]
        assert (tmp_path / "s" / "manifest.json").read_bytes() == b"".join(
            (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n").encode()
            for r in expected)

    def test_last_record_of_a_cell_decides(self, tmp_path, capsys, monkeypatch):
        # A later error record outranks an earlier ok one, even with the
        # cell's trace file still on disk: the resume reruns the cell.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        fresh, out = tmp_path / "fresh", tmp_path / "s"
        for target in (fresh, out):
            assert main(["run", "--config", str(cfg_path), "--out", str(target)]) == 0
        with open(out / "manifest.json", "a") as fh:
            fh.write('{"error":"RuntimeError: boom","kind":"cell","seed":0,'
                     '"status":"error","variant":"robust"}\n')
        assert (out / "traces" / "robust_0.json").exists()
        capsys.readouterr()

        calls = []
        real = harness.run_cell

        def counting(cfg, variant, seed, instance=None):
            calls.append((variant, seed))
            return real(cfg, variant, seed, instance)

        monkeypatch.setattr(harness, "run_cell", counting)
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--resume"]) == 0
        assert calls == [("robust", 0)]
        assert "FAILED" not in capsys.readouterr().err
        records = [json.loads(line) for line in (out / "manifest.json").read_text().splitlines()]
        robust_0 = [r for r in records if (r.get("variant"), r.get("seed")) == ("robust", 0)]
        assert [r["status"] for r in robust_0] == ["ok"]
        for rel in ("manifest.json", "traces/robust_0.json", "summary.csv"):
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel

    def test_rerun_ignores_stale_trace_of_failed_cell(self, tmp_path, monkeypatch):
        config = small_config()
        out = tmp_path / "s"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        run_sweep(config, str(out))
        stale = out / "traces" / "vanilla_1.json"
        assert stale.exists()

        real = harness.run_cell

        def flaky(cfg, variant, seed, instance=None):
            if (variant, seed) == ("vanilla", 1):
                raise RuntimeError("synthetic cell failure")
            return real(cfg, variant, seed, instance)

        monkeypatch.setattr(harness, "run_cell", flaky)
        result = run_sweep(config, str(out))
        assert stale.exists()  # the old file is still there, but must not count
        assert ("vanilla", 1) not in result.traces
        assert result.stats["vanilla"][200]["n_seeds"] == 1

        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        run_csv = (out / "summary.csv").read_bytes()
        rows = [line.split(",") for line in run_csv.decode().splitlines()[1:]]
        col = SUMMARY_FIELDS.index("n_seeds")
        assert {row[col] for row in rows if row[0] == "vanilla"} == {"1"}
        assert main(["summarize", "--out", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == run_csv

    def test_load_sweep_round_trips(self, tmp_path):
        config = small_config()
        out = str(tmp_path / "s")
        ran = run_sweep(config, out)
        loaded = load_sweep(out)
        assert loaded.config == config
        assert loaded.variants == ran.variants
        assert loaded.seeds == ran.seeds
        assert loaded.checkpoints == ran.checkpoints
        assert sorted(loaded.traces) == sorted(ran.traces)
        for key, trace in ran.traces.items():
            assert trace_to_bytes(loaded.traces[key]) == trace_to_bytes(trace)
        assert loaded.stats == ran.stats
        assert loaded.survival == ran.survival
        assert loaded.failures == []


ATTACKED_CONFIG = small_config(
    instance={"generate": {"dim": 3, "num_actions": 10, "seed": 5}},
    schedule={"horizon": 3000},
    adversary={"alpha": 0.1, "strategy": "anti-optimal", "magnitude": 50.0},
    threshold={"delta": 0.05, "alpha": 0.1},
    baselines=["vanilla", "non-robust"],
)


class TestKeptTraces:
    """A sweep keeps the traces of the cells it ran, parsing a pooled cell's
    bytes, and reads from disk only the cells it did not run."""

    @pytest.mark.parametrize("how", ["fresh", "workers-2", "resume"])
    def test_result_is_the_loaded_sweep(self, tmp_path, monkeypatch, how):
        out = tmp_path / "s"
        if how == "resume":
            run_sweep(ATTACKED_CONFIG, str(out))
            # Drop the last two cell records: the resume reruns those cells.
            manifest = out / "manifest.json"
            manifest.write_bytes(b"".join(manifest.read_bytes().splitlines(keepends=True)[:-2]))
        opened = []
        real_open = open

        def spy(path, mode="r", *args, **kwargs):
            if mode == "r":
                opened.append(os.path.relpath(path, out))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(harness, "open", spy, raising=False)
        result = run_sweep(ATTACKED_CONFIG, str(out), workers=2 if how == "workers-2" else 1,
                           resume=how == "resume")
        monkeypatch.undo()
        cells = list(itertools.product(result.variants, result.seeds))
        assert opened == ([f"traces/{v}_{s}.json" for v, s in cells[:-2]]
                          if how == "resume" else [])

        loaded = load_sweep(str(out))
        assert sorted(result.traces) == sorted(loaded.traces) == sorted(cells)
        assert summarize(result) == summarize(loaded)
        assert (result.stats, result.survival) == (loaded.stats, loaded.survival)
        emit_plotdata(result, str(tmp_path / "kept.csv"))
        emit_plotdata(loaded, str(tmp_path / "loaded.csv"))
        assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "loaded.csv").read_bytes()
        for (variant, seed), trace in result.traces.items():
            assert trace_to_bytes(trace) == (out / "traces" / f"{variant}_{seed}.json").read_bytes()

        # A kept trace holds no per-removal list, as its file holds none.
        diags = [rec.filter_diagnostics for trace in result.traces.values()
                 for rec in trace.rounds if rec.filter_diagnostics is not None]
        assert sum(d.removed_count for d in diags) > 100
        assert all(d.removed_indices == () for d in diags)


class TestSummaries:
    def test_summary_matches_recorded_golden(self, tmp_path):
        result = run_sweep(GOLDEN_CONFIG, str(tmp_path / "sweep"))
        rows = summarize(result)
        write_summary_csv(rows, str(tmp_path / "summary.csv"))
        produced = (tmp_path / "summary.csv").read_bytes()
        golden = (DATA_DIR / "summary_golden.csv").read_bytes()
        assert produced == golden

    def test_blank_lines_and_other_record_kinds_are_skipped(self, tmp_path):
        out = tmp_path / "s"
        run_sweep(small_config(), str(out))
        assert main(["summarize", "--out", str(out)]) == 0
        before = (out / "summary.csv").read_bytes()
        header, *cells = (out / "manifest.json").read_bytes().splitlines(keepends=True)
        (out / "manifest.json").write_bytes(
            b"".join([header, b"\n", b'{"kind":"note"}\n', *cells, b"  \n"]))
        assert main(["summarize", "--out", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == before

    def test_records_of_other_cells_are_ignored(self, tmp_path):
        out = tmp_path / "s"
        run_sweep(small_config(), str(out))

        def written() -> list[bytes]:
            assert main(["summarize", "--out", str(out)]) == 0
            assert main(["plot-data", "--out", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("summary.csv", "plotdata.csv")]

        before = written()
        # Seed 2 is outside the config's seeds 0 and 1; its trace is a real one.
        (out / "traces" / "robust_2.json").write_bytes(
            (out / "traces" / "robust_0.json").read_bytes())
        with open(out / "manifest.json", "ab") as fh:
            fh.write(b'{"kind":"cell","path":"traces/robust_2.json","seed":2,'
                     b'"status":"ok","variant":"robust"}\n'
                     b'{"error":"E","kind":"cell","seed":3,"status":"error",'
                     b'"variant":"vanilla"}\n')
        assert written() == before
        assert load_sweep(str(out)).seeds == [0, 1]

    # Cumulative regrets are never -0.0, and the aggregate's sort keeps -0.0
    # and 0.0 in their input order where numpy's partition may not, so the
    # values drawn here have no -0.0 (x + 0.0 turns it into 0.0).
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300).map(lambda x: x + 0.0), min_size=1, max_size=40),
           st.sampled_from([0, 10, 25, 50, 75, 90, 100]))
    def test_median_and_percentile_are_numpys_bit_for_bit(self, values, q):
        ordered = sorted(values)
        assert harness._percentile(ordered, q).hex() == float(np.percentile(values, q)).hex()
        assert statistics.median(ordered).hex() == float(np.median(values)).hex()

    def test_row_shape_and_fields(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        rows = summarize(result)
        assert len(rows) == len(result.variants) * len(result.checkpoints)
        for row in rows:
            assert list(row) == SUMMARY_FIELDS
            assert row["n_seeds"] == 2
            assert np.isfinite(float(row["mean_regret"]))
            assert 0.0 <= float(row["survival_rate"]) <= 1.0

    def test_checkpoint_validation(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        with pytest.raises(CheckpointOutOfRange):
            summarize(result, [201])
        with pytest.raises(CheckpointOutOfRange):
            summarize(result, [-1])
        rows = summarize(result, [1, 200])
        assert [r["checkpoint"] for r in rows] == [1, 200, 1, 200]

    def test_summary_table_alignment(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        rows = summarize(result)
        table = summary_table(rows)
        lines = table.splitlines()
        assert len(lines) == len(rows) + 1
        assert lines[0].startswith("variant")
        assert len({len(line) for line in lines}) == 1

    def test_summary_csv_layout(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        rows = summarize(result)
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_FIELDS)
        assert len(lines) == len(rows) + 1

    def test_plotdata_layout(self, tmp_path):
        result = run_sweep(small_config(), str(tmp_path / "s"))
        path = tmp_path / "plotdata.csv"
        count = emit_plotdata(result, str(path))
        expected_rows = sum(len(t.rounds) for t in result.traces.values())
        assert count == expected_rows
        lines = path.read_text().splitlines()
        assert lines[0] == PLOTDATA_HEADER
        assert len(lines) == expected_rows + 1
        first = result.traces[("robust", 0)].rounds[0]
        assert lines[1] == f"robust,0,{first.cumulative_plays},{first.cumulative_regret!r}"
        for line in lines[1:]:
            variant, seed, plays, regret = line.split(",")
            assert variant in result.variants
            assert int(plays) <= 200
            assert np.isfinite(float(regret))


class TestCli:
    def test_cli_runs_without_scipy_or_numpy_ma(self, tmp_path):
        # Neither is needed at run time; importing them costs each process
        # about 0.3 s (scipy.linalg) and 15-40 ms (numpy.ma).
        src = Path(__file__).resolve().parents[1] / "src"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        code = (
            "import sys\n"
            "from rpbandits.cli import main\n"
            f"for argv in (['run', '--config', {str(cfg_path)!r}, '--out', {str(out)!r}],\n"
            f"             ['summarize', '--out', {str(out)!r}],\n"
            f"             ['plot-data', '--out', {str(out)!r}]):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert (out / "summary.csv").exists() and (out / "plotdata.csv").exists()

    def test_gen_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc = main([
            "gen-instance", "--dim", "2", "--num-actions", "5",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["theta_star"]) == 2
        assert "wrote" in capsys.readouterr().out

    def test_gen_instance_file_resolves_to_the_generated_instance(self, tmp_path):
        path = tmp_path / "inst.json"
        assert main(["gen-instance", "--dim", "3", "--num-actions", "7", "--seed", "5",
                     "--noise", "uniform", "--theta-norm", "0.5", "--out", str(path)]) == 0
        back = resolve_instance(small_config(instance={"file": str(path)}))
        direct = generate_instance(dim=3, num_actions=7, seed=5, noise="uniform",
                                   theta_norm=0.5)
        assert back.theta_star.tobytes() == direct.theta_star.tobytes()
        assert back.actions.vectors.tobytes() == direct.actions.vectors.tobytes()
        assert back.noise == direct.noise == "uniform"
        assert path.read_text() == json.dumps(direct.to_json_dict())

    def test_run_summarize_plotdata_pipeline(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        inst = generate_instance(dim=2, num_actions=6, seed=3)
        (cfg_dir / "inst.json").write_text(json.dumps(inst.to_json_dict()))
        config = small_config(instance={"file": "inst.json"})
        (cfg_dir / "run.json").write_text(json.dumps(config))
        out = tmp_path / "out"

        rc = main(["run", "--config", str(cfg_dir / "run.json"), "--out", str(out)])
        assert rc == 0
        for name in ["manifest.json", "summary.csv", "plotdata.csv"]:
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "variant" in stdout
        assert "4 traces" in stdout

        rc = main(["summarize", "--out", str(out), "--checkpoints", "100,200"])
        assert rc == 0
        assert "200" in capsys.readouterr().out

        dest = tmp_path / "curves.csv"
        rc = main(["plot-data", "--out", str(out), "--dest", str(dest)])
        assert rc == 0
        assert dest.read_text().splitlines()[0] == PLOTDATA_HEADER

    def test_run_seed_override(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(baselines=[])))
        out = tmp_path / "out"
        rc = main([
            "run", "--config", str(cfg_path), "--out", str(out), "--seeds", "0,3",
        ])
        assert rc == 0
        names = sorted(os.listdir(out / "traces"))
        assert names == ["robust_0.json", "robust_3.json"]

    def test_run_seed_count_and_out_from_environment(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(baselines=[])))
        out = tmp_path / "env-out"
        monkeypatch.setenv("RPBANDITS_OUT", str(out))
        rc = main(["run", "--config", str(cfg_path), "--seeds", "3"])
        assert rc == 0
        names = sorted(os.listdir(out / "traces"))
        assert names == ["robust_0.json", "robust_1.json", "robust_2.json"]

    def test_checkpoint_past_horizon_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(checkpoints=[100, 2000])))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert "checkpoints: 2000 is past the horizon 200" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_seed_flag_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "1,1"])
        assert rc == 2
        assert "seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["abc", "1,x"])
    def test_bad_seeds_flag_exits_2(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", flag])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"argument --seeds: need a count or a comma list of integers, got {flag!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["10,x", ",", "", "1.5"])
    def test_bad_checkpoints_exit_2_and_write_nothing(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        run_sweep(small_config(), str(out))
        before = sorted((p.name, p.read_bytes()) for p in out.iterdir() if p.is_file())
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--out", str(out), "--checkpoints", flag])
        assert exc.value.code == 2
        assert "--checkpoints" in capsys.readouterr().err
        assert sorted((p.name, p.read_bytes()) for p in out.iterdir() if p.is_file()) == before

    def test_unwritable_instance_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        rc = main(["gen-instance", "--dim", "2", "--num-actions", "5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        (tmp_path / "afile").write_text("not a directory")
        before = file_tree(tmp_path)
        out = tmp_path / "afile" / "sub"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.ENOTDIR)}\n")
        assert file_tree(tmp_path) == before

    @pytest.mark.parametrize("dest, code", [("nodir/p.csv", errno.ENOENT),
                                            ("adir", errno.EISDIR)])
    def test_unwritable_plot_dest_exits_2(self, tmp_path, capsys, dest, code):
        out = tmp_path / "out"
        run_sweep(small_config(), str(out))
        (tmp_path / "adir").mkdir()
        before = file_tree(tmp_path)
        rc = main(["plot-data", "--out", str(out), "--dest", str(tmp_path / dest)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / dest}: {os.strerror(code)}\n")
        assert file_tree(tmp_path) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_gen_instance_past_the_file_limit_exits_2(self, tmp_path, existing):
        # The instance JSON is about 20 kB; the file may not grow past 4 kB.
        out = tmp_path / "inst.json"
        if existing:
            out.write_bytes(b"the bytes of an earlier instance\n")
        before = file_tree(tmp_path)
        proc = main_under_file_limit(["gen-instance", "--dim", "5", "--num-actions", "200",
                                      "--out", str(out)], 4096)
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write {out}: {os.strerror(errno.EFBIG)}\n"
        assert file_tree(tmp_path) == before

    def test_manifest_append_past_the_file_limit_exits_2(self, tmp_path):
        # Each trace stays under 1.6 kB, while the manifest's 80 records
        # pass 3 kB about 30 cells in.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(seeds=40)))
        out = tmp_path / "out"
        proc = main_under_file_limit(["run", "--config", str(cfg_path), "--out", str(out)],
                                     3000)
        manifest = out / "manifest.json"
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write {manifest}: {os.strerror(errno.EFBIG)}\n"
        assert not (out / "summary.csv").exists()
        # What the append left is a torn last line, which a resume ignores.
        assert not manifest.read_bytes().endswith(b"\n")
        fresh = tmp_path / "fresh"
        for argv in (["--out", str(out), "--resume"], ["--out", str(fresh)]):
            assert main(["run", "--config", str(cfg_path), *argv]) == 0
        assert file_tree(out) == file_tree(fresh)

    def test_failed_write_in_a_pooled_sweep_runs_no_queued_cell(self, tmp_path):
        # Every trace is over 1.3 kB and the manifest's header under 1 kB,
        # so the first trace write ends the sweep.  The pool then drops the
        # cells still queued rather than running all 80 before the exit.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(seeds=40)))
        out = tmp_path / "out"
        started = tmp_path / "started"
        proc = main_under_file_limit(["run", "--config", str(cfg_path), "--out", str(out),
                                      "--workers", "2"], 1000, started)
        assert proc.returncode == 2
        traces = re.escape(str(out / "traces"))
        assert re.fullmatch(rf"error: cannot write {traces}/\w+\.json: "
                            rf"{os.strerror(errno.EFBIG)}\n", proc.stderr)
        assert list((out / "traces").iterdir()) == []
        assert 1 <= len(started.read_bytes()) < 40

    @pytest.mark.parametrize("group", [False, True], ids=["main-process", "process-group"])
    def test_interrupt_exits_130_and_the_resume_finishes(self, tmp_path, group):
        # SIGINT to a pooled run once a cell is recorded: one error line,
        # no traceback, exit 130; the resume then writes a clean sweep's files.
        # A terminal's Ctrl-C goes to the whole process group, pool workers
        # included.  A worker's traceback showed in some tries only, so the
        # group case interrupts a few runs in a row, each resuming the last.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(seeds=150)))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), "--workers", "2"]
        src = Path(__file__).resolve().parents[1] / "src"
        manifest = out / "manifest.json"
        for run in range(3 if group else 1):
            recorded = manifest.read_bytes().count(b'"kind":"cell"') if run else 0
            run_argv = [*argv, "--resume"] if run else argv
            proc = subprocess.Popen(
                [sys.executable, "-c", f"import sys\nfrom rpbandits.cli import main\n"
                                       f"sys.exit(main({run_argv!r}))\n"],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                start_new_session=group,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
            deadline = time.monotonic() + 60
            while not (manifest.exists()
                       and manifest.read_bytes().count(b'"kind":"cell"') > recorded):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            if group:
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 130
            assert err == "error: interrupted\n"
            assert not (out / "summary.csv").exists()
        assert main([*argv, "--resume"]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(fresh)]) == 0
        assert file_tree(out) == file_tree(fresh)

    # A trace that cannot be written ends the sweep; it is no failed cell.
    @pytest.mark.parametrize("name", ["manifest.json", "traces/robust_0.json"])
    def test_directory_at_an_output_path_exits_2(self, tmp_path, capsys, name):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        before = file_tree(tmp_path)
        for resume in ([], ["--resume"]):
            rc = main(["run", "--config", str(cfg_path), "--out", str(out), *resume])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: cannot write {out / name}: {os.strerror(errno.EISDIR)}\n")
        written = [p.name for p in out.rglob("*") if p.is_file()]
        assert written == ([] if name == "manifest.json" else ["manifest.json"])
        if name == "manifest.json":  # not even an empty traces/ is left
            assert file_tree(tmp_path) == before

    @pytest.mark.parametrize("command", ["summarize", "plot-data"])
    def test_directory_without_sweep_exits_2(self, tmp_path, capsys, command):
        for out in (tmp_path, tmp_path / "missing"):
            rc = main([command, "--out", str(out)])
            assert rc == 2
            assert "no sweep under" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--dim", "0", "--num-actions", "5"],
        ["--dim", "2", "--num-actions", "0"],
        ["--dim", "x", "--num-actions", "5"],
        ["--dim", "2", "--num-actions", "5", "--theta-norm", "2"],
        ["--dim", "2", "--num-actions", "5", "--theta-norm", "-0.5"],
        ["--dim", "2", "--num-actions", "5", "--theta-norm", "nan"],
        ["--dim", "2", "--num-actions", "5", "--seed", str(2**127)],
        ["--dim", "2", "--num-actions", "5", "--seed", str(-2**127 - 1)],
    ])
    def test_gen_instance_bad_flags_exit_2(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["gen-instance", *flags, "--out", str(tmp_path / "inst.json")])
        assert exc.value.code == 2
        assert flags[-2] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["summarize", "plot-data"])
    @pytest.mark.parametrize("damage", ["missing", "not-json", "not-a-trace"])
    def test_unreadable_ok_trace_exits_2(self, tmp_path, capsys, command, damage):
        out = tmp_path / "out"
        run_sweep(small_config(), str(out))
        trace = out / "traces" / "robust_1.json"
        if damage == "missing":
            trace.unlink()
        else:
            trace.write_text("{" if damage == "not-json" else '{"horizon": 200}')
        rc = main([command, "--out", str(out)])
        assert rc == 2
        assert f"no trace in {trace}" in capsys.readouterr().err

    def test_manifest_without_header_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_sweep(small_config(), str(out))
        manifest = out / "manifest.json"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if '"kind":"header"' not in line))
        rc = main(["summarize", "--out", str(out)])
        assert rc == 2
        assert "no manifest header" in capsys.readouterr().err

    def test_hand_edited_regret_segment_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_sweep(small_config(), str(out))
        trace = out / "traces" / "vanilla_0.json"
        data = json.loads(trace.read_text())
        data["regret_segments"][0][1] = -0.5
        trace.write_text(json.dumps(data))
        rc = main(["summarize", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"no trace in {trace}" in err
        assert "regret segment" in err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = small_config()
        del config["threshold"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [
        ("0", None), ("-2", None), ("two", None), (None, "two"), (None, "1.5"), (None, "0"),
    ])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("RPBANDITS_WORKERS", env)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--workers", flag] if flag is not None else []))
        assert exc.value.code == 2
        assert "RPBANDITS_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_flag_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RPBANDITS_WORKERS", "two")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(seeds=1)))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--workers", "1"])
        assert rc == 0

    def test_failed_cells_exit_1(self, tmp_path, capsys, monkeypatch):
        def failing(cfg, variant, seed, instance=None):
            raise RuntimeError("synthetic cell failure")

        monkeypatch.setattr(harness, "run_cell", failing)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err
