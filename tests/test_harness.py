"""Harness tests: config validation, sweep execution, resume, aggregation,
and the CLI entry points."""

import concurrent.futures
import json
import os
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import rpbandits.harness as harness
import rpbandits.policy as policy
from rpbandits.cli import main
from rpbandits.env import generate_instance, save_instance
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

    def test_version_is_pinned(self):
        with pytest.raises(ConfigInvalid, match="version"):
            validate_config(small_config(version=2))


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
        save_instance(direct, tmp_path / "inst.json")
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
    return full


def enum_cases() -> list[tuple[str, dict, str]]:
    """(id, config, variant) for every enum value the schema admits."""
    props = harness.CONFIG_SCHEMA["properties"]
    inst = props["instance"]["properties"]
    adv = props["adversary"]["properties"]
    attack = {"alpha": 0.1, "strategy": "constant"}
    inline = {"theta_star": [0.6, 0.0],
              "actions": {"dim": 2, "actions": [[1.0, 0.0], [0.0, 1.0]]}}
    cases = []
    for model in props["model"]["enum"]:
        config = small_config(model=model)
        if model == "M2":
            config["threshold"] = dict(M2_THRESHOLD)
        cases.append((f"model={model}", config, "robust"))
    for noise in inst["generate"]["properties"]["noise"]["enum"]:
        gen = {"dim": 2, "num_actions": 6, "seed": 3, "noise": noise}
        cases.append((f"generate-noise={noise}",
                      small_config(instance={"generate": gen}), "robust"))
    for noise in inst["inline"]["properties"]["noise"]["enum"]:
        cases.append((f"inline-noise={noise}",
                      small_config(instance={"inline": {**inline, "noise": noise}}),
                      "robust"))
    for strategy in adv["strategy"]["enum"]:
        cases.append((f"strategy={strategy}", small_config(
            adversary={**attack, "strategy": strategy}), "robust"))
    for stage in adv["corrupt_stage"]["enum"]:
        cases.append((f"corrupt-stage={stage}", small_config(
            adversary={**attack, "corrupt_stage": stage},
            privacy={"enabled": True}), "robust"))
    for variant in props["baselines"]["items"]["enum"]:
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
    """An omitted optional key means its documented default, and every value
    the schema admits is one the dataclasses accept."""

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
        validate_config(config)
        validate_config(full)
        for variant in harness.VARIANTS:
            assert trace_to_bytes(run_cell(config, variant, 0)) == trace_to_bytes(
                run_cell(full, variant, 0)
            ), variant

    @staticmethod
    def _enum_paths(node, path=()):
        """Schema path (without properties/items steps) of every enum."""
        if isinstance(node, dict):
            if "enum" in node:
                yield "/".join(path)
            for key, child in node.items():
                step = () if key in ("properties", "items") else (key,)
                yield from TestConfigDefaults._enum_paths(child, path + step)
        elif isinstance(node, list):
            for child in node:
                yield from TestConfigDefaults._enum_paths(child, path)

    def test_every_schema_enum_is_covered(self):
        assert set(self._enum_paths(harness.CONFIG_SCHEMA)) == {
            "model", "instance/generate/noise", "instance/inline/noise",
            "adversary/strategy", "adversary/corrupt_stage", "baselines",
        }

    @pytest.mark.parametrize("config,variant", [
        pytest.param(config, variant, id=name)
        for name, config, variant in enum_cases() + bound_cases()
    ])
    def test_admitted_values_build_a_cell(self, config, variant):
        validate_config(config)
        assert run_cell(config, variant, 0).total_plays == 200


class TestBadInstanceSource:
    """An instance source that passes the schema but cannot be built is a
    config error: not even the output directory is made, and the CLI exits
    with 2."""

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
                assert stats["median"] == pytest.approx(np.median(vals), rel=1e-12)
                assert stats["iqr"] == pytest.approx(
                    np.percentile(vals, 75) - np.percentile(vals, 25), abs=1e-12
                )
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

        def counting(cfg, variant, seed, base_dir=None):
            calls.append((variant, seed))
            return real(cfg, variant, seed, base_dir)

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

    def test_parallel_matches_sequential(self, tmp_path):
        config = small_config()
        run_sweep(config, str(tmp_path / "seq"), workers=1)
        run_sweep(config, str(tmp_path / "par"), workers=2)
        for rel in ["manifest.json", "traces/robust_0.json", "traces/robust_1.json",
                    "traces/vanilla_0.json", "traces/vanilla_1.json"]:
            assert (tmp_path / "seq" / rel).read_bytes() == (
                tmp_path / "par" / rel
            ).read_bytes(), rel

    def test_pool_is_sized_to_pending_cells(self, tmp_path, monkeypatch):
        real = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers=min(max_workers, 2))

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

    def test_partial_failure_is_recorded_not_raised(self, tmp_path, monkeypatch):
        real = harness.run_cell

        def flaky(cfg, variant, seed, base_dir=None):
            if (variant, seed) == ("vanilla", 1):
                raise RuntimeError("synthetic cell failure")
            return real(cfg, variant, seed, base_dir)

        monkeypatch.setattr(harness, "run_cell", flaky)
        result = run_sweep(small_config(), str(tmp_path / "s"))
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

    def test_rerun_ignores_stale_trace_of_failed_cell(self, tmp_path, monkeypatch):
        config = small_config()
        out = tmp_path / "s"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        run_sweep(config, str(out))
        stale = out / "traces" / "vanilla_1.json"
        assert stale.exists()

        real = harness.run_cell

        def flaky(cfg, variant, seed, base_dir=None):
            if (variant, seed) == ("vanilla", 1):
                raise RuntimeError("synthetic cell failure")
            return real(cfg, variant, seed, base_dir)

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


class TestSummaries:
    def test_summary_matches_recorded_golden(self, tmp_path):
        result = run_sweep(GOLDEN_CONFIG, str(tmp_path / "sweep"))
        rows = summarize(result)
        write_summary_csv(rows, str(tmp_path / "summary.csv"))
        produced = (tmp_path / "summary.csv").read_bytes()
        golden = (DATA_DIR / "summary_golden.csv").read_bytes()
        assert produced == golden

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

    def test_run_summarize_plotdata_pipeline(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        inst = generate_instance(dim=2, num_actions=6, seed=3)
        save_instance(inst, cfg_dir / "inst.json")
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

    def test_duplicate_seed_flag_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "1,1"])
        assert rc == 2
        assert "seeds" in capsys.readouterr().err
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
        def failing(cfg, variant, seed, base_dir=None):
            raise RuntimeError("synthetic cell failure")

        monkeypatch.setattr(harness, "run_cell", failing)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config()))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err
