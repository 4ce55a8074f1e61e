"""Command line entry points for running and inspecting experiments."""

import argparse
import json
import math
import os
import sys

from .env import NOISE_KINDS, generate_instance
from .errors import BanditError, ConfigInvalid
from .harness import (
    atomic_write,
    emit_plotdata,
    load_sweep,
    run_sweep,
    summarize,
    summary_table,
    write_summary_csv,
)
from .seeding import INT_LABELS


def _parse_seeds(text: str) -> list[int] | int:
    """Either a count ("20") or an explicit comma list ("0,3,17")."""
    try:
        return [int(p) for p in text.split(",") if p.strip()] if "," in text else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need a count or a comma list of integers, got {text!r}") from None


def _number(kind, low: float, high: float = math.inf, source: str = ""):
    """An argparse type: an int or float in [low, high].  `source` says
    where a bad value may have come from."""
    what = ("an integer" if kind is int else "a number") + (
        f" >= {low}" if high == math.inf else f" in [{low}, {high}]")

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"need {what}{source}, got {text!r}")
        return value
    return parse


def _checkpoint_list(text: str) -> list[int]:
    """A non-empty comma list of integer play counts."""
    try:
        checkpoints = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        checkpoints = []
    if not checkpoints:
        raise argparse.ArgumentTypeError(
            f"need a comma list of integer play counts, got {text!r}")
    return checkpoints


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpbandits",
        description="Batched linear bandit experiments with robust, private estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_default = os.environ.get("RPBANDITS_OUT", "out")

    gen = sub.add_parser("gen-instance", help="generate and save a random bandit instance")
    gen.add_argument("--dim", type=_number(int, 1), required=True)
    gen.add_argument("--num-actions", type=_number(int, 1), required=True)
    gen.add_argument("--seed", type=_number(int, INT_LABELS.start, INT_LABELS.stop - 1),
                     default=0)
    gen.add_argument("--noise", choices=NOISE_KINDS, default="gaussian")
    gen.add_argument("--theta-norm", type=_number(float, 0, 1), default=1.0)
    gen.add_argument("--out", required=True, help="path for the instance JSON")

    run = sub.add_parser("run", help="run a sweep from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=out_default,
                     help="output directory (default: RPBANDITS_OUT or ./out)")
    run.add_argument("--seeds", type=_parse_seeds, default=None,
                     help="override config seeds: a count N or a comma list")
    # argparse converts a string default with `type`, so a bad
    # RPBANDITS_WORKERS is a usage error (exit 2) like a bad --workers.
    run.add_argument("--workers",
                     type=_number(int, 1, source=" (from --workers or RPBANDITS_WORKERS)"),
                     default=os.environ.get("RPBANDITS_WORKERS", "1"),
                     help="parallel workers (default: RPBANDITS_WORKERS or 1)")
    run.add_argument("--resume", action="store_true",
                     help="skip cells already recorded in the manifest")

    summ = sub.add_parser("summarize", help="aggregate a finished sweep directory")
    summ.add_argument("--out", default=out_default,
                      help="sweep directory to summarize (default: RPBANDITS_OUT or ./out)")
    summ.add_argument("--checkpoints", type=_checkpoint_list, default=None,
                      help="comma list of play counts")

    plot = sub.add_parser("plot-data", help="emit long-format regret curves as CSV")
    plot.add_argument("--out", default=out_default,
                      help="sweep directory to read (default: RPBANDITS_OUT or ./out)")
    plot.add_argument("--dest", default=None,
                      help="CSV path (default: <out>/plotdata.csv)")
    return parser


def _cmd_gen_instance(args) -> int:
    instance = generate_instance(
        dim=args.dim,
        num_actions=args.num_actions,
        seed=args.seed,
        noise=args.noise,
        theta_norm=args.theta_norm,
    )
    atomic_write(args.out, json.dumps(instance.to_json_dict()).encode("utf-8"))
    best = instance.optimal_index
    print(f"wrote {args.out}: K={instance.actions.count} d={instance.actions.dim} "
          f"optimal arm {best}")
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {args.config}: {exc}") from exc
    if args.seeds is not None and isinstance(config, dict):
        config["seeds"] = args.seeds
    base_dir = os.path.dirname(os.path.abspath(args.config))
    result = run_sweep(config, args.out, workers=args.workers, resume=args.resume,
                       base_dir=base_dir)
    rows = summarize(result)
    write_summary_csv(rows, os.path.join(args.out, "summary.csv"))
    emit_plotdata(result, os.path.join(args.out, "plotdata.csv"))
    print(summary_table(rows))
    print(f"\n{len(result.traces)} traces in {args.out} "
          f"({result.wall_clock_s:.1f}s, {len(result.failures)} failed)")
    for failure in result.failures:
        print(f"  FAILED {failure['variant']} seed {failure['seed']}: "
              f"{failure['error']}", file=sys.stderr)
    return 0 if not result.failures else 1


def _cmd_summarize(args) -> int:
    result = load_sweep(args.out)
    rows = summarize(result, args.checkpoints)
    write_summary_csv(rows, os.path.join(args.out, "summary.csv"))
    print(summary_table(rows))
    return 0


def _cmd_plot_data(args) -> int:
    result = load_sweep(args.out)
    dest = args.dest or os.path.join(args.out, "plotdata.csv")
    count = emit_plotdata(result, dest)
    print(f"wrote {count} rows to {dest}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen-instance": _cmd_gen_instance,
        "run": _cmd_run,
        "summarize": _cmd_summarize,
        "plot-data": _cmd_plot_data,
    }[args.command]
    try:
        return handler(args)
    except BanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
