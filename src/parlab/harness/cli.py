"""Command-line front end.

Verbs: ``gen`` writes task specs, ``run`` evaluates policies without
training, ``train`` runs the full training-plus-evaluation flow, ``replay``
verifies recorded traces, ``report`` aggregates and compares trace files.

Exit codes: 0 success, 1 config or usage error, 2 runtime failure,
3 replay verification mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..errors import (
    ConfigError,
    InvalidParameterError,
    InvalidSpecError,
    MissingTraceDataError,
    ParlabError,
)
from ..task_gen import (
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    task_spec_to_dict,
)
from .config import ExperimentConfig, load_config
from .experiment import load_params, run_experiment, speedup_report
from .traces import canonical_dumps, read_trace_records, replay_file

CONFIG_ERROR = 1
RUNTIME_ERROR = 2
REPLAY_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage failures through the config-error exit path."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parlab",
        description="Swarm-orchestration training bench",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate task specs as JSON lines")
    gen.add_argument("--family", required=True,
                     choices=["wide_search", "deep_search", "batch_download"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n-items", type=int, default=20)
    gen.add_argument("--sources-per-item", type=int, default=2)
    gen.add_argument("--n-branches", type=int, default=4)
    gen.add_argument("--depth", type=int, default=3)
    gen.add_argument("--n-files", type=int, default=8)
    gen.add_argument("--file-cost", type=int, default=3)

    run = sub.add_parser("run", help="evaluate the configured policies")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's seed list with one seed")
    run.add_argument("--out", default=None, help="override the config's output_dir")
    run.add_argument("--concurrency", type=int, default=None)
    run.add_argument("--params", default=None,
                     help="parameter snapshot for the learned policy")

    train = sub.add_parser("train", help="train, checkpoint, then evaluate")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
    train.add_argument("--out", default=None, help="override the config's output_dir")
    train.add_argument("--concurrency", type=int, default=None)

    replay = sub.add_parser("replay", help="re-simulate recorded traces and diff")
    replay.add_argument("--trace", required=True)
    replay.add_argument("--params", default=None,
                        help="verify behavior log-probs against this snapshot")

    report = sub.add_parser("report", help="summarize trace files; compare if several")
    report.add_argument("--traces", nargs="+", required=True,
                        help="first file is the baseline when comparing")
    report.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    if getattr(args, "out", None) is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    return config


def _cmd_gen(args: argparse.Namespace) -> int:
    tasks = []
    for i in range(args.count):
        seed = args.seed + i
        if args.family == "wide_search":
            tasks.append(gen_wide_search(seed, args.n_items, args.sources_per_item))
        elif args.family == "deep_search":
            tasks.append(gen_deep_search(seed, args.depth, args.n_branches))
        else:
            tasks.append(gen_batch_download(seed, args.n_files, args.file_cost))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        for task in tasks:
            handle.write(canonical_dumps(task_spec_to_dict(task)) + "\n")
    print(f"wrote {len(tasks)} task(s) to {out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    config = dataclasses.replace(config, rl=dataclasses.replace(config.rl, iterations=0))
    params = load_params(args.params) if args.params else None
    summary = run_experiment(config, concurrency=args.concurrency, params=params)
    print(canonical_dumps(summary))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    summary = run_experiment(config, concurrency=args.concurrency)
    print(canonical_dumps(summary))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    params = load_params(args.params) if args.params else None
    verdict = replay_file(args.trace, params)
    if verdict.ok:
        print("replay ok")
        return 0
    for message in verdict.mismatches:
        print(message, file=sys.stderr)
    return REPLAY_MISMATCH


REPORT_FIELDS = ("task_id", "r_perf", "critical_steps", "total_steps", "max_width",
                 "finish_rate")


def _metrics_rows(path: str) -> list[dict]:
    """The metrics row of every record in a trace file."""
    records = read_trace_records(path)
    if not records:
        raise InvalidParameterError(f"no trace records in {path}")
    rows = []
    for line_no, record in enumerate(records, start=1):
        row = record.get("metrics") if isinstance(record, dict) else None
        if not isinstance(row, dict) or not all(key in row for key in REPORT_FIELDS):
            raise MissingTraceDataError(f"{path}, line {line_no}: record has no metrics row")
        rows.append(row)
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    rows_per_file = [_metrics_rows(path) for path in args.traces]

    def aggregate(rows: list[dict]) -> dict:
        n = len(rows)
        return {
            "episodes": n,
            "mean_r_perf": sum(float(r["r_perf"]) for r in rows) / n,
            "mean_critical_steps": sum(float(r["critical_steps"]) for r in rows) / n,
            "mean_total_steps": sum(float(r["total_steps"]) for r in rows) / n,
            "mean_max_width": sum(float(r["max_width"]) for r in rows) / n,
            "mean_finish_rate": sum(float(r["finish_rate"]) for r in rows) / n,
        }

    report: dict = {
        "files": {path: aggregate(rows)
                  for path, rows in zip(args.traces, rows_per_file)},
    }
    if len(rows_per_file) > 1:
        baseline = rows_per_file[0]
        report["comparisons"] = {
            path: speedup_report(baseline, rows)
            for path, rows in zip(args.traces[1:], rows_per_file[1:])
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "train": _cmd_train,
    "replay": _cmd_replay,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except (ConfigError, InvalidParameterError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ParlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
