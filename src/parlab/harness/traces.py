"""Episode trace persistence and replay verification.

Traces are JSON Lines, one episode per line, with a schema_version field and
canonical serialization (sorted keys, no whitespace) so identical episodes
produce byte-identical lines. A full record carries enough to re-simulate the
episode from scratch; a summary record keeps only the metrics row and cannot
be replayed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import (
    CorruptFileError,
    InvalidParameterError,
    MissingSnapshotError,
    MissingTraceDataError,
    ParlabError,
)
from ..metrics import StageRecord, episode_metrics_row, finish_rate
from ..rewards import answer_score, breakdown_from_dict
from ..orchestrator import (
    ActionToken,
    EpisodeTrace,
    PolicyParams,
    TokenRecord,
    action_logprobs,
    decode_action,
    featurize,
    token_from_dict,
    vocabulary_manifest,
)
from ..environment import reset
from ..task_gen import task_spec_from_dict, task_spec_to_dict

SCHEMA_VERSION = 1


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def metrics_row(trace: EpisodeTrace) -> dict:
    """Episode metrics with the outcome score filled in."""
    return episode_metrics_row(
        trace, r_perf=answer_score(trace.task, trace.final_answer)
    )


def stage_to_dict(stage: StageRecord) -> dict:
    return {
        "stage_index": stage.stage_index,
        "main_steps": stage.main_steps,
        "sub_steps": list(stage.sub_steps),
        "assigned": stage.assigned,
        "completed": stage.completed,
        "result_tokens": stage.result_tokens,
        "note": stage.note,
    }


def stage_from_dict(data: dict) -> StageRecord:
    return StageRecord(
        stage_index=data["stage_index"],
        main_steps=data["main_steps"],
        sub_steps=tuple(data["sub_steps"]),
        assigned=data["assigned"],
        completed=data["completed"],
        result_tokens=data.get("result_tokens", 0),
        note=data.get("note", ""),
    )


def trace_to_record(
    trace: EpisodeTrace, vocab: tuple[ActionToken, ...], summary_only: bool = False
) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "task": task_spec_to_dict(trace.task),
        "episode_seed": trace.episode_seed,
        "params_hash": trace.params_hash,
        "terminal_flag": trace.terminal_flag,
        "partial": trace.partial,
        "partial_rollout": trace.partial_rollout,
        "metrics": metrics_row(trace),
        "reward": trace.reward.to_dict() if trace.reward is not None else None,
    }
    if summary_only:
        record["tokens"] = None
        record["stages"] = None
        record["vocab"] = None
        record["final_answer"] = None
    else:
        record["tokens"] = [tok.to_dict() for tok in trace.tokens]
        record["stages"] = [stage_to_dict(s) for s in trace.stages]
        record["vocab"] = vocabulary_manifest(vocab)
        record["final_answer"] = trace.final_answer
    return record


def record_to_trace(record: dict) -> tuple[EpisodeTrace, tuple[ActionToken, ...]]:
    """Rebuild a full record's trace and vocabulary; a summary-only record, or
    one that lacks a key or holds one of the wrong type, raises
    `MissingTraceDataError`."""
    if not isinstance(record, dict):
        raise MissingTraceDataError("record is not a JSON object")
    if record.get("tokens") is None:
        raise MissingTraceDataError(
            "summary-only record: token stream was not persisted"
        )
    try:
        trace = EpisodeTrace(
            task=task_spec_from_dict(record["task"]),
            episode_seed=record["episode_seed"],
            tokens=[
                TokenRecord(
                    index=t["index"],
                    name=t["name"],
                    behavior_logprob=t["behavior_logprob"],
                    features=tuple(t["features"]),
                )
                for t in record["tokens"]
            ],
            stages=[stage_from_dict(s) for s in record["stages"]],
            terminal_flag=record["terminal_flag"],
            final_answer=record["final_answer"],
            partial=record["partial"],
            partial_rollout=record.get("partial_rollout", False),
            params_hash=record["params_hash"],
            reward=(
                breakdown_from_dict(record["reward"])
                if record.get("reward") is not None
                else None
            ),
        )
        vocab = tuple(token_from_dict(t) for t in record["vocab"])
    except KeyError as exc:
        raise MissingTraceDataError(f"record lacks key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        if isinstance(exc, ParlabError):
            raise
        raise MissingTraceDataError(f"record has a field of the wrong type ({exc})") from exc
    return trace, vocab


def write_traces(
    path: str | Path,
    traces: list[EpisodeTrace],
    vocab: tuple[ActionToken, ...],
    summary_only: bool = False,
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for trace in traces:
            handle.write(canonical_dumps(trace_to_record(trace, vocab, summary_only)))
            handle.write("\n")


def read_json(path: Path) -> object:
    """One JSON document; bad UTF-8 or JSON is a `CorruptFileError` naming
    the file (and the line)."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{path}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise CorruptFileError(f"{path}, line {exc.lineno}: {exc.msg}") from exc


def read_trace_records(path: str | Path) -> list[dict]:
    """Every record of a JSON Lines file, blank lines skipped; bad UTF-8 or
    JSON is a `CorruptFileError` naming file and line."""
    records = []
    with Path(path).open("rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(json.loads(line))
            except UnicodeDecodeError as exc:
                raise CorruptFileError(
                    f"{path}, line {line_no}: not UTF-8 ({exc.reason})"
                ) from exc
            except json.JSONDecodeError as exc:
                raise CorruptFileError(f"{path}, line {line_no}: {exc.msg}") from exc
    return records


@dataclass
class Verdict:
    ok: bool
    mismatches: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.ok = False
        self.mismatches.append(message)


def replay_trace(
    record: dict,
    params: PolicyParams | None = None,
    snapshots: dict[str, PolicyParams] | None = None,
) -> Verdict:
    """Re-simulate a recorded episode and diff it against the record.

    Token indices drive the replay; stages, features, terminal flag, final
    answer, metrics, and reward fields must all reproduce. Parameters for the
    log-prob check come either from ``params`` directly or from ``snapshots``
    (a hash-keyed store); a store that lacks the recorded hash is an error,
    since the caller asserted the snapshot should exist.
    """
    trace, vocab = record_to_trace(record)
    verdict = Verdict(ok=True)
    env, obs = reset(trace.task, trace.episode_seed)
    if params is None and snapshots is not None and trace.params_hash != "scripted":
        if trace.params_hash not in snapshots:
            raise MissingSnapshotError(
                f"no parameter snapshot with hash {trace.params_hash}"
            )
        params = snapshots[trace.params_hash]
    if params is not None and params.params_hash() != trace.params_hash:
        verdict.add(
            f"params hash mismatch: trace has {trace.params_hash}, "
            f"got {params.params_hash()}"
        )
        params = None
    for position, tok in enumerate(trace.tokens):
        if env.done:
            verdict.add(f"token {position}: episode already terminated in replay")
            break
        features = featurize(obs, trace.task)
        recorded = np.array(tok.features)
        if not np.allclose(features, recorded, atol=1e-12):
            verdict.add(f"token {position}: feature drift {recorded} vs {features}")
        if params is not None:
            logprob = float(action_logprobs(params, features)[tok.index])
            if not math.isclose(logprob, tok.behavior_logprob, abs_tol=1e-9):
                verdict.add(
                    f"token {position}: logprob {tok.behavior_logprob} "
                    f"not reproduced ({logprob})"
                )
        if tok.index >= len(vocab):
            verdict.add(f"token {position}: index {tok.index} outside vocabulary")
            break
        obs, _ = env.step(decode_action(vocab[tok.index], env))
    if not env.done and not trace.partial:
        env.force_terminate("token_cap")
    replayed = [stage_to_dict(s) for s in env.stages]
    recorded_stages = [stage_to_dict(s) for s in trace.stages]
    if replayed != recorded_stages:
        verdict.add("stage records diverge")
    if not trace.partial and env.terminal_flag != trace.terminal_flag:
        verdict.add(
            f"terminal flag {trace.terminal_flag!r} not reproduced "
            f"({env.terminal_flag!r})"
        )
    if not trace.partial and env.final_answer != trace.final_answer:
        verdict.add("final answer diverges")
    _check_derived_fields(record, trace, env, verdict)
    return verdict


def _check_derived_fields(
    record: dict, trace: EpisodeTrace, env, verdict: Verdict
) -> None:
    """Diff recorded metrics and reward against values recomputed from replay."""
    replayed = EpisodeTrace(
        task=trace.task,
        episode_seed=trace.episode_seed,
        tokens=trace.tokens,
        stages=list(env.stages),
        terminal_flag=env.terminal_flag,
        final_answer=env.final_answer,
        partial=trace.partial,
        partial_rollout=trace.partial_rollout,
        params_hash=trace.params_hash,
    )
    expected_metrics = metrics_row(replayed)
    recorded_metrics = record.get("metrics", {})
    for key, expected in expected_metrics.items():
        got = recorded_metrics.get(key)
        same = (
            math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-12)
            if isinstance(expected, float) and isinstance(got, (int, float))
            else got == expected
        )
        if not same:
            verdict.add(f"metrics[{key}]: recorded {got!r}, replay gives {expected!r}")
    reward = record.get("reward")
    if reward is None:
        return
    score = answer_score(trace.task, env.final_answer)
    if not math.isclose(reward["r_perf"], score, abs_tol=1e-12):
        verdict.add(f"reward[r_perf]: recorded {reward['r_perf']}, replay gives {score}")
    finished = finish_rate(env.stages)
    if not math.isclose(reward["r_finish"], finished, abs_tol=1e-12):
        verdict.add(
            f"reward[r_finish]: recorded {reward['r_finish']}, replay gives {finished}"
        )
    implied = (
        reward["lambda1_t"] * reward["r_parallel"]
        + reward["lambda2_t"] * reward["r_finish"]
        + reward["r_perf"]
    )
    if not math.isclose(reward["composite"], implied, abs_tol=1e-9):
        verdict.add(
            f"reward[composite]: recorded {reward['composite']} inconsistent "
            f"with parts ({implied})"
        )


def replay_file(
    path: str | Path,
    params: PolicyParams | None = None,
    snapshots: dict[str, PolicyParams] | None = None,
) -> Verdict:
    """Replay every record in a JSONL trace file; any mismatch fails the file."""
    records = read_trace_records(path)
    if not records:
        raise InvalidParameterError(f"no trace records in {path}")
    verdict = Verdict(ok=True)
    for line_no, record in enumerate(records, start=1):
        try:
            single = replay_trace(record, params, snapshots)
        except MissingTraceDataError as exc:
            raise MissingTraceDataError(f"{path}, line {line_no}: {exc}") from exc
        for message in single.mismatches:
            verdict.add(f"line {line_no}: {message}")
    return verdict
