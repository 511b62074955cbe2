"""Span tracer that wraps parlab's public functions from outside the package.

``Tracer.install`` rebinds every module attribute in ``parlab`` that holds one
of the traced functions, so aliases imported by name (``featurize`` in
``harness.traces``, ``derive_seed`` in half the package) are traced too, and
patches the traced ``SwarmEnv`` methods on the class. ``uninstall`` restores
every original object; timed runs never install a tracer.

Spans live in memory, in per-thread arrays (name, start, end, parent span,
op id; the thread is implied), and are written out once, at the end of a
run. A span's self time is its duration minus the union of its child spans,
so children that overlap on other threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

SETUP_OP = -1

# Span name -> (module, attribute) pairs of the functions it covers. A class
# attribute is written "Class.method".
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "optimizer.rl_gradient": (("parlab.optimizer", "rl_gradient"),),
    "optimizer.grad_logprob": (("parlab.orchestrator", "grad_logprob"),),
    "optimizer.collect_group": (("parlab.optimizer", "collect_group"),),
    "orchestrator.policy": (
        ("parlab.orchestrator", "action_distribution"),
        ("parlab.orchestrator", "action_logprobs"),
        ("parlab.orchestrator", "sample_action"),
    ),
    "orchestrator.rollout_episode": (("parlab.orchestrator", "rollout_episode"),),
    "orchestrator.featurize": (("parlab.orchestrator", "featurize"),),
    "orchestrator.decode": (("parlab.orchestrator", "decode_action"),),
    "orchestrator.partition_units": (("parlab.orchestrator", "partition_units"),),
    "seeding.derive_seed": (("parlab.seeding", "derive_seed"),),
    "environment.pending_units": (("parlab.environment", "SwarmEnv.pending_units"),),
    "environment.observe": (("parlab.environment", "SwarmEnv.observe"),),
    "environment.step": (("parlab.environment", "SwarmEnv.step"),),
    "environment.run_subagent": (("parlab.environment", "SwarmEnv.run_subagent"),),
    "harness.experiment.stop_curve": (("parlab.harness.experiment", "stop_curve"),),
    "harness.experiment.scripted_rollout": (
        ("parlab.harness.experiment", "scripted_rollout"),
    ),
    "harness.manager.rollout_manager": (("parlab.harness.manager", "rollout_manager"),),
    "harness.traces.write_traces": (("parlab.harness.traces", "write_traces"),),
    "harness.traces.read_trace_records": (
        ("parlab.harness.traces", "read_trace_records"),
    ),
    "harness.traces.replay_trace": (("parlab.harness.traces", "replay_trace"),),
    "task_gen.gen": (
        ("parlab.task_gen", "gen_wide_search"),
        ("parlab.task_gen", "gen_deep_search"),
        ("parlab.task_gen", "gen_batch_download"),
    ),
}

# Layers that cover every public function a module defines.
MODULE_LAYERS = {"metrics": "parlab.metrics", "rewards": "parlab.rewards"}

# Layers whose spans fan out to children; overlap = sum of child time / wall.
FANOUT_LAYERS = ("harness.manager.rollout_manager", "optimizer.collect_group")


def _record_bytes(counters, args, kwargs, result, key):
    counters[key] += os.path.getsize(kwargs.get("path", args[0] if args else None))


def _record_subagent(counters, args, kwargs, result):
    counters["environment.run_subagent.units_returned"] += len(result.payload)
    counters["environment.run_subagent.units_assigned"] += len(args[2].unit_ids)


def _add(key, value_of):
    def hook(counters, args, kwargs, result):
        counters[key] += value_of(result)

    return hook


# Span name -> hook(counters, args, kwargs, result) that records op counters.
HOOKS = {
    "harness.traces.write_traces": functools.partial(
        _record_bytes, key="harness.traces.write_traces.bytes"
    ),
    "harness.traces.read_trace_records": functools.partial(
        _record_bytes, key="harness.traces.read_trace_records.bytes"
    ),
    "harness.traces.replay_trace": _add(
        "harness.traces.replay_trace.mismatches", lambda verdict: len(verdict.mismatches)
    ),
    "orchestrator.decode": _add(
        "orchestrator.decode.noops", lambda action: type(action).__name__ == "NoOpAction"
    ),
    "environment.run_subagent": _record_subagent,
    "harness.manager.rollout_manager": _add(
        "harness.manager.error_traces",
        lambda traces: sum(t.terminal_flag.startswith("error:") for t in traces),
    ),
    "harness.experiment.stop_curve": _add(
        "harness.experiment.stop_curve.moves", lambda curve: len(curve) - 1
    ),
}


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class SpanTable:
    """Every span of a run, indexed by span id; ``names`` index ``span_names``."""

    span_names: list[str]
    names: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    parents: np.ndarray
    ops: np.ndarray
    threads: np.ndarray

    def __post_init__(self) -> None:
        for field, dtype in (
            ("names", np.int32), ("starts", np.float64), ("ends", np.float64),
            ("parents", np.int64), ("ops", np.int32), ("threads", np.int32),
        ):
            setattr(self, field, np.asarray(getattr(self, field), dtype=dtype))

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the union of its children's intervals."""
        starts, ends = self.starts.tolist(), self.ends.tolist()
        children = defaultdict(list)
        for child, parent in enumerate(self.parents.tolist()):
            if parent >= 0:
                children[parent].append((starts[child], ends[child]))
        out = self.ends - self.starts
        for parent, intervals in children.items():
            out[parent] -= union_length(intervals, starts[parent], ends[parent])
        return out

    def count_below(self, ancestor: str, descendant: str) -> int:
        """Op spans named ``descendant`` that have an ancestor named ``ancestor``."""
        if ancestor not in self.span_names or descendant not in self.span_names:
            return 0
        is_ancestor = self.names == self.span_names.index(ancestor)
        picked = np.flatnonzero(
            (self.names == self.span_names.index(descendant)) & (self.ops != SETUP_OP)
        )
        up = self.parents[picked]
        found = np.zeros(len(picked), dtype=bool)
        while (up >= 0).any():
            live = up >= 0
            found[live] |= is_ancestor[up[live]]
            up[live] = self.parents[up[live]]
        return int(found.sum())

    def write(self, path) -> None:
        """Compressed .npz: one array per span field, plus the name table."""
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            names=self.names, starts=self.starts, ends=self.ends,
            parents=self.parents, ops=self.ops, threads=self.threads,
        )


def layer_metrics(table: SpanTable, counters: dict[str, float], n_ops: int) -> dict:
    """Every per-layer metric except the run-level ones (failed_frac, tracing
    overhead). ``calls``, ``self_ms`` and ``total_ms`` (span time including
    children) are means over ``n_ops`` traced ops, except ``task_gen.gen``,
    which runs in setup and is reported per setup."""
    if n_ops < 1:
        raise ValueError("layer metrics need at least one traced op")
    n_names = len(table.span_names)
    setup = table.ops == SETUP_OP
    in_op = ~setup
    self_times = table.self_times()
    durations = table.ends - table.starts

    def per_name(mask, weights=None):
        w = None if weights is None else weights[mask]
        return np.bincount(table.names[mask], weights=w, minlength=n_names)

    calls = {False: per_name(in_op), True: per_name(setup)}
    self_s = {False: per_name(in_op, self_times), True: per_name(setup, self_times)}
    total_s = per_name(in_op, durations)
    has_parent = in_op & (table.parents >= 0)
    child_s = np.bincount(
        table.names[table.parents[has_parent]],
        weights=durations[has_parent],
        minlength=n_names,
    )
    index = {name: i for i, name in enumerate(table.span_names)}
    out: dict[str, float] = {}
    for name in list(LAYERS) + list(MODULE_LAYERS):
        in_setup = name == "task_gen.gen"
        per = 1 if in_setup else n_ops
        i = index.get(name)
        out[f"{name}.calls"] = 0.0 if i is None else calls[in_setup][i] / per
        out[f"{name}.self_ms"] = 0.0 if i is None else 1000.0 * self_s[in_setup][i] / per
        out[f"{name}.total_ms"] = 0.0 if i is None else 1000.0 * total_s[i] / n_ops
    for name in FANOUT_LAYERS:
        i = index.get(name)
        out[f"{name}.overlap"] = child_s[i] / total_s[i] if i is not None and total_s[i] else 0.0
    for key in (
        "harness.traces.write_traces.bytes",
        "harness.traces.read_trace_records.bytes",
        "harness.traces.replay_trace.mismatches",
        "harness.manager.error_traces",
    ):
        out[key] = counters.get(key, 0.0) / n_ops
    decodes = out["orchestrator.decode.calls"] * n_ops
    out["orchestrator.decode.noop_frac"] = (
        counters.get("orchestrator.decode.noops", 0.0) / decodes if decodes else 0.0
    )
    assigned = counters.get("environment.run_subagent.units_assigned", 0.0)
    out["environment.run_subagent.unit_yield"] = (
        counters.get("environment.run_subagent.units_returned", 0.0) / assigned
        if assigned
        else 0.0
    )
    moves = counters.get("harness.experiment.stop_curve.moves", 0.0)
    steps = table.count_below("harness.experiment.stop_curve", "environment.step")
    out["harness.experiment.stop_curve.rerun_steps_per_move"] = steps / moves if moves else 0.0
    return {key: float(value) for key, value in out.items()}


class _ThreadSpans:
    """Spans closed on one thread, as parallel arrays, plus that thread's
    op counters. Each thread writes only its own, so recording takes no lock."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: list[int] = []
        self.base = -1
        self.ids = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counters: dict[str, float] = defaultdict(float)

    def record(self, index, name_id, start, end, parent, op) -> None:
        self.ids.append(index)
        self.names.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)


class Tracer:
    """In-memory span recorder. Set ``op`` before each op; setup spans keep
    ``SETUP_OP``."""

    def __init__(self) -> None:
        self.op = SETUP_OP
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._thread_numbers = itertools.count()
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans(next(self._thread_numbers))
            self._threads.append(spans)
            return spans

    def current(self) -> int:
        spans = self._spans()
        return spans.stack[-1] if spans.stack else spans.base

    def run_as_child(self, parent: int, fn, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as the enclosing span."""
        spans = self._spans()
        previous, spans.base = spans.base, parent
        try:
            return fn(*args, **kwargs)
        finally:
            spans.base = previous

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        thread_spans, ids, clock = self._spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = thread_spans()
            stack = spans.stack
            parent = stack[-1] if stack else spans.base
            index = next(ids)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.record(index, name_id, start, end, parent, self.op)
            if hook is not None and self.op != SETUP_OP:
                hook(spans.counters, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def _targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every traced function."""
        targets = []
        for name, refs in LAYERS.items():
            for module_name, attr in refs:
                owner = sys.modules[module_name]
                if "." in attr:
                    class_name, attr = attr.split(".")
                    owner = getattr(owner, class_name)
                targets.append((name, owner, attr, getattr(owner, attr)))
        for name, module_name in MODULE_LAYERS.items():
            module = sys.modules[module_name]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module_name
                    and not attr.startswith("_")
                ):
                    targets.append((name, module, attr, value))
        return targets

    def install(self) -> None:
        """Wrap every traced function under every name parlab binds it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, original in self._targets():
            if isinstance(owner, type):
                wrappers[id(original)] = self.wrap(name, original)
                self._patch(owner, attr, wrappers[id(original)])
            else:
                wrappers.setdefault(id(original), self.wrap(name, original))
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "parlab"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and not isinstance(value, type):
                    self._patch(module, attr, wrapper)
        manager = sys.modules["parlab.harness.manager"]
        self._patch(manager, "ThreadPoolExecutor", _traced_pool(self))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def spans(self) -> SpanTable:
        """Merge every thread's spans into one table indexed by span id."""
        size = sum(len(spans.ids) for spans in self._threads)
        fields = {
            "names": np.zeros(size, np.int32),
            "starts": np.zeros(size),
            "ends": np.zeros(size),
            "parents": np.full(size, -1, np.int64),
            "ops": np.full(size, SETUP_OP, np.int32),
            "threads": np.zeros(size, np.int32),
        }
        for spans in self._threads:
            ids = np.frombuffer(spans.ids, dtype=np.int64)
            for field in ("names", "starts", "ends", "parents", "ops"):
                fields[field][ids] = np.asarray(getattr(spans, field))
            fields["threads"][ids] = spans.thread
        return SpanTable(list(self.span_names), **fields)

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        for spans in self._threads:
            for key, value in spans.counters.items():
                merged[key] += value
        return dict(merged)


def _traced_pool(tracer: Tracer) -> type:
    """A ThreadPoolExecutor whose tasks run as children of the submitting span."""

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_as_child, tracer.current(), fn, *args, **kwargs)

    return TracedPool
