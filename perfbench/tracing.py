"""Spans around the public entry points of each ``repro`` layer.

The benchmark records spans from its own files: :meth:`Recorder.install`
rebinds each entry point in :func:`boundaries` to a wrapper, and
:meth:`Recorder.uninstall` puts the originals back.  No program code
changes.  Module functions are rebound wherever a loaded ``repro``
module holds them (``from x import f`` copies the name), methods on
their class.

Spans (name, id, parent, pid, start, end, attrs) stay in memory.  Jobs
run in forked pool workers, which inherit the wrappers and the benchmark
process's open spans; a worker appends its spans to
``<spool>/<pid>.jsonl`` when each job ends, and :meth:`Recorder.collect`
gathers them in the benchmark process.  Times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans from
different processes share one clock.

Two sets of boundaries exist.  A traced call wraps all of them; an
untraced call wraps only the ``counted`` ones, which carry the simulated
instruction counts that the fuzz workloads' outputs do not report.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Spans whose self time is simulation stepping.
STEP_SPANS = ("core.step", "fuzz.oracle_step", "smt.step")

#: Simulated counters copied from a core's stats onto its step span.
SIM_COUNTERS = ("cycles", "committed", "deferred_broadcasts", "validations")


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: *owner*'s attribute *attr*."""

    name: str
    owner: object
    attr: str
    attrs: Optional[Callable] = None
    #: Flush worker spans when this call returns (one job ended).
    job: bool = False
    #: Also wrapped in untraced calls.
    counted: bool = False


def _call_key(recorder, args, kwargs, result) -> dict:
    return {"key": repr((args, sorted(kwargs.items())))}


def _store_hit(recorder, args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _remember_core(recorder, args, kwargs, result) -> dict:
    recorder.last_core = result
    return {}


def _remember_self(recorder, args, kwargs, result) -> dict:
    recorder.last_core = args[0]
    return {}


def _stats_counts(stats) -> dict:
    return {name: getattr(stats, name) for name in SIM_COUNTERS}


def _window_counts(recorder, args, kwargs, result) -> dict:
    # run_window returns only the measured window; the whole job's
    # counters are on the core it built.
    core = recorder.last_core
    counts = _stats_counts(core.stats)
    counts.update(cycles=core.cycle, committed=core.committed)
    return counts


def _oracle_counts(recorder, args, kwargs, result) -> dict:
    outcome, _witnesses = result
    return _stats_counts(outcome.stats)


def _smt_counts(recorder, args, kwargs, result) -> dict:
    totals = dict.fromkeys(SIM_COUNTERS, 0)
    for outcome in result:
        for name, value in _stats_counts(outcome.stats).items():
            totals[name] += value
    return totals


def boundaries() -> List[Boundary]:
    """Every wrapped entry point, by layer."""
    import repro.core
    from repro.core.inorder import InOrderCore
    from repro.engine import scheduler, store
    from repro.engine.jobs import SimJob
    from repro.fuzz import campaign, taint
    from repro.fuzz import generator as fuzz_generator
    from repro.harness import experiment
    from repro.isa import microops
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.smt.machine import SmtMachine
    from repro.stats import sampling
    from repro.workloads import generator as workload_generator

    return [
        Boundary("harness.suite", experiment, "run_suite"),
        Boundary("harness.campaign", campaign, "run_campaign"),
        Boundary("engine.run_jobs", scheduler, "run_jobs"),
        Boundary("engine.job", SimJob, "execute", job=True, counted=True),
        Boundary("engine.job", campaign.FuzzJob, "execute",
                 job=True, counted=True),
        Boundary("engine.job", campaign.SmtFuzzJob, "execute",
                 job=True, counted=True),
        Boundary("engine.store_load", store.ShardedDiskStore, "load",
                 attrs=_store_hit),
        Boundary("engine.store_put", store.ShardedDiskStore, "store"),
        Boundary("workloads.generate", workload_generator, "spec_program",
                 attrs=_call_key),
        Boundary("fuzz.generate", fuzz_generator, "generate",
                 attrs=_call_key),
        Boundary("fuzz.generate", fuzz_generator, "generate_smt",
                 attrs=_call_key),
        Boundary("isa.lower", microops, "lower_program"),
        Boundary("core.build", repro.core, "make_core",
                 attrs=_remember_core),
        Boundary("core.build", InOrderCore, "__init__",
                 attrs=_remember_self),
        Boundary("memory.build", MemoryHierarchy, "__init__"),
        Boundary("core.step", sampling, "run_window", attrs=_window_counts),
        Boundary("fuzz.oracle_step", taint, "run_with_oracle",
                 attrs=_oracle_counts, counted=True),
        Boundary("smt.build", SmtMachine, "__init__"),
        Boundary("smt.step", SmtMachine, "run", attrs=_smt_counts,
                 counted=True),
    ]


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's name for *original* at
    *replacement*."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Recorder:
    """Span recorder for one benchmark call (see the module docstring)."""

    def __init__(self, spool: Path, traced: bool) -> None:
        self.spool = Path(spool)
        self.traced = traced
        self.main_pid = os.getpid()
        self.owner = self.main_pid
        self.records: List[dict] = []
        self.stack: List[str] = []
        self.serial = 0
        self.last_core = None
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------- #

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != recorder.owner:
                # Forked worker: finished spans belong to the parent.
                recorder.owner = pid
                recorder.records = []
            recorder.serial += 1
            span = {
                "name": boundary.name,
                "id": "%d:%d" % (pid, recorder.serial),
                "parent": recorder.stack[-1] if recorder.stack else None,
                "pid": pid,
                "start": time.perf_counter(),
            }
            recorder.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._close(boundary, span, {"error": True})
                raise
            recorder._close(boundary, span, None, args, kwargs, result)
            return result

        return wrapper

    def _close(self, boundary, span, attrs, *call) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if attrs is None:
            attrs = boundary.attrs(self, *call) if boundary.attrs else {}
        span["attrs"] = attrs
        self.records.append(span)
        if boundary.job:
            self.flush()

    def flush(self) -> None:
        """In a worker, append the finished spans to the spool file."""
        if os.getpid() == self.main_pid or not self.records:
            return
        path = self.spool / ("%d.jsonl" % os.getpid())
        with open(path, "a") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        self.records = []

    def collect(self) -> List[dict]:
        """All spans of the call: this process's plus the spooled ones."""
        spans, self.records = self.records, []
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle)
            path.unlink()
        return spans

    # -- installation ------------------------------------------------- #

    def install(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        for boundary in boundaries():
            if not (self.traced or boundary.counted):
                continue
            original = getattr(boundary.owner, boundary.attr)
            wrapper = self._wrap(boundary, original)
            if isinstance(boundary.owner, type):
                setattr(boundary.owner, boundary.attr, wrapper)
                self._undo.append(functools.partial(
                    setattr, boundary.owner, boundary.attr, original,
                ))
            else:
                _rebind(original, wrapper)
                self._undo.append(functools.partial(
                    _rebind, wrapper, original,
                ))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ---------------------------------------------------------------------- #
# Analysis.
# ---------------------------------------------------------------------- #


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover.

    Children may run in other processes and overlap one another (pool
    workers under ``engine.run_jobs``), so coverage is the
    union of the child intervals clipped to the parent.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(span["id"], ())
            if min(end, e) > max(start, s)
        ]
        result[span["id"]] = (end - start) - _covered(clipped)
    return result


def self_time_table(spans: Sequence[dict]) -> Dict[str, Tuple[int, float]]:
    """Span name -> (span count, total self seconds)."""
    selfs = self_times(spans)
    table: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, seconds = table.get(span["name"], (0, 0.0))
        table[span["name"]] = (count + 1, seconds + selfs[span["id"]])
    return table


def layer_metrics(spans: Sequence[dict], workers: int) -> Dict[str, float]:
    """The per-layer metrics of one traced call."""
    selfs = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_s(name: str) -> float:
        return sum(selfs[span["id"]] for span in by_name[name])

    names = {span["id"]: span["name"] for span in spans}

    def outermost(name: str) -> List[dict]:
        # generate_smt calls generate: count the job-level call once.
        return [
            span for span in by_name[name]
            if names.get(span["parent"]) != name
        ]

    def calls(name: str) -> int:
        return len(outermost(name))

    def distinct_ratio(name: str) -> float:
        keys = {span["attrs"].get("key") for span in outermost(name)}
        return len(keys) / calls(name) if calls(name) else 0.0

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    sim = dict.fromkeys(SIM_COUNTERS, 0)
    for name in STEP_SPANS:
        for span in by_name[name]:
            for counter in SIM_COUNTERS:
                sim[counter] += span["attrs"].get(counter, 0)
    stepping_s = sum(self_s(name) for name in STEP_SPANS)
    loads = by_name["engine.store_load"]
    busy = sum(duration(span) for span in by_name["engine.job"])
    run_jobs_s = sum(duration(span) for span in by_name["engine.run_jobs"])
    assemble_s = 0.0
    for name in ("harness.suite", "harness.campaign"):
        for span in by_name[name]:
            ends = [
                child["end"] for child in by_name["engine.run_jobs"]
                if child["parent"] == span["id"]
            ]
            assemble_s += span["end"] - max(ends, default=span["start"])
    return {
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.generate_calls": calls("workloads.generate"),
        "workloads.distinct_ratio": distinct_ratio("workloads.generate"),
        "fuzz.generate_s": self_s("fuzz.generate"),
        "fuzz.generate_calls": calls("fuzz.generate"),
        "fuzz.distinct_ratio": distinct_ratio("fuzz.generate"),
        "fuzz.oracle_step_s": self_s("fuzz.oracle_step"),
        "isa.lower_s": self_s("isa.lower"),
        "isa.lower_calls": calls("isa.lower"),
        "memory.build_s": self_s("memory.build"),
        "memory.build_calls": calls("memory.build"),
        "core.build_s": self_s("core.build"),
        "core.build_calls": calls("core.build"),
        "core.step_s": self_s("core.step"),
        "core.step_kcycles_per_s": (
            sim["cycles"] / 1000.0 / stepping_s if stepping_s else 0.0
        ),
        "core.sim_cycles": sim["cycles"],
        "core.sim_committed": sim["committed"],
        "nda.deferred_broadcasts": sim["deferred_broadcasts"],
        "invisispec.validations": sim["validations"],
        "smt.build_s": self_s("smt.build"),
        "smt.step_s": self_s("smt.step"),
        "engine.store_put_s": self_s("engine.store_put"),
        "engine.store_puts": calls("engine.store_put"),
        "engine.store_hit_ratio": (
            sum(span["attrs"].get("hit", False) for span in loads)
            / len(loads)
            if loads else 0.0
        ),
        "engine.worker_busy_s": busy,
        "engine.worker_idle_s": workers * run_jobs_s - busy,
        "harness.assemble_s": assemble_s,
    }


def sim_committed(spans: Sequence[dict]) -> int:
    """Committed instructions over every step span of a call."""
    return sum(
        span["attrs"].get("committed", 0)
        for span in spans if span["name"] in STEP_SPANS
    )


def chrome_trace(spans: Sequence[dict], main_pid: int) -> dict:
    """Chrome/Perfetto trace-event form of *spans* (``X`` events);
    *main_pid* is the benchmark process's pid."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = []
    for pid in sorted({span["pid"] for span in spans}):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid,
            "args": {"name": "benchmark" if pid == main_pid else "worker"},
        })
    for span in spans:
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "pid": span["pid"],
            "tid": span["pid"],
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": dict(span["attrs"], id=span["id"], parent=span["parent"]),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
