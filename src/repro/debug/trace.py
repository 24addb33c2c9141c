"""Pipeline tracing: per-instruction lifecycle records and ASCII charts.

Attach a :class:`PipelineTracer` to a core and every retired or squashed
dynamic instruction is recorded with its fetch / dispatch / issue /
complete / broadcast / retire cycles — the raw material for debugging
scheduler behaviour and for *seeing* NDA's deferred wake-ups:

    core = OutOfOrderCore(program, config)
    tracer = PipelineTracer.attach(core, limit=200)
    core.run()
    print(tracer.render())

In the chart, each instruction is one row; NDA shows up as a widening gap
between ``C`` (complete) and ``B`` (broadcast).

The tracer is an :class:`~repro.obs.bus.EventBus` subscriber: records
are sourced from the bus's ``instr_retire`` / ``instr_squash`` events
(plus ``load_validate`` / ``load_expose`` for InvisiSpec and
``inorder_step`` for the in-order core), not from ad-hoc core pokes.
:meth:`PipelineTracer.attach` wires that up; records also convert
directly to Perfetto spans via
:func:`repro.obs.perfetto.lifecycle_trace_events`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.rob import DynInstr


@dataclass
class TraceRecord:
    """Lifecycle of one dynamic instruction."""

    seq: int
    pc: int
    disasm: str
    fetch: int
    dispatch: int
    issue: int
    complete: int
    broadcast: int
    retire: int
    squashed: bool
    #: InvisiSpec visibility cycles (-1 when the scheme never fired).
    validate: int = -1
    expose: int = -1

    @property
    def wakeup_delay(self) -> int:
        """Cycles the result sat completed-but-unbroadcast (NDA's deferral)."""
        if self.broadcast < 0 or self.complete < 0:
            return 0
        return self.broadcast - self.complete


class PipelineTracer:
    """Collects TraceRecords from a core via the telemetry event bus."""

    def __init__(self, limit: int = 1_000, include_squashed: bool = True):
        self.limit = limit
        self.include_squashed = include_squashed
        self.records: List[TraceRecord] = []
        self._validates: Dict[int, int] = {}
        self._exposes: Dict[int, int] = {}
        self._inorder_seq = 0

    @classmethod
    def attach(
        cls, core, limit: int = 1_000, include_squashed: bool = True,
    ) -> "PipelineTracer":
        """Subscribe a new tracer on *core*'s event bus (attaching a bus
        first if the core has none).  Works for both core classes."""
        from repro.obs.bus import ensure_bus

        tracer = cls(limit=limit, include_squashed=include_squashed)
        ensure_bus(core).subscribe(tracer)
        return tracer

    # Event-bus subscriber methods. ------------------------------------- #

    def instr_retire(self, entry: DynInstr, now: int) -> None:
        self._record(entry, now, squashed=False)

    def instr_squash(self, entry: DynInstr, now: int) -> None:
        if self.include_squashed:
            self._record(entry, now, squashed=True)
        else:
            self._validates.pop(entry.seq, None)
            self._exposes.pop(entry.seq, None)

    def load_validate(self, entry: DynInstr, now: int, latency: int) -> None:
        self._validates[entry.seq] = now

    def load_expose(self, entry: DynInstr, now: int) -> None:
        self._exposes[entry.seq] = now

    def inorder_step(self, pc: int, instr, start_cycle: int,
                     end_cycle: int) -> None:
        """One fully executed in-order instruction: fetch at the step's
        first cycle, retirement at its last."""
        if len(self.records) >= self.limit:
            return
        self.records.append(TraceRecord(
            seq=self._inorder_seq,
            pc=pc,
            disasm=repr(instr),
            fetch=start_cycle,
            dispatch=-1,
            issue=-1,
            complete=-1,
            broadcast=-1,
            retire=max(end_cycle - 1, start_cycle),
            squashed=False,
        ))
        self._inorder_seq += 1

    def _record(self, entry: DynInstr, now: int, squashed: bool) -> None:
        validate = self._validates.pop(entry.seq, -1)
        expose = self._exposes.pop(entry.seq, -1)
        if len(self.records) >= self.limit:
            return
        self.records.append(TraceRecord(
            seq=entry.seq,
            pc=entry.pc,
            disasm=repr(entry.instr),
            fetch=entry.fetched.fetch_cycle,
            dispatch=entry.dispatch_cycle,
            issue=entry.issue_cycle,
            complete=entry.complete_cycle,
            broadcast=entry.bcast_cycle,
            retire=now if not squashed else -1,
            squashed=squashed,
            validate=validate,
            expose=expose,
        ))

    # Reporting. --------------------------------------------------------- #

    def mean_wakeup_delay(self) -> float:
        """Average complete-to-broadcast gap over retired instructions."""
        delays = [
            r.wakeup_delay for r in self.records
            if not r.squashed and r.broadcast >= 0
        ]
        return sum(delays) / len(delays) if delays else 0.0

    def render(self, width: int = 64) -> str:
        """ASCII pipeline chart: one row per instruction.

        Stage letters: F fetch, D dispatch, I issue, C complete,
        B broadcast, R retire; ``x`` marks squashed instructions,
        ``=`` fills complete-to-broadcast deferral.
        """
        if not self.records:
            return "(no trace records)"
        start = min(r.fetch for r in self.records if r.fetch >= 0)
        lines = ["cycle offset from %d; one column per cycle" % start]
        for record in self.records:
            events = [
                ("F", record.fetch), ("D", record.dispatch),
                ("I", record.issue), ("C", record.complete),
                ("B", record.broadcast), ("R", record.retire),
            ]
            chart = {}
            for letter, cycle in events:
                if cycle is None or cycle < 0:
                    continue
                offset = cycle - start
                if 0 <= offset < width:
                    chart[offset] = letter
            if record.complete >= 0 and record.broadcast > record.complete:
                for offset in range(record.complete - start + 1,
                                    min(record.broadcast - start, width)):
                    chart.setdefault(offset, "=")
            row = "".join(chart.get(i, ".") for i in range(width))
            marker = "x" if record.squashed else " "
            lines.append(
                "%5d%s |%s| %s" % (record.seq, marker, row, record.disasm)
            )
        return "\n".join(lines)

    def to_tsv(self) -> str:
        """Machine-readable dump (one line per instruction)."""
        lines = ["seq\tpc\tfetch\tdispatch\tissue\tcomplete\tbroadcast"
                 "\tretire\tsquashed\tdisasm"]
        for r in self.records:
            lines.append(
                "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s"
                % (r.seq, r.pc, r.fetch, r.dispatch, r.issue, r.complete,
                   r.broadcast, r.retire, int(r.squashed), r.disasm)
            )
        return "\n".join(lines)
