"""Processor cores: the out-of-order pipelines and the in-order baseline."""

from typing import Optional

from repro.config import SimConfig
from repro.core.fastcore import FastFUPool, FastOoOCore
from repro.core.fu import FUPool
from repro.core.inorder import InOrderCore
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LSQ, LoadAction, LoadDecision
from repro.core.ooo import OutOfOrderCore
from repro.core.outcome import RunOutcome
from repro.core.rename import PhysRegFile, RenameTable
from repro.core.rob import ROB, DynInstr


def make_core(
    program,
    config: Optional[SimConfig] = None,
    *,
    direction_predictor: str = "tournament",
    fast_forward: bool = True,
) -> FastOoOCore:
    """Construct the single-context OoO core: a :class:`FastOoOCore`.

    The fast core is pinned bit-identical to the reference
    :class:`OutOfOrderCore` by the golden equivalence tests; only tests
    and simspeed's ``reference`` rows build the reference core, and they
    do so directly.  Two-context configs run through
    :class:`repro.smt.SmtMachine`.
    """
    from repro.errors import ConfigError

    config = (config or SimConfig()).validate()
    if config.num_contexts > 1:
        raise ConfigError(
            "make_core() builds single-context cores; two-context configs "
            "run through repro.smt.SmtMachine"
        )
    return FastOoOCore(
        program, config, direction_predictor=direction_predictor,
        fast_forward=fast_forward,
    )


__all__ = [
    "FastFUPool",
    "FastOoOCore",
    "FUPool",
    "InOrderCore",
    "IssueQueue",
    "LSQ",
    "LoadAction",
    "LoadDecision",
    "OutOfOrderCore",
    "RunOutcome",
    "PhysRegFile",
    "RenameTable",
    "ROB",
    "DynInstr",
    "make_core",
]
