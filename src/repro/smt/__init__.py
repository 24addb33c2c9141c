"""Two-hardware-context co-residency model (SMT / shared-L2).

Two programs run co-resident and share microarchitectural state:

* ``sharing="smt"`` — one physical core, statically partitioned: each
  context gets half the fetch/issue/commit width, ROB, IQ, LQ/SQ, and
  functional units, while the BTB, RAS, direction predictor, and the
  whole L1/L2 hierarchy are shared.  A round-robin arbiter rotates which
  context's pipeline phases run first each cycle.
* ``sharing="l2"`` — two full private cores (private L1s, BTB, RAS,
  predictors) sharing one L2 cache.

Both modes share main memory, which is architecturally coherent (caches
model timing only), so the contexts can synchronize through flag words.
Select via ``SimConfig(num_contexts=2, sharing=...)`` and drive with
:class:`SmtMachine`, which builds one :class:`~repro.core.FastOoOCore`
per context; the single-context path is untouched and stays
bit-identical to the golden files.
"""

from repro.smt.machine import (
    SharedState,
    SmtMachine,
    context_config,
    partitioned_core_config,
    run_pair,
)

__all__ = [
    "SharedState",
    "SmtMachine",
    "context_config",
    "partitioned_core_config",
    "run_pair",
]
