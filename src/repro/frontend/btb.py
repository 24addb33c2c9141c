"""Branch target buffer.

A set-associative map from branch PC to predicted target.  Entries are
installed and replaced at branch *execution*, including on the wrong path,
and squash never reverts them — the paper's §3 demonstrates that this makes
the BTB a covert channel, and our :mod:`repro.attacks.spectre_btb` PoC
exercises precisely this structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.memory.replacement import LRUPolicy


class BTB:
    """Set-associative branch target buffer with LRU replacement."""

    def __init__(self, entries: int = 4096, assoc: int = 4):
        if entries % assoc:
            raise ValueError("BTB entries must divide evenly into ways")
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("BTB set count must be a power of two")
        self.assoc = assoc
        self._set_mask = self.num_sets - 1
        # Per set: pc -> target, plus way bookkeeping for LRU.
        self._targets: List[Dict[int, int]] = [
            dict() for _ in range(self.num_sets)
        ]
        self._ways: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._way_pc: List[Dict[int, int]] = [
            dict() for _ in range(self.num_sets)
        ]
        self._repl: List[LRUPolicy] = [
            LRUPolicy(assoc) for _ in range(self.num_sets)
        ]
        self.lookups = 0
        self.hits = 0
        self.updates = 0
        # Optional EventBus (repro.obs.bus), told of every install or
        # refresh as btb_update.
        self.obs = None

    def _index(self, pc: int) -> int:
        return pc & self._set_mask

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for the branch at *pc*, or None on miss."""
        self.lookups += 1
        index = self._index(pc)
        target = self._targets[index].get(pc)
        if target is not None:
            self.hits += 1
            self._repl[index].touch(self._ways[index][pc])
        return target

    def probe(self, pc: int) -> Optional[int]:
        """Non-destructive lookup (no stats, no LRU update)."""
        return self._targets[self._index(pc)].get(pc)

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the mapping ``pc -> target``.

        Called at branch execution for every taken or indirect branch,
        wrong-path included.
        """
        self.updates += 1
        obs = self.obs
        if obs is not None and obs.btb_update is not None:
            obs.btb_update(pc, target)
        index = self._index(pc)
        targets = self._targets[index]
        ways = self._ways[index]
        if pc in targets:
            targets[pc] = target
            self._repl[index].touch(ways[pc])
            return
        if len(targets) >= self.assoc:
            victim_way = self._repl[index].victim()
            victim_pc = self._way_pc[index].pop(victim_way)
            del targets[victim_pc]
            del ways[victim_pc]
            self._repl[index].forget(victim_way)
            way = victim_way
        else:
            used = set(ways.values())
            way = next(w for w in range(self.assoc) if w not in used)
        targets[pc] = target
        ways[pc] = way
        self._way_pc[index][way] = pc
        self._repl[index].touch(way)

    def invalidate(self, pc: int) -> bool:
        """Drop the entry for *pc*; True when one existed."""
        index = self._index(pc)
        if pc not in self._targets[index]:
            return False
        way = self._ways[index].pop(pc)
        del self._targets[index][pc]
        del self._way_pc[index][way]
        self._repl[index].forget(way)
        return True

    def flush(self) -> None:
        for index in range(self.num_sets):
            self._targets[index].clear()
            self._ways[index].clear()
            self._way_pc[index].clear()
            self._repl[index] = LRUPolicy(self.assoc)
