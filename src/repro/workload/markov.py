"""Markov file-state model (§5.2.1).

"In order to determine the action to be performed to a file, we applied
the Markov model proposed in [23].  In this model, each file can be in 4
possible states: N — new; M — modified; U — unmodified; and D — deleted."

The transition probabilities are taken from the *Homes* dataset of
Tarasov et al. [23] (the public trace "that most resembles the user
behavior in a Personal Cloud service").  The paper prints only the
resulting trace statistics, so the matrix below is calibrated to
reproduce them: with 20 initial files, 5 training iterations and 100
snapshots, the generated trace contains on the order of 940 ADDs, 72
UPDATEs and 228 REMOVEs (≈9.4 new files per snapshot; per-file
per-snapshot modify ≈ 0.002 and delete ≈ 0.006 over an average live
population of ≈375 files).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

STATE_NEW = "N"
STATE_MODIFIED = "M"
STATE_UNMODIFIED = "U"
STATE_DELETED = "D"

STATES = (STATE_NEW, STATE_MODIFIED, STATE_UNMODIFIED, STATE_DELETED)

#: Per-file transition probabilities calibrated to the paper's trace
#: statistics (rows sum to 1; D is absorbing).  A freshly created (N) or
#: freshly modified (M) file is slightly "hotter" than an old unmodified
#: one, following the observation in [16] that updated files tend to be
#: read/changed sooner rather than later.
HOMES_TRANSITIONS: Dict[str, Dict[str, float]] = {
    STATE_NEW: {
        STATE_UNMODIFIED: 0.984,
        STATE_MODIFIED: 0.006,
        STATE_DELETED: 0.010,
    },
    STATE_MODIFIED: {
        STATE_UNMODIFIED: 0.986,
        STATE_MODIFIED: 0.006,
        STATE_DELETED: 0.008,
    },
    STATE_UNMODIFIED: {
        STATE_UNMODIFIED: 0.9933,
        STATE_MODIFIED: 0.0019,
        STATE_DELETED: 0.0048,
    },
    STATE_DELETED: {STATE_DELETED: 1.0},
}

#: Mean number of new files arriving per snapshot (calibrated so the full
#: trace, including the seed population, totals ≈940 ADDs).
HOMES_ARRIVALS_PER_SNAPSHOT = 8.8


@dataclass
class FileState:
    """Trajectory bookkeeping for one file in the model."""

    path: str
    state: str
    versions: int = 1


class FileStateMarkov:
    """Evolves a population of files through the N/M/U/D state machine."""

    def __init__(
        self,
        transitions: Optional[Dict[str, Dict[str, float]]] = None,
        arrivals_per_snapshot: float = HOMES_ARRIVALS_PER_SNAPSHOT,
        rng: Optional[random.Random] = None,
    ):
        self.transitions = transitions if transitions is not None else HOMES_TRANSITIONS
        self._validate(self.transitions)
        self.arrivals_per_snapshot = arrivals_per_snapshot
        self._rng = rng if rng is not None else random.Random(23)
        self.files: Dict[str, FileState] = {}
        self._counter = 0

    @staticmethod
    def _validate(transitions: Dict[str, Dict[str, float]]) -> None:
        for state, row in transitions.items():
            if state not in STATES:
                raise ValueError(f"unknown state {state!r}")
            total = sum(row.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"row {state!r} sums to {total}, expected 1.0")
            for target in row:
                if target not in STATES:
                    raise ValueError(f"unknown target state {target!r}")

    # -- population management --------------------------------------------------

    def seed_files(self, count: int) -> List[str]:
        """Create the initial population (state N)."""
        return [self._create_file() for _ in range(count)]

    def _create_file(self) -> str:
        self._counter += 1
        path = f"file_{self._counter:05d}.dat"
        self.files[path] = FileState(path=path, state=STATE_NEW)
        return path

    def _sample_next(self, state: str) -> str:
        row = self.transitions[state]
        roll = self._rng.random()
        cumulative = 0.0
        for target, probability in row.items():
            cumulative += probability
            if roll < cumulative:
                return target
        return list(row)[-1]

    def _sample_arrivals(self) -> int:
        """Poisson(arrivals_per_snapshot) via Knuth's method (small λ)."""
        lam = self.arrivals_per_snapshot
        if lam <= 0:
            return 0
        limit = pow(2.718281828459045, -lam)
        count = 0
        product = self._rng.random()
        while product > limit:
            count += 1
            product *= self._rng.random()
        return count

    # -- evolution ------------------------------------------------------------------

    def step(self) -> Dict[str, List[str]]:
        """Advance one snapshot; returns {"added": [...], "modified": [...],
        "deleted": [...]} path lists."""
        added: List[str] = []
        modified: List[str] = []
        deleted: List[str] = []

        for file in list(self.files.values()):
            next_state = self._sample_next(file.state)
            if next_state == STATE_DELETED:
                deleted.append(file.path)
                del self.files[file.path]
            else:
                if next_state == STATE_MODIFIED:
                    modified.append(file.path)
                    file.versions += 1
                file.state = next_state

        for _ in range(self._sample_arrivals()):
            added.append(self._create_file())

        return {"added": added, "modified": modified, "deleted": deleted}
