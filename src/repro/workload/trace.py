"""The benchmark trace generator (§5.2.1).

"Our trace generator requires only 3 parameters: 1) initial number of
files; 2) number of training iterations; and 3) number of snapshots."

With the paper's parameters (20 initial files, 5 training iterations,
100 snapshots) the resulting trace has on the order of 940 ADDs, 72
UPDATEs and 228 REMOVEs, ≈535 MB of ADD volume and ≈14 KB of UPDATE
deltas, with an average file size of ≈583 KB (seed-dependent).

The trace is a flat list of :class:`TraceOp`; file *contents* are
materialized lazily through a :class:`~repro.workload.content.ContentStore`
during replay so that generating a trace stays cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.workload.content import ContentStore
from repro.workload.filesizes import FileSizeSampler
from repro.workload.markov import FileStateMarkov
from repro.workload.modifications import ModificationEngine

OP_ADD = "ADD"
OP_UPDATE = "UPDATE"
OP_REMOVE = "REMOVE"

#: Paper defaults for the §5.2 experiments.
PAPER_INITIAL_FILES = 20
PAPER_TRAINING_ITERATIONS = 5
PAPER_SNAPSHOTS = 100


@dataclass(frozen=True)
class TraceOp:
    """One operation of the replayable workload trace."""

    op: str
    path: str
    snapshot: int
    size: int = 0
    pattern: str = ""  # modification pattern for UPDATEs


@dataclass
class Trace:
    """A generated trace plus its summary statistics."""

    ops: List[TraceOp] = field(default_factory=list)
    seed: int = 0

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def count(self, op: str) -> int:
        return sum(1 for o in self.ops if o.op == op)

    @property
    def add_volume(self) -> int:
        """Total bytes introduced by ADD operations (the benchmark size)."""
        return sum(o.size for o in self.ops if o.op == OP_ADD)

    @property
    def mean_file_size(self) -> float:
        adds = [o.size for o in self.ops if o.op == OP_ADD]
        return sum(adds) / len(adds) if adds else 0.0

    def file_sizes(self) -> List[int]:
        """ADD sizes, the sample plotted as the CDF of Fig 7(a)."""
        return [o.size for o in self.ops if o.op == OP_ADD]

    def summary(self) -> Dict[str, float]:
        return {
            "ops": len(self.ops),
            "adds": self.count(OP_ADD),
            "updates": self.count(OP_UPDATE),
            "removes": self.count(OP_REMOVE),
            "add_volume_mb": self.add_volume / (1024 * 1024),
            "mean_file_size_kb": self.mean_file_size / 1024,
        }


class TraceGenerator:
    """Generates Personal-Cloud workload traces from the Markov model."""

    def __init__(
        self,
        initial_files: int = PAPER_INITIAL_FILES,
        training_iterations: int = PAPER_TRAINING_ITERATIONS,
        snapshots: int = PAPER_SNAPSHOTS,
        seed: int = 42,
        scale: float = 1.0,
    ):
        """
        Args:
            initial_files: Size of the seed population.
            training_iterations: Warm-up snapshots whose operations are
                not recorded (they only evolve the population).
            snapshots: Recorded snapshots.
            seed: Master RNG seed; a trace is fully reproducible from it.
            scale: Multiplier on file sizes (<1 shrinks the data volume
                while preserving every count and ratio — the benches use
                this to keep full-trace replays fast).
        """
        self.initial_files = initial_files
        self.training_iterations = training_iterations
        self.snapshots = snapshots
        self.seed = seed
        self.scale = scale

    def generate(self) -> Trace:
        master = random.Random(self.seed)
        markov = FileStateMarkov(rng=random.Random(master.getrandbits(64)))
        sizes = FileSizeSampler(rng=random.Random(master.getrandbits(64)))
        mods = ModificationEngine(rng=random.Random(master.getrandbits(64)))

        file_sizes: Dict[str, int] = {}
        ops: List[TraceOp] = []

        def scaled(size: int) -> int:
            return max(16, int(size * self.scale))

        # Seed population counts as ADDs in snapshot 0 of the recording.
        pending_initial = markov.seed_files(self.initial_files)

        # Training phase: evolve without recording.
        for _ in range(self.training_iterations):
            step = markov.step()
            for path in step["deleted"]:
                file_sizes.pop(path, None)
                if path in pending_initial:
                    pending_initial.remove(path)
            for path in step["added"]:
                pending_initial.append(path)

        # Record the survivors of training as the initial ADD burst.
        for path in pending_initial:
            size = scaled(sizes.sample())
            file_sizes[path] = size
            ops.append(TraceOp(op=OP_ADD, path=path, snapshot=0, size=size))

        for snapshot in range(1, self.snapshots + 1):
            step = markov.step()
            for path in step["added"]:
                size = scaled(sizes.sample())
                file_sizes[path] = size
                ops.append(TraceOp(op=OP_ADD, path=path, snapshot=snapshot, size=size))
            for path in step["modified"]:
                size = file_sizes.get(path, 0)
                if not ModificationEngine.eligible(int(size / max(self.scale, 1e-9))):
                    # Paper: modifications only on files < 4 MB.
                    continue
                pattern = mods.sample_pattern()
                ops.append(
                    TraceOp(
                        op=OP_UPDATE,
                        path=path,
                        snapshot=snapshot,
                        size=size,
                        pattern=pattern,
                    )
                )
            for path in step["deleted"]:
                if path in file_sizes:
                    ops.append(
                        TraceOp(op=OP_REMOVE, path=path, snapshot=snapshot)
                    )
                    del file_sizes[path]

        return Trace(ops=ops, seed=self.seed)


class TraceReplayer:
    """Materializes trace operations into concrete file contents.

    Drives a :class:`ContentStore` so that every consumer (StackSync
    client, Dropbox baseline, provider profiles) replays byte-identical
    contents for fair traffic comparisons.
    """

    def __init__(
        self,
        trace: Trace,
        mod_seed: Optional[int] = None,
        compressible_fraction: Optional[float] = None,
    ):
        self.trace = trace
        self.content = ContentStore(
            seed=trace.seed, compressible_fraction=compressible_fraction
        )
        self._mods = ModificationEngine(
            rng=random.Random(mod_seed if mod_seed is not None else trace.seed ^ 0xABCD)
        )

    def materialize(self, op: TraceOp) -> Optional[bytes]:
        """Produce the post-operation content for *op* (None for REMOVE)."""
        if op.op == OP_ADD:
            return self.content.create(op.path, op.size)
        if op.op == OP_UPDATE:
            if not self.content.exists(op.path):
                # UPDATE on a file this replay never saw (e.g. filtered
                # sub-trace): treat as an ADD of the recorded size.
                return self.content.create(op.path, op.size)
            new_content, _ = self._mods.apply(
                self.content.get(op.path), op.pattern or None
            )
            self.content.set(op.path, new_content)
            return new_content
        if op.op == OP_REMOVE:
            self.content.delete(op.path)
            return None
        raise ValueError(f"unknown trace op {op.op!r}")
