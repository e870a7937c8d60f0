"""Workload generation: Markov file traces (§5.2.1) and UB1 arrivals (§5.3.1)."""

from repro.workload.content import ContentStore, generate_content
from repro.workload.filesizes import (
    FileSizeSampler,
    PAPER_MEAN_SIZE,
    PAPER_P90_BOUND,
)
from repro.workload.markov import (
    FileStateMarkov,
    HOMES_ARRIVALS_PER_SNAPSHOT,
    HOMES_TRANSITIONS,
    STATE_DELETED,
    STATE_MODIFIED,
    STATE_NEW,
    STATE_UNMODIFIED,
)
from repro.workload.modifications import (
    HOMES_PATTERN_PROBABILITIES,
    MODIFICATION_SIZE_LIMIT,
    ModificationEngine,
)
from repro.workload.trace import (
    OP_ADD,
    OP_REMOVE,
    OP_UPDATE,
    PAPER_INITIAL_FILES,
    PAPER_SNAPSHOTS,
    PAPER_TRAINING_ITERATIONS,
    Trace,
    TraceGenerator,
    TraceOp,
    TraceReplayer,
)
from repro.workload.ubuntuone import (
    PAPER_PEAK_PER_MINUTE,
    UB1Config,
    UbuntuOneTraceGenerator,
)

__all__ = [
    "HOMES_ARRIVALS_PER_SNAPSHOT",
    "HOMES_PATTERN_PROBABILITIES",
    "HOMES_TRANSITIONS",
    "MODIFICATION_SIZE_LIMIT",
    "OP_ADD",
    "OP_REMOVE",
    "OP_UPDATE",
    "PAPER_INITIAL_FILES",
    "PAPER_MEAN_SIZE",
    "PAPER_P90_BOUND",
    "PAPER_PEAK_PER_MINUTE",
    "PAPER_SNAPSHOTS",
    "PAPER_TRAINING_ITERATIONS",
    "STATE_DELETED",
    "STATE_MODIFIED",
    "STATE_NEW",
    "STATE_UNMODIFIED",
    "ContentStore",
    "FileSizeSampler",
    "FileStateMarkov",
    "ModificationEngine",
    "Trace",
    "TraceGenerator",
    "TraceOp",
    "TraceReplayer",
    "UB1Config",
    "UbuntuOneTraceGenerator",
    "generate_content",
]
