"""Stateful property tests: every metadata engine vs a reference model.

Hypothesis drives random operation sequences against an engine (memory,
SQLite, and both sharded composites) and a trivially-correct in-Python
model simultaneously; any divergence in results, errors, or final state
is a bug in the engine (or in the contract).  This is the strongest
guarantee we have that the back-ends are interchangeable under
ObjectMQ's concurrency patterns.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.metadata import MemoryMetadataBackend, SqliteMetadataBackend
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    ItemMetadata,
    Workspace,
)
from tests.conftest import make_metadata_backend

ITEMS = [f"ws:item{i}" for i in range(4)]
STATUSES = [STATUS_CHANGED, STATUS_DELETED]
#: What a proposal holds besides its marker, so that every field a stored
#: version keeps is round-tripped: the number of chunks, the digests' width,
#: is_folder, the device, what is added to the size and to modified_at.
SHAPES = st.tuples(
    st.sampled_from([0, 1, 3]),
    st.sampled_from([20, 32]),
    st.booleans(),
    st.sampled_from(["d", "laptop-2"]),
    st.sampled_from([0, 2**32, 2**40 + 7]),
    st.sampled_from([0.0, 0.25, 0.123456789]),
)
PLAIN = (1, 20, False, "d", 0, 0.0)


def proposal(
    item_id: str, version: int, status: str, marker: int, shape=PLAIN
) -> ItemMetadata:
    """A version unique to *marker*; a DELETED one has an empty checksum."""
    chunks, width, is_folder, device, more_size, fraction = shape
    status = "NEW" if version == 1 else status
    return ItemMetadata(
        item_id=item_id,
        workspace_id="ws",
        version=version,
        filename=item_id.split(":")[-1],
        status=status,
        is_folder=is_folder,
        size=marker + more_size,
        checksum=b"" if status == STATUS_DELETED else marker.to_bytes(width, "big"),
        chunks=tuple((marker * 4 + c).to_bytes(width, "big") for c in range(chunks)),
        modified_at=marker + fraction,
        device_id=device,
    )


class MetadataMachine(RuleBasedStateMachine):
    """Engine under test vs reference model (dict of lists).

    A proposal reaches the engine as the service sends it, in a bundle, and
    must agree with Algorithm 1 as the model states it: the proposal wins
    iff its version is ``current + 1``.  Subclasses pick the engine.
    """

    kind = "sqlite"

    @initialize()
    def setup(self):
        self.engine = make_metadata_backend(self.kind)
        self.engine.create_user("u")
        self.engine.create_workspace(Workspace(workspace_id="ws", owner="u"))
        self.model = {}  # item_id -> list of the versions committed
        self.marker = 0

    def teardown(self):
        self.engine.close()

    def _check_loser(self, meta, current):
        """A losing outcome carries the model's winner (None: no item)."""
        versions = self.model.get(meta.item_id)
        if not versions:
            assert current is None
        else:
            assert current == versions[-1]

    @rule(
        item=st.sampled_from(ITEMS),
        version_offset=st.integers(min_value=0, max_value=2),  # only 1 is legal
        status=st.sampled_from(STATUSES),
        shape=SHAPES,
    )
    def propose(self, item, version_offset, status, shape):
        version = len(self.model.get(item, [])) + version_offset
        if version < 1:  # not a constructible ItemMetadata
            return
        self.marker += 1
        meta = proposal(item, version, status, self.marker, shape)
        wins = version_offset == 1
        ((committed, current),) = self.engine.store_versions_bulk([meta])
        assert committed == wins
        if wins:
            assert current is None
            self.model.setdefault(item, []).append(meta)
        else:
            self._check_loser(meta, current)

    @rule(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ITEMS),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(STATUSES),
                SHAPES,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def propose_bundle(self, steps):
        """Later proposals of a bundle see the earlier ones' effects."""
        bundle, expected = [], []
        staged = {item: list(versions) for item, versions in self.model.items()}
        for item, version_offset, status, shape in steps:
            version = len(staged.get(item, [])) + version_offset
            if version < 1:
                continue
            self.marker += 1
            bundle.append(proposal(item, version, status, self.marker, shape))
            expected.append(version_offset == 1)
            if version_offset == 1:
                staged.setdefault(item, []).append(bundle[-1])
        outcomes = self.engine.store_versions_bulk(bundle)
        assert [committed for committed, _ in outcomes] == expected
        self.model = staged

    @invariant()
    def current_versions_match(self):
        for item in ITEMS:
            history = self.engine.item_history(item)
            if item not in self.model:
                assert history == []
            else:
                assert history[-1] == self.model[item][-1]

    @invariant()
    def histories_match(self):
        """Every field of every version, superseded ones too, comes back."""
        for item, versions in self.model.items():
            assert self.engine.item_history(item) == versions


def _machine_case(kind: str):
    machine = type(f"MetadataMachine[{kind}]", (MetadataMachine,), {"kind": kind})
    machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None
    )
    return machine.TestCase


TestMetadataStateful = _machine_case("sqlite")
TestMetadataStatefulMemory = _machine_case("memory")
TestMetadataStatefulSharded = _machine_case("sharded")
TestMetadataStatefulShardedSqlite = _machine_case("sharded-sqlite")


class EngineEquivalenceMachine(RuleBasedStateMachine):
    """Drive both engines with identical operations; outcomes must match."""

    @initialize()
    def setup(self):
        self.engines = [MemoryMetadataBackend(), SqliteMetadataBackend(":memory:")]
        for engine in self.engines:
            engine.create_user("u")
            engine.create_workspace(Workspace(workspace_id="ws", owner="u"))
        self.marker = 0

    def teardown(self):
        for engine in self.engines:
            engine.close()

    @rule(item=st.sampled_from(ITEMS), version=st.integers(min_value=1, max_value=6))
    def propose(self, item, version):
        self.marker += 1
        meta = proposal(item, version, STATUS_CHANGED, self.marker)
        mem, sql = (engine.store_versions_bulk([meta]) for engine in self.engines)
        assert mem == sql

    @invariant()
    def states_identical(self):
        mem, sql = self.engines
        assert mem.counts() == sql.counts()
        mem_state = [(m.item_id, m.version, m.size) for m in mem.get_workspace_state("ws")]
        sql_state = [(m.item_id, m.version, m.size) for m in sql.get_workspace_state("ws")]
        assert mem_state == sql_state


EngineEquivalenceMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestEngineEquivalence = EngineEquivalenceMachine.TestCase
