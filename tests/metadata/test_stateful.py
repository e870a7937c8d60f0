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

from repro.errors import TransactionAborted
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


def proposal(item_id: str, version: int, status: str, marker: int) -> ItemMetadata:
    return ItemMetadata(
        item_id=item_id,
        workspace_id="ws",
        version=version,
        filename=item_id.split(":")[-1],
        status="NEW" if version == 1 else status,
        size=marker,
        checksum=f"{marker:040x}",
        chunks=[f"{marker + 1:040x}"],
        device_id="d",
    )


class MetadataMachine(RuleBasedStateMachine):
    """Engine under test vs reference model (dict of lists).

    A proposal reaches the engine one of three ways — a bundle of one, or
    either singular call — and all three must agree with Algorithm 1 as
    the model states it: the proposal wins iff its version is
    ``current + 1``.  Subclasses pick the engine.
    """

    kind = "sqlite"

    @initialize()
    def setup(self):
        self.engine = make_metadata_backend(self.kind)
        self.engine.create_user("u")
        self.engine.create_workspace(Workspace(workspace_id="ws", owner="u"))
        self.model = {}  # item_id -> list of versions (marker ints)
        self.marker = 0

    def teardown(self):
        self.engine.close()

    def _check_loser(self, meta, current):
        """A losing outcome carries the model's winner (None: no item)."""
        markers = self.model.get(meta.item_id)
        if not markers:
            assert current is None
        else:
            assert (current.version, current.size) == (len(markers), markers[-1])

    @rule(
        item=st.sampled_from(ITEMS),
        version_offset=st.integers(min_value=0, max_value=2),  # only 1 is legal
        status=st.sampled_from(STATUSES),
        via=st.sampled_from(["bulk", "store_new_object", "store_new_version"]),
    )
    def propose(self, item, version_offset, status, via):
        version = len(self.model.get(item, [])) + version_offset
        if version < 1:  # not a constructible ItemMetadata
            return
        self.marker += 1
        meta = proposal(item, version, status, self.marker)
        wins = version_offset == 1
        if via == "bulk":
            ((committed, current),) = self.engine.store_versions_bulk([meta])
            assert committed == wins
            if wins:
                assert current is None
            else:
                self._check_loser(meta, current)
        else:
            # The singular calls are the bundle of one behind a guard on
            # which of the two a version may go through.
            wins = wins and (meta.version == 1) == (via == "store_new_object")
            try:
                getattr(self.engine, via)(meta)
                assert wins
            except TransactionAborted:
                assert not wins
        if wins:
            self.model.setdefault(item, []).append(meta.size)

    @rule(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ITEMS), st.integers(min_value=0, max_value=2)
            ),
            min_size=2,
            max_size=4,
        )
    )
    def propose_bundle(self, steps):
        """Later proposals of a bundle see the earlier ones' effects."""
        bundle, expected = [], []
        staged = {item: list(markers) for item, markers in self.model.items()}
        for item, version_offset in steps:
            version = len(staged.get(item, [])) + version_offset
            if version < 1:
                continue
            self.marker += 1
            bundle.append(proposal(item, version, STATUS_CHANGED, self.marker))
            expected.append(version_offset == 1)
            if version_offset == 1:
                staged.setdefault(item, []).append(self.marker)
        outcomes = self.engine.store_versions_bulk(bundle)
        assert [committed for committed, _ in outcomes] == expected
        self.model = staged

    @invariant()
    def current_versions_match(self):
        for item in ITEMS:
            current = self.engine.get_current(item)
            if item not in self.model:
                assert current is None
            else:
                assert current is not None
                assert current.version == len(self.model[item])
                assert current.size == self.model[item][-1]

    @invariant()
    def histories_match(self):
        for item, markers in self.model.items():
            history = self.engine.item_history(item)
            assert [m.version for m in history] == list(range(1, len(markers) + 1))
            assert [m.size for m in history] == markers


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

    def _both(self, operation):
        outcomes = []
        for engine in self.engines:
            try:
                operation(engine)
                outcomes.append("ok")
            except TransactionAborted:
                outcomes.append("abort")
        assert outcomes[0] == outcomes[1]

    @rule(item=st.sampled_from(ITEMS))
    def new_object(self, item):
        self.marker += 1
        meta = proposal(item, 1, STATUS_CHANGED, self.marker)
        self._both(lambda e: e.store_new_object(meta))

    @rule(item=st.sampled_from(ITEMS), version=st.integers(min_value=1, max_value=6))
    def new_version(self, item, version):
        self.marker += 1
        meta = proposal(item, version, STATUS_CHANGED, self.marker)
        self._both(lambda e: e.store_new_version(meta))

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
