"""store_versions_bulk: single-transaction bundles, per-item conflicts."""

from __future__ import annotations

import pytest

from repro.sync.models import STATUS_CHANGED, STATUS_NEW, ItemMetadata, Workspace


def item(name, version, status=STATUS_NEW, device="dev-1"):
    return ItemMetadata(
        item_id=f"ws:{name}",
        workspace_id="ws",
        version=version,
        filename=name,
        status=status,
        size=4,
        checksum="c" * 40,
        chunks=["f1" * 20],
        modified_at=1.0,
        device_id=device,
    )


@pytest.fixture
def backend(metadata_backend):
    metadata_backend.create_user("alice")
    metadata_backend.create_workspace(Workspace(workspace_id="ws", owner="alice"))
    return metadata_backend


def test_bulk_commits_whole_bundle(backend):
    outcomes = backend.store_versions_bulk(
        [item("a.txt", 1), item("b.txt", 1), item("c.txt", 1)]
    )
    assert outcomes == [(True, None)] * 3
    assert backend.counts()["versions"] == 3


def test_bulk_conflict_is_isolated_per_item(backend):
    backend.store_versions_bulk([item("a.txt", 1)])
    # a.txt v1 again conflicts; its siblings must still commit.
    outcomes = backend.store_versions_bulk(
        [item("b.txt", 1), item("a.txt", 1, device="dev-2"), item("c.txt", 1)]
    )
    assert outcomes[0] == (True, None)
    committed, current = outcomes[1]
    assert not committed
    assert current.item_id == "ws:a.txt"
    assert current.version == 1
    assert current.device_id == "dev-1"  # first writer won
    assert outcomes[2] == (True, None)
    assert backend.counts()["versions"] == 3
    assert len(backend.item_history("ws:a.txt")) == 1


def test_bulk_sees_earlier_items_of_same_bundle(backend):
    outcomes = backend.store_versions_bulk(
        [item("a.txt", 1), item("a.txt", 2, status=STATUS_CHANGED)]
    )
    assert outcomes == [(True, None)] * 2
    assert backend.item_history("ws:a.txt")[-1].version == 2


def test_bulk_stale_update_reports_winner(backend):
    backend.store_versions_bulk([item("a.txt", 1), item("a.txt", 2, status=STATUS_CHANGED)])
    # A proposal based on v1 (proposing v2) lost to the committed v2.
    committed, current = backend.store_versions_bulk(
        [item("a.txt", 2, status=STATUS_CHANGED, device="dev-9")]
    )[0]
    assert not committed
    assert current.version == 2
    assert current.device_id == "dev-1"


def test_bulk_version_for_unknown_item_conflicts_with_no_winner(backend):
    committed, current = backend.store_versions_bulk(
        [item("ghost.txt", 4, status=STATUS_CHANGED)]
    )[0]
    assert not committed
    assert current is None
    assert backend.item_history("ws:ghost.txt") == []

