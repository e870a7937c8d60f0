"""Tests for the filesystem abstractions and the polling Watcher."""

from __future__ import annotations

import pytest

from repro.client import DirectoryFilesystem, PollingWatcher, VirtualFilesystem
from repro.client.watcher import EVENT_ADD, EVENT_REMOVE, EVENT_UPDATE


@pytest.fixture(params=["virtual", "directory"])
def fs(request, tmp_path):
    if request.param == "virtual":
        return VirtualFilesystem()
    return DirectoryFilesystem(str(tmp_path / "root"))


def test_fs_write_read_delete(fs):
    fs.write("dir/file.txt", b"hello")
    assert "dir/file.txt" in fs.list_paths()
    assert fs.read("dir/file.txt") == b"hello"
    size, mtime = fs.stat("dir/file.txt")
    assert size == 5 and mtime > 0
    fs.delete("dir/file.txt")
    assert "dir/file.txt" not in fs.list_paths()


def test_fs_list_paths_sorted(fs):
    fs.write("b.txt", b"2")
    fs.write("a.txt", b"1")
    paths = fs.list_paths()
    assert sorted(paths) == paths
    assert set(paths) == {"a.txt", "b.txt"}


def test_fs_read_missing_raises(fs):
    with pytest.raises(FileNotFoundError):
        fs.read("nope")


def test_directory_fs_blocks_escape(tmp_path):
    fs = DirectoryFilesystem(str(tmp_path / "root"))
    with pytest.raises(ValueError):
        fs.write("../outside.txt", b"x")


def test_watcher_detects_add_update_remove():
    fs = VirtualFilesystem()
    watcher = PollingWatcher(fs)
    watcher.prime()

    fs.write("new.txt", b"v1")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [(EVENT_ADD, "new.txt")]

    fs.write("new.txt", b"v2-longer")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [(EVENT_UPDATE, "new.txt")]

    fs.delete("new.txt")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [(EVENT_REMOVE, "new.txt")]


def test_watcher_no_spurious_events():
    fs = VirtualFilesystem()
    fs.write("stable.txt", b"same")
    watcher = PollingWatcher(fs)
    watcher.prime()
    assert watcher.scan_once() == []
    assert watcher.scan_once() == []


def test_watcher_ignore_suppresses_one_event():
    """Self-inflicted writes (applying a remote change) must not echo."""
    fs = VirtualFilesystem()
    watcher = PollingWatcher(fs)
    watcher.prime()
    fs.write("remote.txt", b"from-server")
    watcher.ignore("remote.txt")  # contract: ignore *after* the write
    assert watcher.scan_once() == []
    # Only that write is suppressed; later local edits surface.
    fs.write("remote.txt", b"local-edit!!")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [(EVENT_UPDATE, "remote.txt")]


def test_watcher_ignore_does_not_swallow_racing_user_edit():
    """A user edit landing before the next scan must still be reported.

    The suppression compares the file's stat against the snapshot taken
    at ignore() time, so a subsequent edit (different size) survives.
    """
    fs = VirtualFilesystem()
    watcher = PollingWatcher(fs)
    watcher.prime()
    fs.write("doc.txt", b"applied-from-server")
    watcher.ignore("doc.txt")
    # The user edits *before* the watcher ever scans.
    fs.write("doc.txt", b"user edit on top, different size")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [(EVENT_ADD, "doc.txt")]


def test_watcher_ignore_deletion():
    fs = VirtualFilesystem()
    fs.write("gone.txt", b"x")
    watcher = PollingWatcher(fs)
    watcher.prime()
    fs.delete("gone.txt")
    watcher.ignore("gone.txt")  # remote deletion applied locally
    assert watcher.scan_once() == []
    # Re-creating the file afterwards is a fresh, reportable event.
    fs.write("gone.txt", b"back")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [(EVENT_ADD, "gone.txt")]


def test_watcher_callback_invoked():
    fs = VirtualFilesystem()
    seen = []
    watcher = PollingWatcher(fs, on_event=seen.append)
    watcher.prime()
    fs.write("x.txt", b"1")
    watcher.scan_once()
    assert len(seen) == 1 and seen[0].kind == EVENT_ADD


def test_watcher_multiple_changes_in_one_scan():
    fs = VirtualFilesystem()
    fs.write("old.txt", b"1")
    watcher = PollingWatcher(fs)
    watcher.prime()
    fs.write("a.txt", b"1")
    fs.write("b.txt", b"2")
    fs.delete("old.txt")
    events = watcher.scan_once()
    kinds = {(e.kind, e.path) for e in events}
    assert kinds == {
        (EVENT_ADD, "a.txt"),
        (EVENT_ADD, "b.txt"),
        (EVENT_REMOVE, "old.txt"),
    }
