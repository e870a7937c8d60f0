"""Filesystem abstractions the desktop client synchronizes.

Two interchangeable implementations:

* :class:`VirtualFilesystem` — an in-memory path→bytes map used by the
  benchmarks and simulations (deterministic, no disk I/O);
* :class:`DirectoryFilesystem` — a real directory on disk, used by the
  runnable examples so a user can watch actual folders converge.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Protocol, Tuple


class Filesystem(Protocol):
    """Minimal surface the Watcher/Indexer need."""

    def write(self, path: str, data: bytes) -> None: ...

    def read(self, path: str) -> bytes: ...

    def delete(self, path: str) -> None: ...

    def list_paths(self) -> List[str]: ...

    def stat(self, path: str) -> Tuple[int, float]:
        """Return (size, mtime)."""
        ...


class VirtualFilesystem:
    """In-memory filesystem with mtimes, safe for concurrent use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._files: Dict[str, bytes] = {}
        self._mtimes: Dict[str, float] = {}

    def write(self, path: str, data: bytes) -> None:
        with self._lock:
            self._files[path] = bytes(data)
            self._mtimes[path] = time.time()

    def read(self, path: str) -> bytes:
        with self._lock:
            try:
                return self._files[path]
            except KeyError:
                raise FileNotFoundError(path) from None

    def delete(self, path: str) -> None:
        with self._lock:
            self._files.pop(path, None)
            self._mtimes.pop(path, None)

    def list_paths(self) -> List[str]:
        with self._lock:
            return sorted(self._files)

    def stat(self, path: str) -> Tuple[int, float]:
        with self._lock:
            try:
                return len(self._files[path]), self._mtimes[path]
            except KeyError:
                raise FileNotFoundError(path) from None


class DirectoryFilesystem:
    """A real directory; paths are relative, nested dirs created on demand."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _full(self, path: str) -> str:
        full = os.path.normpath(os.path.join(self.root, path))
        if not full.startswith(self.root):
            raise ValueError(f"path {path!r} escapes the workspace root")
        return full

    def write(self, path: str, data: bytes) -> None:
        full = self._full(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(data)

    def read(self, path: str) -> bytes:
        with open(self._full(path), "rb") as fh:
            return fh.read()

    def delete(self, path: str) -> None:
        full = self._full(path)
        if os.path.exists(full):
            os.remove(full)

    def list_paths(self) -> List[str]:
        paths = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                paths.append(os.path.relpath(full, self.root))
        return sorted(paths)

    def stat(self, path: str) -> Tuple[int, float]:
        st = os.stat(self._full(path))
        return st.st_size, st.st_mtime
