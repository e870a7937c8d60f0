"""Fixtures shared by the MOM unit tests."""

from __future__ import annotations

import pytest

from repro.mom.queue import MessageQueue


@pytest.fixture
def queue():
    """A fresh queue named ``q``, closed (consumer threads stopped) after."""
    queue = MessageQueue("q")
    yield queue
    queue.close()
