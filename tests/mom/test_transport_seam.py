"""The ``MomTransport`` contract lists exactly the calls ObjectMQ makes.

Every member of the contract is one more call a new transport has to
carry and the conformance suite has to run, so a member that ObjectMQ no
longer calls should go, and a call ObjectMQ starts making must be
declared.  The calls are read from the source: every ``<x>.mom.<name>``
or ``mom.<name>`` attribute in ``repro.objectmq``.
"""

from __future__ import annotations

import ast
import pathlib

import repro.objectmq
from repro.mom.transport import MomTransport


def _mom_calls():
    package = pathlib.Path(repro.objectmq.__file__).parent
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "mom") or (
                isinstance(owner, ast.Attribute) and owner.attr == "mom"
            ):
                names.add(node.attr)
    return names


def _declared():
    return {
        name
        for name, member in vars(MomTransport).items()
        if callable(member) and not name.startswith("_")
    }


def test_the_contract_is_exactly_what_objectmq_calls():
    # ``close`` is the owner's call: whoever made the transport closes it.
    assert _mom_calls() | {"close"} == _declared() == {
        "declare_queue",
        "delete_queue",
        "declare_exchange",
        "bind_queue",
        "unbind_queue",
        "exchange_has_bindings",
        "publish",
        "consume",
        "cancel",
        "ack_many",
        "queue_stats",
        "close",
    }
