"""The ``MetadataBackend`` contract lists exactly the calls its callers make.

Every member of the contract is one more call that each engine (memory,
SQLite, sharded) has to carry, so a member nothing calls should go, and a
call a caller starts making must be declared.  The calls are read from the
source: every ``metadata.<name>`` or ``<x>.metadata.<name>`` attribute in
``repro`` outside ``repro.metadata``, in ``examples`` and in ``benchmarks``.
The client and the commit notification also name an item ``metadata``;
what they read of it is an item's attribute, not a call on the DAO.
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.metadata import MetadataBackend
from repro.sync.models import ItemMetadata

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _sources():
    package = pathlib.Path(repro.__file__).parent
    for path in package.rglob("*.py"):
        if path.relative_to(package).parts[0] != "metadata":
            yield path
    for folder in ("examples", "benchmarks"):
        yield from (ROOT / folder).rglob("*.py")


def _metadata_calls():
    names = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "metadata") or (
                isinstance(owner, ast.Attribute) and owner.attr == "metadata"
            ):
                names.add(node.attr)
    return names - set(dir(ItemMetadata))


def _declared():
    return {
        name
        for name, member in vars(MetadataBackend).items()
        if callable(member) and not name.startswith("_")
    }


def test_the_contract_is_exactly_what_its_callers_use():
    # ``counts`` is read inside the package: the sharded engine reports each
    # shard's counts as its ``metadata_shard_*`` series.
    assert _metadata_calls() | {"counts"} == _declared() == {
        "create_user",
        "create_workspace",
        "grant_access",
        "workspaces_for",
        "workspace_exists",
        "store_versions_bulk",
        "get_workspace_state",
        "item_history",
        "counts",
        "close",
    }
