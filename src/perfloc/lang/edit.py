"""Tree surgery used by the localisation techniques.

Every edit returns a new program and leaves its input and any donor
untouched; the new program shares no node with either. It is built by one
copy that skips the subtree it drops, and is indexed once.
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    AstNode, Program, CATEGORY, STATEMENT_KINDS,
    KIND_FUNCTION, KIND_BLOCK, KIND_IF,
)


class NotAStatement(ValueError):
    pass


class CategoryMismatch(ValueError):
    pass


def statement_nodes(program: Program) -> list[AstNode]:
    """All statement nodes in id (breadth-first) order, outermost first."""
    return [n for n in program.nodes if n.kind in STATEMENT_KINDS]


def _substitute(program: Program, node_id: int,
                replacement: Optional[AstNode]) -> Program:
    """Copy of ``program`` with node ``node_id`` swapped for
    ``replacement``, which is used as given. A ``None`` replacement drops
    the node from its parent, keeping an If's then-branch count right.
    Only the ancestors of ``node_id`` are rebuilt child by child; every
    other subtree is cloned whole."""
    ancestors = set()
    pid = program.nodes[node_id].parent_id
    while pid >= 0:
        ancestors.add(pid)
        pid = program.nodes[pid].parent_id

    def copy(node: AstNode) -> AstNode:
        if node.node_id == node_id:
            return replacement
        if node.node_id not in ancestors:
            return node.clone()
        children = []
        then_count = node.then_count
        for pos, child in enumerate(node.children):
            if child.node_id != node_id or replacement is not None:
                children.append(copy(child))
            elif node.kind == KIND_IF and 1 <= pos <= node.then_count:
                then_count -= 1
        edited = node.copy_with(children)
        edited.then_count = then_count
        return edited

    return Program([copy(f) for f in program.functions])


def delete_statement(program: Program, node_id: int) -> Program:
    """Remove the statement with ``node_id``. Function bodies cannot be
    detached (every function keeps a body); use ``empty_function_body`` for
    that case."""
    target = program.nodes[node_id]
    if target.kind not in STATEMENT_KINDS or target.kind == KIND_BLOCK:
        raise NotAStatement(f"node {node_id} is a {target.kind}")
    return _substitute(program, node_id, None)


def empty_function_body(program: Program, block_id: int) -> Program:
    """The deletion counterpart for a function body: keep the Block, drop
    everything inside it."""
    target = program.nodes[block_id]
    parent = program.parent(block_id)
    if target.kind != KIND_BLOCK or parent is None or \
            parent.kind != KIND_FUNCTION:
        raise NotAStatement(f"node {block_id} is not a function body")
    return _substitute(program, block_id, target.copy_with([]))


def replace_node(program: Program, node_id: int, donor: AstNode) -> Program:
    """Swap the subtree at ``node_id`` for a clone of ``donor``. The donor
    must be of the same syntactic category as the target."""
    target = program.nodes[node_id]
    if CATEGORY[target.kind] != CATEGORY[donor.kind]:
        raise CategoryMismatch(
            f"cannot put a {CATEGORY[donor.kind]} where a "
            f"{CATEGORY[target.kind]} was")
    return _substitute(program, node_id, donor.clone())


def subtree(program: Program, node_id: int) -> AstNode:
    """Detached copy of the subtree rooted at ``node_id``."""
    return program.nodes[node_id].clone()
