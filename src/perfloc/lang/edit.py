"""Tree surgery used by the localisation techniques.

Every edit returns a new program and leaves its input and any donor
untouched. Nodes are never written, so the new program is persistent in the
sense of path copying (Driscoll et al., "Making data structures persistent",
JCSS 1989): it rebuilds only the edited node's ancestors, shares every other
subtree with its input (and the donor itself, uncloned), and is indexed once.
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


def statement_ids(program: Program) -> list[int]:
    """Ids of all statement nodes in breadth-first order, outermost first."""
    return [i for i, n in enumerate(program.nodes)
            if n.kind in STATEMENT_KINDS]


def _substitute(program: Program, node_id: int,
                replacement: Optional[AstNode]) -> Program:
    """Copy of ``program`` with node ``node_id`` swapped for
    ``replacement``, which is used as given. A ``None`` replacement drops
    the node from its parent, keeping an If's then-branch count right.
    Each ancestor finds the edited child by its position, never by
    identity, since one node object may stand at several ids."""
    nodes, parent, first = program.nodes, program.parent, program.first
    edited, i = replacement, node_id
    while parent[i] >= 0:
        p = parent[i]
        pos = i - first[p]
        old = nodes[p]
        children = list(old.children)
        copy = old.copy_with(children)
        if edited is not None:
            children[pos] = edited
        else:
            del children[pos]
            if old.kind == KIND_IF and 1 <= pos <= old.then_count:
                copy.then_count -= 1
        edited, i = copy, p
    functions = list(program.functions)
    functions[i] = edited  # function k is node k
    return Program(functions)


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
    parent = program.parent[block_id]
    if target.kind != KIND_BLOCK or parent < 0 or \
            program.nodes[parent].kind != KIND_FUNCTION:
        raise NotAStatement(f"node {block_id} is not a function body")
    return _substitute(program, block_id, target.copy_with([]))


def replace_node(program: Program, node_id: int, donor: AstNode) -> Program:
    """Put ``donor`` itself, shared and not copied, where the subtree at
    ``node_id`` stood. The donor must be of the same syntactic category as
    the target."""
    target = program.nodes[node_id]
    if CATEGORY[target.kind] != CATEGORY[donor.kind]:
        raise CategoryMismatch(
            f"cannot put a {CATEGORY[donor.kind]} where a "
            f"{CATEGORY[target.kind]} was")
    return _substitute(program, node_id, donor)
