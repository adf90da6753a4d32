"""Tree helpers only the tests need: deep copies of AST nodes.

The tool itself never copies a subtree whole, since programs share every
node an edit does not touch; tests use these to build fully unshared
programs to compare against.
"""

from perfloc.lang.ast import AstNode, Program


def clone(node: AstNode) -> AstNode:
    """A deep copy of ``node``'s subtree that shares no node with it."""
    return node.copy_with([clone(c) for c in node.children])


def subtree(program: Program, node_id: int) -> AstNode:
    """A detached deep copy of the subtree at ``node_id``."""
    return clone(program.nodes[node_id])


def unshared(program: Program) -> Program:
    """``program`` rebuilt from deep copies of its functions."""
    return Program([clone(f) for f in program.functions])

