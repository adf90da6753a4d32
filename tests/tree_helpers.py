"""Tree helpers only the tests need: deep copies of AST nodes, and
structural equality of whole programs.

The tool itself never copies a subtree whole, since programs share every
node an edit does not touch; tests use these to build fully unshared
programs to compare against.
"""

from perfloc.lang.ast import AstNode, Program, structurally_equal


def clone(node: AstNode) -> AstNode:
    """A deep copy of ``node``'s subtree that shares no node with it."""
    return node.copy_with([clone(c) for c in node.children])


def subtree(program: Program, node_id: int) -> AstNode:
    """A detached deep copy of the subtree at ``node_id``."""
    return clone(program.nodes[node_id])


def unshared(program: Program) -> Program:
    """``program`` rebuilt from deep copies of its functions."""
    return Program([clone(f) for f in program.functions])



def programs_equal(a: Program, b: Program) -> bool:
    """Whether the two programs' functions are structurally equal."""
    if len(a.functions) != len(b.functions):
        return False
    return all(structurally_equal(x, y)
               for x, y in zip(a.functions, b.functions))
