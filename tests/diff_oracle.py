"""The AST diff as it stood before its branch and bound: every candidate
move computed in full, one recursive call per statement of a block. Kept
out of ``src`` as the oracle the exact pruned diff in ``perfloc.corpus``
must match on every pair; ``scripts/diff_parity.py`` and
``tests/test_corpus.py`` compare the two.

It recurses once per statement, so callers that give it long blocks
raise the recursion limit first.
"""

from perfloc.lang.ast import Program, structurally_equal


# AST diff -----------------------------------------------------------------
#
# A flag set is an int over the original's n nodes, node i at bit n - 1 - i,
# so union is |, size is bit_count() and a lower id is a higher bit.

def _rank(flags: int) -> tuple[int, int]:
    """Fewer nodes first, then the set holding the lowest differing id:
    a total order, so the least candidate never depends on their order."""
    return flags.bit_count(), -flags


class _Aligner:
    """One diff's tables and memo. Ids index the two programs' tables;
    ``sub[i]`` is the flag set of original node i's subtree. One memo
    serves both aligners: ``align`` keys are pairs, ``align_seq`` keys
    4-tuples. Nothing refers back to the aligner, so its memo is freed as
    soon as the diff returns rather than at the next cyclic collection."""

    def __init__(self, original: Program, improved: Program):
        self.o_nodes, self.o_first = original.nodes, original.first
        self.m_nodes, self.m_first = improved.nodes, improved.first
        n = len(self.o_nodes)
        sub = [0] * n
        # breadth-first ids: every child's id is above its parent's
        for i in range(n - 1, -1, -1):
            flags = 1 << (n - 1 - i)
            f = self.o_first[i]
            for c in range(f, f + len(self.o_nodes[i].children)):
                flags |= sub[c]
            sub[i] = flags
        self.sub = sub
        self.memo: dict[tuple[int, ...], int] = {}

    def align(self, oi: int, mi: int) -> int:
        """The least flag set aligning original node ``oi`` with improved
        node ``mi``."""
        key = (oi, mi)
        memo = self.memo
        if key not in memo:
            o, m = self.o_nodes[oi], self.m_nodes[mi]
            if o.structural_hash() == m.structural_hash() and \
                    structurally_equal(o, m):
                memo[key] = 0  # the empty set ranks below every other
                return 0
            sub = self.sub
            whole = sub[oi]
            own = 1 << (len(sub) - 1 - oi)
            candidates = [whole]
            if o.kind == m.kind and o.payload() == m.payload():
                candidates.append(self.align_seq(oi, mi, 0, 0))
            of, mf = self.o_first[oi], self.m_first[mi]
            candidates.extend(whole & ~sub[c] | self.align(c, mi)
                              for c in range(of, of + len(o.children)))
            candidates.extend(own | self.align(oi, c)
                              for c in range(mf, mf + len(m.children)))
            memo[key] = min(candidates, key=_rank)
        return memo[key]

    def align_seq(self, oi: int, mi: int, i: int, j: int) -> int:
        """The least flag set aligning the children of original node ``oi``
        from position ``i`` on with those of improved node ``mi`` from
        position ``j`` on."""
        key = (oi, mi, i, j)
        memo = self.memo
        if key not in memo:
            more_o = i < len(self.o_nodes[oi].children)
            more_m = j < len(self.m_nodes[mi].children)
            oc, mc = self.o_first[oi] + i, self.m_first[mi] + j
            candidates = []
            if more_o and more_m:
                candidates.append(self.align(oc, mc)
                                  | self.align_seq(oi, mi, i + 1, j + 1))
            if more_o:
                candidates.append(self.sub[oc]
                                  | self.align_seq(oi, mi, i + 1, j))
            if more_m:
                # an insertion has no original node, so it flags the parent
                candidates.append(1 << (len(self.sub) - 1 - oi)
                                  | self.align_seq(oi, mi, i, j + 1))
            memo[key] = min(candidates, key=_rank) if candidates else 0
        return memo[key]


def diff_improvement_nodes(original: Program,
                           improved: Program) -> frozenset[int]:
    aligner = _Aligner(original, improved)
    sub = aligner.sub
    n = len(sub)
    flags = 0
    for k in range(len(original.functions)):  # function k is node k
        if k < len(improved.functions):
            flags |= aligner.align(k, k)
        else:
            flags |= sub[k]
    return frozenset(i for i in range(n) if flags >> (n - 1 - i) & 1)
