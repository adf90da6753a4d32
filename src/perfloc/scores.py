"""Per-node localisation scores, shared by all four techniques.

Values are exact rationals so rank ties are decided by true equality, never
by float rounding; reports convert to float only when writing CSV.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

SOURCE_PROFILER = "Profiler"
SOURCE_DELETION = "Deletion"
SOURCE_EXHAUSTIVE = "Exhaustive"
SOURCE_COMBINED = "Combined"


class NodeScore(NamedTuple):
    node: int
    value: Fraction
    n_reduced: int
    n_compiled: int
    source: str
    gap_filled: bool = False


class AnalysisCost(NamedTuple):
    """Bookkeeping for the cost-of-analysis comparison."""
    variants_generated: int
    compiled: int
    executed: int
    evaluations: int
