"""Flow-level simulation: exact link loads under a routing scheme.

At the flow level a routing scheme plus a traffic matrix determine every
link's load in closed form; the "simulation" is a vectorized evaluation.
Metrics follow Section 3.2: maximum link load (MLOAD), the optimal load
(OLOAD, computed exactly via Lemma 1 + Theorem 1) and performance ratios.
"""

from repro.flow.loads import link_loads, permutation_mloads
from repro.flow.metrics import (
    max_link_load,
    ml_lower_bound,
    optimal_load,
    performance_ratio,
    permutation_optimal_load,
)
from repro.flow.simulator import FlowResult, FlowSimulator
from repro.flow.sampling import PermutationStudy, PermutationStudyResult

__all__ = [
    "link_loads",
    "permutation_mloads",
    "max_link_load",
    "ml_lower_bound",
    "optimal_load",
    "performance_ratio",
    "permutation_optimal_load",
    "FlowSimulator",
    "FlowResult",
    "PermutationStudy",
    "PermutationStudyResult",
]
