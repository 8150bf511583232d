"""Communication-metered protocols for distributed PAC learning.

Players hold their own distributions over a shared domain; protocols learn
a hypothesis that is accurate on the uniform mixture while a cost ledger
meters every bit, example, and hypothesis that crosses the channel.
"""

from .channel import BROADCAST, CENTER, CostLedger
from .core import (Box, Concept, Conjunction, DecisionListFunc,
                   DistributionSpec, IntervalUnion, LinearSeparator,
                   ParityFunc, ProtocolResult, Sample, draw_sample,
                   measure_errors, sample_error, stream)

__all__ = [
    "BROADCAST", "CENTER", "CostLedger",
    "Box", "Concept", "Conjunction", "DecisionListFunc", "DistributionSpec",
    "IntervalUnion", "LinearSeparator", "ParityFunc", "ProtocolResult",
    "Sample", "draw_sample", "measure_errors", "sample_error", "stream",
]

__version__ = "0.1.0"
