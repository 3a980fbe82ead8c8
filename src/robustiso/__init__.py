"""Additive approximation for graph edit distance and QAP under bounded VC
dimension, plus Weisfeiler-Leman-based robust graph isomorphism.

The root binds only the value types; every other name is imported from its
module: `approx` (GED and QAP), `wl` (robust isomorphism), `setsystems` (VC
dimension), `graphs`, `qap`, `generators` and `simplex`.
"""

from .graphs import Assignment, Graph
from .qap import QapInstance

__version__ = "0.1.0"
