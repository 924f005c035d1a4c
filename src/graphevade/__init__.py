"""Black-box evasion attacks on graph-kernel loop-closure classifiers."""

from .graph_core import InapplicableFlip, ParseError, SchemaError
from .perturb import BudgetExceedsPairs
from .learners import DegenerateData, DegenerateLabels
from .target_lcd import QueryBudgetExhausted
from .synth_data import InvalidConfig
from .bench_stats import TooFewBlocks

__version__ = "0.1.0"
