"""Exact engine for weighted perfect-matching generating functions."""

from .rational import FactoredRF, MultiPoly, RationalFunction, poly_factor
from .exprs import ParseError, parse
from .graphs import WeightedGraph, enumerate_matchings, oracle_mgf
from .aztec import (AztecInstance, PeriodMatrix, ZeroCellFactor, evaluate,
                    evaluate_factored, reduce_step, shuffle, to_graph)
from .cellular import CellularCompletion, complement, find_completion
from .families import FAMILY_NAMES, family_value
from .orbit import (OrbitReport, detect_proportional, detect_q_shift,
                    equivalence_reduce, recurrence_constant)

__all__ = [
    "FactoredRF", "MultiPoly", "RationalFunction", "poly_factor",
    "ParseError", "parse",
    "WeightedGraph", "enumerate_matchings", "oracle_mgf",
    "AztecInstance", "PeriodMatrix", "ZeroCellFactor", "evaluate",
    "evaluate_factored", "reduce_step", "shuffle", "to_graph",
    "CellularCompletion", "complement", "find_completion",
    "FAMILY_NAMES", "family_value",
    "OrbitReport", "detect_proportional", "detect_q_shift",
    "equivalence_reduce", "recurrence_constant",
]
