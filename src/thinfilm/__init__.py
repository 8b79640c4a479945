"""Numerical laboratory for the stability of receding thin-film waves."""

from .grid import GridFunction, LogGrid, NormSpec, d_derivative, \
    extract_coefficients, weighted_norm
from .polyops import CoefficientVector, PolynomialOperator, eval_poly, \
    integrate_coefficients, monomial_action, shifted_pair, symbol_pair

__all__ = [
    "GridFunction", "LogGrid", "NormSpec", "d_derivative",
    "extract_coefficients", "weighted_norm",
    "CoefficientVector", "PolynomialOperator", "eval_poly",
    "integrate_coefficients", "monomial_action", "shifted_pair", "symbol_pair",
]
