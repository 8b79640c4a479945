"""Numerical laboratory for the stability of receding thin-film waves."""
