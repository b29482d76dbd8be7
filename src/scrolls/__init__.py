"""Exact and numerical verification tools for abelian scrolls in projective space."""

__version__ = "0.1.0"
