"""Exact-arithmetic verification toolkit for twisted differential forms on
projective space: cohomology dimension formulas, Koszul-kernel section
bases, the elementary-transformation display, maximal-rank evaluation
certificates, and Horace induction bookkeeping."""

__version__ = "0.1.0"
