"""Verification toolkit for splitting-type stratifications of covers of
the projective line: exact bundle cohomology, stratum enumeration,
Chow-ring relation matrices, and graded quotient-ring checks."""

from . import chowsym, polynomial, splitbundle, strata, tautring

__all__ = ["chowsym", "cli", "polynomial", "splitbundle", "strata",
           "tautring"]
