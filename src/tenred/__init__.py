"""Exact reductions from polynomial systems to tensor and symmetric rank.

The pipeline: a 3-SAT formula encodes as a polynomial system; a system
induces an incomplete gadget matrix whose rank-3 completions correspond
to solutions; the matrix becomes an order-3 tensor whose rank encodes the
minimum completion rank; and any cubical tensor symmetrizes with an
exactly quantified increase in symmetric rank.  Every construction comes
with a verifiable witness, and brute-force oracles certify the reductions
on small instances.
"""

__version__ = "0.1.0"
