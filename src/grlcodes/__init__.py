"""Exact-arithmetic toolkit for generalized Roth-Lempel (GRL) codes.

Builds GRL codes over odd-characteristic finite fields, decides their
Euclidean/Hermitian LCD and hull properties, classifies them as
MDS/AMDS/NMDS, certifies non-GRS structure, and derives
entanglement-assisted quantum code parameters.
"""

__version__ = "0.1.0"
