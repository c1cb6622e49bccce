"""Rank and span computations on families of polynomials.

A polynomial's term dict is its row, keyed by monomial: `linalg` accepts
any totally ordered column key, and ranks and containment do not depend on
the column order.  All computations are exact via the integer echelon forms
in `linalg`.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import echelon_of, rank_of
from .polynomials import Poly


def span_rank(polys: Sequence[Poly]) -> int:
    return rank_of(p.terms for p in polys)


def rank_modulo(family: Sequence[Poly], modulus: Sequence[Poly]) -> int:
    """Rank of the family in the quotient by the span of `modulus`."""
    ech = echelon_of(p.terms for p in modulus)
    base = ech.rank
    for p in family:
        ech.insert(p.terms)
    return ech.rank - base
