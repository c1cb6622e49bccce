"""Span containment and equality of polynomial families, for the tests.

A polynomial's term dict is its row, keyed by monomial, as in
`diffhom.spans`; the echelon forms of `diffhom.linalg` decide both exactly.
"""

from __future__ import annotations

from typing import Sequence

from diffhom.linalg import echelon_of
from diffhom.polynomials import Poly


def in_span(p: Poly, polys: Sequence[Poly]) -> bool:
    return echelon_of(q.terms for q in polys).contains(p.terms)


def spans_equal(family_a: Sequence[Poly], family_b: Sequence[Poly]) -> bool:
    ech_a = echelon_of(p.terms for p in family_a)
    ech_b = echelon_of(p.terms for p in family_b)
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains(p.terms) for p in family_b)
