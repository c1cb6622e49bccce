"""Rank and span computations on families of polynomials.

Polynomials are vectorized over the sorted union of their monomials; all
computations are exact via the integer echelon forms in `linalg`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .linalg import echelon_of, rank_of
from .polynomials import Poly, mono_sort_key


def monomial_columns(polys: Iterable[Poly]) -> dict:
    """Map each monomial occurring in the family to a column index."""
    monos = sorted({m for p in polys for m in p.terms}, key=mono_sort_key)
    return {m: i for i, m in enumerate(monos)}


def poly_row(p: Poly, columns: dict) -> dict:
    return {columns[m]: c for m, c in p.terms.items()}


def span_rank(polys: Sequence[Poly]) -> int:
    columns = monomial_columns(polys)
    return rank_of(poly_row(p, columns) for p in polys)


def in_span(p: Poly, polys: Sequence[Poly]) -> bool:
    columns = monomial_columns(list(polys) + [p])
    ech = echelon_of(poly_row(q, columns) for q in polys)
    return ech.contains(poly_row(p, columns))


def spans_equal(family_a: Sequence[Poly], family_b: Sequence[Poly]) -> bool:
    columns = monomial_columns(list(family_a) + list(family_b))
    ech_a = echelon_of(poly_row(p, columns) for p in family_a)
    ech_b = echelon_of(poly_row(p, columns) for p in family_b)
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains(poly_row(p, columns)) for p in family_b)


def rank_modulo(family: Sequence[Poly], modulus: Sequence[Poly]) -> int:
    """Rank of the family in the quotient by the span of `modulus`."""
    columns = monomial_columns(list(family) + list(modulus))
    ech = echelon_of(poly_row(p, columns) for p in modulus)
    base = ech.rank
    for p in family:
        ech.insert(poly_row(p, columns))
    return ech.rank - base
