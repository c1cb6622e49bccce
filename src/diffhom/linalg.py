"""Exact linear algebra over the rationals with sparse integer rows.

Rows are dicts mapping column key -> nonzero integer, kept primitive
(content 1).  A column key is usually an index but may be any totally
ordered hashable (an exponent tuple, a (grade, tuple) pair); pivot order
follows key order, so the pivot of a row is its smallest key.  Elimination
is fraction-free: to cancel column c of row r against pivot row p one forms
r*p[c] - p*r[c] and strips the content, so no Fraction arithmetic happens
in the hot loop.

The Echelon container maintains a reduced row echelon form incrementally.
Because the RREF of a row space is unique, the resulting pivot rows (primitive,
positive pivot entries) are canonical: independent of insertion order, machine
and platform.  Null spaces derived from it are therefore deterministic,
which the golden-file tests rely on.

A linear operator enters as the images of its columns: `image_rows` turns
"column i maps to the sparse vector images[i]" into one constraint row per
output key, so the kernel of those rows is the kernel of the operator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

Row = dict  # dict[key, int], primitive


def int_row(row: Mapping[int, object]) -> Row:
    """Convert a sparse row with int/Fraction values to a primitive int row."""
    items = [(c, v) for c, v in row.items() if v]
    if not items:
        return {}
    denom = 1
    for _, v in items:
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {}
    for c, v in items:
        out[c] = int(v * denom) if isinstance(v, Fraction) else v * denom
    return _strip_content(out)


def _strip_content(row: Row) -> Row:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Incrementally maintained reduced row echelon form."""

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Mapping[int, object]) -> Row:
        """Fully reduce a row against the current pivot rows.

        Pivot rows have no entries in other pivot columns, so one pass over
        the pivot columns present in the row suffices.
        """
        r = int_row(row)
        for c in sorted(c for c in r if c in self.pivots):
            coeff = r.get(c)
            if not coeff:
                continue
            p = self.pivots[c]
            lead = p[c]
            g = gcd(coeff, lead)
            mr, mp = lead // g, coeff // g
            for cc, vv in p.items():
                s = r.get(cc, 0) * mr - vv * mp
                if s:
                    r[cc] = s
                else:
                    r.pop(cc, None)
            # remaining entries of r were scaled by mr
            for cc in list(r):
                if cc not in p:
                    r[cc] = r[cc] * mr
        return _strip_content(r)

    def insert(self, row: Mapping[int, object]) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        c = min(r)
        if r[c] < 0:
            r = {cc: -vv for cc, vv in r.items()}
        # back-reduce existing rows that still mention the new pivot column
        for pc, p in self.pivots.items():
            coeff = p.get(c)
            if not coeff:
                continue
            lead = r[c]
            g = gcd(coeff, lead)
            mp, mr = lead // g, coeff // g
            new_p = {}
            for cc in set(p) | set(r):
                s = p.get(cc, 0) * mp - r.get(cc, 0) * mr
                if s:
                    new_p[cc] = s
            new_p = _strip_content(new_p)
            if new_p[pc] < 0:
                new_p = {cc: -vv for cc, vv in new_p.items()}
            self.pivots[pc] = new_p
        self.pivots[c] = r
        return c

    def extend(self, rows: Iterable[Mapping[int, object]]) -> "Echelon":
        for row in rows:
            self.insert(row)
        return self

    def contains(self, row: Mapping[int, object]) -> bool:
        """True iff the row lies in the span of the inserted rows."""
        return not self.reduce(row)


def image_rows(images: Iterable[Mapping[object, object]]) -> list[dict]:
    """Constraint rows of the map sending column i to the sparse dict images[i].

    One row per output key, in order of first appearance, mapping each
    column index to that column's coefficient at the key.
    """
    rows: dict = {}
    for i, image in enumerate(images):
        for out, c in image.items():
            rows.setdefault(out, {})[i] = c
    return list(rows.values())


def echelon_of(rows: Iterable[Mapping[int, object]]) -> Echelon:
    return Echelon().extend(rows)


def rank_of(rows: Iterable[Mapping[int, object]]) -> int:
    return echelon_of(rows).rank


def nullspace(rows: Iterable[Mapping[int, object]], ncols: int) -> list[Row]:
    """Canonical kernel basis of the linear map given by constraint rows.

    Returns one primitive integer vector per free column, ordered by the
    free column index, with a positive entry at the free column.  This is
    the reduced-echelon kernel basis, hence deterministic.
    """
    ech = echelon_of(rows)
    piv = ech.pivots
    basis: list[Row] = []
    for f in range(ncols):
        if f in piv:
            continue
        entries = {f: Fraction(1)}
        for pc, p in piv.items():
            v = p.get(f)
            if v:
                entries[pc] = Fraction(-v, p[pc])
        basis.append(int_row(entries))
    return basis
