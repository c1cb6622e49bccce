"""Exact linear algebra over the rationals with sparse integer rows.

Rows are dicts mapping column key -> nonzero integer, kept primitive
(content 1).  A column key is usually an index but may be any totally
ordered hashable (an exponent tuple, a (grade, tuple) pair); pivot order
follows key order, so the pivot of a row is its smallest key.  Elimination
is fraction-free: to cancel column c of row r against pivot row p one forms
r*p[c] - p*r[c] and strips the content, so no Fraction arithmetic happens
in the hot loop.

The Echelon container keeps a forward-only row echelon form: an inserted
row is reduced against the stored pivot rows, and stored rows are never
rewritten, so ranks and membership tests pay no back-substitution.  Reading
`pivots` builds the reduced row echelon form once and caches it until the
next insert.  Because the RREF of a row space is unique, its pivot rows
(primitive, positive pivot entries) are canonical: independent of insertion
order, machine and platform.  Null spaces derived from it are therefore
deterministic, which the golden-file tests rely on.  `leads` reads the pivot
columns found so far, in the order they were found, without building the
RREF; a caller that fills an Echelon row by row can consult them to skip rows
it knows to be dependent.
`rank_of` and `nullspace` take a batch of rows in any order and eliminate
them by descending smallest key, ties by descending largest key, which keeps
the forward echelon close to reduced (see `_descending_leads`).

`graded_kernels` is the one kernel engine of the library, and
`jets._multidegree_kernels` its one caller: the jet invariants, the
invariant tensors and the harmonic box kernel (the last two as the jets'
multilinear block, through `tensors._box_kernels`) all run on it.  The row
function returns only nonzero entries.  On each block of a graded
space on which commuting operators lower the grade, each by at least one,
it skips the rows that a syzygy criterion shows to be dependent and takes
one `nullspace` of the rest.  The criterion reads only the smallest keys of
the rows it kept in lower blocks, so it needs no elimination state.  The
harmonic quotient route ranks its own rows with `rank_of`, on purpose apart
from this engine, as the independent check of its kernels.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import filterfalse
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

Row = dict  # dict[key, int], primitive


def int_row(row: Mapping[int, object]) -> Row:
    """Convert a sparse row with int/Fraction values to a primitive int row."""
    out = {c: v for c, v in row.items() if v}
    if not all(type(v) is int for v in out.values()):
        denom = 1
        for v in out.values():
            if isinstance(v, Fraction):
                denom = lcm(denom, v.denominator)
        out = {
            c: int(v * denom) if isinstance(v, Fraction) else v * denom
            for c, v in out.items()
        }
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


def _eliminate(r: Row, rows: Mapping) -> Row:
    """Clear from r every column that is the pivot of one of rows.

    Each row of rows is primitive, pivots on its smallest key with a positive
    entry, and may reach into later pivot columns, so columns are taken in
    increasing key order from a heap as they enter r.  r is modified.
    """
    heap = [c for c in r if c in rows]
    heapify(heap)
    while heap:
        c = heappop(heap)
        coeff = r.get(c)
        if not coeff:
            continue
        p = rows[c]
        lead = p[c]
        g = gcd(coeff, lead)
        mr, mp = lead // g, coeff // g
        if mr != 1:
            for cc in r:
                r[cc] *= mr
        for cc, vv in p.items():
            s = r.get(cc, 0) - vv * mp
            if s:
                if cc not in r and cc in rows:
                    heappush(heap, cc)
                r[cc] = s
            else:
                del r[cc]
    return _strip_content(r)


class Echelon:
    """Forward-only row echelon form whose reduced form is built on read."""

    def __init__(self):
        # pivot column -> primitive row with its smallest key as a positive
        # pivot; known to be in reduced form while self._reduced is set
        self._rows: dict = {}
        self._reduced = True

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def leads(self):
        """Read-only view of the pivot columns, in the order they were found.

        The set of pivot columns is the set of smallest keys of the row space,
        whatever form the stored rows are in, so reading it builds no RREF.
        """
        return self._rows.keys()

    @property
    def pivots(self) -> dict:
        """The reduced row echelon form: pivot column -> primitive row.

        Each row is back-substituted once, in decreasing pivot order, against
        the later rows, which are already reduced; the result is cached until
        the next insert.  Keys stay in the order their pivots were found.
        """
        if not self._reduced:
            rows = self._rows
            done: dict = {}
            for c in sorted(rows, reverse=True):
                done[c] = _eliminate(dict(rows[c]), done)
            self._rows = {c: done[c] for c in rows}
            self._reduced = True
        return self._rows

    def reduce(self, row: Mapping[int, object]) -> Row:
        """Reduce a row against the stored pivot rows.

        The result has no entry in any pivot column; it is empty exactly
        when the row lies in the span of the inserted rows.  The row is
        copied once, without its zeros; `int_row` clears denominators only
        when a value is not an int, and the content is stripped at the end.
        """
        r = {}
        for c, v in row.items():
            if v:
                if type(v) is not int:
                    return _eliminate(int_row(row), self._rows)
                r[c] = v
        return _eliminate(r, self._rows)

    def insert(self, row: Mapping[int, object]) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        c = min(r)
        if r[c] < 0:
            r = {cc: -vv for cc, vv in r.items()}
        self._rows[c] = r
        self._reduced = False
        return c

    def extend(self, rows: Iterable[Mapping[int, object]]) -> "Echelon":
        for row in rows:
            self.insert(row)
        return self

    def contains(self, row: Mapping[int, object]) -> bool:
        """True iff the row lies in the span of the inserted rows."""
        return not self.reduce(row)


def echelon_of(rows: Iterable[Mapping[int, object]]) -> Echelon:
    return Echelon().extend(rows)


def _descending_leads(rows: Iterable[Mapping[int, object]]) -> list:
    """The nonempty rows, by smallest key descending, ties by largest key descending.

    The order in which `rank_of` and `nullspace` eliminate a batch.  Each
    stored pivot then lies at or above the incoming row's smallest key, and
    a stored row has no entry left of its own pivot.  So a row whose
    smallest key is new becomes a pivot there that no stored row reaches
    into: the forward echelon stays reduced, and only a row reduced past a
    smallest key it shares with an earlier row can leave back-substitution
    for `pivots`.  Two stable sorts give the order without a key tuple per
    row.
    """
    ordered = sorted((row for row in rows if row), key=max, reverse=True)
    ordered.sort(key=min, reverse=True)
    return ordered


def rank_of(rows: Iterable[Mapping[int, object]]) -> int:
    """Rank of the rows, which may come in any order (see `_descending_leads`)."""
    return echelon_of(_descending_leads(rows)).rank


def nullspace(rows: Iterable[Mapping[int, object]], ncols: int) -> list[Row]:
    """Canonical kernel basis of the linear map given by constraint rows.

    Returns one primitive integer vector per free column, ordered by the
    free column index, with a positive entry at the free column.  This is
    the reduced-echelon kernel basis, hence deterministic, whatever order
    the rows come in.  They are eliminated in the order of
    `_descending_leads`, largest smallest key first; the order changes only
    the cost.  Counted as the row entries `_eliminate` updates or rescales,
    shortest-first (ties by the larger smallest key) / this order: the
    ik(7,2) kernel of `harmonic.perp_basis` 197k / 139k, the nullspace
    calls of one `harmonic-box` benchmark pass 224k / 161k and of one
    `verify-default` pass 85k / 68k, and those of one `invariants` pass 9k
    either way.
    Vectors stay in integers throughout: the pivot rows are transposed once
    into a map column -> [(pivot, lead, value)], and each vector is scaled
    by the lcm of the leads it meets before its content is stripped.
    """
    echelon = echelon_of(_descending_leads(rows))
    if echelon.rank == ncols:
        # no free column, so the RREF that `pivots` would build goes unread
        return []
    return _kernel(echelon.pivots, ncols)


def graded_kernels(
    sizes: Sequence[int], shifts: Sequence[int], row: Callable[[int, int, int], Mapping[int, int]]
) -> list[list[Row]]:
    """Canonical joint kernels of commuting graded operators, block by block.

    Block w of the space has sizes[w] columns, and the operators E_0, E_1, ...
    commute, with E_i mapping block w to block w - shifts[i], every shift
    at least 1.  The kernel of block w is that of the rows e_mu E_i over the
    columns mu of the blocks w - shifts[i], which row(i, w, mu) returns as
    dicts of their nonzero entries over block w's columns; the result lists
    one `nullspace` canonical basis per block.

    The rows of a block are requested operator by operator, in list order,
    each by descending mu, and the row of (i, mu) is skipped when mu is the
    smallest key of a kept row h of some E_l, l < i, in block w - s,
    s = shifts[i] (the matrix form of Faugere's F5 criterion).
    Up to scaling, e_mu E_i = h E_i - (h - h_mu e_mu) E_i.  With
    h = e_nu E_l, commuting gives h E_i = (e_nu E_i) E_l, a combination of
    block w's rows of E_l, and (h - h_mu e_mu) E_i combines rows of E_i at
    larger columns.  By induction on i, and on mu from the largest column
    down, the kept rows span every row, and the kernel is unchanged.  The
    argument holds in any row order, and h need only be some row of block
    w - s; taking the kept ones needs no elimination state, so each block's
    kept rows go to one `nullspace` call.

    For each of the last max(shifts) blocks only the smallest keys of its
    kept rows are remembered, one set per prefix E_0..E_(i-1).
    """
    kernels: list[list[Row]] = []
    # leads[w][i]: the smallest keys of block w's kept rows of E_0..E_(i-1)
    leads: dict = {}
    reach = max(shifts, default=0)
    for w, ncols in enumerate(sizes):
        rows, seen, found = [], set(), [set()]
        for i, s in enumerate(shifts):
            if s <= w:
                skip = leads[w - s][i].__contains__
                for mu in filterfalse(skip, reversed(range(sizes[w - s]))):
                    r = row(i, w, mu)
                    if r:
                        rows.append(r)
                        seen.add(min(r))
            found.append(set(seen))
        kernels.append(nullspace(rows, ncols))
        leads[w] = found
        leads.pop(w - reach, None)
    return kernels


def _kernel(piv: dict, ncols: int) -> list[Row]:
    by_column: dict = {}
    for pc, p in piv.items():
        lead = p[pc]
        for c, v in p.items():
            if c != pc:
                by_column.setdefault(c, []).append((pc, lead, v))
    basis: list[Row] = []
    for f in range(ncols):
        if f in piv:
            continue
        entries = by_column.get(f, ())
        scale = lcm(*(lead for _, lead, _ in entries))
        vec = {f: scale}
        for pc, lead, v in entries:
            vec[pc] = -v * (scale // lead)
        basis.append(_strip_content(vec))
    return basis
