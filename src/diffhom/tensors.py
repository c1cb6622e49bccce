"""Invariant tensors of the truncated unipotent action, and their two faces.

The model space F has basis f_0..f_k with the nilpotent shift
J(f_a) = a*f_{a-1}; every routine here acts by this one operator.  On the
d-fold tensor power, the ell-fold insertion operator applies J in ell
distinct slots, summed over ordered tuples of distinct slots (so each
unordered slot subset contributes ell! times).  A tensor is invariant under
the unipotent group generated by I + alpha*J exactly when every insertion
operator kills it.

Tensors are stored sparsely in the f-basis: coords maps an exponent tuple
(a_1..a_d) in {0..k}^d to a rational coordinate.  The basis routine works in
the Lie algebra: with J_s the shift in slot s, the insertion operators are
ell! * e_ell(J_1..J_d), and since the J_s commute, Newton's identities over
Q give the same joint kernel for the power sums p_m = sum_s J_s^m.  With
f_a in slot s read as X_s^(a), these are the derivations E_m of `jets` on
its block of multidegree (1,...,1) in d variables, so `_box_kernels(k, d)`
is one `jets._multidegree_kernels` call: the grades, the shifts
m <= min(k, d), the middle-grade cut at kd/2 and the syzygy criterion are
those of the `jets` docstring.  For (k,d) = (4,5) the grades up to 10 have
3,492 rows, 1,859 of them dependent; the criterion keeps 2,187, 554 of
them still dependent.  Every grade would give 11,200 rows, 8,195 of them
dependent.  This is the library's one route to the basis; the tests hold
it against two of their own, the insertion kernels intersected grade by
grade and one null space of every power-sum row on the whole box.
`_box_dimension(k, d)` reads the same rows for their ranks only: the
dimension is the sum over the grades of the column count minus the rank,
with no RREF built and no tensor made.

Under f_a <-> Z^a the box {0..k}^d is the space of polynomials of
per-variable degree <= k, J^m in one slot is (d/dZ_s)^m, and the joint
kernel of the p_m is the harmonic kernel of the symmetric-plus-powers
ideal ik(d, k), so `harmonic.perp_basis` makes the same `_box_kernels`
call, and `harmonic._kernel_dimension` the same `_box_dimension` count.
Only the quotient route of `harmonic` stays off it, on purpose: it is the
independent check of the kernel's dimension.

Two translations connect tensors to polynomials: `to_harmonic` maps the
f-basis to monomials in auxiliary Z variables (turning insertion operators
into symmetric differential operators), and `project_to_symmetric`
substitutes jet variables for the slots (producing degree-d jet
polynomials).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from operator import sub

from .errors import IndexOutOfRangeError
from .jets import _multidegree_kernels, _multidegree_nullity
from .linalg import echelon_of, rank_of
from .polynomials import (
    Poly,
    TENSOR_Y,
    _coeff,
    determinant,
    falling_factorial,
    jet_var,
    render_terms,
    slot_var,
    z_var,
)
from .resources import DEFAULT_CAPS, ResourceCaps


@dataclass
class Tensor:
    """Sparse element of the d-fold tensor power of the order-k model space.

    Coordinates follow the int-first rule of `Poly` coefficients, applied on
    construction: integers are stored as `int` and only true fractions as
    `Fraction`, so integer tensors never pay for `Fraction` arithmetic.
    """

    k: int
    d: int
    coords: dict

    def __post_init__(self):
        self.coords = {idx: _coeff(c) for idx, c in self.coords.items()}

    @staticmethod
    def make(k: int, d: int, coords: dict) -> "Tensor":
        """A tensor from validated coordinates, zeros dropped."""
        clean = {}
        for idx, c in coords.items():
            if not c:
                continue
            if len(idx) != d or any(a < 0 or a > k for a in idx):
                raise IndexOutOfRangeError(f"index {idx} outside box k={k} d={d}")
            clean[idx] = c
        return Tensor(k, d, clean)

    @staticmethod
    def unit(k: int, d: int, idx: tuple) -> "Tensor":
        return Tensor.make(k, d, {tuple(idx): 1})

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def add(self, other: "Tensor") -> "Tensor":
        out = dict(self.coords)
        for idx, c in other.coords.items():
            s = out.get(idx, 0) + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return Tensor(self.k, self.d, out)

    def scale(self, c) -> "Tensor":
        if not c:
            return Tensor(self.k, self.d, {})
        return Tensor(self.k, self.d, {idx: c * v for idx, v in self.coords.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and (self.k, self.d) == (other.k, other.d)
            and self.coords == other.coords
        )

    def render(self) -> str:
        """Canonical text form: coordinates sorted by (grade, index tuple)."""
        return render_terms(
            (self.coords[idx], f"f[{','.join(map(str, idx))}]")
            for idx in sorted(self.coords, key=lambda t: (sum(t), t))
        )


def insertion_operator(t: Tensor, ell: int) -> Tensor:
    """Sum of the shift applied in ell distinct slots, ordered-tuple count.

    Each unordered subset of ell slots contributes with multiplicity ell!,
    so the result is ell! * e_ell(J_1..J_d) applied to t, with J_s the
    shift in slot s.  It is built slot by slot from the recurrence
    e_l(J_1..J_s) = e_l(J_1..J_(s-1)) + J_s e_(l-1)(J_1..J_(s-1)), which
    merges equal keys after every slot; only the levels l that can still
    reach ell are kept.
    """
    if not 1 <= ell <= t.d:
        raise IndexOutOfRangeError(f"insertion order {ell} outside 1..{t.d}")
    # level[l]: e_l of the slot shifts seen so far, applied to t
    level = [t.coords] + [{} for _ in range(ell)]
    for s in range(t.d):
        for l in range(min(ell, s + 1), max(0, ell - t.d + s), -1):
            out = level[l]
            for idx, c in level[l - 1].items():
                a = idx[s]
                if a:
                    key = idx[:s] + (a - 1,) + idx[s + 1 :]
                    out[key] = out.get(key, 0) + c * a
    mult = factorial(ell)
    return Tensor(t.k, t.d, {idx: mult * c for idx, c in level[ell].items() if c})


def expand_one_parameter(t: Tensor, alpha: Fraction) -> Tensor:
    """Apply (I + alpha*J) in every slot (the one-parameter group element)."""
    coords = t.coords
    for s in range(t.d):
        nxt: dict = {}
        for idx, c in coords.items():
            v = nxt.get(idx, 0) + c
            if v:
                nxt[idx] = v
            else:
                nxt.pop(idx, None)
            a = idx[s]
            if a:
                key = idx[:s] + (a - 1,) + idx[s + 1 :]
                v = nxt.get(key, 0) + c * alpha * a
                if v:
                    nxt[key] = v
                else:
                    nxt.pop(key, None)
        coords = nxt
    return Tensor(t.k, t.d, dict(coords))


def invariant_tensor_basis(k: int, d: int, caps: ResourceCaps | None = None) -> list[Tensor]:
    """Canonical basis of the joint kernel of all insertion operators.

    The insertion operators are ell! * e_ell(J_1..J_d), where J_s is the
    shift acting in slot s.  The J_s commute, so by Newton's identities
    over Q the elementary symmetric functions e_1..e_d and the power sums
    p_m = sum_s J_s^m (m = 1..d) generate the same ideal, and the two
    operator sets have the same joint kernel, which `_box_kernels` gives
    grade by grade (see the module docstring).  The `max_box` cap still
    sees the whole box.

    The returned basis is the reduced echelon basis over the box
    coordinates ordered by (grade, index tuple): deterministic and, for
    k >= d-1, literally identical to the k = d-1 basis under the inclusion
    of the smaller box.  The grades are separate blocks, so it is the
    concatenation, in ascending grade, of each grade's reduced basis, and
    each grade lists its columns in ascending index order: one `Echelon`
    of the grade's `nullspace` vectors gives that basis as its `pivots`,
    read in pivot order.

    Two loops stay apart from `insertion_operator` on purpose: the raising
    rows of `jets._multidegree_rows`, because `insertion_operator` is
    the oracle these power-sum rows are tested against, and
    `expand_one_parameter`, the independent side of the
    one-parameter-expansion property check.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_box", (k + 1) ** d)
    return [
        Tensor(k, d, {columns[col]: c for col, c in row.items()})
        for columns, kernel in _box_kernels(k, d)
        for _, row in sorted(echelon_of(kernel).pivots.items())
    ]


def _box_kernels(k: int, d: int) -> list[tuple]:
    """Joint kernel of the power sums p_1..p_min(k,d) of the shift on {0..k}^d.

    Returns (columns, kernel) per grade w = 0..kd/2: the grade's exponent
    tuples in ascending order, and the `nullspace` canonical basis over
    them.  The box is the jet block of multidegree (1,...,1) in d variables
    (see the module docstring): f_a in slot s is X_s^(a), of index
    s*(k+1) + a, so a jet column t is the exponent tuple with
    a_s = t_s - s*(k+1), and the jets' monomial order is ascending tuple
    order.  This is the one place that knows that format.
    """
    columns, kernels = _multidegree_kernels((1,) * d, k)
    slots = range(0, d * (k + 1), k + 1)
    return [
        ([tuple(map(sub, t, slots)) for t in block], kernel)
        for block, kernel in zip(columns, kernels)
    ]


def _box_dimension(k: int, d: int, caps: ResourceCaps | None = None) -> int:
    """len(invariant_tensor_basis(k, d, caps)), counted by rank.

    The cap is that of `invariant_tensor_basis`.  Each grade's kernel has
    its column count minus the rank of the multilinear block's rows, so no
    RREF is built and no tensor is made.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_box", (k + 1) ** d)
    return _multidegree_nullity((1,) * d, k)


def wronskian(alpha) -> Poly:
    """Determinant of shifted slot-coordinate columns, as a multilinear poly.

    There are d = len(alpha) slots, and each exponent lies in 0..d-1.
    Column s carries the alpha_s-fold transpose-shift of the coordinate
    vector (Y_s^(0), ..., Y_s^(d-1)); entry in row t is
    t!/(t-alpha_s)! * Y_s^(t-alpha_s) when t >= alpha_s and 0 otherwise.
    """
    alpha = tuple(alpha)
    d = len(alpha)
    if any(a < 0 or a >= d for a in alpha):
        raise IndexOutOfRangeError(f"exponents {alpha} outside 0..{d - 1}")
    matrix = []
    for t in range(d):
        row = []
        for s, a in enumerate(alpha, start=1):
            if t >= a:
                row.append(Poly.variable(slot_var(s, t - a)).scale(falling_factorial(t, a)))
            else:
                row.append(Poly.zero())
        matrix.append(row)
    return determinant(matrix)


def canonical_wronskian_exponents(d: int):
    """All exponent tuples (a_1..a_d) with 0 <= a_i <= i-1, in product order."""
    return [tuple(a) for a in product(*(range(i) for i in range(1, d + 1)))]


def tensor_from_multilinear(p: Poly, d: int, k: int) -> Tensor:
    """Read a multilinear polynomial in slot variables as a tensor."""
    coords = {}
    for mono, c in p.terms.items():
        orders = {}
        for v, e in mono:
            if v.family != TENSOR_Y or e != 1 or v.i in orders:
                raise ValueError(f"not multilinear in slot variables: {mono}")
            orders[v.i] = v.j
        if sorted(orders) != list(range(1, d + 1)):
            raise ValueError(f"monomial does not cover slots 1..{d}: {mono}")
        coords[tuple(orders[s] for s in range(1, d + 1))] = c
    return Tensor.make(k, d, coords)


@dataclass
class WronskianBasisReport:
    d: int
    expected: int
    rank: int
    all_invariant: bool
    kernel_dimension: int

    @property
    def passed(self) -> bool:
        return (
            self.all_invariant
            and self.rank == self.expected
            and self.kernel_dimension == self.expected
        )


def verify_wronskian_basis(d: int, caps: ResourceCaps | None = None) -> WronskianBasisReport:
    """Check that the canonical Wronskian family is a basis of the invariants.

    The d! polynomials with staircase-bounded exponents are converted to
    tensors, checked to be killed by every insertion operator, and their
    exact rank is compared with the kernel dimension, which
    `_box_dimension` counts without building the kernel.
    """
    caps = caps or DEFAULT_CAPS
    k = d - 1
    caps.check("max_box", (k + 1) ** d)
    tensors = [
        tensor_from_multilinear(wronskian(a), d, k)
        for a in canonical_wronskian_exponents(d)
    ]
    all_invariant = all(
        insertion_operator(t, ell).is_zero for t in tensors for ell in range(1, d + 1)
    )
    return WronskianBasisReport(
        d=d,
        expected=factorial(d),
        rank=rank_of(t.coords for t in tensors),
        all_invariant=all_invariant,
        kernel_dimension=_box_dimension(k, d, caps),
    )


def to_harmonic(t: Tensor) -> Poly:
    """Translate a tensor into a polynomial in the auxiliary Z variables.

    The basis vector with exponent tuple (a_1..a_d) maps to the image of the
    corresponding iterated-shift basis element, namely
    prod_i Z_i^(a_i)/a_i! times the structure constants prod_i a_i!/k!,
    i.e. Z^a / (k!)^d.  Insertion operators intertwine with symmetric
    differential operators under this map.
    """
    scale = Fraction(1, factorial(t.k) ** t.d)
    terms = {}
    for idx, c in t.coords.items():
        mono = tuple(sorted((z_var(i + 1), a) for i, a in enumerate(idx) if a))
        terms[mono] = terms.get(mono, Fraction(0)) + c * scale
    return Poly(terms)


def project_to_symmetric(t: Tensor, slot_assignment) -> Poly:
    """Substitute jet variables for the slots: slot s becomes X_{assign[s]}.

    The assignment is a sequence of d variable indices (slot 1 first).
    Invariant tensors project to differentially homogeneous polynomials of
    degree d (possibly zero when the assignment collapses antisymmetry).
    """
    assign = list(slot_assignment)
    if len(assign) != t.d:
        raise IndexOutOfRangeError(f"need {t.d} slot assignments, got {len(assign)}")
    result: dict = {}
    for idx, c in t.coords.items():
        exps: dict = {}
        for s, a in enumerate(idx):
            v = jet_var(assign[s], a)
            exps[v] = exps.get(v, 0) + 1
        mono = tuple(sorted(exps.items()))
        s_val = result.get(mono, 0) + c
        if s_val:
            result[mono] = s_val
        else:
            result.pop(mono, None)
    return Poly(result)
