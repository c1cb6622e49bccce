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
Q give the same joint kernel for the power sums p_m = sum_s J_s^m.  Each p_m
lowers the total grade sum(a_i) by m, and J^(k+1) = 0 leaves only
m <= min(k, d).  Only the grades up to kd/2 are solved, because no
invariant lies above the middle grade (see `_box_kernels`).  For
(k,d) = (4,5) those grades have 3,492 rows, 1,859 of them dependent; the
engine's criterion keeps 2,187, 554 of them still dependent.  Every grade
would give 11,200 rows, 8,195 of them dependent.  This is the library's
one route to the basis; the tests hold it against two of their own, the
insertion kernels intersected grade by grade and one null space of every
power-sum row on the whole box.

Under f_a <-> Z^a the box {0..k}^d is the space of polynomials of
per-variable degree <= k, J^m in one slot is (d/dZ_s)^m, and the joint
kernel of the p_m is the harmonic kernel of the symmetric-plus-powers
ideal.  So one routine, `_box_kernels`, solves the joint kernel of any
commuting constant-coefficient operators sum c*(d/dZ)^q on the box, and it
serves both this module and `harmonic.perp_basis`.  It runs on the engine
of the jet invariants, `linalg.graded_kernels`: one null space per degree
(here, per grade) of a homogeneous family, or one over the whole box of
any other, with the rows the engine's syzygy criterion shows to be
dependent skipped.  Every block lists its columns in ascending tuple order;
the harmonic kernel takes each block's null space as it comes, and the
canonical tensor basis is the reduced row echelon form of each grade's
null space.  Only the quotient route of `harmonic` stays off this engine,
on purpose: it is the independent check of the kernel's dimension.

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
from operator import mul

from .errors import IndexOutOfRangeError
from .linalg import echelon_of, graded_kernels, rank_of
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
    operator sets have the same joint kernel.  J^m lowers the grade
    (coordinate sum) by m and only m <= min(k, d) gives rows, so the box
    engine `_box_kernels` solves them grade by grade on
    `linalg.graded_kernels`, which skips the rows its syzygy criterion
    shows to be dependent; only the grades up to kd/2 can hold an
    invariant, and only they are solved.
    The `max_box` cap still sees the whole box.

    The returned basis is the reduced echelon basis over the box
    coordinates ordered by (grade, index tuple): deterministic and, for
    k >= d-1, literally identical to the k = d-1 basis under the inclusion
    of the smaller box.  The grades are separate blocks, so it is the
    concatenation, in ascending grade, of each grade's reduced basis, and
    each grade lists its columns in ascending index order: one `Echelon`
    of the grade's `nullspace` vectors gives that basis as its `pivots`,
    read in pivot order.

    Two loops stay apart from `insertion_operator` on purpose: the raising
    rows of `_box_kernels`, because `insertion_operator` is the oracle
    these power-sum rows are tested against, and `expand_one_parameter`,
    the independent side of the one-parameter-expansion property check.
    """
    caps = caps or DEFAULT_CAPS
    caps.check("max_box", (k + 1) ** d)
    return [
        Tensor(k, d, {columns[col]: c for col, c in row.items()})
        for columns, kernel in _box_kernels(k, d, _power_sums(d, min(k, d)))
        for _, row in sorted(echelon_of(kernel).pivots.items())
    ]


def _power_sums(d: int, top: int) -> list[list[tuple]]:
    """The terms (exponent tuple, coefficient) of p_1..p_top in d variables."""
    return [
        [(tuple(m if t == s else 0 for t in range(d)), 1) for s in range(d)]
        for m in range(1, top + 1)
    ]


def _box_kernels(bound: int, d: int, gens) -> list[tuple]:
    """Joint kernel of commuting operators on the box {0..bound}^d, by block.

    gens lists each operator's (exponent tuple, coefficient) terms, read as
    the polynomial sum c*Z^q applied as sum c*(d/dZ)^q to the polynomials of
    per-variable degree <= bound (under f_a <-> Z^a, the term Z^m of p_m is
    J^m in one slot).  Returns (columns, kernel) per block: the block's
    exponent tuples and the `nullspace` canonical basis over them.  A term
    with an exponent above bound is zero on the box and is dropped, and so
    is an operator with no term left.

    When every operator is homogeneous, the blocks are the degrees, each
    with its columns in ascending tuple order, and an operator of degree s
    maps degree w to degree w - s: these are the blocks and shifts of
    `graded_kernels`.  Otherwise there is one block, every column in
    (degree, tuple) order, and every shift is 0.  Either way the columns
    come in (degree, tuple) order and the kernels are the canonical ones.

    When some operator is a linear form sum c_i*Z_i with every c_i != 0,
    only the columns of degree <= d*bound/2 are kept.  Rescaling each Z_i
    by c_i keeps the box and turns the form into p_1, and J = d/dZ_i is a
    principal nilpotent on the polynomials of degree <= bound in Z_i, so by
    Jacobson-Morozov it is the lowering element f of an sl2-triple (e, h, f)
    with h Z_i^a = (2a - bound) Z_i^a.  On the box f acts as p_1 and h has
    eigenvalue 2t - d*bound on degree t, and in a finite-dimensional
    sl2-module f is injective on the eigenspaces of h with positive
    eigenvalue: every kernel vector lies in the degrees up to the middle.  A
    vector there is killed by a row exactly when it is killed by the row's
    entries in those columns, so the rows are cut to them, and the kernel
    and its canonical basis (the columns are a prefix of the column order)
    are unchanged.  The power sums, ik_presentation and dcp_presentation
    always hold such a form.

    The row of operator i at a column Z^m of block w - s collects, for each
    term c*Z^q, the entry c * prod (m_j+q_j)!/m_j! at column Z^(m+q), the
    coefficient of Z^m in the term applied to Z^(m+q).  Columns are looked
    up by their mixed-radix index sum m_j*(bound+1)^(d-1-j), in which a
    shift that stays in the box is an integer addition.
    """
    ops = [[(q, c) for q, c in terms if max(q, default=0) <= bound] for terms in gens]
    ops = [terms for terms in ops if terms]
    top = d * bound
    # d distinct degree-1 terms are the linear form sum c_i*Z_i with every c_i != 0
    if any(len(terms) == d and all(sum(q) == 1 for q, _ in terms) for terms in ops):
        top //= 2
    blocks: list[list[tuple]] = [[] for _ in range(top + 1)]
    # product lists each degree in ascending tuple order
    for idx in product(range(bound + 1), repeat=d):
        if (degree := sum(idx)) <= top:
            blocks[degree].append(idx)
    shifts = [sum(terms[0][0]) for terms in ops]
    if any(sum(q) != s for terms, s in zip(ops, shifts) for q, _ in terms):
        blocks, shifts = [[idx for block in blocks for idx in block]], [0] * len(ops)
    # columns are found by mixed-radix index, in which a shift in the box adds
    radix = [(bound + 1) ** (d - 1 - j) for j in range(d)]
    index = [{sum(map(mul, b, radix)): ci for ci, b in enumerate(block)} for block in blocks]
    # each term as (index step, coefficient, [(variable, exponent)] of its support)
    terms_of = [
        [(sum(map(mul, q, radix)), c, [(j, f) for j, f in enumerate(q) if f]) for q, c in terms]
        for terms in ops
    ]
    # rise[a][f] = (a+f)!/a!, the entry of (d/dZ)^f from Z^(a+f) to Z^a
    rise = [
        [factorial(a + f) // factorial(a) for f in range(bound + 1 - a)] for a in range(bound + 1)
    ]

    def row(i: int, w: int, mu: int) -> dict:
        m, col, out = blocks[w - shifts[i]][mu], index[w], {}
        code = sum(map(mul, m, radix))
        for step, c, support in terms_of[i]:
            for j, f in support:
                if m[j] + f > bound:
                    break
                c *= rise[m[j]][f]
            else:
                # in the box; a column unless above the top degree
                ci = col.get(code + step)
                if ci is not None:
                    out[ci] = c
        return out

    return list(zip(blocks, graded_kernels(list(map(len, blocks)), shifts, row)))


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
    exact rank is compared with the kernel dimension.
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
    rank = rank_of(t.coords for t in tensors)
    kernel_dim = len(invariant_tensor_basis(k, d, caps))
    return WronskianBasisReport(
        d=d,
        expected=factorial(d),
        rank=rank,
        all_invariant=all_invariant,
        kernel_dimension=kernel_dim,
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
