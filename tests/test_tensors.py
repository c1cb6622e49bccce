"""Insertion operators, invariant tensors, and the two translation maps."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import factorial

import pytest

from diffhom import jets, tensors
from diffhom.errors import IndexOutOfRangeError
from diffhom.harmonic import apply_poly_operator, elementary_symmetric, ik_presentation, perp_basis
from diffhom.jets import JetContext, is_diff_homogeneous
from diffhom.linalg import Echelon, echelon_of, nullspace, rank_of
from diffhom.polynomials import Poly, jet_var, slot_var, z_var
from diffhom.tensors import (
    Tensor,
    canonical_wronskian_exponents,
    expand_one_parameter,
    insertion_operator,
    invariant_tensor_basis,
    project_to_symmetric,
    tensor_from_multilinear,
    to_harmonic,
    verify_wronskian_basis,
    wronskian,
)

Y = slot_var


def random_tensor(rng, k, d):
    coords = {}
    for _ in range(rng.randint(1, 6)):
        idx = tuple(rng.randint(0, k) for _ in range(d))
        coords[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Tensor.make(k, d, coords)


def shift_matrix(k):
    """The matrix of J(f_a) = a*f_(a-1) on f_0..f_k."""
    return [[a if r == a - 1 else 0 for a in range(k + 1)] for r in range(k + 1)]


class TestNilpotentModel:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_maximal_nilpotency_index(self, k):
        m = shift_matrix(k)
        top = Tensor.unit(k, 1, (k,))

        def apply(t):
            return Tensor(
                t.k,
                t.d,
                {
                    (r,): c * m[r][idx[0]]
                    for idx, c in t.coords.items()
                    for r in range(k + 1)
                    if m[r][idx[0]]
                },
            )

        current = top
        for _ in range(k):
            current = apply(current)
        assert not current.is_zero
        assert apply(current).is_zero


class TestInsertion:
    def test_single_slot(self):
        t = Tensor.unit(1, 2, (1, 0))
        assert insertion_operator(t, 1) == Tensor.make(1, 2, {(0, 0): 1})

    def test_ordered_multiplicity(self):
        t = Tensor.unit(1, 2, (1, 1))
        assert insertion_operator(t, 2) == Tensor.make(1, 2, {(0, 0): 2})

    def test_kills_bottom(self):
        t = Tensor.unit(1, 2, (0, 0))
        assert insertion_operator(t, 1).is_zero

    def test_order_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            insertion_operator(Tensor.unit(1, 2, (0, 0)), 3)

    def test_one_parameter_expansion(self):
        rng = random.Random(4)
        for _ in range(40):
            k, d = rng.randint(1, 3), rng.randint(2, 4)
            t = random_tensor(rng, k, d)
            alpha = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = expand_one_parameter(t, alpha)
            rhs = t
            for ell in range(1, d + 1):
                rhs = rhs.add(insertion_operator(t, ell).scale(alpha**ell / factorial(ell)))
            assert lhs == rhs

    def test_matrix_matches_the_sum_over_ordered_slot_tuples(self):
        # the definition: the shift matrix applied in each ordered tuple of
        # ell distinct slots
        rng = random.Random(6)
        for _ in range(30):
            k, d = rng.randint(1, 3), rng.randint(1, 4)
            t = random_tensor(rng, k, d)
            matrix = shift_matrix(k)
            for ell in range(1, d + 1):
                total = Tensor(k, d, {})
                for slots in permutations(range(d), ell):
                    coords = t.coords
                    for s in slots:
                        out = {}
                        for idx, c in coords.items():
                            for r in range(k + 1):
                                key = idx[:s] + (r,) + idx[s + 1 :]
                                out[key] = out.get(key, 0) + matrix[r][idx[s]] * c
                        coords = out
                    total = total.add(Tensor.make(k, d, coords))
                assert insertion_operator(t, ell) == total


class TestInvariantBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dimension_is_factorial(self, d):
        assert len(invariant_tensor_basis(d - 1 if d > 1 else 0, d)) == factorial(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grade_counts_are_the_q_factorial(self, d):
        # at k = d-1 the invariant tensors are the S_d-harmonics, whose
        # dimension in grade g is the coefficient of q^g in [d]_q!
        q_factorial = [1]
        for i in range(1, d + 1):
            q_factorial = [
                sum(q_factorial[g - s] for s in range(i) if 0 <= g - s < len(q_factorial))
                for g in range(len(q_factorial) + i - 1)
            ]
        counts = [0] * len(q_factorial)
        for t in invariant_tensor_basis(d - 1, d):
            (grade,) = {sum(idx) for idx in t.coords}
            counts[grade] += 1
        assert counts == q_factorial
        if d == 4:
            assert counts == [1, 3, 5, 6, 5, 3, 1]
        if d == 5:
            assert counts == [1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1]

    def test_degenerate_single_slot(self):
        basis = invariant_tensor_basis(2, 1)
        assert len(basis) == 1
        assert basis[0] == Tensor.make(2, 1, {(0,): 1})

    def test_stabilization_above_full_order(self):
        small = invariant_tensor_basis(1, 2)
        large = invariant_tensor_basis(2, 2)
        assert [t.coords for t in small] == [t.coords for t in large]

    def test_basis_elements_are_killed_by_every_insertion(self):
        for k, d in ((1, 2), (1, 3), (2, 3), (3, 4)):
            for t in invariant_tensor_basis(k, d):
                for ell in range(1, d + 1):
                    assert insertion_operator(t, ell).is_zero

    def test_below_full_order_matches_quotient_dimension(self):
        from diffhom.harmonic import quotient_dimension

        assert len(invariant_tensor_basis(1, 4)) == quotient_dimension(4, 1) == 6
        for k, d in ((1, 3), (2, 4)):
            assert len(invariant_tensor_basis(k, d)) == quotient_dimension(d, k)

    def test_kernel_characterization(self):
        rng = random.Random(11)
        k, d = 1, 3
        basis = invariant_tensor_basis(k, d)
        cols = sorted(product(range(k + 1), repeat=d))
        index = {c: i for i, c in enumerate(cols)}
        rows = [{index[idx]: c for idx, c in t.coords.items()} for t in basis]
        base_rank = rank_of(rows)
        for _ in range(30):
            t = random_tensor(rng, k, d)
            member = rank_of(rows + [{index[i]: c for i, c in t.coords.items()}]) == base_rank
            killed = all(insertion_operator(t, ell).is_zero for ell in range(1, d + 1))
            assert member == killed


def transpose(images):
    """Constraint rows of the map sending column i to the sparse dict images[i]."""
    rows = {}
    for i, image in enumerate(images):
        for out, c in image.items():
            rows.setdefault(out, {})[i] = c
    return list(rows.values())


def _iterated_insertion_basis(k, d):
    """Invariant basis by intersecting the insertion-operator kernels in turn.

    Per grade of the box, the images of the current kernel vectors under
    each insertion operator ell = 1..d become constraint rows; their null
    space recombines the vectors.  The result goes through the same
    (grade, index) echelon as the library route, so the two must render
    identically.
    """
    blocks = {}
    for idx in product(range(k, -1, -1), repeat=d):
        blocks.setdefault(sum(idx), []).append({idx: 1})
    for ell in range(1, d + 1):
        for block, vectors in blocks.items():
            images = [insertion_operator(Tensor(k, d, vec), ell).coords for vec in vectors]
            recombined = []
            for combo in nullspace(transpose(images), len(vectors)):
                acc = {}
                for ci, weight in combo.items():
                    for idx, c in vectors[ci].items():
                        acc[idx] = acc.get(idx, 0) + weight * c
                recombined.append({idx: c for idx, c in acc.items() if c})
            blocks[block] = recombined
    ech = echelon_of(
        {(sum(idx), idx): c for idx, c in vec.items()}
        for vectors in blocks.values()
        for vec in vectors
    )
    return [
        Tensor.make(k, d, {idx: Fraction(v) for (_, idx), v in ech.pivots[key].items()})
        for key in sorted(ech.pivots)
    ]


# every shift box with d, k <= 10 and at most 1024 coordinates
POWER_SUM_SHIFT_CASES = [
    (k, d) for d in range(1, 11) for k in range(11) if (k + 1) ** d <= 1024
]


class TestPowerSumRouteAgainstInsertion:
    """The power-sum rows give the kernel of the insertion operators."""

    @pytest.mark.parametrize("k,d", POWER_SUM_SHIFT_CASES)
    def test_shift(self, k, d):
        expected = [t.render() for t in _iterated_insertion_basis(k, d)]
        assert [t.render() for t in invariant_tensor_basis(k, d)] == expected


class TestCanonicalForm:
    """The basis is already the reduced echelon basis over (grade, index).

    Re-eliminating it keyed by (grade, index tuple) must give back the same
    renders in the same order, on boxes beyond the insertion oracle's range.
    """

    @pytest.mark.parametrize("k,d", [(4, 5), (2, 7), (3, 4)])
    def test_reechelon_is_identity(self, k, d):
        basis = invariant_tensor_basis(k, d)
        ech = echelon_of({(sum(idx), idx): c for idx, c in t.coords.items()} for t in basis)
        expected = [
            Tensor.make(k, d, {idx: v for (_, idx), v in ech.pivots[key].items()}).render()
            for key in sorted(ech.pivots)
        ]
        assert [t.render() for t in basis] == expected


WHOLE_BOX_CASES = [(4, 5), (2, 7), (3, 5), (5, 3), (1, 6)]


@cache
def whole_box_basis(k, d):
    """The shift's basis by the ungraded route: every power-sum row of the box.

    The whole box is one block, with columns in descending (grade, index)
    order; rows[m, key][ci] is the coefficient of key in p_m applied to the
    unit tensor at columns[ci], a!/(a-m)! from J^m in each slot a >= m.
    It uses no syzygy criterion and no middle-grade cut; read in reverse,
    its null space vectors are the canonical basis, by a route that shares
    nothing with the graded engine but `nullspace`.
    """
    columns = sorted(product(range(k + 1), repeat=d), key=lambda t: (sum(t), t), reverse=True)
    rows = {}
    for ci, idx in enumerate(columns):
        for m in range(1, d + 1):
            for s, a in enumerate(idx):
                if a >= m:
                    key = (m, idx[:s] + (a - m,) + idx[s + 1 :])
                    rows.setdefault(key, {})[ci] = factorial(a) // factorial(a - m)
    kernel = nullspace(rows.values(), len(columns))
    return [Tensor(k, d, {columns[col]: c for col, c in vec.items()}) for vec in reversed(kernel)]


class TestGradedRouteAgainstWholeBox:
    """The graded shift path against the ungraded route with every row.

    `whole_box_basis` takes the whole box as one block and keeps every
    power-sum row, with no syzygy criterion; both must render the same
    basis, on boxes beyond the insertion oracle's range.
    """

    @pytest.mark.parametrize("k,d", WHOLE_BOX_CASES)
    def test_same_rendered_basis(self, k, d):
        expected = [t.render() for t in whole_box_basis(k, d)]
        assert [t.render() for t in invariant_tensor_basis(k, d)] == expected

    @pytest.mark.parametrize("k,d", WHOLE_BOX_CASES)
    def test_no_kernel_vector_above_the_middle(self, k, d):
        # p_1 is a principal nilpotent in every slot, so by Jacobson-Morozov
        # grade g has h-eigenvalue 2g - kd and p_1 is injective where it is
        # positive: the graded path solves only the grades up to kd/2
        grades = {sum(idx) for t in whole_box_basis(k, d) for idx in t.coords}
        assert max(grades) <= k * d // 2

    def test_criterion_skips_dependent_rows(self, monkeypatch):
        inserted, engine = [], []
        original = Echelon.insert
        original_kernels = tensors._box_kernels

        def counting(self, row):
            inserted.append(original(self, row))
            return inserted[-1]

        def measured(*args):
            kernels = original_kernels(*args)
            engine.extend(inserted)
            inserted.clear()
            return kernels

        monkeypatch.setattr(Echelon, "insert", counting)
        monkeypatch.setattr(tensors, "_box_kernels", measured)
        assert len(invariant_tensor_basis(4, 5)) == factorial(5)
        # only the grades up to the middle kd/2 = 10 are solved; every p_m row of
        # those would be 3,492 rows, 1,859 of them dependent (11,200 and 8,195
        # over every grade)
        assert (len(engine), engine.count(None)) == (2187, 554)
        # the per-grade RREF of the kernels inserts each invariant once
        assert (len(inserted), inserted.count(None)) == (120, 0)


class TestOneRowBuilder:
    """The box is the jets' multilinear block: `_box_kernels` builds no rows
    of its own and makes one `jets._multidegree_kernels` call."""

    @pytest.mark.parametrize(
        "solve,k,d",
        [
            (lambda: invariant_tensor_basis(4, 5), 4, 5),
            (lambda: perp_basis(ik_presentation(7, 2), 2), 2, 7),
        ],
        ids=["tensors(4,5)", "ik(7,2)"],
    )
    def test_one_jet_block_call(self, solve, k, d, monkeypatch):
        assert tensors._multidegree_kernels is jets._multidegree_kernels
        assert not hasattr(tensors, "graded_kernels")
        calls = []
        original = jets._multidegree_kernels

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(tensors, "_multidegree_kernels", recording)
        solve()
        assert calls == [((1,) * d, k)]


class TestWronskian:
    def test_base_tuple(self):
        w = wronskian((0, 0))
        expected = Poly.variable(Y(1, 0)) * Poly.variable(Y(2, 1)) - Poly.variable(
            Y(2, 0)
        ) * Poly.variable(Y(1, 1))
        assert w == expected

    def test_shifted_tuple(self):
        assert wronskian((0, 1)) == Poly.variable(Y(1, 0)) * Poly.variable(Y(2, 0))

    def test_exponent_bound(self):
        with pytest.raises(IndexOutOfRangeError):
            wronskian((0, 2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_family_is_a_basis(self, d):
        report = verify_wronskian_basis(d)
        assert report.passed
        assert report.rank == factorial(d)

    def test_exponent_enumeration(self):
        assert canonical_wronskian_exponents(2) == [(0, 0), (0, 1)]
        assert len(canonical_wronskian_exponents(4)) == 24


class TestHarmonicImage:
    def test_small_images(self):
        # at k=1, d=2 the scale factor is 1, so images are plain monomials
        assert to_harmonic(Tensor.unit(1, 2, (1, 0))) == Poly.variable(z_var(1))
        assert to_harmonic(Tensor.unit(1, 2, (0, 0))) == Poly.constant(1)
        assert to_harmonic(Tensor.unit(1, 2, (1, 1))) == Poly.variable(z_var(1)) * Poly.variable(z_var(2))

    def test_scale_factor(self):
        image = to_harmonic(Tensor.unit(2, 1, (2,)))
        assert image == (Poly.variable(z_var(1)) ** 2).scale(Fraction(1, 2))

    def test_injective_on_box(self):
        seen = set()
        for idx in product(range(2), repeat=3):
            image = to_harmonic(Tensor.unit(1, 3, idx))
            key = tuple(sorted(image.terms))
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3)])
    def test_intertwining(self, k, d):
        for idx in product(range(k + 1), repeat=d):
            t = Tensor.unit(k, d, idx)
            for ell in range(1, d + 1):
                op = elementary_symmetric(range(1, d + 1), ell).scale(factorial(ell))
                lhs = to_harmonic(insertion_operator(t, ell))
                rhs = apply_poly_operator(op, to_harmonic(t))
                assert lhs == rhs

    def test_wronskian_image_is_vandermonde(self):
        t = tensor_from_multilinear(wronskian((0, 0)), 2, 1)
        assert to_harmonic(t) == Poly.variable(z_var(2)) - Poly.variable(z_var(1))


class TestProjection:
    def test_wronskian_projection(self):
        t = tensor_from_multilinear(wronskian((0, 0)), 2, 1)
        x0, x1 = Poly.variable(jet_var(0, 0)), Poly.variable(jet_var(1, 0))
        x0p, x1p = Poly.variable(jet_var(0, 1)), Poly.variable(jet_var(1, 1))
        assert project_to_symmetric(t, (0, 1)) == x0 * x1p - x1 * x0p

    def test_collapsed_projection_vanishes(self):
        t = tensor_from_multilinear(wronskian((0, 0)), 2, 1)
        assert project_to_symmetric(t, (0, 0)).is_zero

    def test_shifted_projection(self):
        t = tensor_from_multilinear(wronskian((0, 1)), 2, 1)
        assert project_to_symmetric(t, (0, 1)) == Poly.variable(jet_var(0, 0)) * Poly.variable(
            jet_var(1, 0)
        )

    def test_projections_are_diff_homogeneous(self):
        for k, d, assignments in (
            (1, 2, [(0, 0), (0, 1), (1, 0)]),
            (2, 3, [(0, 1, 1), (0, 0, 1)]),
        ):
            ctx = JetContext(1, k, d)
            for t in invariant_tensor_basis(k, d):
                for assignment in assignments:
                    image = project_to_symmetric(t, assignment)
                    assert is_diff_homogeneous(image, d, ctx)
