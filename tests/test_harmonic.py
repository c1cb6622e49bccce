"""Partitions, ideals, solution spaces, and the spanning machinery."""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, prod
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from diffhom import harmonic, tensors
from diffhom.harmonic import (
    Partition,
    apply_poly_operator,
    balanced_partition,
    closed_form_dimension,
    dcp_presentation,
    dcp_quotient_dimension,
    elementary_symmetric,
    enum_standard_tableaux,
    ik_presentation,
    matching_order,
    perp_basis,
    quotient_dimension,
    tableau_vandermonde,
    verify_block_surjectivity,
    verify_dcp_equality,
    verify_spanning,
)
from diffhom.errors import DiffhomError, ResourceLimitError
from diffhom.harmonic import IdealPresentation
from diffhom.linalg import Echelon, nullspace, rank_of
from diffhom.polynomials import Poly, falling_factorial, mono_degree, z_var
from diffhom.resources import DEFAULT_CAPS, ResourceCaps
from diffhom.spans import span_rank
from diffhom.tensors import invariant_tensor_basis, to_harmonic

import membership_windows
from membership_windows import ideal_membership, membership_test
from span_checks import spans_equal

Z1, Z2, Z3 = (Poly.variable(z_var(i)) for i in (1, 2, 3))

partitions = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(Partition.of)


def hook_length_count(parts_desc):
    """Oracle for the number of standard tableaux (hook length formula)."""
    n = sum(parts_desc)
    hooks = 1
    for i, length in enumerate(parts_desc):
        for j in range(length):
            below = sum(1 for other in parts_desc[i + 1 :] if other > j)
            hooks *= (length - j) + below
    return factorial(n) // hooks


class TestPartition:
    def test_balanced_examples(self):
        assert balanced_partition(4, 1).nonzero == (2, 2)
        assert balanced_partition(5, 1).nonzero == (2, 3)
        assert balanced_partition(3, 2).nonzero == (1, 1, 1)

    def test_zero_padding(self):
        mu = Partition.of((2, 3))
        assert mu.parts == (0, 0, 0, 2, 3)
        assert mu.d == 5

    def test_conjugate_inside_the_box(self):
        assert Partition.of((1, 1)).conjugate().parts == (0, 2)
        assert Partition.of((2,)).conjugate().parts == (1, 1)
        assert Partition.of((2, 3)).conjugate().parts == (0, 0, 1, 2, 2)

    def test_column_sums(self):
        mu = Partition.of((1, 1))
        assert mu.cells_in_last_columns(1) == 0
        assert mu.cells_in_last_columns(2) == 2

    @given(partitions)
    @settings(max_examples=60)
    def test_conjugation_involution(self, mu):
        assert mu.conjugate().conjugate() == mu
        assert mu.cells_in_last_columns(mu.d) == mu.d

    def test_matching_order(self):
        assert matching_order(Partition.of((2, 2))) == 1
        assert matching_order(Partition.of((1, 1, 1))) == 2
        assert matching_order(Partition.of((1, 3))) is None


class TestDcpGenerators:
    def test_column_partition_gives_full_symmetrics_only(self):
        gens = {g.render() for g in dcp_presentation(Partition.of((1, 1))).generators}
        assert gens == {"Z1 + Z2", "Z1*Z2"}

    def test_row_partition_gives_variables(self):
        gens = {g.render() for g in dcp_presentation(Partition.of((2,))).generators}
        assert gens == {"Z1", "Z2", "Z1 + Z2", "Z1*Z2"}

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2), (2, 2)])
    def test_full_symmetrics_always_present(self, shape):
        mu = Partition.of(shape)
        d = mu.d
        gens = [g.render() for g in dcp_presentation(mu).generators]
        for j in range(1, d + 1):
            assert elementary_symmetric(range(1, d + 1), j).render() in gens


class TestMembership:
    def test_generator_is_member(self):
        assert ideal_membership(Z1 + Z2, ik_presentation(2, 1), 2)

    def test_power_membership(self):
        assert ideal_membership(Z2**2, dcp_presentation(balanced_partition(2, 1)), 3)

    def test_unit_is_not_certified(self):
        assert not ideal_membership(Poly.constant(1), ik_presentation(2, 1), 4)

    def test_degree_cap_refuses(self):
        assert not ideal_membership((Z1 + Z2) * Z1**4, ik_presentation(2, 1), 3)

    def test_inhomogeneous_presentation_is_refused(self, monkeypatch):
        monkeypatch.setattr(membership_windows, "window", refuse("window"))
        pres = IdealPresentation(2, (Z2, Z1 + Z1**2), "custom")
        # refused before any window, even for a target that is a generator
        with pytest.raises(DiffhomError, match="is not homogeneous") as info:
            ideal_membership(Z1 + Z1**2, pres, 4)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (4, 2)])
    def test_presentation_equality(self, d, k):
        assert verify_dcp_equality(d, k).passed

    @pytest.mark.parametrize("d,k,cap", [(4, 1, 3), (5, 2, 4), (4, 2, 12)])
    def test_equality_report_matches_one_call_per_generator(self, d, k, cap):
        ik = ik_presentation(d, k)
        dcp = dcp_presentation(balanced_partition(d, k))
        report = verify_dcp_equality(d, k, cap)
        assert report.uncertified_forward == [
            g.render() for g in ik.generators if not ideal_membership(g, dcp, cap)
        ]
        assert report.uncertified_backward == [
            g.render() for g in dcp.generators if not ideal_membership(g, ik, cap)
        ]

    def test_equality_builds_one_echelon_per_presentation_and_degree(self, monkeypatch):
        monkeypatch.setattr(membership_windows, "window", refuse("window"))
        echelons = []

        class Recording(Echelon):
            def __init__(self):
                super().__init__()
                echelons.append(self)

        monkeypatch.setattr(harmonic, "Echelon", Recording)
        assert verify_dcp_equality(6, 2).passed
        # no membership window: the only echelons are the orbit-sum systems
        # of the ik ideal, one per degree j of each backward orbit e_j(S)
        # with |S| = i < 6, here (i, j) = (5, 3), (5, 4), (5, 5); the
        # forward direction ranks nothing
        assert harmonic._dcp_lows(balanced_partition(6, 2)) == [2, 3, 4, 5, 3, 1]
        assert len(echelons) == 3


class TestSolutionSpaces:
    def test_small_kernel_elements(self):
        basis = perp_basis(ik_presentation(2, 1), 1)
        assert spans_equal(basis, [Poly.constant(1), Z1 - Z2])

    @pytest.mark.parametrize(
        "d,k,expected",
        [
            (2, 1, 2),
            (3, 1, 3),
            (4, 1, 6),
            (3, 2, 6),
            (5, 2, 30),
            (5, 3, 60),
            (8, 1, 70),
            (6, 2, 90),
            (3, 0, 1),
            (10, 1, 252),
            (11, 1, 462),
        ],
    )
    def test_dimensions(self, d, k, expected):
        assert len(perp_basis(ik_presentation(d, k), k)) == expected
        assert quotient_dimension(d, k) == expected
        assert closed_form_dimension(d, k) == expected

    def test_two_routes_agree_broadly(self):
        for d in range(2, 5):
            for k in range(1, d):
                assert len(perp_basis(ik_presentation(d, k), k)) == quotient_dimension(d, k)

    def test_tensor_bridge(self):
        for k, d in ((1, 2), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5)):
            images = [to_harmonic(t) for t in invariant_tensor_basis(k, d)]
            kernel = perp_basis(ik_presentation(d, k), k)
            assert spans_equal(images, kernel)

    def test_dcp_quotient_route(self):
        assert dcp_quotient_dimension(Partition.of((1, 1))) == 2
        assert dcp_quotient_dimension(Partition.of((2,))) == 1
        # multinomial d!/prod(parts!) for a non-balanced shape
        assert dcp_quotient_dimension(Partition.of((1, 3))) == 4

    @pytest.mark.parametrize("case", ["dcp(1,1,2)", "ik-at-another-bound", "e1-doubled", "reordered"])
    def test_kernel_route_refuses_every_other_presentation(self, case, monkeypatch):
        ik31, ik32 = ik_presentation(3, 1), ik_presentation(3, 2)
        pres, bound = {
            "dcp(1,1,2)": (dcp_presentation(Partition.of((1, 1, 2))), 3),
            "ik-at-another-bound": (ik_presentation(4, 2), 3),
            "e1-doubled": (
                IdealPresentation(3, (ik31.generators[0].scale(2),) + ik31.generators[1:], ik31.label),
                1,
            ),
            "reordered": (IdealPresentation(3, ik32.generators[::-1], ik32.label), 2),
        }[case]
        # nothing is built before the refusal
        monkeypatch.setattr(tensors, "_box_kernels", refuse("tensors._box_kernels"))
        monkeypatch.setattr(harmonic, "_box_kernels", refuse("harmonic._box_kernels"))
        with pytest.raises(DiffhomError) as refused:
            perp_basis(pres, bound)
        message = str(refused.value)
        assert "\n" not in message
        assert pres.label in message and f"bound {bound}" in message

    def test_kernel_elements_are_solutions(self):
        for d, k in ((3, 1), (4, 1), (3, 2)):
            pres = ik_presentation(d, k)
            for p in perp_basis(pres, k):
                for g in pres.generators:
                    assert apply_poly_operator(g, p).is_zero


class TestTableaux:
    def test_counts(self):
        assert len(enum_standard_tableaux(Partition.of((1, 1)))) == 1
        assert len(enum_standard_tableaux(Partition.of((2, 2)))) == 2
        assert len(enum_standard_tableaux(Partition.of((4,)))) == 1

    def test_all_outputs_standard(self):
        for shape in ((2, 2), (1, 2), (2, 3)):
            for t in enum_standard_tableaux(Partition.of(shape)):
                assert t.is_standard()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (1, 1, 2), (2, 3)])
    def test_count_matches_hook_formula(self, shape):
        mu = Partition.of(shape)
        expected = hook_length_count(sorted(mu.nonzero, reverse=True))
        assert len(enum_standard_tableaux(mu)) == expected

    def test_leaves_no_garbage_cycle(self):
        # the backtracking is a module function, so reference counting alone
        # frees its grid and partial fillings
        gc.disable()
        try:
            gc.collect()
            assert len(enum_standard_tableaux(Partition.of((2, 2)))) == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_vandermonde_single_column(self):
        (t,) = enum_standard_tableaux(Partition.of((1, 1)))
        assert tableau_vandermonde(t) == Z2 - Z1

    def test_vandermonde_two_columns(self):
        tableaux = enum_standard_tableaux(Partition.of((2, 2)))
        rendered = {tableau_vandermonde(t).render() for t in tableaux}
        expected = ((Z3 - Z1) * (Poly.variable(z_var(4)) - Z2)).render()
        assert expected in rendered

    def test_vandermondes_are_solutions(self):
        for d, k in ((2, 1), (4, 1), (3, 2)):
            gens = ik_presentation(d, k).generators
            for t in enum_standard_tableaux(balanced_partition(d, k)):
                delta = tableau_vandermonde(t)
                for g in gens:
                    assert apply_poly_operator(g, delta).is_zero


class TestSpanning:
    @pytest.mark.parametrize(
        "shape,expected",
        [((1, 1), 2), ((1, 1, 1), 6), ((2, 2), 6), ((2, 3), 10), ((1, 1, 1, 1), 24), ((1, 1, 2), 12)],
    )
    def test_balanced_shapes(self, shape, expected):
        report = verify_spanning(Partition.of(shape))
        assert report.rank == report.expected_dimension == expected
        assert report.passed

    def test_unbalanced_shape_uses_quotient_route(self):
        report = verify_spanning(Partition.of((1, 3)))
        assert report.route == "quotient"
        assert report.passed

    def test_family_capped_before_any_vandermonde(self, monkeypatch):
        # the expected dimension's route is capped first: (2,2,2,2) is
        # balanced for k = 3, whose kernel box is 4^8
        monkeypatch.setattr(harmonic, "tableau_vandermonde", refuse("tableau_vandermonde"))
        monkeypatch.setattr(harmonic, "_box_kernels", refuse("_box_kernels"))
        with pytest.raises(ResourceLimitError, match="max_box: needed 65536,"):
            verify_spanning(Partition.of((2, 2, 2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 2), (1, 1, 1, 1, 1)])
    def test_levels_capped_before_any_vandermonde(self, shape, monkeypatch):
        # the tableaux plus d times d!/prod(mu_i!) rows, which the levels of a
        # true claim never exceed
        mu = Partition.of(shape)
        count = len(enum_standard_tableaux(mu)) + mu.d * multinomial(mu)
        assert verify_spanning(mu, ResourceCaps(max_products=count)).passed
        monkeypatch.setattr(harmonic, "tableau_vandermonde", refuse("tableau_vandermonde"))
        with pytest.raises(ResourceLimitError, match=f"max_products: needed {count},"):
            verify_spanning(mu, ResourceCaps(max_products=count - 1))

    def test_each_level_capped_before_it_is_built(self, monkeypatch):
        # the top level of (2,2,2) has rank 5, so the next one has 6 * 5 rows
        mu = Partition.of((2, 2, 2))
        deltas = [harmonic._z_exponents(tableau_vandermonde(t), 6) for t in enum_standard_tableaux(mu)]
        inserted = count_inserts(monkeypatch)
        with pytest.raises(ResourceLimitError, match="max_products: needed 30,"):
            harmonic._derivative_span_rank(deltas, 6, ResourceCaps(max_products=29))
        assert len(inserted) == len(deltas)

    def test_symmetric_difference_recurrence(self):
        rng = random.Random(5)
        for _ in range(25):
            d = rng.randint(2, 5)
            pool = list(range(1, d + 1))
            size = rng.randint(1, d - 1)
            subset = tuple(sorted(rng.sample(pool, size)))
            extra = rng.choice([x for x in pool if x not in subset])
            bigger = tuple(sorted(subset + (extra,)))
            for j in range(1, size + 2):
                lhs = elementary_symmetric(bigger, j)
                rhs = elementary_symmetric(subset, j) + Poly.variable(z_var(extra)) * (
                    elementary_symmetric(subset, j - 1)
                    if j - 1 >= 1
                    else Poly.constant(1)
                )
                assert lhs == rhs


class TestBlockSurjectivity:
    @pytest.mark.parametrize(
        "d,k,partitions,rank",
        [(2, 1, 1, 2), (3, 1, 3, 3), (4, 1, 3, 6), (4, 2, 4, 12), (5, 1, 15, 10)],
    )
    def test_known_cases(self, d, k, partitions, rank):
        report = verify_block_surjectivity(d, k)
        assert report.partition_count == partitions
        assert report.rank == report.expected_dimension == rank
        assert report.passed

    def test_rejects_short_degrees(self):
        with pytest.raises(Exception):
            verify_block_surjectivity(2, 3)

    @pytest.mark.parametrize("d,k", [(4, 1), (5, 1), (5, 2), (6, 2)])
    def test_products_capped_before_any_is_built(self, d, k, monkeypatch):
        # the family has d!/q! members, q = d // (k+1); one below that cap is
        # refused before the partitions or a product are formed
        count = factorial(d) // factorial(d // (k + 1))
        monkeypatch.setattr(harmonic, "_equal_blocks", refuse("_equal_blocks"))
        monkeypatch.setattr(harmonic, "_block_product", refuse("_block_product"))
        with pytest.raises(ResourceLimitError, match=f"max_products: needed {count},"):
            verify_block_surjectivity(d, k, ResourceCaps(max_products=count - 1))

    @pytest.mark.parametrize("d,k", [(4, 1), (5, 1), (4, 3), (5, 2), (6, 2)])
    def test_product_count_is_the_family_size(self, d, k, monkeypatch):
        built = []
        original = harmonic._block_product

        def counting(blocks, alphas):
            built.append(blocks)
            return original(blocks, alphas)

        monkeypatch.setattr(harmonic, "_block_product", counting)
        assert verify_block_surjectivity(d, k).passed
        assert len(built) == factorial(d) // factorial(d // (k + 1))


# ---------------------------------------------------------------------------
# the box routes against the all-pairs routes they replace


def all_partitions(d):
    """Every partition of d as a Partition, largest first part first."""

    def parts(n, largest):
        if n == 0:
            yield ()
        for first in range(min(n, largest), 0, -1):
            for rest in parts(n - first, first):
                yield (first,) + rest

    return [Partition.of(p) for p in parts(d, d)]


IK_CASES = [(d, k) for d in range(1, 10) for k in range(d + 1) if (k + 1) ** d <= 729]
DCP_SHAPES = [mu for d in range(1, 5) for mu in all_partitions(d)]
QUOTIENT_CASES = [(d, k) for d in range(1, 11) for k in range(d + 1) if (k + 1) ** d <= 1024]
QUOTIENT_SHAPES = [mu for d in range(1, 6) for mu in all_partitions(d)]


def box(d, bound):
    return sorted(product(range(bound + 1), repeat=d), key=lambda t: (sum(t), t))


def z_monomial(exp):
    return Poly.monomial([(z_var(i + 1), e) for i, e in enumerate(exp)])


def transpose(images):
    """Constraint rows of the map sending column i to the sparse dict images[i]."""
    rows = {}
    for i, image in enumerate(images):
        for out, c in image.items():
            rows.setdefault(out, {})[i] = c
    return list(rows.values())


def kernel_by_columns(presentation, bound):
    """The operator kernel from every generator applied to every box monomial."""
    monos = [z_monomial(b) for b in box(presentation.nvars, bound)]
    images = (
        {
            (gi, m): c
            for gi, g in enumerate(presentation.generators)
            for m, c in apply_poly_operator(g, mono).terms.items()
        }
        for mono in monos
    )
    return [
        sum((c * monos[ci] for ci, c in vec.items()), Poly.zero())
        for vec in nullspace(transpose(images), len(monos))
    ]


@cache
def ik_kernel_by_columns(d, k):
    return kernel_by_columns(ik_presentation(d, k), k)


@cache
def dcp_kernel_by_columns(mu):
    return kernel_by_columns(dcp_presentation(mu), mu.d - 1)


def quotient_by_all_pairs(generators, d, bound):
    """Box dimension minus the rank of every product m*g, cut to the box."""
    cols = box(d, bound)
    column = {b: i for i, b in enumerate(cols)}
    gen_terms = []
    for g in generators:
        terms = []
        for mono, c in g.terms.items():
            exp = [0] * d
            for v, e in mono:
                exp[v.i - 1] = e
            terms.append((exp, c))
        gen_terms.append(terms)
    rows = []
    for m in cols:
        for terms in gen_terms:
            products = ((tuple(a + b for a, b in zip(m, exp)), c) for exp, c in terms)
            rows.append({column[b]: c for b, c in products if b in column})
    return len(cols) - rank_of(rows)


def spanning_by_operators(mu, gens):
    """Annihilation flag by the generators and derivative family, from apply_poly_operator."""
    deltas = [tableau_vandermonde(t) for t in enum_standard_tableaux(mu)]
    annihilated = all(apply_poly_operator(g, delta).is_zero for g in gens for delta in deltas)
    family = []
    for delta in deltas:
        budget = delta.total_degree()
        for exp in product(range(budget + 1), repeat=mu.d):
            if sum(exp) <= budget:
                image = apply_poly_operator(z_monomial(exp), delta)
                if not image.is_zero:
                    family.append(image)
    return annihilated, family


def rendered(polys):
    return [p.render() for p in polys]


class TestBoxRoutesAgainstAllPairs:
    @pytest.mark.parametrize("d,k", IK_CASES)
    def test_ik_kernel(self, d, k):
        expected = rendered(ik_kernel_by_columns(d, k))
        assert rendered(perp_basis(ik_presentation(d, k), k)) == expected

    @pytest.mark.parametrize("d,k", QUOTIENT_CASES)
    def test_ik_quotient(self, d, k):
        gens = [elementary_symmetric(range(1, d + 1), j) for j in range(1, d + 1)]
        assert quotient_dimension(d, k) == quotient_by_all_pairs(gens, d, k)

    @pytest.mark.parametrize("mu", QUOTIENT_SHAPES, ids=str)
    def test_dcp_quotient(self, mu):
        gens = dcp_presentation(mu).generators
        assert dcp_quotient_dimension(mu) == quotient_by_all_pairs(gens, mu.d, mu.d - 1)

    def test_quotient_of_generator_subsets(self):
        # the stop holds for any homogeneous ideal of the box algebra, with
        # or without the box powers in it
        rng = random.Random(31)
        for _ in range(50):
            d = rng.randint(1, 4)
            if rng.random() < 0.5:
                bound = rng.randint(0, 3)
                pool = ik_presentation(d, bound).generators
            else:
                bound = d - 1
                pool = dcp_presentation(rng.choice(all_partitions(d))).generators
            gens = rng.sample(pool, rng.randint(0, len(pool)))
            got = harmonic._box_quotient_dimension(gens, d, bound, DEFAULT_CAPS)
            assert got == quotient_by_all_pairs(gens, d, bound), (d, bound, gens)

    def test_quotient_stops_at_its_first_full_degree(self, monkeypatch):
        # the (5,3) box has degrees 0..15 and its quotient is zero from
        # degree 7 on: degrees 0..7 are ranked, 777 rows of the 3,840 that
        # every landing pair over the whole box makes
        ranked = []

        def capture(rows):
            ranked.append(len(rows))
            return rank_of(rows)

        monkeypatch.setattr(harmonic, "rank_of", capture)
        assert quotient_dimension(5, 3) == 60
        assert len(ranked) == 8
        assert sum(ranked) == 777

    def test_quotient_caps_the_rows_of_each_degree(self, monkeypatch):
        # dcp((5,)) holds the 31 e_1(S), so degree 1 is full after 31 rows,
        # which the cap counts before they are built; every (multiplier,
        # generator) pair of the 5^5 box would be 3,125 * 80 = 250,000
        gens = dcp_presentation(Partition.of((5,))).generators
        assert dcp_quotient_dimension(Partition.of((5,))) == 1
        assert harmonic._box_quotient_dimension(gens, 5, 4, ResourceCaps(max_products=31)) == 1
        ranked = []
        monkeypatch.setattr(harmonic, "rank_of", lambda rows: ranked.append(len(rows)) or 0)
        with pytest.raises(ResourceLimitError, match="max_products: needed 31, cap is 30"):
            harmonic._box_quotient_dimension(gens, 5, 4, ResourceCaps(max_products=30))
        # degree 0 only, which no generator reaches
        assert ranked == [0]

    def test_inhomogeneous_generator_is_refused(self, monkeypatch):
        monkeypatch.setattr(harmonic, "rank_of", refuse("rank_of"))
        with pytest.raises(DiffhomError, match="is not homogeneous") as refused:
            harmonic._box_quotient_dimension([Z2, Z1 + Z1**2], 2, 2, DEFAULT_CAPS)
        assert "\n" not in str(refused.value)

    @pytest.mark.parametrize(
        "mu",
        [mu for d in range(1, 6) for mu in all_partitions(d)]
        + [Partition.of((3, 3)), Partition.of((2, 2, 2))],
        ids=str,
    )
    def test_spanning_family(self, mu):
        # the levels rank what every monomial operator applied to every
        # product spans, and the annihilation flag is the family's
        report = verify_spanning(mu)
        annihilated, expected = spanning_by_operators(mu, dcp_presentation(mu).generators)
        assert report.annihilated == annihilated
        assert report.rank == span_rank(expected)
        assert len(expected) == spanning_family_size(mu)

    @pytest.mark.parametrize("mu", [mu for d in range(1, 7) for mu in all_partitions(d)], ids=str)
    def test_levels_match_the_family_route(self, mu):
        deltas = [harmonic._z_exponents(tableau_vandermonde(t), mu.d) for t in enum_standard_tableaux(mu)]
        presentation = dcp_presentation(mu)
        annihilated, rank = spanning_by_family(deltas, presentation)
        assert harmonic._annihilates(presentation, deltas) == annihilated
        assert harmonic._derivative_span_rank(deltas, mu.d, DEFAULT_CAPS) == rank

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2)])
    def test_a_generator_that_does_not_annihilate(self, shape, monkeypatch):
        # 1 sits at the foot of the first column, of length >= 2, in every
        # standard tableau, so d/dZ1 kills no product
        mu = Partition.of(shape)
        original = harmonic.dcp_presentation

        def with_z1(mu, caps=None):
            pres = original(mu, caps)
            return IdealPresentation(pres.nvars, pres.generators + (Z1,), pres.label)

        monkeypatch.setattr(harmonic, "dcp_presentation", with_z1)
        report = verify_spanning(mu)
        annihilated, family = spanning_by_operators(mu, with_z1(mu).generators)
        assert report.annihilated is False
        assert annihilated is False
        assert not report.passed
        assert report.rank == span_rank(family)

    def test_a_generator_that_is_not_squarefree_is_refused(self, monkeypatch):
        mu = Partition.of((2, 2))
        original = harmonic.dcp_presentation

        def with_square(mu, caps=None):
            pres = original(mu, caps)
            return IdealPresentation(pres.nvars, pres.generators + (Z1 * Z1,), pres.label)

        monkeypatch.setattr(harmonic, "dcp_presentation", with_square)
        with pytest.raises(DiffhomError, match="is not squarefree") as refused:
            verify_spanning(mu)
        assert "\n" not in str(refused.value)


def spanning_by_family(deltas, presentation):
    """Annihilation flag and rank from every derivative of every product.

    The operator (d/dZ)^a is nonzero on a product exactly when a divides
    one of its terms, and distinct terms stay distinct after the same
    derivative, so one pass over the divisors of every term builds the
    whole family as rows keyed by exponent tuples.  A generator sum
    c_q*Z^q acts on the product as the sum of c_q times the row of the
    divisor q, and a q that divides no term adds nothing.
    """
    d = presentation.nvars
    gen_terms = [harmonic._z_exponents(g, d) for g in presentation.generators]
    annihilated, family = True, []
    for delta in deltas:
        images: dict = {}
        for exp, c in delta:
            for a in product(*(range(e + 1) for e in exp)):
                value = c
                for e, f in zip(exp, a):
                    value *= falling_factorial(e, f)
                images.setdefault(a, {})[tuple(map(sub, exp, a))] = value
        family += images.values()
        for terms in gen_terms:
            image: dict = {}
            for q, qc in terms:
                for out, value in images.get(q, {}).items():
                    image[out] = image.get(out, 0) + qc * value
            annihilated = annihilated and not any(image.values())
    return annihilated, rank_of(family)


def multinomial(mu):
    """d!/prod(mu_i!), the dimension of the dcp quotient of mu."""
    return factorial(mu.d) // prod(factorial(part) for part in mu.nonzero)


def spanning_family_size(mu):
    """The size of the derivative family: tableaux times parking functions per column.

    A column of length l contributes the l! terms of its Vandermonde, whose
    exponents are the permutations of 0..l-1; their divisors are the
    l-tuples whose sorted entries are at most 0, 1, ..., l-1, the
    (l+1)^(l-1) parking functions of length l.
    """
    size = len(enum_standard_tableaux(mu))
    for length in mu.conjugate().nonzero:
        size *= (length + 1) ** (length - 1)
    return size


def refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refused


@pytest.mark.parametrize("d,k", IK_CASES)
def test_kernel_dimension_counts_the_basis(d, k):
    assert harmonic._kernel_dimension(d, k) == len(perp_basis(ik_presentation(d, k), k))


@pytest.mark.parametrize(
    "count",
    [harmonic._kernel_dimension, lambda d, k, caps: len(perp_basis(ik_presentation(d, k), k, caps))],
    ids=["kernel_dimension", "perp_basis"],
)
def test_kernel_dimension_caps_in_the_order_of_perp_basis(count, monkeypatch):
    # max_box sees the 2^8 box first, then max_products the 2^8 - 1 + 8
    # terms of ik(8,1), before any kernel row is built
    monkeypatch.setattr(harmonic, "_box_kernels", refuse("_box_kernels"))
    with pytest.raises(ResourceLimitError, match="max_box: needed 256,"):
        count(8, 1, ResourceCaps(max_box=255, max_products=1))
    with pytest.raises(ResourceLimitError, match="max_products: needed 263,"):
        count(8, 1, ResourceCaps(max_products=262))


def max_degree(polys):
    return max((mono_degree(m) for p in polys for m in p.terms), default=0)


class TestMiddleDegreeBound:
    """No solution has a term above the middle degree d*bound/2.

    e_1 = sum Z_i is in both presentations, and d/dZ_i is a principal
    nilpotent on the polynomials of degree <= bound in Z_i, so by
    Jacobson-Morozov the box is an sl2-module in which degree t has
    h-eigenvalue 2t - d*bound, and e_1(d/dZ) is injective where that is
    positive.  perp_basis solves only the columns up to the middle; the
    oracle here uses every box column.
    """

    @pytest.mark.parametrize("d,k", IK_CASES)
    def test_ik_kernel(self, d, k):
        assert max_degree(ik_kernel_by_columns(d, k)) <= d * k // 2

    @pytest.mark.parametrize("mu", DCP_SHAPES, ids=str)
    def test_dcp_kernel(self, mu):
        assert max_degree(dcp_kernel_by_columns(mu)) <= mu.d * (mu.d - 1) // 2


# ---------------------------------------------------------------------------
# the syzygy criterion against the systems it prunes


def z_poly(terms):
    """The polynomial with the given {exponent tuple: coefficient} terms."""
    return sum((c * z_monomial(exp) for exp, c in terms.items()), Poly.zero())


def sparse_polys(d, degrees):
    """Nonzero integer polynomials in Z_1..Z_d with terms of the given degrees."""
    exps = [e for e in product(range(max(degrees) + 1), repeat=d) if sum(e) in degrees]
    coefficients = st.integers(-3, 3).filter(bool)
    return st.dictionaries(st.sampled_from(exps), coefficients, min_size=1, max_size=3).map(z_poly)


def member_by_all_products(p, presentation):
    """Membership of homogeneous p from every product m*g of its degree."""
    d, t = presentation.nvars, p.total_degree()

    def monomials(degree):
        return [e for e in product(range(degree + 1), repeat=d) if sum(e) == degree]

    cols = {e: i for i, e in enumerate(monomials(t))}

    def row(poly):
        out = {}
        for mono, c in poly.terms.items():
            exp = [0] * d
            for v, e in mono:
                exp[v.i - 1] = e
            out[cols[tuple(exp)]] = c
        return out

    ech = Echelon()
    for g in presentation.generators:
        if g.total_degree() <= t:
            for m in monomials(t - g.total_degree()):
                ech.insert(row(z_monomial(m) * g))
    return ech.contains(row(p))


def near_generators(gens):
    """Each generator g, -2/3*g, and g with one term doubled: members within
    the cap, and near misses that are members only for a g of one term."""
    out = []
    for g in gens:
        mono, c = min(g.terms.items())
        out += [g, Fraction(-2, 3) * g, g + Poly({mono: c})]
    return out


@st.composite
def homogeneous_cases(draw):
    d = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        degrees.append(0)  # a constant generator reads its own window
    gens = draw(st.permutations([draw(sparse_polys(d, [t])) for t in degrees]))
    targets = draw(st.lists(sparse_polys(d, [draw(st.integers(0, 5))]), min_size=1, max_size=3))
    # multiples of the generators, so that members occur
    targets += [g * draw(sparse_polys(d, [draw(st.integers(0, 2))])) for g in gens]
    targets += near_generators(gens)
    return IdealPresentation(d, tuple(gens), "random"), targets


@given(homogeneous_cases(), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_pruned_membership_matches_all_products(case, cap):
    pres, targets = case
    expected = [p.total_degree() <= cap and member_by_all_products(p, pres) for p in targets]
    assert [ideal_membership(p, pres, cap) for p in targets] == expected


def count_inserts(monkeypatch):
    """The rows inserted into any Echelon from now on, as (row, pivot) pairs."""
    inserted = []
    original = Echelon.insert

    def counting(self, row):
        pivot = original(self, row)
        inserted.append((row, pivot))
        return pivot

    monkeypatch.setattr(Echelon, "insert", counting)
    return inserted


def test_power_sum_kernel_inserts(monkeypatch):
    # the p_m rows of degrees 0..7, pruned by the graded engine's criterion;
    # each has at most d = 7 entries, where an e_m row has up to C(7, m)
    inserted = count_inserts(monkeypatch)
    basis = perp_basis(ik_presentation(7, 2), 2)
    assert len(basis) == closed_form_dimension(7, 2)
    assert len(inserted) == 1191
    assert sum(pivot is None for _, pivot in inserted) == 111
    assert max(len(row) for row, _ in inserted) == 7


@pytest.mark.parametrize("d,k", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_equality_reports_match_all_products_at_every_cap(d, k):
    # the oracle builds no window and has no one-term certificate
    ik = ik_presentation(d, k)
    dcp = dcp_presentation(balanced_partition(d, k))
    forward = [(g, member_by_all_products(g, dcp)) for g in ik.generators]
    backward = [(g, member_by_all_products(g, ik)) for g in dcp.generators]
    for cap in range(d * (k + 1) + 1):
        report = verify_dcp_equality(d, k, cap)
        for got, verdicts in (
            (report.uncertified_forward, forward),
            (report.uncertified_backward, backward),
        ):
            expected = [g.render() for g, ok in verdicts if not (g.total_degree() <= cap and ok)]
            assert got == expected


def test_generator_above_the_cap_is_not_certified():
    e3 = elementary_symmetric(range(1, 4), 3)
    assert ideal_membership(e3, ik_presentation(3, 1), 3)
    assert not ideal_membership(e3, ik_presentation(3, 1), 2)
    assert not ideal_membership(Fraction(-2, 3) * e3, ik_presentation(3, 1), 2)


def test_pruned_membership_inserts_fewer_rows(monkeypatch):
    # both inclusions at (6,2) on the windows of the tests' reference: the
    # targets reach degree 6 on either side, and every product in those
    # fourteen windows would be 2,802 rows
    ik = ik_presentation(6, 2)
    dcp = dcp_presentation(balanced_partition(6, 2))
    inserted = count_inserts(monkeypatch)
    in_dcp = membership_test(dcp, 18)
    in_ik = membership_test(ik, 18)
    assert all(in_dcp(g) for g in ik.generators)
    assert all(in_ik(g) for g in dcp.generators)
    assert len(inserted) == 2098
    assert sum(pivot is None for _, pivot in inserted) == 430


def test_orbit_sums_insert_fewer_rows(monkeypatch):
    # verify_dcp_equality(6,2): the forward identity ranks nothing, and the
    # orbit-sum systems of the backward direction, one per (i, j) with
    # i < 6, take 38 rows, 18 dependent
    inserted = count_inserts(monkeypatch)
    assert verify_dcp_equality(6, 2).passed
    assert len(inserted) == 38
    assert sum(pivot is None for _, pivot in inserted) == 18


# ---------------------------------------------------------------------------
# the backward inclusion on orbit sums against the windows


@pytest.mark.parametrize("d", range(1, 8))
def test_orbit_verdicts_match_the_windows(d):
    # every e_j(1..i), not only the dcp generators: 462 cases up to d = 7
    for k in range(d):
        in_ik = membership_test(ik_presentation(d, k), d * (k + 1))
        for i in range(1, d + 1):
            degrees = range(1, i + 1)
            expected = [in_ik(elementary_symmetric(range(1, i + 1), j)) for j in degrees]
            assert harmonic._orbit_members(d, k, i, degrees) == expected, (k, i)


@pytest.mark.parametrize("d", range(1, 8))
def test_backward_reports_match_the_windows_at_every_cap(d):
    for k in range(d):
        in_ik = membership_test(ik_presentation(d, k), d * (k + 1))
        verdicts = [(g, in_ik(g)) for g in dcp_presentation(balanced_partition(d, k)).generators]
        for cap in range(d * (k + 1) + 1):
            expected = [g.render() for g, ok in verdicts if not (g.total_degree() <= cap and ok)]
            got = harmonic._uncertified_backward(d, k, cap, DEFAULT_CAPS)
            assert got == expected, (k, cap)


# ---------------------------------------------------------------------------
# the forward inclusion by one identity against the windows


@pytest.mark.parametrize("d", range(1, 8))
def test_forward_reports_match_the_windows_at_every_cap(d):
    # every k <= d+1 and every cap: 868 cases up to d = 7
    for k in range(d + 2):
        ik = ik_presentation(d, k)
        in_dcp = membership_test(dcp_presentation(balanced_partition(d, k)), d * (k + 1))
        verdicts = [(g, in_dcp(g)) for g in ik.generators]
        for cap in range(d * (k + 1) + 1):
            expected = [g.render() for g, ok in verdicts if not (g.total_degree() <= cap and ok)]
            assert harmonic._uncertified_forward(ik, k, cap) == expected, (k, cap)


@pytest.mark.parametrize("d,k", [(3, 1), (6, 2), (7, 3)])
def test_forward_needs_every_generator_of_its_identity(d, k, monkeypatch):
    # without the dcp generators e_(k+1)(S), |S| = d-1, the identity for
    # Z_1^(k+1) is not a certificate, so every power is listed, and the
    # e_j, generators of both ideals, stay certified
    original = harmonic._dcp_lows

    def mutant(mu):
        lows = original(mu)
        assert lows[-2] == k + 1
        lows[-2] = k + 2
        return lows

    monkeypatch.setattr(harmonic, "_dcp_lows", mutant)
    report = verify_dcp_equality(d, k)
    assert report.uncertified_forward == [f"Z{s}^{k + 1}" for s in range(1, d + 1)]


def test_a_failing_report_counts_its_renderings_before_building_them(monkeypatch):
    # at (6,2) and cap 2 the failing dcp generators are e_3..e_5(S) with
    # |S| = 5 and e_3..e_6: 6*(10+5+1) + 20+15+6+1 = 138 terms, above the
    # ik presentation's 2^6 - 1 + 6 = 69
    report = verify_dcp_equality(6, 2, 2, ResourceCaps(max_products=138))
    assert sum(len(g.split("+")) for g in report.uncertified_backward) == 138
    built = []
    original = harmonic.elementary_symmetric
    monkeypatch.setattr(
        harmonic, "elementary_symmetric", lambda v, j: built.append(j) or original(v, j)
    )
    with pytest.raises(ResourceLimitError, match="max_products: needed 138, cap is 137"):
        verify_dcp_equality(6, 2, 2, ResourceCaps(max_products=137))
    # the ik generators only
    assert built == list(range(1, 7))


def test_backward_direction_builds_no_dcp_generator(monkeypatch):
    # neither direction builds the dcp presentation or a window, and every
    # verdict holds, so no e_j(S) is built to be rendered: the only
    # elementary symmetric polynomials built are the ik generators and the
    # e_3(Z_2..Z_7) of the forward identity
    built = []
    original = harmonic.elementary_symmetric

    def counting(var_indices, j):
        built.append((tuple(var_indices), j))
        return original(var_indices, j)

    monkeypatch.setattr(harmonic, "elementary_symmetric", counting)
    monkeypatch.setattr(harmonic, "dcp_presentation", refuse("dcp_presentation"))
    monkeypatch.setattr(membership_windows, "window", refuse("window"))
    assert verify_dcp_equality(7, 2).passed
    assert built == [(tuple(range(1, 8)), j) for j in range(1, 8)] + [(tuple(range(2, 8)), 3)]


def test_a_failing_orbit_reports_every_generator_in_order(monkeypatch):
    # at cap 2 every e_3(S) and e_4 of dcp(1,1,2) fail: e_j(S) is not
    # certified above the cap, whatever its orbit
    dcp = dcp_presentation(balanced_partition(4, 2))
    report = verify_dcp_equality(4, 2, 2)
    assert report.uncertified_backward == [g.render() for g in dcp.generators if g.total_degree() > 2]
    # an orbit verdict that fails reports each e_j(S) of its (|S|, j), in
    # generator order: at (5,2) the five e_3(S) with |S| = 4, each listed
    # before the e_4(S) of the same S, which passes
    original = harmonic._orbit_members

    def failing(d, k, i, degrees):
        return [member and (i, j) != (4, 3) for j, member in zip(degrees, original(d, k, i, degrees))]

    monkeypatch.setattr(harmonic, "_orbit_members", failing)
    report = verify_dcp_equality(5, 2)
    assert report.uncertified_backward == [
        g.render()
        for g in dcp_presentation(balanced_partition(5, 2)).generators
        if (len(g.variables()), g.total_degree()) == (4, 3)
    ]
    assert len(report.uncertified_backward) == 5
