"""Index enumeration, generator construction, and the finite-generation suite."""

from __future__ import annotations

import dataclasses
import gc
from itertools import accumulate, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from diffhom import catalog as catalog_module
from diffhom.catalog import (
    NestedIndex,
    build_catalog,
    build_generator,
    composition_to_function,
    degree_generation_entry,
    degree_quotient_entry,
    function_to_composition,
    model_class_sizes,
    nested_count_formula,
    top_order_indices,
    top_order_nested_indices,
    verify_finite_generation,
    verify_minimality,
    verify_quotient_basis,
    weighted_signature,
)
from diffhom.errors import InvalidCompositionError, InvalidIndexError, ResourceLimitError
from diffhom.jets import JetContext, diff_homog_basis, is_diff_homogeneous
from diffhom.polynomials import Poly, compositions, jet_var, slot_var
from diffhom.resources import ResourceCaps
from diffhom.spans import rank_modulo
from diffhom.tensors import (
    project_to_symmetric,
    tensor_from_multilinear,
    wronskian,
)

from span_checks import spans_equal


def refuse(*args, **kwargs):
    raise AssertionError("called after the cap check")


X0 = Poly.variable(jet_var(0, 0))
X1 = Poly.variable(jet_var(1, 0))
W = X0 * Poly.variable(jet_var(1, 1)) - X1 * Poly.variable(jet_var(0, 1))


class TestModelIndices:
    def test_degree_two(self):
        assert [i.alpha for i in top_order_indices(2)] == [(0, 0)]

    def test_degree_three(self):
        assert [i.alpha for i in top_order_indices(3)] == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
        ]

    @pytest.mark.parametrize("d", range(2, 8))
    def test_cardinality(self, d):
        assert len(top_order_indices(d)) == factorial(d) // 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_class_sizes(self, d):
        sizes = model_class_sizes(top_order_indices(d))
        assert sizes[1] == 0
        for witness in range(1, d + 1):
            expected = factorial(d - 1) * (witness - 1) // (d - 1)
            assert sizes[witness] == expected

    @pytest.mark.parametrize("d", range(1, 8))
    def test_multilinear_block_matches_the_deletion_definition(self, d):
        # the model indices, read off the nested block of d length-one runs,
        # are the staircase tuples whose deletion witness exists, each with
        # its largest witness
        def model_witness(alpha):
            for i in range(len(alpha), 0, -1):
                hat = alpha[: i - 1] + alpha[i:]
                if alpha[i - 1] == 0 and all(a <= j for j, a in enumerate(hat)):
                    return i
            return None

        staircase = product(*(range(j) for j in range(1, d + 1)))
        expected = [(a, w) for a in staircase if (w := model_witness(a))]
        assert [(i.alpha, i.witness) for i in top_order_indices(d)] == expected

    @pytest.mark.parametrize("d", [4, 5])
    def test_enumeration_capped_before_any_candidate(self, d, monkeypatch):
        count = factorial(d)
        assert len(top_order_indices(d, ResourceCaps(max_enumeration=count))) == count // 2
        monkeypatch.setattr(catalog_module, "_nested_block", refuse)
        with pytest.raises(ResourceLimitError, match=f"max_enumeration: needed {count},"):
            top_order_indices(d, ResourceCaps(max_enumeration=count - 1))


class TestNestedIndices:
    def test_small_families(self):
        assert len(top_order_nested_indices(1, 2)) == 1
        assert len(top_order_nested_indices(2, 2)) == 3
        assert len(top_order_nested_indices(1, 3)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_counting_formula(self, n, d):
        assert len(top_order_nested_indices(n, d)) == nested_count_formula(n, d)

    @pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 3)])
    def test_enumeration_capped_before_any_candidate(self, n, d, monkeypatch):
        # the (n+1)^d candidates are counted in closed form before any block
        # is walked; the count itself passes
        count = (n + 1) ** d
        family = top_order_nested_indices(n, d, ResourceCaps(max_enumeration=count))
        assert len(family) == nested_count_formula(n, d)
        monkeypatch.setattr(catalog_module, "_nested_block", refuse)
        with pytest.raises(ResourceLimitError, match=f"max_enumeration: needed {count},"):
            top_order_nested_indices(n, d, ResourceCaps(max_enumeration=count - 1))

    def test_candidate_count_closed_form(self):
        # run i has C(P_i, r_i) candidates, P_i = r_0 + ... + r_i; over all
        # compositions of d into n+1 runs they number (n+1)^d
        for n in range(5):
            for d in range(9):
                total = sum(
                    prod(comb(p, r) for p, r in zip(accumulate(comp), comp))
                    for comp in compositions(d, n + 1)
                )
                assert total == (n + 1) ** d

    def test_degree_one_is_unit_runs(self):
        family = top_order_nested_indices(2, 1)
        assert [idx.runs for idx in family] == [
            ((0,), (), ()),
            ((), (0,), ()),
            ((), (), (0,)),
        ]

    def test_multinomial_identity(self):
        # sum over |m| = d of multinomial(d-2; m - e_j - e_l) equals (N+1)^(d-2)
        def multinomial(total, parts):
            if any(p < 0 for p in parts) or sum(parts) != total:
                return 0
            out = factorial(total)
            for p in parts:
                out //= factorial(p)
            return out

        for n in (1, 2, 3):
            for d in (2, 3, 4, 5):
                for j in range(n + 1):
                    for ell in range(j + 1, n + 1):
                        total = 0
                        for m in product(range(d + 1), repeat=n + 1):
                            if sum(m) != d:
                                continue
                            shifted = list(m)
                            shifted[j] -= 1
                            shifted[ell] -= 1
                            total += multinomial(d - 2, shifted)
                        assert total == (n + 1) ** (d - 2)


class TestCompositionBijection:
    def test_constant_function(self):
        assert function_to_composition((0, 0, 0), 1) == (3, 0)

    def test_forced_function(self):
        assert composition_to_function((1, 1)) == (0, 1)

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidCompositionError):
            function_to_composition((1, 0), 1)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_round_trip(self, counts):
        f = composition_to_function(counts)
        assert function_to_composition(f, len(counts) - 1) == tuple(counts)


class TestBuildGenerator:
    def test_degree_two(self):
        (idx,) = top_order_nested_indices(1, 2)
        assert build_generator(idx, 1, 2) == W

    def test_degree_one(self):
        idx = top_order_nested_indices(1, 1)[0]
        assert build_generator(idx, 1, 1) == X0

    def test_degree_three_orders_and_independence(self):
        family = [build_generator(idx, 1, 3) for idx in top_order_nested_indices(1, 3)]
        assert all(g.derivation_order() == 2 for g in family)
        lower = diff_homog_basis(JetContext(1, 1, 3)).elements
        assert rank_modulo(family, lower) == 2

    def test_generators_are_invariant(self):
        for n, d in ((1, 2), (1, 3), (2, 2), (2, 3)):
            ctx = JetContext(n, d - 1, d)
            for idx in top_order_nested_indices(n, d):
                g = build_generator(idx, n, d)
                assert g.is_homogeneous(d)
                assert g.derivation_order() <= d - 1
                assert is_diff_homogeneous(g, d, ctx)

    def test_rejects_malformed_runs(self):
        with pytest.raises(InvalidIndexError):
            build_generator(NestedIndex(((0, 0), ())), 1, 2)
        with pytest.raises(InvalidIndexError):
            build_generator(NestedIndex(((0,), (5,))), 1, 2)

    def test_projection_route_agrees(self):
        for n, d in ((1, 2), (1, 3), (2, 2)):
            for idx in top_order_nested_indices(n, d):
                built = build_generator(idx, n, d)
                tensor = tensor_from_multilinear(wronskian(idx.flat), d, d - 1)
                projected = project_to_symmetric(
                    tensor, composition_to_function(idx.lengths)
                ).sign_normalized()
                assert built == projected


class TestTriangularity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coefficient_extraction(self, d):
        # deleting the witness slot from the exponent tuple matches extracting
        # the top-order coefficient of the witness slot's variable
        for idx in top_order_indices(d):
            witness = idx.witness
            w = wronskian(idx.alpha)
            coeff = w.coefficient_of(slot_var(witness, d - 1))
            hat = idx.alpha[: witness - 1] + idx.alpha[witness:]
            smaller = wronskian(hat)
            relabel = {}
            for v in smaller.variables():
                slot = v.i if v.i < witness else v.i + 1
                relabel[v] = Poly.variable(slot_var(slot, v.j))
            expected = smaller.substitute(relabel)
            assert coeff == expected or coeff == -expected


def quotient_oracle(catalog, d):
    """The quotient-basis fields, from two separate rankings.

    (full dimension, lower dimension, family size, spans, independent): the
    full space is compared with the lower space plus the family, and the
    family is ranked modulo the lower space.
    """
    full = diff_homog_basis(JetContext(catalog.n, d - 1, d)).elements
    lower = diff_homog_basis(JetContext(catalog.n, d - 2, d)).elements if d >= 2 else []
    family = [rec.poly for rec in catalog.family(d)]
    spans = spans_equal(full, lower + family)
    independent = rank_modulo(family, lower) == len(family)
    return len(full), len(lower), len(family), spans, independent


def quotient_fields(report):
    return (
        report.full_dimension,
        report.lower_dimension,
        report.family_size,
        report.spans,
        report.independent,
    )


class TestVerification:
    @pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2)])
    def test_quotient_basis(self, n, d):
        report = verify_quotient_basis(n, d)
        assert report.passed
        assert report.family_size == nested_count_formula(n, d)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in (1, 2) for d in range(1, 6)] + [(3, d) for d in range(1, 5)]
    )
    def test_quotient_entry_matches_the_two_span_oracle(self, n, d):
        catalog = build_catalog(n, d - 1)
        report = degree_quotient_entry(catalog, d)
        assert (report.n, report.d) == (n, d)
        assert quotient_fields(report) == quotient_oracle(catalog, d)
        assert quotient_fields(verify_quotient_basis(n, d)) == quotient_fields(report)

    @pytest.mark.parametrize(
        "mutation,expected",
        [
            ("duplicate-first", (True, False, False)),
            ("drop-first", (False, True, False)),
            ("first-is-lower-order", (False, False, True)),
        ],
    )
    def test_quotient_entry_on_mutated_catalogs(self, mutation, expected):
        # every generator is inserted, so a dependent one does not hide the
        # ones after it from the span test
        catalog = build_catalog(2, 2)
        family = catalog.family(3)
        if mutation == "duplicate-first":
            family = (family[0],) + family
        elif mutation == "drop-first":
            family = family[1:]
        else:
            order_one = diff_homog_basis(JetContext(2, 1, 3)).elements[0]
            family = (dataclasses.replace(family[0], poly=order_one),) + family[1:]
        mutated = dataclasses.replace(catalog, families=catalog.families[:2] + (family,))
        report = degree_quotient_entry(mutated, 3)
        assert (report.spans, report.independent, report.count_matches) == expected
        assert quotient_fields(report) == quotient_oracle(mutated, 3)
        assert not report.passed

    def test_finite_generation_small(self):
        report = verify_finite_generation(1, 1, 4)
        assert report.passed
        assert [e.invariant_dimension for e in report.entries] == [2, 4, 6, 9]

    def test_minimality_small(self):
        assert verify_minimality(1, 1).passed
        assert verify_minimality(2, 1).passed

    @pytest.mark.parametrize("n,k,degree", [(1, 1, 4), (1, 2, 5), (2, 2, 3)])
    def test_generation_products_capped_before_any_is_built(self, n, k, degree, monkeypatch):
        # one below the number of generator monomials is refused before the
        # monomials or the invariant basis are built; the number itself passes
        catalog = build_catalog(n, k)
        count = len(catalog_module._degree_products(catalog, degree))
        entry = degree_generation_entry(catalog, degree, ResourceCaps(max_products=count))
        assert entry.product_count == count
        monkeypatch.setattr(catalog_module, "_degree_products", refuse)
        monkeypatch.setattr(catalog_module, "diff_homog_basis", refuse)
        with pytest.raises(ResourceLimitError, match=f"max_products: needed {count},"):
            degree_generation_entry(catalog, degree, ResourceCaps(max_products=count - 1))

    def test_degree_products_leave_no_garbage_cycle(self):
        # the recursion is a module function, so reference counting alone
        # frees every partial product
        gc.disable()
        try:
            gc.collect()
            assert len(catalog_module._degree_products(build_catalog(1, 2), 3)) == 8
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 3), (2, 2), (3, 2)])
    def test_catalog_capped_before_any_index_is_enumerated(self, n, k, monkeypatch):
        # the generator count is checked before any index or determinant is
        # built; the count itself passes
        count = sum(build_catalog(n, k).counts())
        assert len(build_catalog(n, k, ResourceCaps(max_products=count)).all_records()) == count
        monkeypatch.setattr(catalog_module, "top_order_nested_indices", refuse)
        monkeypatch.setattr(catalog_module, "build_generator", refuse)
        with pytest.raises(ResourceLimitError, match=f"max_products: needed {count},"):
            build_catalog(n, k, ResourceCaps(max_products=count - 1))

    def test_catalog_counts(self):
        assert build_catalog(1, 2).counts() == [2, 1, 2]
        assert build_catalog(2, 2).counts() == [3, 3, 9]

    def test_weighted_signature(self):
        assert weighted_signature(1, 1) == [(1, 2), (2, 1)]
        assert weighted_signature(1, 0) == [(1, 2)]
        assert weighted_signature(2, 2) == [(1, 3), (2, 3), (3, 9)]
