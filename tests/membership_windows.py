"""Bounded-degree ideal membership on degree windows, for the tests.

The reference that both routes of `harmonic.verify_dcp_equality` are held
against: p lies in the ideal within the cap when it is an exact linear
combination of monomial multiples m*g of the generators with deg(m*g) <=
cap.  False only means "not certified within the cap", never a disproof.

The generators must be homogeneous, as those of both presentations are
(DeConcini-Procesi); an inhomogeneous one raises DiffhomError before any
window is built.  The bounded span is then graded, so each homogeneous part
of p, of degree t, is tested alone in the window of degree t, spanned by
the products m*g with deg(m*g) = t.

The windows skip dependent rows with a syzygy criterion on one echelon, as
in F5: with the generators taken in order, the multiple m*g_j is dropped
when m is a leading term of the span of the earlier generators' multiples,
because Z^m*g_j = h*g_j - (h - Z^m)*g_j for such an h, and both parts are
spanned by rows that are kept.  The span, and so every verdict, is
unchanged.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from operator import add

from diffhom.errors import DiffhomError
from diffhom.harmonic import IdealPresentation, _z_exponents
from diffhom.linalg import Echelon
from diffhom.polynomials import Poly, compositions
from diffhom.resources import DEFAULT_CAPS


def ideal_membership(p: Poly, presentation: IdealPresentation, degree_cap: int) -> bool:
    """Whether p is certified in the ideal by products of degree at most degree_cap."""
    return membership_test(presentation, degree_cap)(p)


def membership_test(presentation: IdealPresentation, degree_cap: int):
    """The ideal_membership test for one presentation and cap, as a function of p.

    The echelon of a degree is built the first time a polynomial needs it
    and reused for every later one.  The windows grow in degree order: every
    missing degree up to the needed one is built, lowest first.
    `max_products` is checked against the family of the needed degree before
    any window is built; the lower degrees have smaller families.  The
    criterion prunes every degree: the product m*g_j is skipped when m is
    the pivot column of a product of an earlier generator in degree
    t - deg g_j, because that degree spans the degree-(t - deg g_j) part of
    the ideal of g_1..g_(j-1).  So each degree records its rank before each
    generator, which gives the prefix of its pivot columns that generator
    may read.
    """
    d = presentation.nvars
    gens = [(g.total_degree(), _z_exponents(g, d)) for g in presentation.generators]
    for g, (gd, _) in zip(presentation.generators, gens):
        if not g.is_homogeneous(gd):
            raise DiffhomError(f"{presentation.label}: generator {g.render()} is not homogeneous")
    windows: list[tuple] = []

    def window_of(t: int) -> tuple:
        if t >= len(windows):
            DEFAULT_CAPS.check(
                "max_products", sum(comb(t - gd + d - 1, d - 1) for gd, _ in gens if gd <= t)
            )
            for s in range(len(windows), t + 1):
                windows.append(window(gens, d, s, windows))
        return windows[t]

    def member(p: Poly) -> bool:
        if p.is_zero:
            return True
        p_terms = _z_exponents(p, d)  # also validates the variable universe
        if max(sum(exp) for exp, _ in p_terms) > degree_cap:
            return False
        targets: dict[int, dict] = {}
        for exp, c in p_terms:
            targets.setdefault(sum(exp), {})[exp] = c
        for t, target in targets.items():
            ech, _, col_index, _ = window_of(t)
            if not ech.contains({col_index[exp]: c for exp, c in target.items()}):
                return False
        return True

    return member


def window(gens, d: int, t: int, lower: list) -> tuple:
    """The echelon of the products m*g of degree t, pruned by the syzygy criterion.

    gens lists (total degree, terms) of homogeneous generators, and lower
    lists the built windows of the lower degrees, by degree.  Returns
    (echelon, columns, column index, echelon rank before each generator).  Each
    generator's products are inserted by descending multiplier, skipping
    the multipliers that are pivot columns of the earlier generators in the
    window they come from (this window itself for a constant generator).
    """
    cols = list(compositions(t, d))
    col_index = {exp: i for i, exp in enumerate(cols)}
    ech, ranks = Echelon(), []
    built = ech, cols, col_index, ranks
    for j, (gd, terms) in enumerate(gens):
        ranks.append(ech.rank)
        if gd > t:
            continue
        low_ech, low_cols, _, low_ranks = lower[t - gd] if gd else built
        skip = set(islice(low_ech.leads, low_ranks[j]))
        for i in reversed(range(len(low_cols))):
            if i not in skip:
                m = low_cols[i]
                ech.insert({col_index[tuple(map(add, m, e))]: c for e, c in terms})
    return built
