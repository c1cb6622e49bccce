"""Exact echelon forms, ranks, and null spaces."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from diffhom.linalg import Echelon, echelon_of, graded_rows, int_row, nullspace, rank_of


def test_int_row_clears_denominators():
    row = int_row({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert row == {0: 3, 1: 2}


def _int_row_by_lcm(row):
    """The lcm-and-convert formula applied to every row, int or not."""
    items = [(c, v) for c, v in row.items() if v]
    if not items:
        return {}
    denom = 1
    for _, v in items:
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {c: int(v * denom) if isinstance(v, Fraction) else v * denom for c, v in items}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    return {c: v // g for c, v in out.items()} if g > 1 else out


@pytest.mark.parametrize(
    "row",
    [
        {},
        {0: 0, 1: 0},
        {0: 4, 1: -6, 2: 0},
        {3: 7, 1: 5},
        {0: True, 1: 2},
        {0: True, 1: False, 2: True},
        {0: Fraction(4), 1: 6},
        {0: Fraction(2, 1), 1: Fraction(0), 2: Fraction(-8, 1)},
        {0: Fraction(1, 2), 1: 3, 2: 0},
        {5: -3, 2: Fraction(9, 6)},
    ],
)
def test_int_row_matches_the_lcm_formula(row):
    new, old = int_row(row), _int_row_by_lcm(row)
    assert list(new.items()) == list(old.items())
    assert [type(v) for v in new.values()] == [type(v) for v in old.values()] == [int] * len(new)


def test_rank_and_contains():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}]
    ech = echelon_of(rows)
    assert ech.rank == 2
    assert ech.contains({0: 3, 1: 6})
    assert not ech.contains({2: 1})


def test_nullspace_known_kernel():
    # x + y + z = 0, y - z = 0  ->  kernel spanned by (-2, 1, 1)
    vecs = nullspace([{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}], 3)
    assert vecs == [{2: 1, 0: -2, 1: 1}]


def test_nullspace_of_zero_map_is_identity():
    vecs = nullspace([], 3)
    assert vecs == [{0: 1}, {1: 1}, {2: 1}]


def test_nullspace_at_full_rank_builds_no_rref(monkeypatch):
    def unread(self):
        raise AssertionError("the RREF of a full-rank system was built")

    monkeypatch.setattr(Echelon, "pivots", property(unread))
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}, {0: 2, 2: 3}, {0: 1, 1: 2, 2: 1}]
    assert nullspace(rows, 3) == []


def test_echelon_is_insertion_order_independent():
    rows = [{0: 2, 1: 4, 2: 2}, {1: 3, 2: 3}, {0: 1, 2: 5}]
    forward = echelon_of(rows).pivots
    backward = echelon_of(reversed(rows)).pivots
    assert forward == backward


def test_kernel_vectors_annihilated():
    rows = [{0: 5, 1: 1, 3: 2}, {1: 7, 2: -3}, {0: 1, 2: 1, 3: 1}]
    for vec in nullspace(rows, 4):
        for row in rows:
            assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0


def test_incremental_insert_reports_dependence():
    ech = Echelon()
    assert ech.insert({0: 1, 1: 1}) == 0
    assert ech.insert({0: 2, 1: 2}) is None
    assert ech.insert({1: 5}) == 1
    assert ech.rank == 2


def test_leads_are_the_pivots_in_the_order_found():
    rows = [{2: 1, 3: 1}, {0: 1, 2: 1}, {0: 2, 2: 2}, {1: 1, 3: 4}]
    ech = Echelon()
    found = [c for c in (ech.insert(row) for row in rows) if c is not None]
    assert list(ech.leads) == found == [2, 0, 1]
    assert set(ech.leads) == set(ech.pivots)
    assert list(ech.leads) == found  # reading the RREF keeps the order


def dense_rref(rows, ncols):
    """Independent dense Gauss-Jordan oracle over Fraction."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return pivots, mat


def test_against_dense_oracle():
    import random

    rng = random.Random(77)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = []
        for _ in range(nrows):
            row = {
                c: rng.randint(-5, 5)
                for c in range(ncols)
                if rng.random() < 0.55
            }
            rows.append({c: v for c, v in row.items() if v})
        ech = echelon_of(rows)
        pivots, dense = dense_rref(rows, ncols)
        assert sorted(ech.pivots) == pivots
        kernel = nullspace(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for vec in kernel:
            for row in rows:
                assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0
        # the echelon rows equal the dense RREF rows up to the primitive scaling
        for r_idx, pivot_col in enumerate(pivots):
            sparse = ech.pivots[pivot_col]
            lead = sparse[pivot_col]
            dense_row = dense[r_idx]
            for c in range(ncols):
                assert Fraction(sparse.get(c, 0), lead) == dense_row[c]


def test_tuple_keys_pivot_in_key_order():
    ech = echelon_of([{(1, (0, 1)): 2, (0, (1, 0)): 4}, {(1, (0, 1)): 1}])
    assert ech.pivots == {(0, (1, 0)): {(0, (1, 0)): 1}, (1, (0, 1)): {(1, (0, 1)): 1}}


# Interleaved operations on an Echelon, checked step by step against the
# dense oracle.  ("insert", row) inserts a random row, ("combo", weights) a
# combination of the rows inserted so far (dependent unless all weights are
# 0 or there are none), ("contains", row) and ("rank",) query, ("pivots",)
# reads the reduced form mid-stream.
NCOLS = 6
sparse_rows = st.dictionaries(
    st.integers(0, NCOLS - 1), st.integers(-4, 4).filter(bool), max_size=NCOLS
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), sparse_rows),
        st.tuples(st.just("combo"), st.lists(st.integers(-3, 3), max_size=8)),
        st.tuples(st.just("contains"), sparse_rows),
        st.tuples(st.just("rank")),
        st.tuples(st.just("pivots")),
    ),
    max_size=14,
)
KEYS = {
    "int": lambda c: c,
    # (grade, tuple) keys whose order is the order of c
    "tuple": lambda c: (c // 2, (c % 2, c)),
}


def _oracle_pivots(rows, key):
    """The dense RREF as primitive integer rows with positive pivots."""
    pivots, dense = dense_rref(rows, NCOLS)
    out = {}
    for pivot_col, row in zip(pivots, dense):
        scale = lcm(*(x.denominator for x in row))
        ints = {c: int(x * scale) for c, x in enumerate(row) if x}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        out[key(pivot_col)] = {key(c): v // g for c, v in ints.items()}
    return out


@given(operations, st.sampled_from(sorted(KEYS)))
@settings(max_examples=150, deadline=None)
def test_lazy_echelon_matches_dense_oracle_between_operations(ops, key_kind):
    # ech reads its reduced form only at ("pivots",) and at the end, so it
    # also takes runs of inserts between reads; checked reads it after every
    # step, so each insert lands on a freshly reduced form.
    key = KEYS[key_kind]
    ech, checked = Echelon(), Echelon()
    inserted = []
    for op in ops:
        expected = _oracle_pivots(inserted, key)
        if op[0] in ("insert", "combo"):
            if op[0] == "insert":
                row = op[1]
            else:
                row = {}
                for weight, r in zip(op[1], inserted):
                    for c, v in r.items():
                        row[c] = row.get(c, 0) + weight * v
                row = {c: v for c, v in row.items() if v}
            inserted.append(row)
            new_pivots = _oracle_pivots(inserted, key).keys() - expected.keys()
            expected = _oracle_pivots(inserted, key)
            for e in (ech, checked):
                pivot = e.insert({key(c): v for c, v in row.items()})
                assert {pivot} - {None} == new_pivots
        elif op[0] == "contains":
            row = {key(c): v for c, v in op[1].items()}
            in_span = len(_oracle_pivots(inserted + [op[1]], key)) == len(expected)
            assert ech.contains(row) == checked.contains(row) == in_span
        elif op[0] == "rank":
            assert ech.rank == checked.rank == len(expected)
        else:
            assert ech.pivots == expected
        assert checked.pivots == expected
        for vec in nullspace(inserted, NCOLS):
            for row in inserted:
                assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0
    assert ech.pivots == _oracle_pivots(inserted, key)


@st.composite
def rows_with_repeats(draw):
    """A row list with some rows repeated and some empty or all-zero rows."""
    rows = draw(st.lists(sparse_rows, max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows += draw(st.lists(st.sampled_from([{}, {0: 0}, {NCOLS - 1: 0, 2: 0}]), max_size=3))
    return rows


@given(rows_with_repeats(), st.data())
@settings(max_examples=150, deadline=None)
def test_batch_results_are_independent_of_row_order(rows, data):
    shuffled = data.draw(st.permutations(rows))
    expected = _oracle_pivots(rows, KEYS["int"])
    assert rank_of(shuffled) == rank_of(rows) == len(expected)
    kernel = nullspace(rows, NCOLS)
    assert nullspace(shuffled, NCOLS) == kernel
    assert len(kernel) == NCOLS - len(expected)


@st.composite
def commuting_graded_family(draw):
    """Block sizes, operator shifts, and the rows of commuting graded operators.

    The space is V (x) U (x) W for graded spaces V and W, with random integer
    maps A on V and B on W that lower the grade by one, and an ungraded U
    with a random integer map M.  A, M and B act on different factors, so
    the operators E_i = sum_(p+q=s_i) (c_p + c'_p M) A^p B^q, one for each
    drawn shift s_i >= 1, commute.  The shifts repeat freely.
    rows[i][w][mu] is the row of E_i at column mu of block w - s_i, over
    block w's columns, zeros included.
    """
    entries = st.integers(-2, 2)
    lengths, factors = [], []
    for _ in range(2):
        sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        # a basis vector (g, x) of grade g maps to {(g - 1, y): entry}
        factors.append(
            {
                (g, x): {(g - 1, y): draw(entries) for y in range(sizes[g - 1])} if g else {}
                for g, n in enumerate(sizes)
                for x in range(n)
            }
        )
        lengths.append(len(sizes))
    a, b = factors
    u = draw(st.integers(1, 2))
    m = {z: {z2: draw(entries) for z2 in range(u)} for z in range(u)}
    # a column is a key (v, z, y) with v, y basis vectors of V, W and z of U
    blocks = [
        [(v, z, y) for v in a for z in range(u) for y in b if v[0] + y[0] == w]
        for w in range(sum(lengths) - 1)
    ]
    index = [{col: ci for ci, col in enumerate(block)} for block in blocks]
    sizes = list(map(len, blocks))
    shifts = draw(st.lists(st.integers(1, len(sizes)), max_size=5))

    def apply(vec, slot, table):
        """One factor's map applied to {key: value}, acting on key[slot]."""
        out = {}
        for key, v in vec.items():
            for image, c in table[key[slot]].items():
                new = key[:slot] + (image,) + key[slot + 1 :]
                out[new] = out.get(new, 0) + c * v
        return out

    rows = []
    for s in shifts:
        coefficients = draw(st.lists(st.tuples(entries, entries), min_size=s + 1, max_size=s + 1))
        by_block = []
        for w, block in enumerate(blocks):
            # the rows of E_i in block w are the transpose of its images there
            low = [dict.fromkeys(range(len(block)), 0) for _ in blocks[w - s]] if s <= w else None
            for ci, col in enumerate(block if low is not None else ()):
                for p, (c, c2) in enumerate(coefficients):
                    vec = {col: 1}
                    for _ in range(p):
                        vec = apply(vec, 0, a)
                    for _ in range(s - p):
                        vec = apply(vec, 2, b)
                    for key, v in vec.items():
                        low[index[w - s][key]][ci] += c * v
                    for key, v in apply(vec, 1, m).items():
                        low[index[w - s][key]][ci] += c2 * v
            by_block.append(low)
        rows.append(by_block)
    return sizes, shifts, rows


@given(commuting_graded_family())
@settings(max_examples=150, deadline=None)
def test_graded_kernels_criterion_keeps_every_kernel(family):
    sizes, shifts, rows = family

    def row(i, w, mu):
        return {c: v for c, v in rows[i][w][mu].items() if v}

    expected = [
        nullspace(
            [row(i, w, mu) for i, s in enumerate(shifts) if s <= w for mu in range(sizes[w - s])],
            ncols,
        )
        for w, ncols in enumerate(sizes)
    ]
    requested = []
    # leads[w][mu]: the operators whose returned rows in block w start at mu
    leads = [{} for _ in sizes]

    def recording(i, w, mu):
        requested.append((i, w, mu))
        r = row(i, w, mu)
        nonzero = [c for c, v in r.items() if v]
        if nonzero:
            leads[w].setdefault(min(nonzero), set()).add(i)
        return r

    blocks = list(graded_rows(sizes, shifts, recording))
    assert [nullspace(rows, ncols) for rows, ncols in zip(blocks, sizes)] == expected
    # a block's kernel dimension is its column count minus the rank of its rows
    assert [ncols - rank_of(rows) for rows, ncols in zip(blocks, sizes)] == list(map(len, expected))
    for i, w, mu in requested:
        assert not any(l < i for l in leads[w - shifts[i]].get(mu, ())), (i, w, mu)


def test_graded_rows_builds_one_block_at_a_time():
    requested = []

    def row(i, w, mu):
        requested.append(w)
        return {mu: 1}

    for w, rows in enumerate(graded_rows([2, 3, 3, 3], [1, 2], row)):
        # no row of a later block is built before this one is handed out
        assert max(requested, default=0) <= w
        assert all(r for r in rows)
    assert max(requested) == 3
