import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from homleibniz import cochain
from homleibniz.cochain import CochainSpace
from homleibniz.documents import parse_matrix, serialize_matrix
from homleibniz.fixtures import calibration_battery
from homleibniz.linalg import (
    Matrix,
    _eliminate,
    coords_in_basis,
    kernel_basis,
    rank,
    dense_vector,
    solve,
    sparse_vector,
)
from oracles import (
    assert_kernel_born_in_ints,
    basis_form,
    dense_coords_in_basis,
    dense_kernel_vectors,
    dense_matmul,
    dense_rank,
    dense_rref,
    dense_solve,
    fraction_kernel_form,
    fraction_rref,
    fractions_made,
    matvec,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(max_dim=4, cells=rationals):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(cells, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda e: Matrix(r, c, e))
        )
    )


# about two thirds of the cells are zero
sparse_cells = st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)


def rref(m, b=()):
    """_eliminate's RREF with each row divided by its pivot entry, in Fractions."""
    return {p: {c: Q(v, row[p]) for c, v in row.items()} for p, row in _eliminate(m, b).items()}


def assert_matches_dense_elimination(m, rnd):
    """rank, kernel_basis and solve equal the dense reference exactly, and
    every entry they return is a Fraction."""
    assert rank(m) == dense_rank(m)
    kb = kernel_basis(m)
    assert kb.vectors == dense_kernel_vectors(m)
    assert all(type(x) is Q for v in kb.vectors for x in v)
    consistent = matvec(m, [Q(rnd.randint(-3, 3)) for _ in range(m.cols)])
    arbitrary = [Q(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(m.rows)]
    for b in (consistent, arbitrary):
        x = solve(m, b)
        assert x == dense_solve(m, b)
        assert x is None or all(type(v) is Q for v in x)


# ---------------------------------------------------------------------------
# hand examples


def test_rref_pivoting_is_first_nonzero():
    m = Matrix(2, 3, [[0, 2, 4], [1, 1, 1]])
    assert rank(m) == 2


def test_rank_examples():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 5)) == 0
    assert rank(Matrix(2, 2, [[1, 2], [2, 4]])) == 1


def test_kernel_of_singular_matrix():
    m = Matrix(2, 2, [[1, 2], [2, 4]])
    kb = kernel_basis(m)
    assert kb.dim == 1
    assert kb.vectors[0] == [Q(-2), Q(1)]
    assert all(x == 0 for x in matvec(m, kb.vectors[0]))


def test_solve_exact_example():
    m = Matrix(2, 2, [[2, 0], [0, 3]])
    assert solve(m, [Q(1), Q(1)]) == [Q(1, 2), Q(1, 3)]


def test_solve_inconsistent_returns_none():
    m = Matrix(2, 1, [[1], [1]])
    assert solve(m, [Q(0), Q(1)]) is None


def test_coords_in_basis_outside_span():
    kb = kernel_basis(Matrix(1, 2, [[1, 1]]))
    assert coords_in_basis(kb, {0: Q(1), 1: Q(-1)}) == {0: Q(-1)}
    assert coords_in_basis(kb, {0: Q(1), 1: Q(1)}) is None


# ---------------------------------------------------------------------------
# the sparse storage against the dense references


def grids(rows, cols, cells=sparse_cells):
    return st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=80, deadline=None)
@given(matrices(cells=sparse_cells), st.data())
def test_sparse_matrix_matches_dense_reference(a, data):
    grid = a.entries
    assert all(type(x) is Q for row in grid for x in row)
    assert Matrix(a.rows, a.cols, grid) == a
    sparse = Matrix.from_rationals([sparse_vector(row) for row in grid], a.cols)
    assert sparse == a and hash(sparse) == hash(a) and sparse.entries == grid
    parsed = parse_matrix(serialize_matrix(a), a.rows, a.cols, "m")
    assert parsed == a and parsed.entries == grid
    for i in range(a.rows):
        assert a.row(i) == sparse_vector(grid[i]) and all(type(x) is Q for x in a.row(i).values())
    for j in range(a.cols):
        assert a.column(j) == {i: row[j] for i, row in enumerate(grid) if row[j]}
    assert a.is_zero() == all(x == 0 for row in grid for x in row)

    c = data.draw(rationals)
    assert a.scaled(c).entries == [[c * x for x in row] for row in grid]
    vec = data.draw(st.lists(rationals, min_size=a.cols, max_size=a.cols))
    assert matvec(a, vec) == [row[0] for row in (a @ Matrix(a.cols, 1, [[x] for x in vec])).entries]

    same = Matrix(a.rows, a.cols, data.draw(grids(a.rows, a.cols)))
    diff = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(grid, same.entries)]
    assert (a - same).entries == diff
    assert (a == same) == (grid == same.entries)
    assert a != Matrix.zeros(a.rows, a.cols + 1)

    b = Matrix(a.cols, 3, data.draw(grids(a.cols, 3)))
    product = a @ b
    assert product == dense_matmul(a, b)
    assert all(type(x) is Q for row in product.entries for x in row)

    square = Matrix(a.rows, a.rows, data.draw(grids(a.rows, a.rows)))
    k = data.draw(st.integers(0, 3))
    want = Matrix.identity(a.rows)
    for _ in range(k):
        want = dense_matmul(want, square)
    assert square.power(k) == want
    # every construction path stores int numerators over an int den
    built = [a, sparse, parsed, a.scaled(c), a - same, product, square.power(k)]
    for m in built + [Matrix.identity(a.rows), Matrix.zeros(a.rows, a.cols)]:
        assert_one_form(m)


def assert_one_form(m):
    """m stores nonzero int numerators only, in its shape, over an int den >= 1."""
    rows, den = m.numerators()
    assert type(den) is int and den >= 1 and len(rows) == m.rows
    assert all(type(x) is int and x and 0 <= c < m.cols for row in rows for c, x in row.items())


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=6, cells=sparse_cells), st.randoms(use_true_random=False))
def test_coords_in_basis_matches_dense_reference(m, rnd):
    kb = kernel_basis(m)
    inside = [Q(0)] * m.cols
    for v in kb.vectors:
        c = Q(rnd.randint(-2, 2), rnd.randint(1, 3))
        inside = [a + c * b for a, b in zip(inside, v)]
    arbitrary = [Q(rnd.randint(-1, 1)) for _ in range(m.cols)]
    # a member moved off the span at a pivot column, where no unit row sees it
    pivots = [c for c in range(m.cols) if c not in kb.unit_rows]
    moved = inside[:]
    if pivots:
        moved[rnd.choice(pivots)] += 1
    for vec in (inside, arbitrary, moved):
        want = dense_coords_in_basis(kb, vec)
        got = coords_in_basis(kb, sparse_vector(vec))
        assert (got is None) == (want is None)
        assert got is None or dense_vector(got, kb.dim) == want
    assert coords_in_basis(kb, sparse_vector(inside)) is not None
    assert not pivots or coords_in_basis(kb, sparse_vector(moved)) is None


# ---------------------------------------------------------------------------
# the sparse elimination against the dense reference and sympy


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=6), st.randoms(use_true_random=False))
def test_elimination_matches_dense_reference(m, rnd):
    assert_matches_dense_elimination(m, rnd)


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=8, cells=sparse_cells), st.randoms(use_true_random=False))
def test_elimination_matches_dense_reference_on_sparse_matrices(m, rnd):
    assert_matches_dense_elimination(m, rnd)


def test_elimination_matches_dense_reference_on_constraint_matrices(monkeypatch):
    seen = []

    def recording_kernel_basis(m):
        seen.append(m)
        return kernel_basis(m)

    monkeypatch.setattr(cochain, "kernel_basis", recording_kernel_basis)
    for algebra, rep in calibration_battery():
        for p in (1, 2, 3):
            CochainSpace(algebra, rep, p)
    assert len(seen) == 3 * len(calibration_battery())
    rnd = random.Random(5)
    for m in seen:
        assert_matches_dense_elimination(m, rnd)


def _qq_matrix(sympy, rows, cols, entries):
    from sympy.polys.matrices import DomainMatrix

    qq = [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in entries]
    return DomainMatrix(qq, (rows, cols), sympy.QQ)


def test_elimination_matches_sympy_on_random_sparse_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)

    def cell(density):
        return Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Q(0)

    for trial in range(40):
        r, c = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice([0.05, 0.15, 0.4])
        if trial % 2:
            # a product through k < min(r, c) dimensions, so rank-deficient
            k = rng.randint(1, max(1, min(r, c) - 1))
            left = [[cell(density) for _ in range(k)] for _ in range(r)]
            right = [[cell(density) for _ in range(c)] for _ in range(k)]
            entries = (Matrix(r, k, left) @ Matrix(k, c, right)).entries
        else:
            entries = [[cell(density) for _ in range(c)] for _ in range(r)]
        m = Matrix(r, c, entries)
        ref = _qq_matrix(sympy, r, c, entries)
        ref_rank = ref.rank()
        assert rank(m) == ref_rank
        assert kernel_basis(m).dim == ref.nullspace().shape[0] == c - ref_rank
        for b in (matvec(m, [cell(0.5) for _ in range(c)]), [cell(0.3) for _ in range(r)]):
            aug = _qq_matrix(sympy, r, c + 1, [row + [x] for row, x in zip(entries, b)])
            x = solve(m, b)
            assert (x is not None) == (aug.rank() == ref_rank)
            assert x is None or matvec(m, x) == b


def test_elimination_forgets_the_cells_back_elimination_cancels():
    # rank-deficient products, built as in the sympy comparison: clearing a new
    # pivot from the reduced rows cancels cells there, and a cancelled cell must
    # leave the column index before its column becomes a pivot
    rng = random.Random(20261019)

    def cell(density):
        return Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Q(0)

    for _ in range(60):
        r, c = rng.randint(2, 24), rng.randint(2, 24)
        density = rng.choice([0.05, 0.15, 0.25, 0.4])
        k = rng.randint(1, min(r, c) - 1)
        left = [[cell(density) for _ in range(k)] for _ in range(r)]
        right = [[cell(density) for _ in range(c)] for _ in range(k)]
        entries = (Matrix(r, k, left) @ Matrix(k, c, right)).entries
        reduced, pivots = dense_rref(entries, r, c)
        red = rref(Matrix(r, c, entries))
        assert sorted(red) == pivots
        assert [dense_vector(red[p], c) for p in pivots] == reduced[: len(pivots)]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m).vectors:
        assert all(x == 0 for x in matvec(m, v))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_solve_then_substitute(m, rnd):
    x = [Q(rnd.randint(-3, 3)) for _ in range(m.cols)]
    b = matvec(m, x)
    y = solve(m, b)
    assert y is not None
    assert matvec(m, y) == b


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(m, rnd):
    rows = [r[:] for r in m.entries]
    rnd.shuffle(rows)
    scales = [Q(rnd.choice([1, 2, 3, -1])) for _ in rows]
    rows = [[s * x for x in r] for s, r in zip(scales, rows)]
    assert rank(Matrix(m.rows, m.cols, rows)) == rank(m)


@settings(max_examples=40, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_kernel_coords_roundtrip(m, rnd):
    kb = kernel_basis(m)
    vec = [Q(0)] * m.cols
    want = {}
    for j, v in enumerate(kb.vectors):
        c = Q(rnd.randint(-2, 2))
        if c:
            want[j] = c
        vec = [a + c * b for a, b in zip(vec, v)]
    assert coords_in_basis(kb, sparse_vector(vec)) == want


# ---------------------------------------------------------------------------
# the fraction-free elimination against the Fraction elimination it replaced


@st.composite
def numerators_over_den(draw, max_dim=5):
    """(sparse int rows, cols, den): negative numerators, and numerators
    sharing factors with den or equal to -den."""
    den = draw(st.integers(1, 72))
    cells = st.one_of(st.just(0), st.integers(-40, 40), st.integers(-5, 5).map(lambda k: k * den), st.just(-den))
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    rows = [{j: x for j, x in enumerate(draw(st.lists(cells, min_size=c, max_size=c))) if x} for _ in range(r)]
    return rows, c, den


@settings(max_examples=150, deadline=None)
@given(numerators_over_den(), st.integers(2, 30))
def test_equal_matrices_over_different_dens_are_equal_and_hash_equal(drawn, k):
    rows, cols, den = drawn
    m = Matrix.from_rows(rows, cols, den)
    scaled = Matrix.from_rows([{j: k * x for j, x in row.items()} for row in rows], cols, k * den)
    dense = Matrix(len(rows), cols, [[Q(row.get(j, 0), den) for j in range(cols)] for row in rows])
    with fractions_made() as made:
        assert m == scaled == dense and hash(m) == hash(scaled) == hash(dense)
    assert made == []
    if any(rows):
        bumped = Matrix.from_rows([{j: 2 * x if j == min(row) else x for j, x in row.items()} for row in rows], cols, den)
        assert m != bumped


mixed_cells = st.one_of(st.just(Q(0)), st.fractions(min_value=-6, max_value=6, max_denominator=12))


@st.composite
def rank_deficient_products(draw, max_dim=9):
    """left @ right through k < min(r, c) dimensions: clearing a new pivot from
    the reduced rows of such a product cancels cells there."""
    r, c = draw(st.integers(2, max_dim)), draw(st.integers(2, max_dim))
    k = draw(st.integers(1, min(r, c) - 1))
    return Matrix(r, k, draw(grids(r, k, mixed_cells))) @ Matrix(k, c, draw(grids(k, c, mixed_cells)))


def assert_matches_fraction_rref(m, b):
    """rref equals fraction_rref, without and with the column b."""
    assert rref(m) == fraction_rref(m)
    assert rref(m, b) == fraction_rref(m, b)


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=7, cells=mixed_cells), st.data())
def test_elimination_matches_the_fraction_rref_on_mixed_denominators(m, data):
    assert_matches_fraction_rref(m, data.draw(st.lists(mixed_cells, min_size=m.rows, max_size=m.rows)))


@settings(max_examples=80, deadline=None)
@given(rank_deficient_products(), st.data())
def test_elimination_matches_the_fraction_rref_where_back_elimination_cancels(m, data):
    # a right-hand side in the column space, and one drawn freely
    x = data.draw(st.lists(mixed_cells, min_size=m.cols, max_size=m.cols))
    assert_matches_fraction_rref(m, matvec(m, x))
    assert_matches_fraction_rref(m, data.draw(st.lists(mixed_cells, min_size=m.rows, max_size=m.rows)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(max_dim=7, cells=mixed_cells), rank_deficient_products()))
def test_kernel_basis_is_born_in_ints_as_the_fraction_rref_gave_it(m):
    assert_kernel_born_in_ints(m)


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(max_dim=7, cells=mixed_cells), rank_deficient_products()), st.randoms(use_true_random=False))
def test_kernel_vector_items_do_not_follow_the_row_order(m, rnd):
    # the RREF does not depend on the row order, and neither do the items of
    # each kernel vector B_j, which follow its pivots in column order
    rows = [m.row(i) for i in range(m.rows)]
    rnd.shuffle(rows)
    shuffled = Matrix.from_rationals(rows, m.cols)
    assert basis_form(kernel_basis(shuffled)) == basis_form(kernel_basis(m))
    assert fraction_kernel_form(shuffled) == fraction_kernel_form(m)


def test_string_zeros_make_no_cells():
    z = Matrix(1, 1, [["0"]])
    assert z.is_zero() and z == Matrix.zeros(1, 1) and z.numerators() == ([{}], 1)
    m = Matrix(2, 2, [["0", "1/2"], ["0/5", "0.0"]])
    assert m == Matrix.from_rationals([{1: Q(1, 2)}, {}], 2)
    assert sparse_vector(["0", "-0", "3", 0, Q(0)]) == {2: Q(3)}
