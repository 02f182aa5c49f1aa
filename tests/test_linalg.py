from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from homleibniz.linalg import (
    Matrix,
    coords_in_basis,
    kernel_basis,
    rank,
    solve,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda e: Matrix(r, c, e))
        )
    )


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
    assert all(x == 0 for x in m.matvec(kb.vectors[0]))


def test_solve_exact_example():
    m = Matrix(2, 2, [[2, 0], [0, 3]])
    assert solve(m, [Q(1), Q(1)]) == [Q(1, 2), Q(1, 3)]


def test_solve_inconsistent_returns_none():
    m = Matrix(2, 1, [[1], [1]])
    assert solve(m, [Q(0), Q(1)]) is None


def test_coords_in_basis_outside_span():
    kb = kernel_basis(Matrix(1, 2, [[1, 1]]))
    assert coords_in_basis(kb, [Q(1), Q(-1)]) == [Q(-1)]
    assert coords_in_basis(kb, [Q(1), Q(1)]) is None


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
        assert all(x == 0 for x in m.matvec(v))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_solve_then_substitute(m, rnd):
    x = [Q(rnd.randint(-3, 3)) for _ in range(m.cols)]
    b = m.matvec(x)
    y = solve(m, b)
    assert y is not None
    assert m.matvec(y) == b


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
    want = []
    for v in kb.vectors:
        c = Q(rnd.randint(-2, 2))
        want.append(c)
        vec = [a + c * b for a, b in zip(vec, v)]
    assert coords_in_basis(kb, vec) == want
