"""Independent oracles used by the test suite.

Five deliberately separate implementations:

* the classical right-Leibniz coboundary for binary algebras with identity
  twist, written directly from the textbook formula over raw ambient
  tensors, sharing no code with the production coboundary;
* the obstruction cochain F_l written out term by term from the explicit
  primed-sum formulas, sharing no code with the production residuals; and
* a brute-force affine assembly of the order-l deformation equations built
  purely from the residual evaluators, used to cross-check the extension
  solver and the recorded fixture verdicts.  It lives in
  scripts/make_fixtures.py, which recorded the battery verdicts with it,
  and is re-exported here; and
* the dense delta-o-delta check: the coboundaries restricted to the
  computed bases and multiplied as matrices, the reference for the sparse
  certificate cochain.squares_to_zero; and
* dense Gauss-Jordan elimination with column-order pivoting, the reference
  for linalg's sparse elimination behind rank, kernel_basis and solve; and
* dense references for linalg's sparse storage: the row-by-column matrix
  product, the membership check that rebuilds a basis combination as a
  dense vector and compares it cell by cell, and the restriction of a
  coboundary operator built on those, the reference for cochain's
  restrict_operator.
"""

import itertools
import os
import sys
from fractions import Fraction as Q

from homleibniz.algebra import _basis_combo, apply_multimap, cadd, matrix_combo
from homleibniz.cochain import (
    CochainSpace,
    ConstraintViolation,
    coboundary_matrix,
    coboundary_operator,
)
from homleibniz.deformation import ObstructionCochain
from homleibniz.linalg import Matrix

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"))
from make_fixtures import order_l_system, oracle_extends, random_valid_order1  # noqa: E402,F401


# ---------------------------------------------------------------------------
# classical Leibniz coboundary (n = 2, alpha = id, adjoint coefficients)


def classical_coboundary(algebra, p, coeffs):
    """(d f)(x_1..x_{p+1}) for a p-cochain given as a flat ambient tensor.

    d f = [x_1, f(x_2..)] + sum_{i>=2} (-1)^i [f(..hat x_i..), x_i]
        + sum_{i<j} (-1)^{j+1} f(x_1.. [x_i,x_j] at slot i .. hat x_j ..)
    """
    assert algebra.arity == 2
    d = algebra.dim

    def f_of(combos):
        out = {}
        for key, c in _expand(combos).items():
            base = 0
            for i in key:
                base = base * d + i
            for k in range(d):
                v = coeffs[base * d + k]
                if v:
                    cadd(out, k, c * v)
        return out

    def br(a, b):
        return algebra.bracket_apply([a, b])

    out = [Q(0)] * (d ** (p + 1) * d)
    for inp in itertools.product(range(d), repeat=p + 1):
        xs = [_basis_combo(i) for i in inp]
        res = {}
        for k, v in br(xs[0], f_of(xs[1:])).items():
            cadd(res, k, v)
        for i in range(1, p + 1):
            sign = Q(-1) ** (i + 1)
            rest = xs[:i] + xs[i + 1 :]
            for k, v in br(f_of(rest), xs[i]).items():
                cadd(res, k, sign * v)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                sign = Q(-1) ** (j + 2)
                args = xs[:i] + [br(xs[i], xs[j])] + xs[i + 1 : j] + xs[j + 1 :]
                for k, v in f_of(args).items():
                    cadd(res, k, sign * v)
        base = 0
        for i in inp:
            base = base * d + i
        for k, v in res.items():
            out[base * d + k] = v
    return out


def _expand(combos):
    out = {(): Q(1)}
    for c in combos:
        nxt = {}
        for key, coeff in out.items():
            for i, v in c.items():
                cadd(nxt, key + (i,), coeff * v)
        out = nxt
    return out


# ---------------------------------------------------------------------------
# the dense delta-o-delta check


def dense_convention_passes(algebra, rep, convention, degrees=(1, 2), spaces=None):
    """Whether the matrix product delta^{p+1} . delta^p over the computed bases
    is zero for every p in degrees; an image outside the twist-compatible
    subspace fails.  spaces is a {degree: CochainSpace} cache."""
    if spaces is None:
        spaces = {}

    def space(p):
        if p not in spaces:
            spaces[p] = CochainSpace(algebra, rep, p)
        return spaces[p]

    def delta(p):
        return coboundary_matrix(
            space(p), space(p + 1), coboundary_operator(algebra, rep, p, convention)
        )

    try:
        for p in degrees:
            if not (delta(p + 1) @ delta(p)).is_zero():
                return False
    except ConstraintViolation:
        return False
    return True


# ---------------------------------------------------------------------------
# dense Gauss-Jordan elimination


def dense_rref(entries, rows, cols):
    """Reduced row echelon form of a dense grid; returns (rows, pivot column list)."""
    m = [row[:] for row in entries]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        if inv != 1:
            m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_rank(m):
    return len(dense_rref(m.entries, m.rows, m.cols)[1])


def dense_kernel_vectors(m):
    """One kernel vector per free column of the RREF, as linalg.kernel_basis orders them."""
    red, pivots = dense_rref(m.entries, m.rows, m.cols)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        vectors.append(v)
    return vectors


def dense_solve(m, b):
    """The solution with free unknowns 0, or None when m.x = b is inconsistent."""
    aug = [row + [Q(x)] for row, x in zip(m.entries, b)]
    red, pivots = dense_rref(aug, m.rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Q(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red[r][m.cols]
    return x


# ---------------------------------------------------------------------------
# dense references for the sparse Matrix, coordinates and restriction


def dense_matmul(a, b):
    """a @ b by the row-by-column formula over every cell."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    bt = list(zip(*b.entries)) if b.entries else []
    out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.entries]
    if not out or a.cols == 0:
        out = [[Q(0)] * b.cols for _ in range(a.rows)]
    return Matrix(a.rows, b.cols, out)


def dense_coords_in_basis(basis, vec, vectors=None):
    """Coordinates of the dense vec read at basis.unit_rows, or None unless
    their dense combination of the basis vectors (basis.vectors unless given)
    equals vec cell by cell."""
    vec = [Q(x) for x in vec]
    coords = [vec[i] for i in basis.unit_rows]
    combo = [Q(0)] * basis.ambient_dim
    for c, bv in zip(coords, basis.vectors if vectors is None else vectors):
        for i, x in enumerate(bv):
            if c and x:
                combo[i] += c * x
    return coords if combo == vec else None


def dense_restriction(op_cols, space, target):
    """Dense grid of the sparse ambient operator op_cols between the bases of
    two cochain spaces: each basis vector's dense image, written in the target
    basis by dense_coords_in_basis."""
    cols, target_vectors = [], target.basis.vectors
    for bv in space.basis.vectors:
        image = [Q(0)] * target.ambient
        for j, x in enumerate(bv):
            if x:
                for r, v in op_cols.get(j, ()):
                    image[r] += v * x
        col = dense_coords_in_basis(target.basis, image, target_vectors)
        if col is None:
            raise ConstraintViolation("image leaves the target space")
        cols.append(col)
    return [[c[i] for c in cols] for i in range(target.dim)]


# ---------------------------------------------------------------------------
# the obstruction cochain by its explicit formulas


def quadratic_part(d, l):
    """sum_{i+j=l, i,j>0} [ xi_i(xi_j(X), abar Y) - sum_k xi_i(..., xi_j(x_k, Y), ...) ]."""
    a = d.base
    n = a.arity
    alpha = [a.alpha_combo(i) for i in range(a.dim)]
    out = {}
    for tup in a.basis_tuples(2 * n - 1):
        xs, ys = tup[:n], tup[n:]
        ycols = [alpha[y] for y in ys]
        res = {}
        for i in range(1, l):
            j = l - i
            fj = apply_multimap(d.coeff(j), [_basis_combo(x) for x in xs])
            for k, v in apply_multimap(d.coeff(i), [fj] + ycols).items():
                cadd(res, k, v)
            for pos in range(n):
                inner = apply_multimap(
                    d.coeff(j), [_basis_combo(xs[pos])] + [_basis_combo(y) for y in ys]
                )
                args = [alpha[x] for x in xs]
                args[pos] = inner
                for k, v in apply_multimap(d.coeff(i), args).items():
                    cadd(res, k, -v)
        if res:
            out[tup] = res
    return out


def primed_index_tuples(l, n):
    """Index tuples (i, j_1..j_n) of the primed sum in O3.

    The set reading: every tuple with i + sum(j) = l except those containing
    an order-l coefficient (i = l, or some j_r = l), each counted once.
    """
    return [t for t in itertools.product(range(l), repeat=n + 1) if sum(t) == l]


def obstruction_by_formula(md, l):
    """F_l = (O1, O2, O3) from the explicit formulas.

    O1, O2 are the quadratic parts of the source and target equations;
    O3(X) = sum' eta_i(phi_{j_1} x_1, .., phi_{j_n} x_n)
            - sum_{i=1}^{l-1} phi_i(xi_{l-i}(X)).
    """
    src = md.phi.source
    n = src.arity
    o3 = {}
    for X in src.basis_tuples():
        res = {}
        for i, *js in primed_index_tuples(l, n):
            args = [md.phi_col(js[r], X[r]) for r in range(n)]
            for k, v in apply_multimap(md.eta.coeff(i), args).items():
                cadd(res, k, v)
        for i in range(1, l):
            xj = apply_multimap(md.xi.coeff(l - i), [_basis_combo(x) for x in X])
            for k, v in matrix_combo(md.phi_coeff(i), xj).items():
                cadd(res, k, -v)
        if res:
            o3[X] = res
    return ObstructionCochain(l, quadratic_part(md.xi, l), quadratic_part(md.eta, l), o3)
