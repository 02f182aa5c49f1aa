"""Independent oracles used by the test suite.

Deliberately separate implementations:

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
* the row-driven coboundary operator: one traversal of the degree p+1
  inputs, each term of every row expanded through the bracket of
  fundamental objects, the reference for cochain.coboundary_operator's
  column-by-column assembly, and its value under all 128 conventions read
  off nine builds by linearity in the signs; and
* the dense delta-o-delta check: the row-driven coboundaries restricted to
  the computed bases and multiplied as matrices, the reference for the
  sparse certificate cochain.squares_to_zero; and
* the blockwise morphism differential: push_tensor and pull_tensor compose
  raw tensors with phi on the output and on every input slot, and
  blockwise_differential returns (delta u, delta v, phi.u - v.phi - delta w)
  from them and the summand coboundaries, the reference for the push and
  pull columns of MorphismComplex.operator and for differential; and
* the per-input twist-compatibility constraint: one k-fold tensor_combo
  per basis input, whose rows, transposed, are the reference for the
  columns of cochain.twist_constraint; and the generic constraint matrix,
  cochain._constraint_columns on every cell with alpha^{tensor k} walked
  row by row even for a diagonal twist, the reference for the diagonal
  rule and the matrix the constraint kernels are eliminated on; and
* the bracket of fundamental objects on every pair of (n-1)-tuples: one
  tensor_combo per pair and slot, the reference for the bracket table that
  SlotTables builds from the support of the bracket; and
* dense Gauss-Jordan elimination with column-order pivoting, the reference
  for linalg's sparse elimination behind rank, kernel_basis and solve, and
  the Fraction elimination fraction_rref it replaced, whose kernel vectors
  in integral_rows form pin kernel_basis's int pairs; and
* dense references for linalg's sparse storage: the row-by-column matrix
  and matrix-vector products, the membership check that rebuilds a basis
  combination as a dense vector and compares it cell by cell, and the
  restriction of a coboundary operator built on those, the reference for
  cochain's restrict_operator; and
* the residual evaluators on every basis tuple: B(F, G) on all of
  L^(2n-1), the morphism equation summed over every composition of the
  order, and the multiplicativity and bracket-preservation checks on all
  of L^n, the references for the support walks of algebra.hom_composition,
  deformation.morphism_order_residual, check_multiplicative and
  check_morphism; and
* the module identities on every basis tuple: all 2n-1 specializations of
  the fundamental identity with one module slot, each evaluated by tagging
  every argument as an algebra or a module element, the reference for
  check_representation on the semidirect product; and the module actions
  of a bracket through a map on every (n-1)-tuple and module vector, the
  reference for the support walk behind adjoint_representation and
  pullback_representation; both apply an action through action_apply; and
* the action builders as they were before their identity shortcuts: every
  module action through precompose with one fresh map list per action, and
  SlotTables' action tables through precompose with alpha^{p-1} in every
  algebra slot even where it is the identity, the references for
  _module_actions re-keying the bracket and for the tables skipping
  precompose when p = 1 or the algebra is untwisted; and
* dense ambient packing: tensors keyed by input tuples, and matrices, as
  full-length lists over the ambient coordinates and back, the reference
  for the sparse packing of the extension solve and the input of the dense
  comparisons; and
* the regrouped order-l equation: its F_l-linear part and its quadratic
  lower-order part evaluated on every basis tuple, checked against the
  package's algebra_order_residual.

random_cochain, which draws a random member of a cochain space for the
tests, lives here too, so the package needs no random numbers.

The references that evaluate tensors on arguments do it through
tensor_combo and apply_multimap, over the tuples of basis_tuples; the
package has neither, nor any loop over all basis tuples.
"""

import contextlib
import copy
import functools
import itertools
import math
import os
import sys
from fractions import Fraction as Q

from homleibniz.algebra import (
    Violation,
    _residual_violation,
    cadd,
    csub,
    matrix_combo,
    precompose,
)
from homleibniz.cochain import (
    Columns,
    ConstraintViolation,
    DEFAULT_CONVENTION,
    SignConvention,
    _constraint_columns,
    _flat,
    ambient_dim,
    apply_sparse,
    coboundary_matrix,
    input_length,
)
from homleibniz.deformation import ObstructionCochain, algebra_order_residual
from homleibniz.linalg import Matrix, _add_scaled, dense_vector, integral_rows, kernel_basis, sparse_vector, transpose

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"))
from make_fixtures import order_l_system, oracle_extends, random_valid_order1  # noqa: E402,F401


# ---------------------------------------------------------------------------
# combos and tensors evaluated on arguments, and every basis tuple


def tensor_combo(element_combos):
    """Tensor product of element combos, keyed by index tuples."""
    out = {(): Q(1)}
    for c in element_combos:
        nxt = {}
        for key, coeff in out.items():
            for i, v in c.items():
                cadd(nxt, key + (i,), coeff * v)
        out = nxt
    return out


def apply_multimap(mm, arg_combos):
    """Evaluate a multilinear tensor on element combos; returns an element combo."""
    out = {}
    for key, coeff in tensor_combo(arg_combos).items():
        entry = mm.get(key)
        if entry:
            for k, c in entry.items():
                cadd(out, k, coeff * c)
    return out


def basis_combo(i):
    return {i: Q(1)}


def bracket_apply(algebra, arg_combos):
    return apply_multimap(algebra.bracket, arg_combos)


def basis_tuples(algebra, count=None):
    """Every count-tuple of basis indices (count = the arity by default), in
    lexicographic order."""
    return itertools.product(range(algebra.dim), repeat=algebra.arity if count is None else count)


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
        for key, c in tensor_combo(combos).items():
            base = 0
            for i in key:
                base = base * d + i
            for k in range(d):
                v = coeffs[base * d + k]
                if v:
                    cadd(out, k, c * v)
        return out

    def br(a, b):
        return bracket_apply(algebra, [a, b])

    out = [Q(0)] * (d ** (p + 1) * d)
    for inp in itertools.product(range(d), repeat=p + 1):
        xs = [basis_combo(i) for i in inp]
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


# ---------------------------------------------------------------------------
# the row-driven coboundary operator


def fundamental_bracket(algebra, x_combos, y_combos, y_first=False):
    """Bracket of fundamental objects as a combo over (n-1)-tuples.

    [X, Y] = sum_k alpha(x^1) x ... x [x^k, y^1..y^{n-1}] x ... x alpha(x^{n-1}),
    with the bracketed slot's argument order controlled by y_first.
    """
    n1 = algebra.arity - 1
    out = {}
    for k in range(n1):
        if y_first:
            slot = bracket_apply(algebra, list(y_combos) + [x_combos[k]])
        else:
            slot = bracket_apply(algebra, [x_combos[k]] + list(y_combos))
        factors = [matrix_combo(algebra.alpha, c) for c in x_combos]
        factors[k] = slot
        for key, v in tensor_combo(factors).items():
            cadd(out, key, v)
    return out


def _expand_slots(slot_combos):
    """Tensor-expand slot combos into a dict over flat f-input tuples."""
    out = {}
    items = [list(c.items()) for c in slot_combos]
    if any(not it for it in items):
        return out
    for picks in itertools.product(*items):
        key = []
        coeff = Q(1)
        for k, v in picks:
            if isinstance(k, tuple):
                key.extend(k)
            else:
                key.append(k)
            coeff *= v
        cadd(out, tuple(key), coeff)
    return out


def row_coboundary_operator(algebra, rep, p, convention=DEFAULT_CONVENTION):
    """Sparse ambient matrix of delta^p, as {column: [(row, coeff), ...]}.

    One traversal of the degree p+1 inputs produces every matrix entry,
    each row term by term from the formula; the bracket of fundamental
    objects is evaluated once per (X_i, X_j) pair.
    """
    n, d, m = algebra.arity, algebra.dim, rep.module_dim
    cv = convention
    alpha_cols = [algebra.alpha.column(i) for i in range(d)]
    apow = algebra.alpha.power(p - 1)
    apow_cols = [apow.column(i) for i in range(d)]
    entries = {}

    def put(row, col, coeff):
        v = entries.get((row, col), 0) + coeff
        if v:
            entries[(row, col)] = v
        else:
            entries.pop((row, col), None)

    def abar(X):
        return tensor_combo([alpha_cols[i] for i in X])

    def bare(X):
        return {tuple(X): Q(1)}

    c_top = p if cv.c_full_range else p - 1
    brackets = {}  # fundamental_bracket of each (X_i, X_j), shared by the rows

    for inp in itertools.product(range(d), repeat=input_length(n, p + 1)):
        z = inp[0]
        Xs = [inp[1 + r * (n - 1) : 1 + (r + 1) * (n - 1)] for r in range(p)]
        row_base = _flat(inp, d) * m

        def add_diag(expansion, sign):
            # terms that feed f's output straight through: diagonal in the
            # module index
            for key, c in expansion.items():
                col_base = _flat(key, d) * m
                v = sign * c
                for mo in range(m):
                    put(row_base + mo, col_base + mo, v)

        def add_action(expansion, action_idx, alg, sign):
            # terms that feed f's output into a module action
            for mf in range(m):
                acted = action_apply(rep, action_idx, alg, {mf: Q(1)})
                if not acted:
                    continue
                for key, c in expansion.items():
                    col = _flat(key, d) * m + mf
                    for mo, av in acted.items():
                        put(row_base + mo, col, sign * c * av)

        # term A: contract X_i with X_j, drop X_j
        for i in range(1, p):
            for j in range(i + 1, p + 1):
                if (Xs[i - 1], Xs[j - 1]) not in brackets:
                    brackets[Xs[i - 1], Xs[j - 1]] = fundamental_bracket(
                        algebra,
                        [basis_combo(x) for x in Xs[i - 1]],
                        [basis_combo(y) for y in Xs[j - 1]],
                        y_first=cv.bracket_y_first,
                    )
                fb = brackets[Xs[i - 1], Xs[j - 1]]
                slots = [alpha_cols[z]]
                for r in range(1, p + 1):
                    if r == j:
                        continue
                    if r == i:
                        slots.append(fb)
                    elif r < j or cv.twist_after_hat:
                        slots.append(abar(Xs[r - 1]))
                    else:
                        slots.append(bare(Xs[r - 1]))
                add_diag(_expand_slots(slots), cv.sign_a * (-1) ** j)

        # term B: contract z with X_i, drop X_i
        for i in range(1, p + 1):
            zb = bracket_apply(algebra, [basis_combo(x) for x in (z, *Xs[i - 1])])
            slots = [zb] + [abar(Xs[r - 1]) for r in range(1, p + 1) if r != i]
            add_diag(_expand_slots(slots), cv.sign_b * (-1) ** i)

        # term C: right action of abar^{p-1}(X_i) on f with X_i dropped
        for i in range(1, c_top + 1):
            slots = [basis_combo(z)] + [bare(Xs[r - 1]) for r in range(1, p + 1) if r != i]
            exp = _expand_slots(slots)
            if exp:
                alg = [apow_cols[x] for x in Xs[i - 1]]
                add_action(exp, 0, alg, cv.sign_c * (-1) ** (i + 1))

        # term D: left actions with f consuming the components of X_1
        X1 = Xs[0]
        for i in range(1, n):
            slots = [basis_combo(X1[i - 1])] + [bare(X) for X in Xs[1:]]
            exp = _expand_slots(slots)
            if exp:
                alg = [apow_cols[z]] + [
                    apow_cols[X1[r]] for r in range(n - 1) if r != i - 1
                ]
                add_action(exp, i, alg, cv.sign_d)

    cols = {}
    for (row, col), v in entries.items():
        cols.setdefault(col, []).append((row, v))
    for lst in cols.values():
        lst.sort()
    return cols


def bracket_table_by_tuples(algebra, yf):
    """SlotTables.bracket[yf] as {(Y, X, X2): coeff}: for every pair of
    (n-1)-tuples X, X2 and slot k, [X, X2] = sum over k of
    (alpha x_1, .., [x_k, X2], .., alpha x_{n-1}) ([X2, x_k] when yf),
    expanded to the flat digits Y it reaches."""
    n, d = algebra.arity, algebra.dim
    tuples = list(itertools.product(range(d), repeat=n - 1))
    acc = {}
    for (X, xs), (X2, ys), k in itertools.product(enumerate(tuples), enumerate(tuples), range(n - 1)):
        factors = [algebra.alpha.column(x) for x in xs]
        factors[k] = algebra.bracket.get(ys + xs[k : k + 1] if yf else xs[k : k + 1] + ys, {})
        for key, c in tensor_combo(factors).items():
            cadd(acc, (_flat(key, d), X, X2), c)
    return acc


def as_columns(op_cols, size):
    """A complete {column: entries} dict of rational entries as a Columns,
    for the restriction: int numerators over the lcm of their denominators."""
    nums, den = integral_rows([dict(col) for col in op_cols.values()])
    cols = {j: list(col.items()) for j, col in zip(op_cols, nums)}
    return Columns(lambda js: cols, size, den)


def fraction_columns(op_cols, den):
    """The {column: [(row, int numerator)]} columns over den, each entry as a
    Fraction: the view in which they compare with the row oracle."""
    return {j: [(r, Q(x, den)) for r, x in col] for j, col in op_cols.items()}


def apply_operator(op, coeffs, out_dim):
    """The Columns op applied to a dense vector, by apply_sparse, as a dense
    vector of Fractions of length out_dim."""
    (vec,), den = integral_rows([sparse_vector(coeffs)])
    image, den = apply_sparse(op, [(vec, den)])[0]
    return dense_vector({row: Q(v, den) for row, v in image.items()}, out_dim)


def delta_ambient(cx, p, coeffs):
    """delta^p of the CochainComplex cx on a dense ambient tensor."""
    return apply_operator(cx.operator(p), coeffs, ambient_dim(cx.algebra, cx.rep, p + 1))


def combine(weighted, columns=None):
    """sum of c * op over the (c, op) pairs, ops as {column: [(row, coeff)]};
    only the given columns, when given."""
    acc = {}
    for c, op in weighted:
        for j in op if columns is None else columns:
            for r, x in op.get(j, ()):
                acc[j, r] = acc.get((j, r), 0) + c * x
    out = {}
    for (j, r), x in sorted(acc.items()):
        if x:
            out.setdefault(j, []).append((r, x))
    return out


def row_operators(algebra, rep, p):
    """The function (convention, columns=None) -> row_coboundary_operator(
    algebra, rep, p, convention), cut to the columns when given, over all 128
    conventions, from nine row-driven builds.

    delta^p = s_a T_A + s_b T_B + s_c T_C + s_d T_D is linear in the four
    signs; T_A reads bracket_y_first and twist_after_hat only, T_C reads
    c_full_range only, and T_B and T_D read no flag.  Flipping one sign of
    the default isolates that piece, and one build at each other setting of
    the flags gives the other variants of T_A and T_C.
    """
    def row(label):
        return row_coboundary_operator(algebra, rep, p, SignConvention.from_label(label))

    base = row("A+B+C+D+|xy|hat-twisted|c-full")
    flips = ("A-B+C+D+", "A+B-C+D+", "A+B+C-D+", "A+B+C+D-")
    ta, tb, tc, td = (
        combine([(Q(1, 2), base), (Q(-1, 2), row(f + "|xy|hat-twisted|c-full"))]) for f in flips
    )
    t_a, t_c = {(False, True): ta}, {True: tc}
    for yf, th in ((False, False), (True, True), (True, False)):
        label = f"A+B+C+D+|{'yx' if yf else 'xy'}|{'hat-twisted' if th else 'hat-bare'}|c-full"
        t_a[yf, th] = combine([(1, row(label)), (-1, tb), (-1, tc), (-1, td)])
    t_c[False] = combine([(1, row("A+B+C+D+|xy|hat-twisted|c-short")), (-1, ta), (-1, tb), (-1, td)])

    def op(cv, columns=None):
        return combine([
            (cv.sign_a, t_a[cv.bracket_y_first, cv.twist_after_hat]),
            (cv.sign_b, tb),
            (cv.sign_c, t_c[cv.c_full_range]),
            (cv.sign_d, td),
        ], columns)

    return op


# ---------------------------------------------------------------------------
# the morphism differential, block by block


def push_tensor(phi, coeffs, module_dim_in):
    """Compose a C^p(L;L) ambient tensor with phi on the output."""
    d_tgt = phi.target.dim
    n_inputs = len(coeffs) // module_dim_in
    out = [Q(0)] * (n_inputs * d_tgt)
    for pos in range(n_inputs):
        for k in range(module_dim_in):
            c = coeffs[pos * module_dim_in + k]
            if c:
                for r, e in phi.column(k).items():
                    out[pos * d_tgt + r] += e * c
    return out


def pull_tensor(phi, p, coeffs):
    """Precompose a C^p(M;M) ambient tensor with phi on every input slot."""
    n = phi.source.arity
    d_src = phi.source.dim
    d_tgt = phi.target.dim
    m = d_tgt
    in_len = input_length(n, p)
    out = [Q(0)] * (d_src ** in_len * m)
    for inp in itertools.product(range(d_src), repeat=in_len):
        # phi applied componentwise to the whole input tuple
        expanded = tensor_combo([phi.column(i) for i in inp])
        base = _flat(inp, d_src) * m
        for key, coeff in expanded.items():
            src_base = _flat(key, d_tgt) * m
            for mo in range(m):
                c = coeffs[src_base + mo]
                if c:
                    out[base + mo] += coeff * c
    return out


def blockwise_ambient(mc, p, u, v, w, delta=delta_ambient):
    """d^p of the MorphismComplex mc on raw ambient tensors, block by block:
    (delta u, delta v, phi.u - v.phi - delta w), concatenated, with w empty
    in degree 1.  delta(cx, q, vec) evaluates a summand complex's coboundary;
    by default delta_ambient, the summand operator that the row oracle
    checks on its own."""
    phi = mc.phi
    third = [x - y for x, y in zip(push_tensor(phi, u, phi.source.dim), pull_tensor(phi, p, v))]
    if p >= 2:
        third = [x - y for x, y in zip(third, delta(mc.mixed, p - 1, w))]
    return delta(mc.left, p, u) + delta(mc.right, p, v) + third


def blockwise_differential(mc, c):
    """The ambient (delta u, delta v, phi.u - v.phi - delta w) of the
    MorphismCochain c, the reference for MorphismComplex.differential."""
    return blockwise_ambient(mc, c.degree, c.u.coeffs, c.v.coeffs, c.w.coeffs if c.w is not None else [])


def morphism_ambient(c):
    """The ambient u, v, w tensors of the MorphismCochain c, concatenated."""
    return c.u.coeffs + c.v.coeffs + (c.w.coeffs if c.w is not None else [])


# ---------------------------------------------------------------------------
# the twist-compatibility constraint, input by input


def per_input_constraint_rows(algebra, rep, p):
    """Sparse rows of alpha_M o f - f o (alpha tensor abar^{tensor p-1}) on
    C^p's ambient coordinates: m rows per basis input, in product order, with
    alpha^{tensor k} of each input expanded by its own tensor_combo."""
    d, m = algebra.dim, rep.module_dim
    rows = []
    alpha_cols = [algebra.alpha.column(i) for i in range(d)]
    alpha_m_cols = [rep.alpha_module.column(mm) for mm in range(m)]
    for inp in itertools.product(range(d), repeat=input_length(algebra.arity, p)):
        block = [{} for _ in range(m)]
        base = _flat(inp, d) * m
        for mm, col in enumerate(alpha_m_cols):
            for mo, c in col.items():
                block[mo][base + mm] = c
        for key, v in tensor_combo([alpha_cols[i] for i in inp]).items():
            at = _flat(key, d) * m
            for mo, row in enumerate(block):
                row[at + mo] = row.get(at + mo, 0) - v
        rows += [{c: x for c, x in row.items() if x} for row in block]
    return rows


def generic_constraint_matrix(algebra, rep, p):
    """C^p's twist constraint as a Matrix with one row per ambient cell, over
    twist_constraint's den, from every column of the generic builder
    cochain._constraint_columns.  It runs on a copy of algebra with the
    diagonal flag cleared, so the rows of alpha^{tensor k} come from the
    (j, key) chain and not from the diagonal weights: for any twist, the
    matrix whose kernel the generic path eliminates."""
    a = copy.copy(algebra)
    a.diagonal, a.power_rows = False, {}
    k, size = input_length(a.arity, p), ambient_dim(a, rep, p)
    rows_m, den_m = rep.alpha_module.numerators()
    den = math.lcm(den_m, a.alpha.den ** k)
    w_m, w_k = den // den_m, den // a.alpha.den ** k
    cols = _constraint_columns(a, transpose(rows_m, rep.module_dim), w_m, w_k, k, range(size))
    return Matrix.from_rows(transpose([dict(cols[j]) for j in range(size)], size), size, den)


# ---------------------------------------------------------------------------
# the dense delta-o-delta check


def dense_convention_passes(cx, row=None):
    """Whether the matrix product delta^{p+1} . delta^p over the bases of the
    complex cx is zero for p = 1 and 2, under cx's convention; an image
    outside the twist-compatible subspace fails.  row(p, convention) is the
    row-driven delta^p, row_coboundary_operator unless given."""
    algebra, rep = cx.algebra, cx.rep
    if row is None:
        row = functools.partial(row_coboundary_operator, algebra, rep)

    def delta(p):
        op = row(p, cx.convention)
        return coboundary_matrix(cx.space(p), cx.space(p + 1), as_columns(op, ambient_dim(algebra, rep, p)))

    try:
        for p in (1, 2):
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


def fraction_rref(m: Matrix, b=()):
    """RREF of m, with b as an extra column m.cols, as {pivot column: sparse row}.

    Each row is reduced by the pivot rows so far; a nonzero remainder is scaled
    to 1 at its smallest column, its pivot, which is cleared from the reduced
    rows holding it off their pivot, listed in holders; cancelled cells leave it.
    """
    rows = [dict(m.row(i)) for i in range(m.rows)]
    for row, x in zip(rows, b):
        if x:
            row[m.cols] = Q(x)
    red, holders = {}, {}
    for row in rows:
        for p in [c for c in row if c in red]:
            _add_scaled(row, -row[p], red[p])
        if not row:
            continue
        pivot = min(row)
        inv = row[pivot]
        if inv != 1:
            row = {c: x / inv for c, x in row.items()}
        rest = [(c, x) for c, x in row.items() if c != pivot]
        for q in holders.pop(pivot, ()):
            other = red[q]
            f = other.pop(pivot)
            for c, x in rest:
                if c not in other:
                    other[c] = -f * x
                    holders.setdefault(c, set()).add(q)
                elif v := other[c] - f * x:
                    other[c] = v
                else:
                    del other[c]
                    holders[c].remove(q)
        for c, _ in rest:
            holders.setdefault(c, set()).add(pivot)
        red[pivot] = row
    return red


def fraction_kernel_form(m: Matrix):
    """basis_form of kernel_basis(m) as the Fraction elimination built it: one
    vector per free column f of fraction_rref(m), 1 at f and -row[f] at each
    pivot p whose row meets f, pivots in column order, turned into (B_j, d_j)
    by integral_rows."""
    red = fraction_rref(m)
    vectors = {f: {f: Q(1)} for f in range(m.cols) if f not in red}
    for p, row in sorted(red.items()):
        for c, x in row.items():
            if c != p:
                vectors[c][p] = -x
    pairs = [integral_rows([v]) for v in vectors.values()]
    return [(list(nums.items()), d) for (nums,), d in pairs], [(r, j) for j, r in enumerate(vectors)]


def basis_form(basis):
    """A SubspaceBasis as comparable lists: each (B_j, d_j) with B_j's items
    in order, then the items of unit_rows."""
    return [(list(nums.items()), d) for nums, d in basis.integral[0]], list(basis.unit_rows.items())


@contextlib.contextmanager
def fractions_made():
    """The arguments of every Fraction constructed in the block."""
    made, construct = [], Q.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return construct(cls, *args, **kwargs)

    Q.__new__ = staticmethod(counting)
    try:
        yield made
    finally:
        Q.__new__ = staticmethod(construct)


def assert_kernel_born_in_ints(m):
    """kernel_basis on m: every (B_j, d_j), in position, and unit_rows equal
    the Fraction elimination's round trip; every stored number is an int; and
    at most one Fraction is made per free column and per off-pivot entry of
    the RREF."""
    want = fraction_kernel_form(m)
    red = fraction_rref(m)
    bound = m.cols - len(red) + sum(len(row) - 1 for row in red.values())
    with fractions_made() as made:
        kb = kernel_basis(m)
    assert len(made) <= bound
    assert basis_form(kb) == want
    vectors, L = kb.integral
    assert all(type(x) is int for nums, d in vectors for x in (d, *nums.values()))
    assert type(L) is int and L == math.lcm(*(d for _, d in vectors))


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


def matvec(m, vec):
    """m times the dense vector vec by the row-by-column formula, in Fractions."""
    if len(vec) != m.cols:
        raise ValueError("vector length does not match cols")
    return [sum((x * y for x, y in zip(row, vec)), Q(0)) for row in m.entries]


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
    """Dense grid of the Columns op_cols between the bases of
    two cochain spaces: each basis vector's dense image, written in the target
    basis by dense_coords_in_basis."""
    cols, target_vectors = [], target.basis.vectors
    for bv in space.basis.vectors:
        image = [Q(0)] * target.ambient
        for j, x in enumerate(bv):
            if x:
                for r, v in op_cols.read([j])[j]:
                    image[r] += Q(v, op_cols.den) * x
        col = dense_coords_in_basis(target.basis, image, target_vectors)
        if col is None:
            raise ConstraintViolation("image leaves the target space")
        cols.append(col)
    return [[c[i] for c in cols] for i in range(target.dim)]


def random_cochain(space, rng, denom=4, span=3):
    """Random member of the space: a rational combination of its basis vectors,
    drawn from the random.Random rng."""
    coords = [Q(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(space.dim)]
    return space.from_coords(coords)


# ---------------------------------------------------------------------------
# the obstruction cochain by its explicit formulas


def quadratic_part(d, l):
    """sum_{i+j=l, i,j>0} [ xi_i(xi_j(X), abar Y) - sum_k xi_i(..., xi_j(x_k, Y), ...) ]."""
    a = d.base
    n = a.arity
    alpha = [a.alpha.column(i) for i in range(a.dim)]
    out = {}
    for tup in basis_tuples(a, 2 * n - 1):
        xs, ys = tup[:n], tup[n:]
        ycols = [alpha[y] for y in ys]
        res = {}
        for i in range(1, l):
            j = l - i
            fj = apply_multimap(d.coeff(j), [basis_combo(x) for x in xs])
            for k, v in apply_multimap(d.coeff(i), [fj] + ycols).items():
                cadd(res, k, v)
            for pos in range(n):
                inner = apply_multimap(
                    d.coeff(j), [basis_combo(xs[pos])] + [basis_combo(y) for y in ys]
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
    for X in basis_tuples(src):
        res = {}
        for i, *js in primed_index_tuples(l, n):
            args = [md.phi_coeff(js[r]).column(X[r]) for r in range(n)]
            for k, v in apply_multimap(md.eta.coeff(i), args).items():
                cadd(res, k, v)
        for i in range(1, l):
            xj = apply_multimap(md.xi.coeff(l - i), [basis_combo(x) for x in X])
            for k, v in matrix_combo(md.phi_coeff(i), xj).items():
                cadd(res, k, -v)
        if res:
            o3[X] = res
    return ObstructionCochain(l, quadratic_part(md.xi, l), quadratic_part(md.eta, l), o3)


# ---------------------------------------------------------------------------
# dense ambient packing


def multimap_to_ambient(mm, in_dims, d_in, module_dim):
    vec = [Q(0)] * (d_in ** in_dims * module_dim)
    for key, entry in mm.items():
        base = _flat(key, d_in) * module_dim
        for k, v in entry.items():
            vec[base + k] = v
    return vec


def ambient_to_multimap(vec, in_dims, d_in, module_dim):
    mm = {}
    for pos, key in enumerate(itertools.product(range(d_in), repeat=in_dims)):
        entry = {}
        for k in range(module_dim):
            v = vec[pos * module_dim + k]
            if v:
                entry[k] = v
        if entry:
            mm[key] = entry
    return mm


def matrix_to_ambient(m: Matrix):
    return [m.column(j).get(r, Q(0)) for j in range(m.cols) for r in range(m.rows)]


def ambient_to_matrix(vec, rows, cols):
    entries = [[vec[j * rows + r] for j in range(cols)] for r in range(rows)]
    return Matrix(rows, cols, entries)


# ---------------------------------------------------------------------------
# the regrouped order-l equation


def regrouping_identity_check(d, l):
    """Verify the split of the order-l equation into its F_l-linear part
    and its quadratic lower-order part.

    Evaluates both sides of the regrouped display independently and checks
    that LHS - RHS equals the full order-l residual of
    deformation.algebra_order_residual on every basis tuple.  This is an
    algebraic identity, so it must hold whether or not the deformation is
    valid; a nonempty mismatch list indicates a transcription bug, not an
    invalid deformation.
    """
    if l < 1:
        raise ValueError("regrouping is stated for orders l >= 1")
    a = d.base
    n = a.arity
    alpha = [a.alpha.column(i) for i in range(a.dim)]
    full = algebra_order_residual(d, l)
    mismatches = []
    fl = d.coeff(l)
    for tup in basis_tuples(a, 2 * n - 1):
        xs, ys = tup[:n], tup[n:]
        xcols = [basis_combo(x) for x in xs]
        ycols = [alpha[y] for y in ys]

        lhs = {}
        # [F_l(X), abar(Y)]
        flx = apply_multimap(fl, xcols)
        for k, v in apply_multimap(a.bracket, [flx] + ycols).items():
            cadd(lhs, k, v)
        # F_l([X], abar(Y))
        bx = apply_multimap(a.bracket, xcols)
        for k, v in apply_multimap(fl, [bx] + ycols).items():
            cadd(lhs, k, v)
        for pos in range(n):
            inner_fl = apply_multimap(fl, [xcols[pos]] + [basis_combo(y) for y in ys])
            args = [alpha[x] for x in xs]
            args[pos] = inner_fl
            for k, v in apply_multimap(a.bracket, args).items():
                cadd(lhs, k, -v)
            inner_b = apply_multimap(
                a.bracket, [xcols[pos]] + [basis_combo(y) for y in ys]
            )
            args = [alpha[x] for x in xs]
            args[pos] = inner_b
            for k, v in apply_multimap(fl, args).items():
                cadd(lhs, k, -v)

        rhs = {}
        for pos in range(n):
            for j in range(1, l):
                k_ord = l - j
                inner = apply_multimap(
                    d.coeff(k_ord), [xcols[pos]] + [basis_combo(y) for y in ys]
                )
                if not inner:
                    continue
                args = [alpha[x] for x in xs]
                args[pos] = inner
                for k, v in apply_multimap(d.coeff(j), args).items():
                    cadd(rhs, k, v)
        for i in range(1, l):
            j = l - i
            fj = apply_multimap(d.coeff(j), xcols)
            if fj:
                for k, v in apply_multimap(d.coeff(i), [fj] + ycols).items():
                    cadd(rhs, k, -v)

        if csub(csub(lhs, rhs), full.get(tup, {})):
            mismatches.append(tup)
    return mismatches


# ---------------------------------------------------------------------------
# the residual evaluators on every basis tuple


def hom_composition_by_tuples(a, pairs):
    """Sum of B(F, G) over the pairs, evaluated on every basis tuple of L^(2n-1)."""
    pairs = [(f, g) for f, g in pairs if f and g]
    if not pairs:
        return {}
    n = a.arity
    alpha = [a.alpha.column(i) for i in range(a.dim)]
    out = {}
    for tup in basis_tuples(a, 2 * n - 1):
        xs, ys = tup[:n], tup[n:]
        ycols = [alpha[y] for y in ys]
        res = {}
        for f, g in pairs:
            gx = g.get(xs)
            if gx:
                for k, v in apply_multimap(f, [gx] + ycols).items():
                    cadd(res, k, v)
            for pos in range(n):
                inner = g.get((xs[pos],) + ys)
                if not inner:
                    continue
                args = [alpha[x] for x in xs]
                args[pos] = inner
                for k, v in apply_multimap(f, args).items():
                    cadd(res, k, -v)
        if res:
            out[tup] = res
    return out


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to total."""
    return (t for t in itertools.product(range(total + 1), repeat=parts) if sum(t) == total)


def morphism_order_residual_by_compositions(md, l):
    """The three order-l residuals, the morphism equation's right side summed
    over every composition (j_1..j_n) of l - i, one tensor product each."""
    res_xi = hom_composition_by_tuples(md.xi.base, [(md.xi.coeff(i), md.xi.coeff(l - i)) for i in range(l + 1)])
    res_eta = hom_composition_by_tuples(md.eta.base, [(md.eta.coeff(i), md.eta.coeff(l - i)) for i in range(l + 1)])
    src = md.phi.source
    n = src.arity
    res_phi = {}
    for X in basis_tuples(src):
        res = {}
        for i in range(l + 1):
            xj = md.xi.coeff(l - i).get(X)
            if xj:
                for k, v in matrix_combo(md.phi_coeff(i), xj).items():
                    cadd(res, k, v)
        for i in range(l + 1):
            for js in _compositions(l - i, n):
                args = [md.phi_coeff(js[r]).column(X[r]) for r in range(n)]
                for k, v in apply_multimap(md.eta.coeff(i), args).items():
                    cadd(res, k, -v)
        if res:
            res_phi[X] = res
    return res_xi, res_eta, res_phi


def check_multiplicative_by_tuples(a):
    """alpha([x1..xn]) = [alpha(x1)..alpha(xn)] evaluated on every basis tuple."""
    report = []
    for tup in basis_tuples(a):
        lhs = matrix_combo(a.alpha, bracket_apply(a, [basis_combo(i) for i in tup]))
        rhs = bracket_apply(a, [a.alpha.column(i) for i in tup])
        v = _residual_violation("multiplicative", tup, csub(lhs, rhs))
        if v:
            report.append(v)
    return report


def check_morphism_by_tuples(phi):
    """Bracket preservation on every basis tuple, and phi.alpha = beta.phi."""
    report = []
    src, tgt = phi.source, phi.target
    for tup in basis_tuples(src):
        lhs = phi.apply(bracket_apply(src, [basis_combo(i) for i in tup]))
        rhs = bracket_apply(tgt, [phi.column(i) for i in tup])
        v = _residual_violation("bracket-preservation", tup, csub(lhs, rhs))
        if v:
            report.append(v)
    diff = phi.matrix @ src.alpha - tgt.alpha @ phi.matrix
    bad = sorted(((i, j), x) for j in range(diff.cols) for i, x in diff.column(j).items())
    if bad:
        report.append(Violation("twist-intertwining", (), tuple(bad)))
    report.sort(key=lambda v: (v.identity, v.where))
    return report


# ---------------------------------------------------------------------------
# the module identities and module actions on every basis tuple


def action_apply(rep, i, alg_combos, mod_combo):
    """[x1,..,xi, m, x_{i+1},..,x_{n-1}]_i with alg_combos in positional order."""
    out = {}
    for key, coeff in tensor_combo(alg_combos).items():
        for m, mv in mod_combo.items():
            entry = rep.actions[i].get(key + (m,))
            if entry:
                for k, c in entry.items():
                    cadd(out, k, coeff * mv * c)
    return out


_L = "L"
_M = "M"


def _mixed_alpha(rep, tagged):
    tag, combo = tagged
    if tag == _M:
        return (_M, matrix_combo(rep.alpha_module, combo))
    return (_L, matrix_combo(rep.algebra.alpha, combo))


def _mixed_bracket(rep, args):
    """n-ary bracket where at most one argument is tagged as a module element."""
    mod_positions = [i for i, (tag, _) in enumerate(args) if tag == _M]
    if not mod_positions:
        return (_L, bracket_apply(rep.algebra, [c for _, c in args]))
    if len(mod_positions) > 1:
        raise ValueError("at most one module argument is allowed")
    i = mod_positions[0]
    alg = [c for j, (tag, c) in enumerate(args) if j != i]
    return (_M, action_apply(rep, i, alg, args[i][1]))


def _identity_residual(rep, xs, ys, module_slot):
    """LHS - RHS of the fundamental identity on one basis tuple.

    xs and ys are basis indices; module_slot picks which of the 2n-1
    variables (0..n-1 the x's, n..2n-2 the y's) lies in the module.
    """
    n = rep.algebra.arity

    def var(pos, idx):
        tag = _M if pos == module_slot else _L
        return (tag, basis_combo(idx))

    x = [var(i, xs[i]) for i in range(n)]
    y = [var(n + j, ys[j]) for j in range(n - 1)]

    inner = _mixed_bracket(rep, x)
    lhs = _mixed_bracket(rep, [inner] + [_mixed_alpha(rep, t) for t in y])

    rhs_tag, rhs = None, {}
    for i in range(n):
        inner_i = _mixed_bracket(rep, [x[i]] + y)
        args = [_mixed_alpha(rep, x[j]) for j in range(n)]
        args[i] = inner_i
        tag, combo = _mixed_bracket(rep, args)
        rhs_tag = tag
        for k, v in combo.items():
            cadd(rhs, k, v)
    if rhs and rhs_tag != lhs[0]:
        raise ValueError("the two sides of the identity land in different spaces")
    return csub(lhs[1], rhs)


def representation_violations_by_tuples(rep):
    """All 2n-1 module specializations of the fundamental identity, evaluated
    on every basis tuple with the module element in slot s."""
    a = rep.algebra
    n = a.arity
    report = []
    for slot in range(2 * n - 1):
        for tup in itertools.product(
            *[range(rep.module_dim) if p == slot else range(a.dim) for p in range(2 * n - 1)]
        ):
            res = _identity_residual(rep, tup[:n], tup[n:], slot)
            v = _residual_violation(f"representation[slot={slot}]", tup, res)
            if v:
                report.append(v)
    report.sort(key=lambda v: (v.identity, v.where))
    return report


def module_actions_by_tuples(bracket, n, phi, src_dim, tgt_dim):
    """The n actions of a bracket through the tgt_dim x src_dim Matrix phi:
    action i applied to every (n-1)-tuple of source basis elements and every
    target basis element, the latter in slot i."""
    actions = []
    for i in range(n):
        tensor = {}
        for alg in itertools.product(range(src_dim), repeat=n - 1):
            for m in range(tgt_dim):
                args = [phi.column(j) for j in alg]
                args = args[:i] + [basis_combo(m)] + args[i:]
                out = apply_multimap(bracket, args)
                if out:
                    tensor[alg + (m,)] = out
        actions.append(tensor)
    return tuple(actions)


def module_actions_by_precompose(bracket, n, phi=None):
    """The n actions of a bracket through phi, each built by precompose with
    a map list of its own, phi in every slot but slot i (None there and
    everywhere when phi is None), the slot-i argument then moved last."""
    actions = []
    for i in range(n):
        t = precompose(bracket, [None if j == i else phi for j in range(n)])
        actions.append({K[:i] + K[i + 1 :] + K[i : i + 1]: e for K, e in t.items()})
    return tuple(actions)


def action_tables_by_precompose(algebra, rep, p):
    """(action_c, action_d, {"action_c": den, "action_d": den}) of
    SlotTables(algebra, rep, p), every action moved through precompose with
    alpha^{p-1} in its n-1 algebra slots, the identity included."""
    n, d, m = algebra.arity, algebra.dim, rep.module_dim
    apow = algebra.alpha.power(p - 1)
    moved = [precompose(action, [apow] * (n - 1) + [None]) for action in rep.actions]
    action_c, action_d = [[] for _ in range(m)], [[] for _ in range(m)]
    nums, den_c = integral_rows(list(moved[0].values()))
    for (*ws, mf), out in zip(moved[0], nums):
        for mo, c in out.items():
            action_c[mf].append((_flat(ws, d), mo, c))
    keys = [(i, key) for i in range(1, n) for key in moved[i]]
    nums, den_d = integral_rows([moved[i][key] for i, key in keys])
    for (i, (*ws, mf)), out in zip(keys, nums):
        for mo, c in out.items():
            action_d[mf].append((i, ws[0], _flat(ws[1:i] + [0] + ws[i:], d), mo, c))
    return action_c, action_d, {"action_c": den_c, "action_d": den_d}
