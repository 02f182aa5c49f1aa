"""Cochain spaces, the coboundary operator, and the sign-calibration harness.

A p-cochain with values in a module M is a linear map on
L tensor (L^{tensor n-1})^{tensor p-1}; its coefficients live in an ambient
space of dimension module_dim * d^(1 + (n-1)(p-1)).  The admissible cochains
are cut out by the twist-compatibility constraint

    alpha_M o f = f o (alpha tensor abar^{tensor p-1}),

with abar acting componentwise on (n-1)-tuples; cochain spaces store a
kernel basis of that constraint.  Its rows come input by input, each input's
column of alpha^{tensor k} (abar is alpha slot by slot) one Kronecker step
on its prefix's, built depth first with one partial column per level.

delta^p = s_a T_A + s_b T_B + s_c T_C + s_d T_D.  Its unit signs, the slot
order of the bracket on (n-1)-tuples and the twist after the hat (read by
T_A), and the range of T_C are collected in SignConvention; calibration_report
finds the conventions under which the composite coboundary vanishes exactly.

Each term is f precomposed with a tensor product of small maps (alpha, abar,
the bracket, the identity) after a slot permutation, in terms C and D then
acted on by the module.  coboundary_operator assembles delta^p column by
column from those maps, transposed once per (algebra, rep, p) in the
SlotTables that convention siblings share, so an operator builds no cochain
space.  Each table holds int numerators over its own denominator; the tables
cache each term group's int columns over q[bracket_y_first], with sign +1,
per setting of the flags it reads, summed by the convention's signs.  A
Columns cache builds each column on its first read: restrict_operator and
squares_to_zero read the columns on the support of the source bases, and
only the extension solve reads every column, through
MorphismComplex.operator.  From the twists' Matrix.numerators() and the
operator columns to the rank, cochain data stay in ints: kernel_basis
builds each basis as int pairs (B_j, d_j), SubspaceBasis.integral, which
apply_sparse maps as they are, coords_in_basis checks each image by int
back-substitution, and the restricted matrix holds int numerators over
one denominator.  delta o delta = 0 is certified in one place,
squares_to_zero, as an int zero test on the sparse ambient operators;
both complexes' cohomology_dim and the calibration call it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import cadd, precompose
from .linalg import Matrix, Q, coords_in_basis, dense_vector, direct_sum
from .linalg import integral_rows, kernel_basis, rank, sparse_vector, transpose


class ConstraintViolation(Exception):
    """A coboundary image left the twist-compatible subspace."""


class NotACochainComplex(Exception):
    """delta o delta failed to vanish; invalid convention or invalid input."""


# ---------------------------------------------------------------------------
# conventions


@dataclass(frozen=True, order=True)
class SignConvention:
    """Resolution of the ambiguities in the coboundary formula.

    sign_a..sign_d multiply the four term groups.  bracket_y_first swaps
    the argument order of the element bracket inside the bracket of
    fundamental objects.  twist_after_hat selects whether slots after the
    removed object in term A still receive abar.  c_full_range selects
    whether the action-on-the-right sum runs over every index or stops one
    short.
    """

    sign_a: int = 1
    sign_b: int = 1
    sign_c: int = 1
    sign_d: int = 1
    bracket_y_first: bool = False
    twist_after_hat: bool = True
    c_full_range: bool = True

    def __post_init__(self):
        for s in (self.sign_a, self.sign_b, self.sign_c, self.sign_d):
            if s not in (1, -1):
                raise ValueError("signs must be +1 or -1")
        if not all(type(f) is bool for f in (self.bracket_y_first, self.twist_after_hat, self.c_full_range)):
            raise ValueError("flags must be True or False")

    def label(self):
        pm = lambda s: "+" if s == 1 else "-"
        return (
            f"A{pm(self.sign_a)}B{pm(self.sign_b)}C{pm(self.sign_c)}D{pm(self.sign_d)}"
            f"|{'yx' if self.bracket_y_first else 'xy'}"
            f"|{'hat-twisted' if self.twist_after_hat else 'hat-bare'}"
            f"|{'c-full' if self.c_full_range else 'c-short'}"
        )


    @classmethod
    def from_label(cls, label):
        """Inverse of label(); accepts strings like 'A+B+C+D+|xy|hat-twisted|c-full'."""
        try:
            return _BY_LABEL[label]
        except (KeyError, TypeError):
            raise ValueError(f"cannot parse convention label {label!r}") from None


DEFAULT_CONVENTION = SignConvention()


def all_conventions():
    for sa, sb, sc, sd in itertools.product((1, -1), repeat=4):
        for yf in (False, True):
            for th in (True, False):
                for cf in (True, False):
                    yield SignConvention(sa, sb, sc, sd, yf, th, cf)


_BY_LABEL = {cv.label(): cv for cv in all_conventions()}


# ---------------------------------------------------------------------------
# indexing

def input_length(n, p):
    return 1 + (n - 1) * (p - 1)


def ambient_dim(algebra, rep, p):
    return rep.module_dim * algebra.dim ** input_length(algebra.arity, p)


def _flat(tup, d):
    pos = 0
    for i in tup:
        pos = pos * d + i
    return pos


def _kron_columns(cols, k, inp, col):
    """(flat input, its column of col tensor cols^{tensor k} by flat index) for
    each k-digit extension of the prefix inp, in lexicographic order."""
    if k == 0:
        yield inp, col
        return
    d = len(cols)
    for i, c in enumerate(cols):
        step = {key * d + j: x * v for key, x in col.items() for j, v in c.items()}
        yield from _kron_columns(cols, k - 1, inp * d + i, step)


# ---------------------------------------------------------------------------
# cochain spaces


class CochainSpace:
    """Twist-compatible p-cochains, as a kernel basis in ambient coordinates."""

    def __init__(self, algebra, rep, degree):
        if degree < 1:
            raise ValueError("cochain degree must be at least 1")
        if rep.algebra != algebra:
            raise ValueError("representation does not belong to the algebra")
        self.algebra = algebra
        self.rep = rep
        self.degree = degree
        self.in_len = input_length(algebra.arity, degree)
        self.ambient = ambient_dim(algebra, rep, degree)
        self.basis = self._constraint_kernel()

    @property
    def dim(self):
        return self.basis.dim

    def _constraint_kernel(self):
        """Kernel of the constraint rows, built in ints: with alpha over den_a,
        alpha^{tensor k} is over den_a^k, and both terms go over one lcm."""
        a, rep = self.algebra, self.rep
        d, m = a.dim, rep.module_dim
        rows = []
        alpha_rows, den_a = a.alpha.numerators()
        alpha_m_rows, den_m = rep.alpha_module.numerators()
        den = math.lcm(den_m, den_a ** self.in_len)
        w_m, w_k = den // den_m, den // den_a ** self.in_len
        for inp, kron in _kron_columns(transpose(alpha_rows, d), self.in_len, 0, {0: 1}):
            # one sparse row per output index mo; the alpha_M o f term
            base = inp * m
            block = [{base + mm: c * w_m for mm, c in row.items()} for row in alpha_m_rows]
            # - f o (alpha tensor abar...) term, abar expanded on the basis input
            for key, v in kron.items():
                at = key * m
                for mo, row in enumerate(block):
                    row[at + mo] = row.get(at + mo, 0) - v * w_k
            rows += [{c: x for c, x in row.items() if x} for row in block]
        return kernel_basis(Matrix.from_rows(rows, self.ambient, den))

    def _sparse(self, coeffs):
        if len(coeffs) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return sparse_vector(coeffs)

    def coords(self, coeffs):
        c = coords_in_basis(self.basis, self._sparse(coeffs))
        if c is None:
            raise ConstraintViolation(
                f"tensor is not twist-compatible in degree {self.degree}"
            )
        return dense_vector(c, self.dim)

    def contains(self, coeffs):
        return coords_in_basis(self.basis, self._sparse(coeffs)) is not None

    def from_coords(self, coords):
        if len(coords) != self.dim:
            raise ValueError("coordinate length does not match space dimension")
        combo = self.basis.combination(sparse_vector(coords))
        return Cochain(self, dense_vector(combo, self.ambient))

    def zero(self):
        return Cochain(self, [Q(0)] * self.ambient)


class Cochain:
    """A member of a CochainSpace: ambient coefficient tensor plus its space."""

    def __init__(self, space, coeffs):
        if len(coeffs) != space.ambient:
            raise ValueError("coefficient length does not match ambient dimension")
        self.space = space
        self.coeffs = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]

    def is_zero(self):
        return all(x == 0 for x in self.coeffs)

    def __add__(self, other):
        if self.space is not other.space:
            raise ValueError("cochains belong to different spaces")
        return Cochain(self.space, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.space is not other.space:
            raise ValueError("cochains belong to different spaces")
        return Cochain(self.space, [a - b for a, b in zip(self.coeffs, other.coeffs)])


# ---------------------------------------------------------------------------
# the coboundary


class SlotTables:
    """The small maps of delta^p's term groups, transposed once per (algebra, rep, p).

    An (n-1)-tuple is one digit in base D = d^(n-1): an input of delta^p f is
    the base-D number z X_1 .. X_p, an input of f the number z Y_1 .. Y_{p-1}.
    Each table maps an f-side digit to the row-side digits it comes from:

        alpha[z]             [(z0, c)]              alpha(z0) = sum c z
        abar[Y]              [(X, c)]               alpha on each component of X
        mu[z]                [(z0, X, c)]           the bracket [z0, X]
        bracket[yf][Y]       [(X, X2, c)]           [X, X2] of fundamental objects
        action_c[mf]         [(X, mo, c)]           right action of alpha^{p-1}(X)
        action_d[mf]         [(i, z0, X, mo, c)]    action i of alpha^{p-1}(z0, X
                                                    but x_i, which X holds as 0)

    with the actions on the unit module vector mf, read off each action's
    support precomposed with alpha^{p-1}.  Every coefficient c is an int
    over its table's den[name]: alpha's Matrix.den, its power n-1 for abar,
    else the lcm of the denominators of the table's rational entries
    (den["bracket"] maps yf to that order's denominator).
    bracket is built from the bracket's support: an entry [K] fixes the
    component x_k of X that it brackets and all of X2, and the other n-2
    components of X run over alpha's columns.  groups caches delta^p's term
    groups, {column: {row: coeff}} over q[yf] with sign +1, by yf and the
    flags each reads: ("A", yf, twist_after_hat), ("B", yf), ("C", yf,
    c_full_range) and ("D", yf).
    """

    def __init__(self, algebra, rep, p):
        self.algebra, self.rep, self.p = algebra, rep, p
        a, n, d, m = algebra, algebra.arity, algebra.dim, rep.module_dim
        self.D = d ** (n - 1)
        rows_a, den_a = a.alpha.numerators()
        self.alpha = [list(row.items()) for row in rows_a]
        abar_cols = [col for _, col in _kron_columns(transpose(rows_a, d), n - 1, 0, {0: 1})]
        self.abar = [list(row.items()) for row in transpose(abar_cols, self.D)]
        self.den = {"bracket": {}, "alpha": den_a, "abar": den_a ** (n - 1)}
        self.mu = [[] for _ in range(d)]
        nums, self.den["mu"] = integral_rows(list(a.bracket.values()))
        for (z0, *xs), out in zip(a.bracket, nums):
            for z, c in out.items():
                self.mu[z].append((z0, _flat(xs, d), c))
        apow = a.alpha.power(p - 1)
        moved = [precompose(action, [apow] * (n - 1) + [None]) for action in rep.actions]
        self.action_c = [[] for _ in range(m)]
        nums, self.den["action_c"] = integral_rows(list(moved[0].values()))
        for (*ws, mf), out in zip(moved[0], nums):
            for mo, c in out.items():
                self.action_c[mf].append((_flat(ws, d), mo, c))
        self.action_d = [[] for _ in range(m)]
        keys = [(i, key) for i in range(1, n) for key in moved[i]]
        nums, self.den["action_d"] = integral_rows([moved[i][key] for i, key in keys])
        for (i, (*ws, mf)), out in zip(keys, nums):
            for mo, c in out.items():
                self.action_d[mf].append((i, ws[0], _flat(ws[1:i] + [0] + ws[i:], d), mo, c))
        self.bracket = {}
        alpha_cols = [a.alpha_combo(x) for x in range(d)]
        for yf in (False, True):
            self.bracket[yf], self.den["bracket"][yf] = _bracket_rows(a, yf, alpha_cols)
        # q[yf]: the common denominator of delta^p's columns (coboundary_operator)
        den = self.den
        rest = (den["mu"] * den["abar"] ** (p - 1), den["action_c"], den["action_d"])
        self.q = {yf: math.lcm(den["alpha"] * den["bracket"][yf] * den["abar"] ** max(p - 2, 0), *rest)
                  for yf in (False, True)}
        self.groups = {}


def _bracket_rows(a, yf, alpha_cols):
    """(bracket[yf], its den) of SlotTables, from the support
    of a's bracket: the entry at K = (x_k, *X2) (K = (*X2, x_k) when yf) puts
    [K] at slot k of each X that holds x_k there, and alpha at its other slots.
    Each column is the Kronecker product of a length-k prefix of alpha
    columns, the entry [K], and a suffix of alpha columns."""
    n, d = a.arity, a.dim
    prefixes = [list(_kron_columns(alpha_cols, k, 0, {0: Q(1)})) for k in range(n - 1)]
    acc = {}
    for K, out in a.bracket.items():
        xk, ys = (K[-1], K[:-1]) if yf else (K[0], K[1:])
        X2 = _flat(ys, d)
        for k, prefix in enumerate(prefixes):
            for P, col in prefix:
                step = {key * d + z: x * v for key, x in col.items() for z, v in out.items()}
                for X, full in _kron_columns(alpha_cols, n - 2 - k, P * d + xk, step):
                    for Y, c in full.items():
                        cadd(acc, (Y, X, X2), c)
    rows = [[] for _ in range(d ** (n - 1))]
    (nums,), den = integral_rows([acc])
    for (Y, X, X2), c in nums.items():
        rows[Y].append((X, X2, c))
    return rows, den


def _products(factors, base, weight):
    """(base + sum of offsets, weight times the product of coefficients) over
    every choice of one (offset, coeff) pair per factor: the factors'
    Kronecker product."""
    out = [(base, weight)]
    for f in factors:
        out = [(o + fo, c * fc) for o, c in out for fo, fc in f]
    return out


def coboundary_operator(tables, columns, convention=DEFAULT_CONVENTION):
    """Columns of the sparse ambient matrix of delta^p, as {column: [(row, coeff), ...]}
    with int coeffs over q, read off the SlotTables of (algebra, rep, p).

    columns lists the ambient columns wanted; empty columns are omitted and
    every column is sorted by row.  delta^p = s_a T_A + s_b T_B + s_c T_C +
    s_d T_D over q = tables.q[bracket_y_first]: each column sums the signed
    columns of the term groups that the flags select, built once per flag
    setting and column by _term_groups and cached on the tables.
    """
    cv, yf = convention, convention.bracket_y_first
    keys = (("A", yf, cv.twist_after_hat), ("B", yf), ("C", yf, cv.c_full_range), ("D", yf))
    groups = [tables.groups.setdefault(key, {}) for key in keys]
    todo = [{j for j in columns if j not in group} for group in groups]
    if any(todo):
        _term_groups(tables, cv, groups, todo)
    signed = list(zip(groups, (cv.sign_a, cv.sign_b, cv.sign_c, cv.sign_d)))
    out = {}
    for col in columns:
        acc = {}
        for group, sign in signed:
            for row, v in group[col].items():
                acc[row] = acc.get(row, 0) + sign * v
        entries = [(row, v) for row, v in sorted(acc.items()) if v]
        if entries:
            out[col] = entries
    return out


def _term_groups(t, cv, groups, todo):
    """Build the columns todo[g] of term group g = A, B, C, D under cv's flags,
    with sign +1, into groups[g] as {row: int coeff over q}.  Column
    (z Y_1 .. Y_{p-1}, mf) costs only its own nonzeros: each term of delta^p f
    that reads this coefficient of f is a product of int table entries, one
    per slot of f's input, with the X_i or X_j that the term drops put back at
    its slot, and an int weight (its alternating sign times q over the
    tables' denominators) brings it over q.
    """
    want_a, want_b, want_c, want_d = todo
    p, n, d, m, D = t.p, t.algebra.arity, t.algebra.dim, t.rep.module_dim, t.D
    w = [D ** (p - r) for r in range(p + 1)]  # row weights of z (r = 0) and of X_r
    yf, twist_after_hat, c_top = cv.bracket_y_first, cv.twist_after_hat, p if cv.c_full_range else p - 1
    bracket, den, abar, q = t.bracket[yf], t.den, t.den["abar"], t.q[yf]

    # term A's products are over den_a times abar^(p - 2), or abar^(j - 2) when hat-bare
    den_a = den["alpha"] * den["bracket"][yf]
    weight_a = {j: (-1) ** j * (q // (den_a * abar ** (p - 2 if twist_after_hat else j - 2))) for j in range(2, p + 1)}
    weight_b = [(-1) ** i * (q // (den["mu"] * abar ** (p - 1))) for i in range(p + 1)]
    weight_c, weight_d = [(-1) ** (i + 1) * (q // den["action_c"]) for i in range(c_top + 1)], q // den["action_d"]

    for col in set().union(*todo):
        key, mf = divmod(col, m)
        Y = [key // w[s + 1] % D for s in range(p)]  # f's input z Y_1 .. Y_{p-1}
        # a group's column is a fresh dict where wanted, else its cached one, left alone
        acc_a, acc_b, acc_c, acc_d = [group.setdefault(col, {}) for group in groups]

        # term A: f(alpha z, abar X_1, .., [X_i, X_j], .., X_j dropped, ..)
        for i in range(1, p) if col in want_a else ():
            if not bracket[Y[i]]:
                continue  # then every product below is empty
            for j in range(i + 1, p + 1):
                factors = [[(z0 * w[0], c) for z0, c in t.alpha[Y[0]]],
                           [(X * w[i] + X2 * w[j], c) for X, X2, c in bracket[Y[i]]]]
                base = 0
                for r in range(1, p + 1):
                    if r in (i, j):
                        continue
                    if r < j or twist_after_hat:
                        factors.append([(X * w[r], c) for X, c in t.abar[Y[r - (r > j)]]])
                    else:
                        base += Y[r - 1] * w[r]
                for off, c in _products(factors, base, weight_a[j]):
                    acc_a[off * m + mf] = acc_a.get(off * m + mf, 0) + c

        # term B: f([z, X_i], abar X_r for r != i)
        for i in range(1, p + 1) if col in want_b and t.mu[Y[0]] else ():
            factors = [[(z0 * w[0] + X * w[i], c) for z0, X, c in t.mu[Y[0]]]]
            factors += [[(X * w[r], c) for X, c in t.abar[Y[r - (r > i)]]] for r in range(1, p + 1) if r != i]
            for off, c in _products(factors, 0, weight_b[i]):
                acc_b[off * m + mf] = acc_b.get(off * m + mf, 0) + c

        # term C: right action of alpha^{p-1}(X_i) on f(z, X_r for r != i)
        for i in range(1, c_top + 1) if col in want_c and t.action_c[mf] else ():
            base = Y[0] * w[0] + sum(Y[r - (r > i)] * w[r] for r in range(1, p + 1) if r != i)
            for X, mo, c in t.action_c[mf]:
                row = (base + X * w[i]) * m + mo
                acc_c[row] = acc_c.get(row, 0) + weight_c[i] * c

        # term D: action i of alpha^{p-1}(z, X_1 but x_i) on f(x_i, X_2, .., X_p)
        base = [Y[0] * d ** (n - 1 - i) * w[1] + key - Y[0] * w[1] for i in range(n)]
        for i, z0, X, mo, c in t.action_d[mf] if col in want_d else ():
            row = (z0 * w[0] + X * w[1] + base[i]) * m + mo
            acc_d[row] = acc_d.get(row, 0) + weight_d * c


class Columns:
    """The columns of a sparse ambient operator, each built on its first read.

    build(js) returns {j: [(row, coeff), ...]} for the columns js, empty ones
    omitted, each coeff an int numerator over den.  Every read builds the
    missing columns first, so a column that was never built never reads as
    zero.
    """

    def __init__(self, build, size, den):
        self._build = build
        self._built = {}
        self.size = size
        self.den = den

    def read(self, js):
        """{j: column}, covering js; the missing columns are built in one batch."""
        missing = [j for j in js if j not in self._built]
        if missing:
            cols = self._build(missing)
            for j in missing:
                self._built[j] = cols.get(j, [])
        return self._built


def apply_sparse(op, vectors):
    """Images of the sparse vectors under the Columns op, read in one batch.
    Each vector, and each image, is (int numerators, den); an image's den is
    its vector's times op.den."""
    built = op.read(sorted({j for vec, _ in vectors for j in vec}))
    images = []
    for vec, den in vectors:
        out = {}
        for j, x in vec.items():
            for row, v in built[j]:
                out[row] = out.get(row, 0) + v * x
        images.append(({row: v for row, v in out.items() if v}, den * op.den))
    return images


def coboundary_matrix(space: CochainSpace, target_space, op) -> Matrix:
    """Matrix of the ambient delta^p op between the bases of C^p and target_space."""
    return restrict_operator(op, [space], [target_space])


def restrict_operator(op, sources, targets) -> Matrix:
    """Matrix of the Columns op between direct sums of cochain spaces.

    Column j is the image of the j-th basis vector of the sources' direct
    sum, in coordinates over the targets' direct sum; an image that leaves
    it raises ConstraintViolation.  Only the columns of op on the support
    of the sources' bases are read.  The image of vector j, (B_j, d_j), is
    over d_j * op.den, so the matrix holds int numerators over L * op.den.
    """
    target = direct_sum([t.basis for t in targets])
    vectors, lcm = direct_sum([s.basis for s in sources]).integral
    rows = [{} for _ in range(target.dim)]
    for j, (image, den) in enumerate(apply_sparse(op, vectors)):
        col = coords_in_basis(target, image)
        if col is None:
            raise ConstraintViolation(
                f"an image is not twist-compatible in degree {targets[0].degree}"
            )
        for i, x in col.items():
            rows[i][j] = x * (lcm * op.den // den)
    return Matrix.from_rows(rows, len(vectors), lcm * op.den)


def squares_to_zero(cx, p) -> bool:
    """Exact certificate of d^p o d^{p-1} = 0: the sparse ambient operators
    cx.operator(p-1), then cx.operator(p), send every basis vector of the
    direct sum of cx.summands(p-1) to zero.  Callers also restrict d^{p-1},
    which writes each image exactly in the basis of C^p, so this is the zero
    matrix product.  The columns read are those on the support of C^{p-1}'s
    basis and of its images; the zero test is on ints and builds no Fraction."""
    vectors = direct_sum([s.basis for s in cx.summands(p - 1)]).integral[0]
    return not any(v for v, _ in apply_sparse(cx.operator(p), apply_sparse(cx.operator(p - 1), vectors)))


def cohomology_dim_of(cx, p, symbol) -> int:
    """dim H^p = dim C^p - rank d^p - rank d^{p-1} of the complex cx, with C^0 = 0.

    cx also supplies rank(q), over the summands' bases.  squares_to_zero
    certifies d^p o d^{p-1} = 0 first; NotACochainComplex names the
    differential by symbol and gives the convention."""
    if p < 1:
        raise ValueError("cohomology degree must be at least 1")
    kernel_dim = sum(s.dim for s in cx.summands(p)) - cx.rank(p)
    if p == 1:
        return kernel_dim
    rank_prev = cx.rank(p - 1)
    if not squares_to_zero(cx, p):
        raise NotACochainComplex(
            f"{symbol}^{p} o {symbol}^{p-1} is nonzero with convention {cx.convention.label()}"
        )
    return kernel_dim - rank_prev


class CochainComplex:
    """Caches spaces, slot tables, operators, matrices and ranks of one (algebra, rep, convention)."""

    def __init__(self, algebra, rep, convention=DEFAULT_CONVENTION):
        self.algebra = algebra
        self.rep = rep
        self.convention = convention
        self._spaces = {}
        self._tables = {}
        self._matrices = {}
        self._operators = {}
        self._ranks = {}

    def with_convention(self, convention) -> CochainComplex:
        """This complex under convention, sharing the spaces and tables, which no convention affects."""
        sibling = CochainComplex(self.algebra, self.rep, convention)
        sibling._spaces, sibling._tables = self._spaces, self._tables
        return sibling

    def space(self, p) -> CochainSpace:
        if p not in self._spaces:
            self._spaces[p] = CochainSpace(self.algebra, self.rep, p)
        return self._spaces[p]

    def summands(self, p):
        return [self.space(p)]

    def operator(self, p) -> Columns:
        """delta^p's ambient columns, each built on its first read from the
        SlotTables of degree p; no cochain space is built.  The builder
        holds no reference to the complex: a reference cycle would leave
        every complex to the cyclic collector and raise peak memory."""
        if p not in self._operators:
            if p not in self._tables:
                self._tables[p] = SlotTables(self.algebra, self.rep, p)
            t, cv = self._tables[p], self.convention
            build = functools.partial(coboundary_operator, t, convention=cv)
            self._operators[p] = Columns(build, ambient_dim(self.algebra, self.rep, p), t.q[cv.bracket_y_first])
        return self._operators[p]

    def delta(self, p) -> Matrix:
        if p not in self._matrices:
            self._matrices[p] = coboundary_matrix(
                self.space(p), self.space(p + 1), self.operator(p)
            )
        return self._matrices[p]

    def rank(self, p) -> int:
        if p not in self._ranks:
            self._ranks[p] = rank(self.delta(p))
        return self._ranks[p]

    def cohomology_dim(self, p) -> int:
        return cohomology_dim_of(self, p, "delta")


# ---------------------------------------------------------------------------
# calibration


def convention_passes(cx):
    """Whether delta^{p+1} o delta^p vanishes exactly on the complex cx, for
    p = 1 and 2.  Each delta^q is restricted to the bases first, so an image
    outside the twist-compatible subspace fails."""
    try:
        for p in (1, 2):
            cx.delta(p)
            cx.delta(p + 1)
            if not squares_to_zero(cx, p + 1):
                return False
    except ConstraintViolation:
        return False
    return True


def calibration_report(battery, conventions=None):
    """All conventions, of the given ones or all 128, for which every
    battery member is a complex.

    Filters member by member so that expensive battery entries only see the
    conventions that survived the cheap ones; each member's conventions are
    checked on siblings of one complex, sharing its spaces and tables.
    """
    surviving = list(all_conventions() if conventions is None else conventions)
    for algebra, rep in battery:
        base = CochainComplex(algebra, rep)
        surviving = [cv for cv in surviving if convention_passes(base.with_convention(cv))]
        if not surviving:
            break
    return surviving
