"""Cochain spaces, the coboundary operator, and the sign-calibration harness.

A p-cochain with values in a module M is a linear map on
L tensor (L^{tensor n-1})^{tensor p-1}; its coefficients live in an ambient
space of dimension module_dim * d^(1 + (n-1)(p-1)).  The admissible cochains
are cut out by the twist-compatibility constraint

    alpha_M o f = f o (alpha tensor abar^{tensor p-1}),

with abar acting componentwise on (n-1)-tuples.  twist_constraint gives its
int columns, each built on first read.  A CochainSpace makes its constraint
when it is made and builds its basis on first read.  When alpha and alpha_M
are diagonal (decided once, when each is built) so is the constraint: cell
(key, mf) is compatible exactly when alpha_M[mf] is the product of alpha's
diagonal entries over key's digits, the weight decomposition of a Yau twist
by a diagonal map, and the basis is the unit vectors at those cells, read
off the weights with no column built.  Otherwise the columns come from
memoised rows of alpha^{tensor k} and the basis is the kernel of all of
them, transposed.  A Cochain is certified by its space's constraint on its
support, so it builds no basis.

delta^p = s_a T_A + s_b T_B + s_c T_C + s_d T_D.  Its unit signs, the slot
order of the bracket on (n-1)-tuples and the twist after the hat (read by
T_A), and the range of T_C are collected in SignConvention; calibration_report
finds the conventions under which the composite coboundary vanishes exactly,
checking one convention per distinct delta: -s gives -delta, and with
alpha = id the hat flag moves no column.

coboundary_operator sums each column of delta^p from its term groups' signed
columns, built from small int maps in SlotTables: alpha, abar, the bracket
and the powers alpha^j once per algebra, in its memo of alpha^{tensor j}'s
rows, the actions' int numerators once per rep, and their placement once
per (algebra, rep, p), on the tables' first column read, so an empty C^p
places none.  delta^p is over one q per degree, which its tables compute
when they are made; each term group's columns are cached per setting of
the flags it reads, and a Columns cache builds each column on first read.
A term's product takes one table row per slot.  A row with one entry, which
is every row of alpha, abar and alpha^{p-1} when alpha is diagonal, folds
into the product's running (base, weight) by _fold, and any other row is a
Kronecker factor of _products: one rule, so a diagonal twist leaves only
the bracket's row as a factor.  Term C's row base, f's input with a gap at
slot i, is read off the column key in O(1).
certified_images checks delta^p's images of C^p's basis against C^{p+1}'s
constraint on their support, for a diagonal twist the only constraint
columns ever built, so ranks, eliminated on those images with one row per
cell they reach, build no basis of C^{p+1} and no ambient-size row list;
restrict_operator reads coordinates off them.  apply_sparse's image of a
one-entry vector, such as a diagonal space's unit basis vector, is its
operator column scaled.  delta o delta = 0 is certified by
squares_to_zero, an int zero test on the ambient operators.  Cochain data
stay in ints up to the rank.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .linalg import Matrix, SubspaceBasis, coords_in_basis, dense_vector, direct_sum
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


def _weights(algebra, k):
    """w_k of a diagonal alpha: the Kronecker power of its diagonal int
    numerators, so w_k[key] is the product of the entries at key's k base-d
    digits.  Memoised by k alone in algebra.power_rows: only the powers asked
    for are kept, not the ones on the way."""
    memo = algebra.power_rows
    if k not in memo:
        diagonal, w = [row.get(i, 0) for i, row in enumerate(algebra.alpha.numerators()[0])], [1]
        for bit in bin(k)[2:]:  # k's bits, highest first: w_e to w_2e, and to w_2e+1 on a 1
            w = [x * a for x in w for a in w]
            if bit == "1":
                w = [x * a for x in w for a in diagonal]
        memo[k] = w
    return memo[k]


def _power_row(algebra, j, key):
    """Row key of alpha^{tensor j}: {key: w_j[key]} for a diagonal alpha, else
    row key // d of alpha^{tensor j-1} tensor row key % d of alpha, memoised
    by (j, key) in algebra.power_rows for its constraints and slot tables."""
    if algebra.diagonal:
        x = _weights(algebra, j)[key]
        return {key: x} if x else {}
    rows, memo = algebra.alpha.numerators()[0], algebra.power_rows
    d, todo = len(rows), []
    while j and (j, key) not in memo:
        todo.append((j, key))
        j, key = j - 1, key // d
    row = memo.get((j, key), {0: 1})
    for j, key in reversed(todo):
        row = memo[j, key] = {i * d + k: x * v for i, x in row.items() for k, v in rows[key % d].items()}
    return row


# ---------------------------------------------------------------------------
# cochain spaces


def twist_constraint(algebra, rep, p):
    """Columns of alpha_M o f - f o alpha^{tensor k} on C^p's ambient cells,
    k = input_length, in ints: alpha^{tensor k} is over den_a^k, and both
    terms go over one lcm.  When alpha and alpha_M are diagonal, so is the
    constraint: column (key, mf) is its one cell, alpha_M[mf] less w_k[key],
    the product of alpha's diagonal entries over key's digits, and empty
    where they are equal (every cell when alpha = id and alpha_M = id)."""
    den_a = algebra.alpha.den
    rows_m, den_m = rep.alpha_module.numerators()
    k = input_length(algebra.arity, p)
    den = math.lcm(den_m, den_a ** k)
    if algebra.diagonal and rep.diagonal:
        build = functools.partial(_diagonal_columns, *_diagonal_twist(algebra, rep, p, den))
    else:
        cols_m = transpose(rows_m, rep.module_dim)
        build = functools.partial(_constraint_columns, algebra, cols_m, den // den_m, den // den_a ** k, k)
    return Columns(build, ambient_dim(algebra, rep, p), den)


def _diagonal_twist(algebra, rep, p, den):
    """(t, w, scale) of a diagonal twist on C^p, over the constraint's den:
    t, alpha_M's diagonal int numerators over den; w = w_k, k = input_length,
    over den_a^k; and scale = den / den_a^k.  Cell (key, mf) of the
    constraint holds t[mf] - w[key] * scale, and is free where that is 0."""
    rows_m, den_m = rep.alpha_module.numerators()
    k = input_length(algebra.arity, p)
    t = [row.get(i, 0) * (den // den_m) for i, row in enumerate(rows_m)]
    return t, _weights(algebra, k), den // algebra.alpha.den ** k


def _diagonal_columns(t, w, scale, js):
    """{j: column} of a diagonal twist constraint, from _diagonal_twist:
    cell (key, mf) = j holds t[mf] - w[key] * scale, or is empty at 0."""
    m, out = len(t), {}
    for j in js:
        key, mf = divmod(j, m)
        x = t[mf] - w[key] * scale
        out[j] = [(j, x)] if x else []
    return out


def _free_cells(t, w, scale):
    """The empty columns of _diagonal_columns(t, w, scale), in ascending
    order: the cells (key, mf) with w[key] * scale = t[mf], read off w key by
    key, so no column is built."""
    m, at = len(t), {}
    for mf, x in enumerate(t):
        at.setdefault(x, []).append(mf)
    return [key * m + mf for key, x in enumerate(w) for mf in at.get(x * scale, ())]


def _constraint_columns(algebra, cols_m, w_m, w_k, k, js):
    """{j: column} of the twist constraint.  Column (key, mf) holds alpha_M's
    column mf at the cells (key, mo), less row key of alpha^{tensor k} at (inp, mf)."""
    m, out = len(cols_m), {}
    for j in js:
        key, mf = divmod(j, m)
        col = {key * m + mo: c * w_m for mo, c in cols_m[mf].items()}
        for inp, v in _power_row(algebra, k, key).items():
            col[inp * m + mf] = col.get(inp * m + mf, 0) - v * w_k
        out[j] = [(r, x) for r, x in col.items() if x]
    return out


class CochainSpace:
    """Twist-compatible p-cochains: the kernel of the twist constraint, made
    with the space, as a basis in ambient coordinates built on first read."""

    def __init__(self, algebra, rep, degree):
        if degree < 1:
            raise ValueError("cochain degree must be at least 1")
        if rep.algebra != algebra:
            raise ValueError("representation does not belong to the algebra")
        self.algebra = algebra
        self.rep = rep
        self.degree = degree
        self.ambient = ambient_dim(algebra, rep, degree)
        self.constraint = twist_constraint(algebra, rep, degree)

    @functools.cached_property
    def basis(self):
        a, rep, c = self.algebra, self.rep, self.constraint
        if a.diagonal and rep.diagonal:
            # kernel_basis of a diagonal matrix: the unit vectors at its empty
            # columns, read off the weights
            free = _free_cells(*_diagonal_twist(a, rep, self.degree, c.den))
            return SubspaceBasis(self.ambient, [({j: 1}, 1) for j in free], free)
        cols = c.read(range(self.ambient))
        rows = transpose([dict(cols[j]) for j in range(self.ambient)], self.ambient)
        return kernel_basis(Matrix.from_rows(rows, self.ambient, c.den))

    @property
    def dim(self):
        return self.basis.dim

    def coords(self, vector):
        """Sparse coordinates of a sparse ambient vector; ConstraintViolation outside the space."""
        c = coords_in_basis(self.basis, vector)
        if c is None:
            raise ConstraintViolation(
                f"tensor is not twist-compatible in degree {self.degree}"
            )
        return c

    def from_coords(self, coords):
        if len(coords) != self.dim:
            raise ValueError("coordinate length does not match space dimension")
        return Cochain(self, self.basis.combination(sparse_vector(coords)))


class Cochain:
    """A member of a CochainSpace: a sparse ambient vector {index: nonzero
    Fraction}, which certify refuses (ConstraintViolation) outside it."""

    def __init__(self, space, vector):
        if not all(0 <= j < space.ambient for j in vector):
            raise ConstraintViolation(f"tensor is outside the ambient of degree {space.degree}")
        certify([(vector, 1)], [space])
        self.space = space
        self.vector = vector

    @property
    def coeffs(self):
        """The dense ambient coefficient list, built on each read."""
        return dense_vector(self.vector, self.space.ambient)


# ---------------------------------------------------------------------------
# the coboundary


class SlotTables:
    """The small maps of delta^p's term groups, transposed once per algebra or per (rep, p).

    An (n-1)-tuple is one digit in base D = d^(n-1): an input of delta^p f is
    the base-D number z X_1 .. X_p, an input of f the number z Y_1 .. Y_{p-1}.
    Each table maps an f-side digit to the row-side digits it comes from:

        alpha[z]             [(z0, c)]              alpha(z0) = sum c z
        abar[Y]              [(X, c)]               alpha on each component of X
        mu[z]                [(z0, X, c)]           the bracket [z0, X]
        bracket[yf][Y]       [(X, X2, c)]           [X, X2] of fundamental objects
        action_c[mf]         [(X, mo, c)]           right action of alpha^{p-1}(X)
        action_d[mf]         [(i, ZX, mo, c)]       action i of alpha^{p-1}(z0 X
                                                    but x_i, which ZX holds as 0)

    with the actions on the unit module vector mf, placed by actions on its
    first read.  Each c is an int, built from the algebra's int numerators,
    over its table's den[name]: alpha's Matrix.den, its power n-1 for abar,
    the bracket's lcm for mu, den["mu"] den_a^(n-2) for both bracket orders,
    and den["action"], the actions' lcm times den_a^((n-1)(p-1)), for both
    action tables.  alpha, abar, mu, their dens and bracket are the algebra's,
    kept in its power_rows by _algebra_tables and bracket_rows(yf), which
    builds bracket[yf] on its first read; the actions' keys, int numerators
    and lcm are rep.action_rows, once per rep.  q, delta^p's denominator,
    comes from the dens alone.  groups caches delta^p's term groups,
    {column: {row: coeff}} over q with sign +1, by the flags each reads:
    ("A", yf, twist_after_hat), ("B",), ("C", c_full_range), ("D",).
    """

    def __init__(self, algebra, rep, p):
        self.algebra, self.rep, self.p = algebra, rep, p
        a, n, memo = algebra, algebra.arity, algebra.power_rows
        self.D = a.dim ** (n - 1)
        if "slots" not in memo:
            memo["slots"], memo["bracket"], memo["power"] = _algebra_tables(a), {}, [Matrix.identity(a.dim)]
        if rep.action_rows is None:
            keys = [(i, key) for i, action in enumerate(rep.actions) for key in action]
            rep.action_rows = keys, *integral_rows([rep.actions[i][key] for i, key in keys])
        (self.alpha, self.abar, self.mu, den), self.bracket = memo["slots"], memo["bracket"]
        self.den = {**den, "action": rep.action_rows[2] * a.alpha.den ** ((n - 1) * (p - 1))}
        abar = den["abar"]
        self.q = math.lcm(den["alpha"] * den["bracket"] * abar ** max(p - 2, 0), den["mu"] * abar ** (p - 1), self.den["action"])
        self.groups = {}

    @functools.cached_property
    def actions(self):
        """(action_c, action_d), placed through the int rows of alpha^{p-1}:
        power_rows["power"] holds alpha^0, alpha^1, .. once per algebra, each
        one product past the last; a one-entry row folds into the placed
        entry (_fold), and any other row is a Kronecker factor."""
        a, p, n, d, m = self.algebra, self.p, self.algebra.arity, self.algebra.dim, self.rep.module_dim
        powers = a.power_rows["power"]
        while len(powers) < p:
            powers.append(powers[-1] @ a.alpha)
        power = [list(row.items()) for row in powers[p - 1].numerators()[0]]
        keys, nums, _ = self.rep.action_rows
        action_c, action_d = [[] for _ in range(m)], [[] for _ in range(m)]
        for (i, (*ws, mf)), out in zip(keys, nums):
            # slot s of action i (module at i) is digit s + (s >= i) of the n-digit z0 X
            slots = [(power[x], d ** (n - 1 - s - (s >= i))) for s, x in enumerate(ws)]
            for offset, u in _products(*_fold(slots, 0, 1)):
                if i:
                    action_d[mf] += [(i, offset, mo, c * u) for mo, c in out.items()]
                else:
                    action_c[mf] += [(offset, mo, c * u) for mo, c in out.items()]
        return action_c, action_d

    def bracket_rows(self, yf):
        """bracket[yf], built by _bracket_rows on its first read."""
        if yf not in self.bracket:
            self.bracket[yf] = _bracket_rows(self, yf)
        return self.bracket[yf]


def _algebra_tables(a):
    """alpha, abar and mu of SlotTables, and their dens with the bracket
    orders', from the algebra a alone."""
    n, d, den_a = a.arity, a.dim, a.alpha.den
    mu = [[] for _ in range(d)]
    nums, den_mu = integral_rows(list(a.bracket.values()))
    for (z0, *xs), out in zip(a.bracket, nums):
        for z, c in out.items():
            mu[z].append((z0, _flat(xs, d), c))
    abar = [list(_power_row(a, n - 1, Y).items()) for Y in range(d ** (n - 1))]
    den = {"alpha": den_a, "abar": den_a ** (n - 1), "mu": den_mu, "bracket": den_mu * den_a ** (n - 2)}
    return [list(row.items()) for row in a.alpha.numerators()[0]], abar, mu, den


def _bracket_rows(t, yf):
    """bracket[yf] of the SlotTables t, from mu, the support of the bracket:
    the entry at K = (x_k, *X2) (K = (*X2, x_k) when yf) puts [K] at slot k of
    each X that holds x_k there, and alpha at its other slots.  Row (pre, z,
    suf) of that map is row pre of alpha^{tensor k}, [K] at z and row suf of
    alpha^{tensor n-2-k}; the first and last are read together as row
    (pre, suf) of alpha^{tensor n-2}, over den_a^(n-2), from _power_row's
    memo."""
    a, D, n, d = t.algebra, t.D, t.algebra.arity, t.algebra.dim
    acc = {}
    for z, row in enumerate(t.mu):
        for z0, X1, v in row:
            xk, X2 = (X1 % d, (z0 * D + X1) // d) if yf else (z0, X1)
            for R in range(d ** (n - 2)):
                for XR, u in _power_row(a, n - 2, R).items():
                    for k in range(n - 1):
                        s = d ** (n - 2 - k)  # the place value of slot k's suffix
                        key = ((R // s * d + z) * s + R % s, (XR // s * d + xk) * s + XR % s, X2)
                        acc[key] = acc.get(key, 0) + v * u
    rows = [[] for _ in range(D)]
    for (Y, X, X2), c in acc.items():
        if c:
            rows[Y].append((X, X2, c))
    return rows


def _fold(slots, base, weight):
    """(factors, base, weight) for _products from slots, (row, place) pairs
    with row a list of (digit, coeff): a row with one entry folds into the
    running base (digit * place) and weight (coeff), and any other row,
    empty ones included, becomes a factor of (digit * place, coeff) pairs."""
    factors = []
    for row, place in slots:
        if len(row) == 1:
            ((x, c),) = row
            base, weight = base + x * place, weight * c
        else:
            factors.append([(x * place, c) for x, c in row])
    return factors, base, weight


def _products(factors, base, weight):
    """(base + sum of offsets, weight times the product of coefficients) over
    every choice of one (offset, coeff) pair per factor: the factors'
    Kronecker product, with _fold's one-entry rows already in base and
    weight, so a diagonal twist leaves only the bracket's factor."""
    out = [(base, weight)]
    for f in factors:
        out = [(o + fo, c * fc) for o, c in out for fo, fc in f]
    return out


def coboundary_operator(tables, columns, convention=DEFAULT_CONVENTION):
    """Columns of the sparse ambient matrix of delta^p, as {column: [(row, coeff), ...]}
    with int coeffs over q, read off the SlotTables of (algebra, rep, p).

    columns lists the ambient columns wanted; empty columns are omitted and
    every column is sorted by row.  delta^p = s_a T_A + s_b T_B + s_c T_C +
    s_d T_D over q = tables.q: each column sums the signed columns of the
    term groups that the flags select, built once per flag setting and
    column by _term_groups and cached on the tables.
    """
    cv, yf = convention, convention.bracket_y_first
    keys = (("A", yf, cv.twist_after_hat), ("B",), ("C", cv.c_full_range), ("D",))
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
        if entries := [(row, v) for row, v in sorted(acc.items()) if v]:
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

    In terms A and B each one-entry row of alpha and abar folds into the
    product's base and weight (_fold); the bracket's and mu's rows, and any
    row of several entries, are the factors.  With the hat bare, the slots
    after X_j keep f's digits, key % w[j].  Term C's base, z Y_1 .. Y_{p-1}
    with a gap at slot i, is key // w[i] * w[i-1] + key % w[i].
    """
    want_a, want_b, want_c, want_d = todo
    p, n, d, m, D = t.p, t.algebra.arity, t.algebra.dim, t.rep.module_dim, t.D
    w = [D ** (p - r) for r in range(p + 1)]  # row weights of z (r = 0) and of X_r
    yf, twist_after_hat, c_top = cv.bracket_y_first, cv.twist_after_hat, p if cv.c_full_range else p - 1
    bracket = t.bracket_rows(yf) if want_a else None
    action_c, action_d = t.actions
    den, abar, q = t.den, t.den["abar"], t.q

    # term A's products are over den_a times abar^(p - 2), or abar^(j - 2) when hat-bare
    den_a = den["alpha"] * den["bracket"]
    weight_a = {j: (-1) ** j * (q // (den_a * abar ** (p - 2 if twist_after_hat else j - 2))) for j in range(2, p + 1)}
    weight_b = [(-1) ** i * (q // (den["mu"] * abar ** (p - 1))) for i in range(p + 1)]
    weight_d = q // den["action"]
    weight_c = [(-1) ** (i + 1) * weight_d for i in range(c_top + 1)]

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
                # hat-bare: X_{j+1} .. X_p are Y_j .. Y_{p-1} at their own places, key % w[j]
                top = p if twist_after_hat else j - 1
                slots = [(t.alpha[Y[0]], w[0])] + [(t.abar[Y[r - (r > j)]], w[r]) for r in range(1, top + 1) if r != i and r != j]
                factors, base, weight = _fold(slots, 0 if twist_after_hat else key % w[j], weight_a[j])
                factors.append([(X * w[i] + X2 * w[j], c) for X, X2, c in bracket[Y[i]]])
                for off, c in _products(factors, base, weight):
                    acc_a[off * m + mf] = acc_a.get(off * m + mf, 0) + c

        # term B: f([z, X_i], abar X_r for r != i)
        for i in range(1, p + 1) if col in want_b and t.mu[Y[0]] else ():
            factors, base, weight = _fold([(t.abar[Y[r - (r > i)]], w[r]) for r in range(1, p + 1) if r != i], 0, weight_b[i])
            factors.append([(z0 * w[0] + X * w[i], c) for z0, X, c in t.mu[Y[0]]])
            for off, c in _products(factors, base, weight):
                acc_b[off * m + mf] = acc_b.get(off * m + mf, 0) + c

        # term C: right action of alpha^{p-1}(X_i) on f(z, X_r for r != i)
        for i in range(1, c_top + 1) if col in want_c and action_c[mf] else ():
            base = key // w[i] * w[i - 1] + key % w[i]  # z Y_1 .. Y_{p-1} with a gap at slot i
            for X, mo, c in action_c[mf]:
                row = (base + X * w[i]) * m + mo
                acc_c[row] = acc_c.get(row, 0) + weight_c[i] * c

        # term D: action i of alpha^{p-1}(z, X_1 but x_i) on f(x_i, X_2, .., X_p)
        if col in want_d and action_d[mf]:
            base = [Y[0] * d ** (n - 1 - i) * w[1] + key - Y[0] * w[1] for i in range(n)]
            for i, ZX, mo, c in action_d[mf]:
                row = (ZX * w[1] + base[i]) * m + mo
                acc_d[row] = acc_d.get(row, 0) + weight_d * c


class Columns:
    """The columns of a sparse ambient operator, each built on its first read.

    build(js) returns {j: [(row, coeff), ...]} for the columns js, empty ones
    omitted, each coeff a nonzero int numerator over den and each row once.  Every read builds the
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
    Each vector, and each image, is (nonzero int numerators, den); an image's
    den is its vector's times op.den.  A one-entry vector's image is its
    column scaled, with no accumulator: a column holds each row once."""
    built = op.read(sorted({j for vec, _ in vectors for j in vec}))
    images = []
    for vec, den in vectors:
        if len(vec) == 1:  # a unit vector's image is its column, scaled
            ((j, x),) = vec.items()
            images.append(({row: v * x for row, v in built[j]}, den * op.den))
            continue
        out = {}
        for j, x in vec.items():
            for row, v in built[j]:
                out[row] = out.get(row, 0) + v * x
        images.append(({row: v for row, v in out.items() if v}, den * op.den))
    return images


def coboundary_matrix(space: CochainSpace, target_space, op) -> Matrix:
    """Matrix of the ambient delta^p op between the bases of C^p and target_space."""
    return restrict_operator(op, [space], [target_space])


def certify(vectors, targets):
    """ConstraintViolation unless each of vectors, (sparse numerators, den),
    lies in the direct sum of the target spaces: its block on each target,
    stacked in order, must be sent to zero by that target's constraint
    columns, read on its support, so no basis is built.  With a lone target
    the block is the vector itself, checked as it is, with no copy."""
    start = 0
    for t in targets:
        c = t.constraint
        if len(targets) == 1:  # the lone block is the vector itself, den aside
            blocks = vectors
        else:
            blocks = [({r - start: x for r, x in v.items() if start <= r < start + c.size}, 1) for v, _ in vectors]
        if any(v for v, _ in apply_sparse(c, blocks)):
            raise ConstraintViolation(f"a tensor is not twist-compatible in degree {t.degree}")
        start += c.size


def certified_images(op, sources, targets):
    """apply_sparse's images of the sources' direct-sum basis under the Columns
    op, each certified in the targets' direct sum."""
    images = apply_sparse(op, direct_sum([s.basis for s in sources]).integral[0])
    certify(images, targets)
    return images


def image_rank(op, sources, targets) -> int:
    """Rank of op on the sources' direct sum: the rank of its images,
    certified in the targets, with one row per target cell they reach, in
    cell order; an image's den only scales its column."""
    images = certified_images(op, sources, targets)
    rows = {}
    for j, (image, _) in enumerate(images):
        for r, x in image.items():
            rows.setdefault(r, {})[j] = x
    # the transpose: the images as rows rank the ternary identity's d^1..d^5
    # about 8x slower, and gain nothing on small diagonal twists
    return rank(Matrix.from_rows([rows[r] for r in sorted(rows)], len(images)))


def restrict_operator(op, sources, targets) -> Matrix:
    """Matrix of the Columns op between direct sums of cochain spaces.

    Column j holds the coordinates of certified image j over the targets'
    direct sum: lying in its span, the image is the combination of its
    entries at the basis' unit rows.  The image of vector j, (B_j, d_j), is
    over d_j * op.den, so the matrix holds int numerators over L * op.den.
    """
    units = direct_sum([t.basis for t in targets]).unit_rows
    lcm = direct_sum([s.basis for s in sources]).integral[1]
    images = certified_images(op, sources, targets)
    rows = [{} for _ in units]
    for j, (image, den) in enumerate(images):
        for r, x in image.items():
            if r in units:
                rows[units[r]][j] = x * (lcm * op.den // den)
    return Matrix.from_rows(rows, len(images), lcm * op.den)


def squares_to_zero(cx, p) -> bool:
    """Exact certificate of d^p o d^{p-1} = 0: the sparse ambient operators
    cx.operator(p-1), then cx.operator(p), send every basis vector of the
    direct sum of cx.summands(p-1) to zero.  Callers also certify d^{p-1}'s
    images in C^p, so this is the zero matrix product.  The columns read are those on the support of C^{p-1}'s
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
    """Caches spaces, slot tables, operators, matrices, ranks and cohomology
    dimensions of one (algebra, rep, convention); a failed certificate is not cached."""

    def __init__(self, algebra, rep, convention=DEFAULT_CONVENTION):
        self.algebra = algebra
        self.rep = rep
        self.convention = convention
        self._spaces = {}
        self._tables = {}
        self._matrices = {}
        self._operators = {}
        self._ranks = {}
        self._cohomology = {}

    def with_convention(self, convention) -> CochainComplex:
        """This complex under convention, sharing the spaces and tables."""
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
        """delta^p's ambient columns over q, each built on its first read by
        coboundary_operator from the SlotTables of degree p, which the
        siblings share; no cochain space is built.  The builder holds the
        tables, not the complex: a reference cycle would leave every complex
        to the cyclic collector and raise peak memory."""
        if p not in self._operators:
            if p not in self._tables:
                self._tables[p] = SlotTables(self.algebra, self.rep, p)
            t = self._tables[p]
            build = functools.partial(coboundary_operator, t, convention=self.convention)
            self._operators[p] = Columns(build, ambient_dim(self.algebra, self.rep, p), t.q)
        return self._operators[p]

    def delta(self, p) -> Matrix:
        if p not in self._matrices:
            self._matrices[p] = coboundary_matrix(
                self.space(p), self.space(p + 1), self.operator(p)
            )
        return self._matrices[p]

    def rank(self, p) -> int:
        if p not in self._ranks:
            self._ranks[p] = image_rank(self.operator(p), [self.space(p)], [self.space(p + 1)])
        return self._ranks[p]

    def cohomology_dim(self, p) -> int:
        if p not in self._cohomology:
            self._cohomology[p] = cohomology_dim_of(self, p, "delta")
        return self._cohomology[p]


# ---------------------------------------------------------------------------
# calibration


def convention_passes(cx):
    """Whether the images of delta^1..delta^3 on the complex cx are certified
    twist-compatible and delta^{p+1} o delta^p vanishes exactly, p = 1 and 2."""
    try:
        for p in (1, 2, 3):
            certified_images(cx.operator(p), [cx.space(p)], [cx.space(p + 1)])
            if p > 1 and not squares_to_zero(cx, p):
                return False
    except ConstraintViolation:
        return False
    return True


def _representative(cv, untwisted):
    """The convention whose delta^p is cv's up to sign: every term-group column
    is linear in its sign, so flipping all four keeps the verdict, and with
    alpha = id abar's rows are units over den 1, so the hat flag moves no column."""
    s = cv.sign_a
    return SignConvention(1, s * cv.sign_b, s * cv.sign_c, s * cv.sign_d, cv.bracket_y_first,
                          cv.twist_after_hat or untwisted, cv.c_full_range)


def calibration_report(battery, conventions=None):
    """All conventions, of the given ones or all 128, for which every
    battery member is a complex, in the given order.

    Filters member by member so that expensive battery entries only see the
    conventions that survived the cheap ones.  Each member checks one
    _representative per distinct delta, on siblings of one complex sharing
    its spaces and tables, and every convention takes its representative's
    verdict.
    """
    surviving = list(all_conventions() if conventions is None else conventions)
    for algebra, rep in battery:
        base = CochainComplex(algebra, rep)
        keys = [_representative(cv, algebra.untwisted) for cv in surviving]
        verdict = {key: convention_passes(base.with_convention(key)) for key in dict.fromkeys(keys)}
        surviving = [cv for cv, key in zip(surviving, keys) if verdict[key]]
        if not surviving:
            break
    return surviving
