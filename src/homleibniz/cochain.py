"""Cochain spaces, the coboundary operator, and the sign-calibration harness.

A p-cochain with values in a module M is a linear map on
L tensor (L^{tensor n-1})^{tensor p-1}; its coefficients live in an ambient
space of dimension module_dim * d^(1 + (n-1)(p-1)).  The admissible cochains
are cut out by the twist-compatibility constraint

    alpha_M o f = f o (alpha tensor abar^{tensor p-1}),

with abar acting componentwise on (n-1)-tuples; cochain spaces store a
kernel basis of that constraint.

The coboundary consists of four term groups.  Their unit signs, the slot
order of the bracket on (n-1)-tuples, and two typographically ambiguous
readings are collected in SignConvention; calibrate_convention searches the
finite convention space for those making the composite coboundary vanish
exactly and pins a canonical default.

delta o delta = 0 is certified in one place, squares_to_zero, on the sparse
ambient operators; both complexes' cohomology_dim and the calibration call it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    cadd,
    matrix_combo,
    tensor_combo,
    _basis_combo,
)
from .linalg import Matrix, Q, coords_in_basis, dense_vector, direct_sum, kernel_basis
from .linalg import rank, sparse_vector


class ConstraintViolation(Exception):
    """A coboundary image left the twist-compatible subspace."""


class NotACochainComplex(Exception):
    """delta o delta failed to vanish; invalid convention or invalid input."""


class CalibrationError(Exception):
    """No sign convention satisfies the d-squared-zero battery."""


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
            signs, order, hats, crange = label.split("|")
            if len(signs) != 8 or [signs[0], signs[2], signs[4], signs[6]] != list("ABCD"):
                raise ValueError
            sv = {"+": 1, "-": -1}
            sa, sb, sc, sd = (sv[signs[i]] for i in (1, 3, 5, 7))
            yf = {"xy": False, "yx": True}[order]
            th = {"hat-twisted": True, "hat-bare": False}[hats]
            cf = {"c-full": True, "c-short": False}[crange]
        except (ValueError, KeyError):
            raise ValueError(f"cannot parse convention label {label!r}") from None
        return cls(sa, sb, sc, sd, yf, th, cf)


DEFAULT_CONVENTION = SignConvention()


def all_conventions():
    for sa, sb, sc, sd in itertools.product((1, -1), repeat=4):
        for yf in (False, True):
            for th in (True, False):
                for cf in (True, False):
                    yield SignConvention(sa, sb, sc, sd, yf, th, cf)


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


# ---------------------------------------------------------------------------
# the bracket of fundamental objects


def fundamental_bracket(algebra, x_combos, y_combos, y_first=False):
    """Bracket of fundamental objects as a combo over (n-1)-tuples.

    [X, Y] = sum_k alpha(x^1) x ... x [x^k, y^1..y^{n-1}] x ... x alpha(x^{n-1}),
    with the bracketed slot's argument order controlled by y_first.
    """
    n1 = algebra.arity - 1
    out = {}
    for k in range(n1):
        if y_first:
            slot = algebra.bracket_apply(list(y_combos) + [x_combos[k]])
        else:
            slot = algebra.bracket_apply([x_combos[k]] + list(y_combos))
        factors = [matrix_combo(algebra.alpha, c) for c in x_combos]
        factors[k] = slot
        for key, v in tensor_combo(factors).items():
            cadd(out, key, v)
    return out


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
        a, rep = self.algebra, self.rep
        d, m = a.dim, rep.module_dim
        rows = []
        alpha_cols = [a.alpha_combo(i) for i in range(d)]
        alpha_m_cols = [rep.alpha_module.column(mm) for mm in range(m)]
        for inp in itertools.product(range(d), repeat=self.in_len):
            # one sparse row per output index mo; the alpha_M o f term
            block = [{} for _ in range(m)]
            base = _flat(inp, d) * m
            for mm, col in enumerate(alpha_m_cols):
                for mo, c in col.items():
                    block[mo][base + mm] = c
            # - f o (alpha tensor abar...) term, abar expanded on the basis input
            for key, v in tensor_combo([alpha_cols[i] for i in inp]).items():
                at = _flat(key, d) * m
                for mo, row in enumerate(block):
                    row[at + mo] = row.get(at + mo, 0) - v
            rows += [{c: x for c, x in row.items() if x} for row in block]
        return kernel_basis(Matrix.from_rows(rows, self.ambient))

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


def coboundary_operator(algebra, rep, p, convention=DEFAULT_CONVENTION):
    """Sparse ambient matrix of delta^p, as {column: [(row, coeff), ...]}.

    The operator is linear in the cochain, so one traversal of the degree
    p+1 inputs produces every matrix entry; callers restrict it to the
    twist-compatible bases or apply it to raw tensors as needed.
    """
    n, d, m = algebra.arity, algebra.dim, rep.module_dim
    cv = convention
    alpha_cols = [algebra.alpha_combo(i) for i in range(d)]
    apow = algebra.alpha.power(p - 1)
    apow_cols = [apow.column(i) for i in range(d)]
    # action of a unit module basis vector, per action index and algebra slot expansion
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
                acted = rep.action_apply(action_idx, alg, {mf: Q(1)})
                if not acted:
                    continue
                for key, c in expansion.items():
                    col = _flat(key, d) * m + mf
                    for mo, av in acted.items():
                        put(row_base + mo, col, sign * c * av)

        # term A: contract X_i with X_j, drop X_j
        for i in range(1, p):
            for j in range(i + 1, p + 1):
                fb = fundamental_bracket(
                    algebra,
                    [_basis_combo(x) for x in Xs[i - 1]],
                    [_basis_combo(y) for y in Xs[j - 1]],
                    y_first=cv.bracket_y_first,
                )
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
            zb = algebra.bracket_apply([_basis_combo(x) for x in (z, *Xs[i - 1])])
            slots = [zb] + [abar(Xs[r - 1]) for r in range(1, p + 1) if r != i]
            add_diag(_expand_slots(slots), cv.sign_b * (-1) ** i)

        # term C: right action of abar^{p-1}(X_i) on f with X_i dropped
        for i in range(1, c_top + 1):
            slots = [_basis_combo(z)] + [bare(Xs[r - 1]) for r in range(1, p + 1) if r != i]
            exp = _expand_slots(slots)
            if exp:
                alg = [apow_cols[x] for x in Xs[i - 1]]
                add_action(exp, 0, alg, cv.sign_c * (-1) ** (i + 1))

        # term D: left actions with f consuming the components of X_1
        X1 = Xs[0]
        for i in range(1, n):
            slots = [_basis_combo(X1[i - 1])] + [bare(X) for X in Xs[1:]]
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


def apply_sparse(op_cols, vec):
    """The sparse ambient operator op_cols applied to the sparse vector vec."""
    out = {}
    for j, x in vec.items():
        for row, v in op_cols.get(j, ()):
            out[row] = out.get(row, 0) + v * x
    return {row: v for row, v in out.items() if v}


def apply_operator(op_cols, coeffs, out_dim):
    """apply_sparse on a dense vector, returning a dense vector of length out_dim."""
    return dense_vector(apply_sparse(op_cols, sparse_vector(coeffs)), out_dim)


def coboundary_tensor(algebra, rep, p, coeffs, convention=DEFAULT_CONVENTION):
    """Raw delta^p on an ambient coefficient tensor (no membership checks).

    Accepts tensors that need not be twist-compatible.
    """
    op_cols = coboundary_operator(algebra, rep, p, convention)
    return apply_operator(op_cols, coeffs, ambient_dim(algebra, rep, p + 1))


def coboundary(f: Cochain, convention, target_space):
    """delta^p f as a checked member of target_space, which is C^{p+1}.

    Raises ConstraintViolation when the image leaves the twist-compatible
    subspace, which signals an invalid convention or an invalid algebra.
    """
    sp = f.space
    raw = coboundary_tensor(sp.algebra, sp.rep, sp.degree, f.coeffs, convention)
    target_space.coords(raw)
    return Cochain(target_space, raw)


def coboundary_matrix(space: CochainSpace, target_space, op_cols) -> Matrix:
    """Matrix of the ambient delta^p op_cols between the bases of C^p and target_space."""
    return restrict_operator(op_cols, [space], [target_space])


def restrict_operator(op_cols, sources, targets) -> Matrix:
    """Matrix of a sparse ambient operator between direct sums of cochain spaces.

    Column j is the image of the j-th basis vector of the sources' direct
    sum, in coordinates over the targets' direct sum; an image that leaves
    it raises ConstraintViolation.
    """
    target = direct_sum([t.basis for t in targets])
    rows = [{} for _ in range(target.dim)]
    vectors = direct_sum([s.basis for s in sources]).sparse_vectors
    for j, vec in enumerate(vectors):
        col = coords_in_basis(target, apply_sparse(op_cols, vec))
        if col is None:
            raise ConstraintViolation(
                f"an image is not twist-compatible in degree {targets[0].degree}"
            )
        for i, x in col.items():
            rows[i][j] = x
    return Matrix.from_rows(rows, len(vectors))


def squares_to_zero(cx, p) -> bool:
    """Exact certificate of d^p o d^{p-1} = 0: the sparse ambient operators
    cx.operator(p-1), then cx.operator(p), send every basis vector of the
    direct sum of cx.summands(p-1) to zero.  Callers also restrict d^{p-1},
    which writes each image exactly in the basis of C^p, so this is the zero
    matrix product."""
    first, second = cx.operator(p - 1), cx.operator(p)
    return not any(
        apply_sparse(second, apply_sparse(first, vec))
        for vec in direct_sum([s.basis for s in cx.summands(p - 1)]).sparse_vectors
    )


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
    """Caches spaces, operators, matrices and ranks of one (algebra, rep, convention)."""

    def __init__(self, algebra, rep, convention=DEFAULT_CONVENTION):
        self.algebra = algebra
        self.rep = rep
        self.convention = convention
        self._spaces = {}
        self._matrices = {}
        self._operators = {}
        self._ranks = {}

    def space(self, p) -> CochainSpace:
        if p not in self._spaces:
            self._spaces[p] = CochainSpace(self.algebra, self.rep, p)
        return self._spaces[p]

    def summands(self, p):
        return [self.space(p)]

    def operator(self, p):
        if p not in self._operators:
            self._operators[p] = coboundary_operator(
                self.algebra, self.rep, p, self.convention
            )
        return self._operators[p]

    def delta_ambient(self, p, coeffs):
        return apply_operator(
            self.operator(p), coeffs, ambient_dim(self.algebra, self.rep, p + 1)
        )

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


def convention_passes(algebra, rep, convention, degrees=(1, 2), spaces=None):
    """Whether delta^{p+1} o delta^p vanishes exactly for the given degrees.

    Each delta^q is restricted to the bases first, so an image outside the
    twist-compatible subspace fails.  spaces shares CochainSpaces between calls."""
    cx = CochainComplex(algebra, rep, convention)
    if spaces is not None:
        cx._spaces = spaces
    try:
        for p in degrees:
            cx.delta(p)
            cx.delta(p + 1)
            if not squares_to_zero(cx, p + 1):
                return False
    except ConstraintViolation:
        return False
    return True


def calibration_report(battery, conventions=None, degrees=(1, 2)):
    """All conventions for which every battery member is a complex.

    Filters member by member so that expensive battery entries only see the
    conventions that survived the cheap ones.
    """
    if conventions is None:
        conventions = list(all_conventions())
    surviving = list(conventions)
    for algebra, rep in battery:
        cache = {}
        surviving = [
            cv for cv in surviving if convention_passes(algebra, rep, cv, degrees, cache)
        ]
        if not surviving:
            break
    return surviving


def calibrate_convention(battery, conventions=None, degrees=(1, 2)):
    """Pin a canonical convention; fails loudly when no convention works."""
    passing = calibration_report(battery, conventions, degrees)
    if not passing:
        raise CalibrationError("no sign convention satisfies delta-squared = 0")
    if DEFAULT_CONVENTION in passing:
        return DEFAULT_CONVENTION
    return sorted(passing, key=lambda c: c.label())[0]


# ---------------------------------------------------------------------------
# test support


def random_cochain(space, rng: random.Random, denom=4, span=3):
    """Random member of the space: rational combination of basis vectors."""
    coords = [
        Fraction(rng.randint(-span, span), rng.randint(1, denom))
        for _ in range(space.dim)
    ]
    return space.from_coords(coords)
