"""Exact linear algebra over the rationals.

Cochain-space bases, ranks of restricted differentials and deformation
solves reduce to the four operations here: rank, kernel_basis, solve and
coords_in_basis.  Matrices are dense, entries are Fraction, and pivoting is
"first nonzero entry in column order", so every result is deterministic.
The coboundaries themselves are sparse ambient operators (cochain.py), and
delta o delta = 0 is certified on them, never by a Matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Q = Fraction


def _as_q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Dense rows x cols grid of Fractions, immutable by convention."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.entries = [[_as_q(x) for x in row] for row in entries]

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[Q(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return Matrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            out.append([sum(a * b for a, b in zip(row, col)) for col in ot])
        if not out or self.cols == 0:
            out = [[Q(0)] * other.cols for _ in range(self.rows)]
        return Matrix(self.rows, other.cols, out)

    def scaled(self, c):
        c = _as_q(c)
        return Matrix(self.rows, self.cols, [[c * x for x in row] for row in self.entries])

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length does not match cols")
        return [sum(a * _as_q(b) for a, b in zip(row, vec)) for row in self.entries]

    def power(self, k):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out = Matrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)


@dataclass
class SubspaceBasis:
    """Linearly independent spanning vectors of a subspace of Q^ambient_dim.

    unit_rows, when present, lists coordinates where the basis carries an
    identity pattern (vector j is 1 at unit_rows[j], 0 at the other listed
    rows); coordinates of a member vector can then be read off directly.
    """

    ambient_dim: int
    vectors: list
    unit_rows: tuple = None

    @property
    def dim(self):
        return len(self.vectors)


def _rref(entries, rows, cols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
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


def rank(m: Matrix) -> int:
    _, pivots = _rref(m.entries, m.rows, m.cols)
    return len(pivots)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of {x : m.x = 0}, one vector per free column of the RREF."""
    red, pivots = _rref(m.entries, m.rows, m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        vectors.append(v)
    return SubspaceBasis(m.cols, vectors, unit_rows=tuple(free))


def solve(m: Matrix, b):
    """Some x with m.x = b, or None when b is outside the column space."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match rows")
    aug = [row + [_as_q(x)] for row, x in zip(m.entries, b)]
    red, pivots = _rref(aug, m.rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Q(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red[r][m.cols]
    return x


def coords_in_basis(basis: SubspaceBasis, vec):
    """Coordinates of vec in basis, or None when vec is outside the span.

    Uses the unit-row shortcut when available (kernel_basis output), always
    verified by exact back-substitution.
    """
    if len(vec) != basis.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    vec = [_as_q(x) for x in vec]
    if basis.unit_rows is not None:
        coords = [vec[i] for i in basis.unit_rows]
        recon = [Q(0)] * basis.ambient_dim
        for c, bv in zip(coords, basis.vectors):
            if c:
                for i, x in enumerate(bv):
                    if x:
                        recon[i] += c * x
        return coords if recon == vec else None
    if not basis.vectors:
        return [] if all(x == 0 for x in vec) else None
    cols = [list(col) for col in zip(*basis.vectors)]
    return solve(Matrix(len(cols), len(basis.vectors), cols), vec)
