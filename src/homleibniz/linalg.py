"""Exact linear algebra over the rationals.

Cochain-space bases, ranks of restricted differentials and deformation
solves reduce to the four operations here: rank, kernel_basis, solve and
coords_in_basis.  A Matrix is given and read as a dense grid of Fractions;
other modules take sparse columns from Matrix.column.  rank, kernel_basis
and solve share one elimination over sparse rows {column: Fraction}.  The
reduced row echelon form of a matrix is unique, so its pivots are the first
nonzero columns in column order, and every rank, kernel vector and solution
equals that of dense Gauss-Jordan elimination, whatever the row order.
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

    __slots__ = ("rows", "cols", "entries", "_columns")

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.entries = [[_as_q(x) for x in row] for row in entries]
        self._columns = None

    def column(self, j):
        """Column j as a sparse {row: nonzero entry}; built once, so never modify it."""
        if self._columns is None:
            self._columns = [
                {i: row[c] for i, row in enumerate(self.entries) if row[c]} for c in range(self.cols)
            ]
        return self._columns[j]

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

    Vector j is 1 at unit_rows[j] and 0 at the other unit rows, so the
    coordinates of a member vector can be read off there.
    """

    ambient_dim: int
    vectors: list
    unit_rows: tuple

    @property
    def dim(self):
        return len(self.vectors)

    def combination(self, coords):
        """sum_j coords[j] * vectors[j], in ambient coordinates."""
        out = [Q(0)] * self.ambient_dim
        for c, bv in zip(coords, self.vectors):
            if c:
                for i, x in enumerate(bv):
                    if x:
                        out[i] += c * x
        return out


def _subtract(dst, f, src):
    """dst -= f * src on sparse rows, dropping the cells that cancel."""
    for c, x in src.items():
        v = dst.get(c, 0) - f * x
        if v:
            dst[c] = v
        else:
            del dst[c]


def _rref(m: Matrix, b=()):
    """RREF of m, with b as an extra column m.cols, as {pivot column: sparse row}.

    Each row is reduced by the pivot rows so far; a nonzero remainder is scaled
    to 1 at its smallest column, its pivot, which is cleared from the others.
    """
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.entries]
    for row, x in zip(rows, b):
        if x:
            row[m.cols] = _as_q(x)
    red = {}
    for row in rows:
        for p in [c for c in row if c in red]:
            _subtract(row, row[p], red[p])
        if not row:
            continue
        pivot = min(row)
        inv = row[pivot]
        if inv != 1:
            row = {c: x / inv for c, x in row.items()}
        for other in red.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        red[pivot] = row
    return red


def rank(m: Matrix) -> int:
    return len(_rref(m))


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of {x : m.x = 0}, one vector per free column of the RREF."""
    red = _rref(m)
    free = [c for c in range(m.cols) if c not in red]
    vectors = {f: [Q(0)] * m.cols for f in free}
    for f, v in vectors.items():
        v[f] = Q(1)
    for p, row in red.items():
        for c, x in row.items():  # off its pivot, a reduced row meets free columns only
            if c != p:
                vectors[c][p] = -x
    return SubspaceBasis(m.cols, list(vectors.values()), tuple(free))


def solve(m: Matrix, b):
    """Some x with m.x = b, or None when b is outside the column space.

    b is eliminated as one extra column; the free unknowns are set to 0.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match rows")
    red = _rref(m, b)
    if m.cols in red:
        return None
    x = [Q(0)] * m.cols
    for p, row in red.items():
        x[p] = row.get(m.cols, Q(0))
    return x


def coords_in_basis(basis: SubspaceBasis, vec):
    """Coordinates of vec in basis, or None when vec is outside the span.

    The coordinates are read off at basis.unit_rows and verified by exact
    back-substitution.
    """
    if len(vec) != basis.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    vec = [_as_q(x) for x in vec]
    coords = [vec[i] for i in basis.unit_rows]
    return coords if basis.combination(coords) == vec else None
