"""Exact linear algebra over the rationals.

Cochain-space bases, ranks of restricted differentials and deformation
solves reduce to the four operations here: rank, kernel_basis, solve and
coords_in_basis.  Only this module knows how matrices and subspaces are
stored, and the storage is sparse.  A Matrix has one form, rows {index:
nonzero int numerator} over one int den (1 when integral), read as ints
through Matrix.numerators(); row, column and entries return Fractions.
rank, kernel_basis and solve share one fraction-free elimination over int
rows, _eliminate.  Kernel vectors are born as ints, each stored only as
(B_j, d_j) in SubspaceBasis.integral; Fractions are made only for
solutions and the dense views.  The reduced row echelon form is unique,
so its pivots are the first nonzero columns in column order, and every
result equals dense Gauss-Jordan elimination's, whatever the row order.
Like sympy's sdm_irref, it indexes each column to the reduced rows
holding it, so a new pivot costs their nonzeros.  coords_in_basis reads
the coordinates at the unit rows and accepts them only by int
back-substitution on SubspaceBasis.integral.  delta o delta = 0 is
certified on the sparse coboundary operators of cochain.py, never by a
Matrix product.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

Q = Fraction
_ZERO = Q(0)


def sparse_vector(vec):
    """{index: nonzero Fraction} of a dense vector.  Zeros are dropped after
    conversion, so a string "0" is dropped too; a falsy entry is skipped
    unconverted, which keeps solve's int zeros from becoming Fractions."""
    return {i: q for i, x in enumerate(vec) if x and (q := Q(x))}


def dense_vector(vec, n):
    """The dense length-n list of a sparse vector, every entry a Fraction."""
    return [vec.get(i, _ZERO) for i in range(n)]


def integral_rows(rows):
    """(numerators, den) of sparse rational rows: {index: int numerator} rows
    over den, the lcm of their denominators."""
    den = math.lcm(*{x.denominator for row in rows for x in row.values()})
    return [{i: x.numerator * (den // x.denominator) for i, x in row.items()} for row in rows], den


def transpose(rows, n):
    """The n sparse columns {row: value} of the sparse rows {column < n: value}."""
    columns = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            columns[c][i] = x
    return columns


def _add_scaled(dst, f, src):
    """dst += f * src on sparse vectors, dropping the cells that cancel."""
    for c, x in src.items():
        v = dst.get(c, 0) + f * x
        if v:
            dst[c] = v
        else:
            del dst[c]


class Matrix:
    """rows x cols rational matrix, immutable by convention: sparse rows of
    nonzero int numerators over one int den >= 1 (1 when integral), handed
    out by numerators(); row, column and entries return Fractions."""

    __slots__ = ("rows", "cols", "den", "_data", "_rows", "_columns")

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self._columns = None
        self._rows = [sparse_vector(row) for row in entries]  # the row view, already built
        self._data, self.den = integral_rows(self._rows)

    @classmethod
    def from_rows(cls, rows, cols, den=1):
        """The matrix of the sparse rows {column < cols: nonzero int numerator} over den, not copied."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.den, m._data, m._rows, m._columns = len(rows), cols, den, rows, None, None
        return m

    @classmethod
    def from_rationals(cls, rows, cols):
        """The matrix of the sparse rows {column < cols: nonzero rational}, put over one den."""
        nums, den = integral_rows(rows)
        return cls.from_rows(nums, cols, den)

    def numerators(self):
        """(rows, den): the sparse rows {column: nonzero int numerator} over den; shared, so never modify them."""
        return self._data, self.den

    @property
    def entries(self):
        """Dense rows x cols grid of Fractions, built on each read."""
        return [dense_vector(self.row(i), self.cols) for i in range(self.rows)]

    def row(self, i):
        """Row i as a sparse {column: nonzero Fraction}; built once, so never modify it."""
        if self._rows is None:
            self._rows = [{c: Q(x, self.den) for c, x in r.items()} for r in self._data]
        return self._rows[i]

    def column(self, j):
        """Column j as a sparse {row: nonzero Fraction}; built once, so never modify it."""
        if self._columns is None:
            self._columns = [{i: Q(x, self.den) for i, x in c.items()} for c in transpose(self._data, self.cols)]
        return self._columns[j]

    @classmethod
    def zeros(cls, rows, cols):
        return cls.from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls.from_rows([{i: 1} for i in range(n)], n)

    def _key(self):
        """Shape, den and numerator rows, divided by their gcd: equal matrices share it."""
        g = math.gcd(self.den, *(x for r in self._data for x in r.values())) if self.den != 1 else 1
        rows = tuple(frozenset((c, x // g) for c, x in r.items()) for r in self._data)
        return self.rows, self.cols, self.den // g, rows

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        den = math.lcm(self.den, other.den)
        out = [{c: x * (den // self.den) for c, x in r.items()} for r in self._data]
        for row, r2 in zip(out, other._data):
            _add_scaled(row, -(den // other.den), r2)
        return Matrix.from_rows(out, self.cols, den)

    def __matmul__(self, other):
        """Row i of the product is sum_k self[i][k] * other's row k, over nonzeros only."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out, right = [], other._data
        for row in self._data:
            acc = {}
            for k, a in row.items():
                _add_scaled(acc, a, right[k])
            out.append(acc)
        return Matrix.from_rows(out, other.cols, self.den * other.den)

    def scaled(self, c):
        c = Q(c)
        rows = [{j: c.numerator * x for j, x in row.items()} if c else {} for row in self._data]
        return Matrix.from_rows(rows, self.cols, self.den * c.denominator)

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
        return not any(self._data)


class SubspaceBasis:
    """Linearly independent spanning vectors of a subspace of Q^ambient_dim.

    Vector j is sparse, 1 at its unit row and 0 at the others, so the
    coordinates of a member vector can be read off there; unit_rows maps
    the unit row of vector j to j, in order of j.  integral is (vectors, L):
    vector j as (B_j, d_j), {index: int numerator} over d_j, the lcm of its
    entries' denominators, and L the lcm of the d_j.
    """

    def __init__(self, ambient_dim, vectors, unit_rows):
        self.ambient_dim = ambient_dim
        self.integral = vectors, math.lcm(*(d for _, d in vectors))
        self.unit_rows = {r: j for j, r in enumerate(unit_rows)}

    @property
    def dim(self):
        return len(self.integral[0])

    @property
    def vectors(self):
        """The basis vectors as dense lists, built on each read."""
        return [dense_vector({i: Q(x, d) for i, x in nums.items()}, self.ambient_dim) for nums, d in self.integral[0]]

    def combination(self, coords):
        """sum_j coords[j] * vector j for sparse coords {j: c}, as a sparse vector."""
        out, vectors = {}, self.integral[0]
        for j, c in coords.items():
            nums, d = vectors[j]
            _add_scaled(out, Q(c, d), nums)
        return out


def direct_sum(bases):
    """Basis of the direct sum of the bases' subspaces, ambient indices stacked
    in order; a lone basis is returned itself."""
    if len(bases) == 1:
        return bases[0]
    vectors, units, offset = [], [], 0
    for b in bases:
        vectors += [({offset + i: x for i, x in nums.items()}, d) for nums, d in b.integral[0]]
        units += [offset + r for r in b.unit_rows]
        offset += b.ambient_dim
    return SubspaceBasis(offset, vectors, units)


def _eliminate(m: Matrix, b=()):
    """RREF of m, with b as an extra column m.cols, as {pivot column: int row}.

    Fraction-free Gauss-Jordan elimination (Bareiss; sympy's sdm_rref_den):
    row / row[pivot] is the RREF row, kept primitive with its pivot entry > 0.
    Each row, in ints and scaled by the lcm of the pivot entries it meets,
    is reduced by those pivot rows, zero at one another's pivots.  A nonzero
    remainder pivots at its smallest column, which is cleared from the rows
    holding it off their pivot, listed in holders; cancelled cells leave it.
    """
    red, holders = {}, {}
    for row, rhs in zip(m._data, b or itertools.repeat(0)):
        if rhs:
            row = row | {m.cols: rhs * m.den}
        if not row:
            continue
        row = integral_rows([row])[0][0] if rhs else dict(row)
        hits, lcm = [p for p in row if p in red], 1
        for p in hits:
            if lcm % red[p][p]:
                lcm = math.lcm(lcm, red[p][p])
        if lcm != 1:
            row = {c: v * lcm for c, v in row.items()}
        for p in hits:
            f = row[p] // red[p][p]
            for c, x in red[p].items():
                if v := row.get(c, 0) - f * x:
                    row[c] = v
                else:
                    del row[c]
        if not row:
            continue
        pivot = min(row)
        if (g := math.gcd(*row.values()) * (1 if row[pivot] > 0 else -1)) != 1:
            row = {c: v // g for c, v in row.items()}
        rest = [(c, x) for c, x in row.items() if c != pivot]
        for q in holders.pop(pivot, ()):
            other = red[q]
            g = math.gcd(other[pivot], row[pivot])
            a, f = row[pivot] // g, other.pop(pivot) // g
            if a != 1:
                other = {c: v * a for c, v in other.items()}
            for c, x in rest:
                if c not in other:
                    other[c] = -f * x
                    holders.setdefault(c, set()).add(q)
                elif v := other[c] - f * x:
                    other[c] = v
                else:
                    del other[c]
                    holders[c].remove(q)
            g = math.gcd(*other.values())
            red[q] = {c: v // g for c, v in other.items()} if g != 1 else other
        for c, _ in rest:
            holders.setdefault(c, set()).add(pivot)
        red[pivot] = row
    return red


def rank(m: Matrix) -> int:
    return len(_eliminate(m))


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of {x : m.x = 0}, one vector per free column f of the RREF: 1 at f
    and -row[f] / row[p] at each pivot p whose row meets f, in lowest terms.
    Each vector's items are f, then those pivots in column order, so they do
    not depend on the order of m's rows."""
    red = _eliminate(m)
    cells = {f: [] for f in range(m.cols) if f not in red}
    for p, row in sorted(red.items()):
        for c, x in row.items():  # off its pivot, a reduced row meets free columns only
            if c != p:
                g = math.gcd(x, row[p])
                cells[c].append((p, -x // g, row[p] // g))
    vectors = []
    for f, entries in cells.items():
        d = math.lcm(*(q for _, _, q in entries))
        vectors.append(({f: d} | {p: x * (d // q) for p, x, q in entries}, d))
    return SubspaceBasis(m.cols, vectors, list(cells))


def solve(m: Matrix, b):
    """Some x with m.x = b, or None when b is outside the column space.

    b is eliminated as one extra column; the free unknowns are set to 0.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match rows")
    red = _eliminate(m, b)
    if m.cols in red:
        return None
    x = [_ZERO] * m.cols
    for p, row in red.items():
        x[p] = Q(row.get(m.cols, 0), row[p])
    return x


def coords_in_basis(basis: SubspaceBasis, vec):
    """Sparse coordinates {j: c} of vec in basis, or None when it is outside
    the span; int numerators of vec over a den give int numerators over den.
    The coordinate of vector j, vec's entry at its unit row u_j, is accepted
    by int back-substitution: sum_j vec[u_j] * B_j * (L / d_j) = vec * L."""
    vectors, L = basis.integral
    acc = {i: -x * L for i, x in vec.items()}
    coords = {basis.unit_rows[i]: x for i, x in vec.items() if x and i in basis.unit_rows}
    for j, x in coords.items():
        nums, d = vectors[j]
        x *= L // d
        for r, b in nums.items():
            acc[r] = acc.get(r, 0) + x * b
    return None if any(acc.values()) else coords
