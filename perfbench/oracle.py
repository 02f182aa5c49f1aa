"""Independent reference computations for the benchmark's output checks.

Nothing here calls the package's elimination or cochain machinery.  The
Gaussian elimination below is a separate, deliberately plain copy; the
derivation count solves the Leibniz rule directly; and the deformation
oracle solves the order-l structure equations that the fixture generator
(scripts/make_fixtures.py) assembles by probing the package's residual
evaluators one unknown at a time, the brute-force assembly that recorded
the verdicts of the checked-in deformation battery.
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction as Q

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))
import make_fixtures  # noqa: E402


def rref(rows, ncols):
    """Reduced row echelon form of a list of Fraction rows; (rows, pivots)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows, ncols):
    """Basis of {x : rows.x = 0}, one vector per free column."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solvable(rows, rhs, ncols):
    """Whether rows.x = rhs has a solution."""
    _, pivots = rref([r + [b] for r, b in zip(rows, rhs)], ncols + 1)
    return not (pivots and pivots[-1] == ncols)


# ---------------------------------------------------------------------------
# derivations: H^1(L; L) of an untwisted binary algebra is Der(L)


def derivation_dim(dim, bracket):
    """dim {D : D[x_i, x_j] = [D x_i, x_j] + [x_i, D x_j]} for a binary bracket.

    bracket maps (i, j) to {k: coefficient}; unknown D[r][c] sits at r*dim+c.
    """
    rows = []
    for i, j, k in itertools.product(range(dim), repeat=3):
        row = [Q(0)] * (dim * dim)
        for s, c in bracket.get((i, j), {}).items():
            row[k * dim + s] += c
        for r in range(dim):
            row[r * dim + i] -= bracket.get((r, j), {}).get(k, 0)
            row[r * dim + j] -= bracket.get((i, r), {}).get(k, 0)
        rows.append(row)
    return len(nullspace(rows, dim * dim))


# ---------------------------------------------------------------------------
# brute-force order-l equations of a morphism deformation


def extends(md, l):
    """Whether md, valid through order l-1, extends to order l.

    The equations come from the fixture generator, which probes the
    residual evaluators one unknown at a time; they are solved here.
    """
    a, rhs, slots = make_fixtures.order_l_system(md, l)
    return solvable(a.entries, rhs, len(slots))
