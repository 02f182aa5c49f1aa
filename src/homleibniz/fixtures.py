"""Desk-scale fixture algebras, morphisms and representations.

These are the instances the calibration battery, the acceptance suite and
the CLI self-test all run against: abelian algebras, the two-dimensional
Leibniz algebra with [f,f] = e, its diagonal Yau twists, a ternary
example with [f,f,f] = e, and the Heisenberg algebra h3 with the one
non-diagonal twist, a shear.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    HomNaryAlgebra,
    Morphism,
    adjoint_representation,
    yau_twist,
)
from .linalg import Matrix, Q


def abelian_algebra(dim=2, arity=2):
    basis = tuple(f"e{i}" for i in range(dim))
    return HomNaryAlgebra(arity, dim, basis, {}, Matrix.identity(dim))


def leibniz_ff_e():
    """Basis (e, f), bracket [f,f] = e, alpha = id; a nilpotent Leibniz algebra."""
    return HomNaryAlgebra(
        2, 2, ("e", "f"), {(1, 1): {0: Q(1)}}, Matrix.identity(2)
    )


def diag(*entries):
    n = len(entries)
    return Matrix(n, n, [[Fraction(entries[i]) if i == j else Q(0) for j in range(n)] for i in range(n)])


def twisted_ff_e(scale=2):
    """Yau twist of leibniz_ff_e by diag(scale^2, scale)."""
    return yau_twist(leibniz_ff_e(), diag(scale * scale, scale))


def aff1():
    """The nonabelian 2-dim Lie algebra [e,f] = e, [f,e] = -e, alpha = id.

    Its double brackets do not vanish, which makes it the most
    discriminating member of the calibration battery.
    """
    return HomNaryAlgebra(
        2, 2, ("e", "f"), {(0, 1): {0: Q(1)}, (1, 0): {0: Q(-1)}}, Matrix.identity(2)
    )


def twisted_aff1(scale=2):
    """Yau twist of aff1 by diag(scale, 1)."""
    return yau_twist(aff1(), diag(scale, 1))


def ternary_fff_e():
    """Arity 3, basis (e, f), bracket [f,f,f] = e, alpha = id."""
    return HomNaryAlgebra(
        3, 2, ("e", "f"), {(1, 1, 1): {0: Q(1)}}, Matrix.identity(2)
    )


def twisted_ternary_fff_e(scale=2):
    """Yau twist of ternary_fff_e by diag(scale^3, scale)."""
    return yau_twist(ternary_fff_e(), diag(scale ** 3, scale))


def h3(constant=1):
    """The Heisenberg Lie algebra [x, y] = constant z, alpha = id."""
    return HomNaryAlgebra(
        2, 3, ("x", "y", "z"), {(0, 1): {2: constant}, (1, 0): {2: -constant}}, Matrix.identity(3)
    )


def h3_sheared():
    """h3 Yau-twisted by the shear y -> x + y: unlike every diagonal twist of
    the battery, its Kronecker powers have columns with several entries, so
    its cochain spaces are kernels of a non-diagonal constraint."""
    return yau_twist(h3(), Matrix(3, 3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def identity_morphism(a):
    return Morphism(a, a, Matrix.identity(a.dim))


def zero_morphism(source, target):
    return Morphism(source, target, Matrix.zeros(target.dim, source.dim))


def twist_endomorphism():
    """diag(4, 2) as a nontrivial endomorphism of the twisted [f,f]=e algebra."""
    a = twisted_ff_e(2)
    return Morphism(a, a, diag(4, 2))


def vanishing_pair():
    """Zero morphism between two different twists of [f,f]=e.

    At degree 2 all three hypothesis groups of the vanishing-transfer
    proposition are zero while C^2 of the morphism complex is nonzero.
    """
    return zero_morphism(twisted_ff_e(2), twisted_ff_e(4))


def battery_algebras():
    # discriminating members first so calibration can short-circuit early
    return [
        aff1(),
        twisted_aff1(2),
        leibniz_ff_e(),
        twisted_ff_e(2),
        twisted_ff_e(4),
        abelian_algebra(2, 2),
        twisted_ternary_fff_e(2),
        ternary_fff_e(),
    ]


def calibration_battery():
    """(algebra, adjoint representation) pairs for the delta^2 = 0 search."""
    return [(a, adjoint_representation(a)) for a in battery_algebras()]


def fixture_morphisms():
    return [
        identity_morphism(leibniz_ff_e()),
        identity_morphism(twisted_ff_e(2)),
        zero_morphism(leibniz_ff_e(), leibniz_ff_e()),
        twist_endomorphism(),
        identity_morphism(abelian_algebra(2, 2)),
        vanishing_pair(),
        identity_morphism(ternary_fff_e()),
    ]
