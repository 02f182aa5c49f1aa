"""Formal one-parameter deformations and the obstruction calculus.

A truncated deformation of an algebra is a list of n-linear coefficient
tensors xi_0..xi_N with xi_0 the original bracket; a morphism deformation
additionally deforms the target bracket and the morphism itself.  Validity
is an order-by-order condition: the order-l structure equations must have
exactly zero residual for every l up to the truncation order.  Coefficients
above the stored order count as zero.

The algebra equation of order l is sum_{i+j=l} B(xi_i, xi_j) = 0, with B
the Hom-Leibniz composition of algebra.hom_composition.  The order-l
equations are affine-linear in the order-l coefficient triple; their linear
part is the degree-2 differential of the morphism complex and their
constant part is the obstruction cochain F_l = (O1, O2, O3): the order-l
residual at a zero order-l triple, its morphism component negated.
solve_extension exploits exactly that structure: it solves one linear
system against MorphismComplex.operator(2), the ambient d^2 that the
morphism complex assembles from phi and SlotTables, with F_l on the
right-hand side; its unknowns are unconstrained, so it builds no cochain
space.  It works on supports: it keeps only the nonzero rows of d^2 and
packs F_l and the solution as {ambient index: coeff}, so nothing of the
degree-3 ambient size is built, and it ends in None at once where F_l meets
a row of d^2 that is empty, an equation 0 = F_l there.  It returns the
deformation extended by the solved triple, once that deformation's order-l
residuals are re-verified as zero by the direct residual evaluators.

The layer runs under DEFAULT_CONVENTION alone: the equations come from the
n-Hom-Leibniz identity itself, and their linear part is the degree-2
differential under that convention, not under every calibrated one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    HomNaryAlgebra,
    Morphism,
    cadd,
    check_multiplicative,
    cscale,
    hom_composition,
    matrix_combo,
    normalize_tensor,
    precompose,
)
from .cochain import Cochain, ConstraintViolation, _flat
from .linalg import Matrix, dense_vector, solve, sparse_vector, transpose
from .morphism_complex import MorphismCochain, MorphismComplex


# ---------------------------------------------------------------------------
# truncated deformations of an algebra


@dataclass
class TruncatedDeformation:
    base: HomNaryAlgebra
    coeffs: list  # multilinear tensors, coeffs[0] = base bracket

    def __post_init__(self):
        dims = [self.base.dim] * (self.base.arity + 1)
        self.coeffs = [normalize_tensor(c, dims, f"order-{i} coefficient") for i, c in enumerate(self.coeffs)]
        if not self.coeffs:
            raise ValueError("a deformation needs at least the order-0 coefficient")
        if self.coeffs[0] != self.base.bracket:
            raise ValueError("order-0 coefficient must equal the base bracket")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def trivial(cls, base, order=0):
        return cls(base, [base.bracket] + [{}] * order)

    @classmethod
    def from_higher(cls, base, higher):
        return cls(base, [base.bracket] + list(higher))

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i <= self.order else {}


def algebra_order_residual(d: TruncatedDeformation, l):
    """LHS - RHS of the order-l structure equation, sum_{i+j=l} B(xi_i, xi_j),
    on all basis tuples.

    Returns {(x_1..x_n, y_1..y_{n-1}): residual combo}, nonzero entries
    only; an empty dict means the order-l equation holds exactly.
    """
    return hom_composition(d.base, [(d.coeff(i), d.coeff(l - i)) for i in range(l + 1)])


# ---------------------------------------------------------------------------
# morphism deformations


@dataclass
class MorphismDeformation:
    phi: Morphism
    xi: TruncatedDeformation
    eta: TruncatedDeformation
    phis: list  # matrices, phis[0] = phi.matrix

    def __post_init__(self):
        if self.xi.base != self.phi.source or self.eta.base != self.phi.target:
            raise ValueError("deformation bases must match the morphism endpoints")
        if not self.phis or self.phis[0] != self.phi.matrix:
            raise ValueError("order-0 morphism coefficient must equal phi")
        if not (self.xi.order == self.eta.order == len(self.phis) - 1):
            raise ValueError("xi, eta and phi coefficient lists must share one order")
        for m in self.phis:
            if m.rows != self.phi.target.dim or m.cols != self.phi.source.dim:
                raise ValueError("phi coefficient shape mismatch")

    @property
    def order(self):
        return len(self.phis) - 1

    @classmethod
    def trivial(cls, phi, order=0):
        zero = Matrix.zeros(phi.target.dim, phi.source.dim)
        return cls(
            phi,
            TruncatedDeformation.trivial(phi.source, order),
            TruncatedDeformation.trivial(phi.target, order),
            [phi.matrix] + [zero] * order,
        )

    def phi_coeff(self, i):
        if 0 <= i <= self.order:
            return self.phis[i]
        return Matrix.zeros(self.phi.target.dim, self.phi.source.dim)

    def truncated(self, k):
        """This deformation cut, or padded with zero coefficients, to order k;
        itself at its own order."""
        if k == self.order:
            return self
        return MorphismDeformation(
            self.phi,
            TruncatedDeformation(self.phi.source, [self.xi.coeff(i) for i in range(k + 1)]),
            TruncatedDeformation(self.phi.target, [self.eta.coeff(i) for i in range(k + 1)]),
            [self.phi_coeff(i) for i in range(k + 1)],
        )

    def extended(self, xi_l, eta_l, phi_l):
        return MorphismDeformation(
            self.phi,
            TruncatedDeformation(self.xi.base, self.xi.coeffs + [xi_l]),
            TruncatedDeformation(self.eta.base, self.eta.coeffs + [eta_l]),
            self.phis + [phi_l],
        )


def _add_tensor(dst, t):
    """dst += t, entry by entry."""
    for key, entry in t.items():
        acc = dst.setdefault(key, {})
        for k, v in entry.items():
            cadd(acc, k, v)


def morphism_order_residual(md: MorphismDeformation, l):
    """Residuals of the three order-l equations: the two algebra equations
    and the morphism-compatibility equation, on all basis tuples.

    The morphism equation is sum_{i+j=l} phi_i o xi_j = sum_i eta_i o P_{l-i},
    the order-graded bracket preservation, with P_m the sum of
    phi_{j_1} (x) .. (x) phi_{j_n} over j_1+..+j_n = m.  Both sides are read
    off supports: phi_i applied to xi_j at its keys, and the right side by
    algebra.precompose, one slot at a time.  Before slot s, graded[m] sums
    the -eta_i with their first s slots precomposed with nonzero phi_j's,
    i plus the j's being m, so the work grows with n l^2 precompose calls
    rather than with the compositions of l - i into n parts.
    """
    res_xi = algebra_order_residual(md.xi, l)
    res_eta = algebra_order_residual(md.eta, l)
    n = md.phi.source.arity
    phis = [md.phi_coeff(i) for i in range(l + 1)]
    live = [j for j, m in enumerate(phis) if not m.is_zero()]
    res = {}
    for i in range(l + 1):
        _add_tensor(res, {X: matrix_combo(phis[i], e) for X, e in md.xi.coeff(l - i).items()})
    graded = {i: {K: cscale(e, -1) for K, e in md.eta.coeff(i).items()} for i in range(l + 1) if md.eta.coeff(i)}
    for s in range(n):
        nxt = {}
        for m, t in graded.items():
            for j in live:
                # the last slot completes the order to exactly l
                if m + j > l or s == n - 1 and m + j < l:
                    continue
                maps = [phis[j] if k == s else None for k in range(n)]
                _add_tensor(nxt.setdefault(m + j, {}), precompose(t, maps))
        graded = nxt
    _add_tensor(res, graded.get(l, {}))
    res_phi = {X: res[X] for X in sorted(res) if res[X]}
    return res_xi, res_eta, res_phi


class NotValidBelow(ValueError):
    """The deformation fails a structure equation below the requested order."""


def is_valid_through(md: MorphismDeformation, order):
    for l in range(order + 1):
        a, b, c = morphism_order_residual(md, l)
        if a or b or c:
            return False
    return True


def multiplicativity_violations(d: TruncatedDeformation):
    """Keys where some coefficient fails alpha o F_i = F_i o alpha^{x n}.

    Whether deformation coefficients must commute with the twist is left
    open here; this check is optional and never folded into validity.
    """
    a = d.base
    return [
        (i, v.where)
        for i in range(1, d.order + 1)
        for v in check_multiplicative(HomNaryAlgebra(a.arity, a.dim, a.basis, d.coeff(i), a.alpha))
    ]


# ---------------------------------------------------------------------------
# obstruction cochains


@dataclass
class ObstructionCochain:
    """F_l = (O1, O2, O3): the constant part of the order-l equations.

    o1 and o2 are keyed by (x_1..x_n, y_1..y_{n-1}) basis tuples of the
    source and target; o3 by (x_1..x_n) tuples of the source.  Sparse:
    missing keys mean zero.
    """

    order: int
    o1: dict
    o2: dict
    o3: dict

    def is_zero(self):
        return not (self.o1 or self.o2 or self.o3)


def obstruction(md: MorphismDeformation, l) -> ObstructionCochain:
    """The obstruction cochain F_l for extending an order-(l-1) deformation.

    F_l is the constant part of the order-l equations: md cut to order l-1,
    extended by a zero order-l triple, has order-l residuals (O1, O2, -O3).
    """
    if l < 1:
        raise ValueError("obstruction order must be at least 1")
    if not is_valid_through(md, l - 1):
        raise NotValidBelow(f"deformation is not valid through order {l - 1}")
    head = md.truncated(l - 1)
    o1, o2, r3 = morphism_order_residual(head, l)
    return ObstructionCochain(l, o1, o2, {X: cscale(res, -1) for X, res in r3.items()})


# ---------------------------------------------------------------------------
# sparse ambient packing


def _pack(tensor, d_in, module_dim, offset=0):
    """{offset + ambient index: coeff} of a tensor keyed by input tuples over
    d_in basis vectors with values in a module_dim-dimensional space."""
    return {
        offset + _flat(key, d_in) * module_dim + k: v
        for key, entry in tensor.items()
        for k, v in entry.items()
    }


def _unpack(vec, length, d_in, module_dim):
    """The tensor keyed by length-tuples of input indices whose ambient
    coefficients are the sparse vec, in lexicographic key order."""
    out = {}
    for i in sorted(vec):
        pos, k = divmod(i, module_dim)
        key = tuple(pos // d_in ** (length - 1 - s) % d_in for s in range(length))
        out.setdefault(key, {})[k] = vec[i]
    return out


# ---------------------------------------------------------------------------
# the extension solver


def solve_extension(md: MorphismDeformation, l):
    """Extend a deformation valid through l-1 by one order: the deformation
    through order l, or None when the order-l equations are obstructed.

    The order-l equations are solved as d(xi_l, eta_l, phi_l) = F_l at the
    ambient tensor level, with d the operator(2) of the morphism complex
    under DEFAULT_CONVENTION; the unknowns are not constrained to the
    twist-compatible subspaces.  Coefficients of md above order l-1 are
    ignored: md cut to order l-1 is extended by the solved triple, and the
    result is returned only once its order-l residuals are re-verified as
    zero against the direct residual evaluators, a disagreement being a
    hard failure.
    """
    if l < 1:
        raise ValueError("extension order must be at least 1")
    if md.order < l - 1:
        raise ValueError(f"deformation must carry coefficients through order {l - 1}")
    md = md.truncated(l - 1)
    fl = obstruction(md, l)

    mc = MorphismComplex(md.phi)
    L, M = md.phi.source, md.phi.target
    n = L.arity
    au, av, _ = mc.ambient_dims(2)
    ru, rv, _ = mc.ambient_dims(3)
    rows = {}
    op = mc.operator(2)
    for j, col in op.read(range(op.size)).items():
        for r, v in col:
            rows.setdefault(r, {})[j] = v
    rhs = _pack(fl.o1, L.dim, L.dim) | _pack(fl.o2, M.dim, M.dim, ru) | _pack(fl.o3, L.dim, M.dim, ru + rv)
    if not rhs.keys() <= rows.keys():
        return None  # an equation 0 = F_l at an index where d^2 has no row
    order = sorted(rows)
    x = solve(Matrix.from_rows([rows[r] for r in order], op.size, op.den), [rhs.get(r, 0) for r in order])
    if x is None:
        return None

    xi_l = _unpack(sparse_vector(x[:au]), n, L.dim, L.dim)
    eta_l = _unpack(sparse_vector(x[au : au + av]), n, M.dim, M.dim)
    phi_cols = _unpack(sparse_vector(x[au + av :]), 1, L.dim, M.dim)
    phi_l = Matrix.from_rationals(transpose([phi_cols.get((j,), {}) for j in range(L.dim)], M.dim), L.dim)

    extended = md.extended(xi_l, eta_l, phi_l)
    r1, r2, r3 = morphism_order_residual(extended, l)
    if r1 or r2 or r3:
        raise RuntimeError(
            "solver produced a triple whose order-l residual is nonzero; "
            "the linear system disagrees with the residual oracle"
        )
    return extended


def infinitesimal(md: MorphismDeformation) -> MorphismCochain:
    """(xi_1, eta_1, phi_1) as a degree-2 morphism cochain.

    Deformation coefficients are not forced to commute with the twists, so
    membership in the twist-compatible cochain spaces is checked here and a
    ConstraintViolation reported when it fails.
    """
    if md.order < 1:
        raise ValueError("deformation carries no order-1 coefficients")
    mc = MorphismComplex(md.phi)
    L, M = md.phi.source, md.phi.target
    au, av, aw = mc.ambient_dims(2)
    phi1 = md.phi_coeff(1)
    u_raw = dense_vector(_pack(md.xi.coeff(1), L.dim, L.dim), au)
    v_raw = dense_vector(_pack(md.eta.coeff(1), M.dim, M.dim), av)
    w_raw = dense_vector(_pack({(j,): phi1.column(j) for j in range(L.dim)}, L.dim, M.dim), aw)
    try:
        mc.left.space(2).coords(u_raw)
        mc.right.space(2).coords(v_raw)
        mc.mixed.space(1).coords(w_raw)
    except ConstraintViolation as exc:
        raise ConstraintViolation(
            "order-1 coefficients are not twist-compatible; the infinitesimal "
            "does not define a morphism cochain"
        ) from exc
    return MorphismCochain(2, Cochain(mc.left.space(2), u_raw), Cochain(mc.right.space(2), v_raw), Cochain(mc.mixed.space(1), w_raw))
