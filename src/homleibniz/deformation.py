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
morphism complex assembles, with F_l on the right-hand side.  Every
returned triple is re-verified against the direct residual evaluators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    HomNaryAlgebra,
    Morphism,
    apply_multimap,
    cadd,
    check_multiplicative,
    cscale,
    csub,
    hom_composition,
    matrix_combo,
    normalize_multimap,
    _basis_combo,
)
from .cochain import DEFAULT_CONVENTION, Cochain, ConstraintViolation, _flat
from .linalg import Matrix, Q, solve
from .morphism_complex import MorphismCochain, MorphismComplex


# ---------------------------------------------------------------------------
# truncated deformations of an algebra


@dataclass
class TruncatedDeformation:
    base: HomNaryAlgebra
    coeffs: list  # multilinear tensors, coeffs[0] = base bracket

    def __post_init__(self):
        self.coeffs = [normalize_multimap(c) for c in self.coeffs]
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


def regrouping_identity_check(d: TruncatedDeformation, l):
    """Verify the split of the order-l equation into its F_l-linear part
    and its quadratic lower-order part.

    Evaluates both sides of the regrouped display independently and checks
    that LHS - RHS equals the full order-l residual on every basis tuple.
    This is an algebraic identity, so it must hold whether or not the
    deformation is valid; a nonempty mismatch list indicates a
    transcription bug, not an invalid deformation.
    """
    if l < 1:
        raise ValueError("regrouping is stated for orders l >= 1")
    a = d.base
    n = a.arity
    alpha = [a.alpha_combo(i) for i in range(a.dim)]
    full = algebra_order_residual(d, l)
    mismatches = []
    fl = d.coeff(l)
    for tup in a.basis_tuples(2 * n - 1):
        xs, ys = tup[:n], tup[n:]
        xcols = [_basis_combo(x) for x in xs]
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
            inner_fl = apply_multimap(fl, [xcols[pos]] + [_basis_combo(y) for y in ys])
            args = [alpha[x] for x in xs]
            args[pos] = inner_fl
            for k, v in apply_multimap(a.bracket, args).items():
                cadd(lhs, k, -v)
            inner_b = apply_multimap(
                a.bracket, [xcols[pos]] + [_basis_combo(y) for y in ys]
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
                    d.coeff(k_ord), [xcols[pos]] + [_basis_combo(y) for y in ys]
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
        """This deformation cut, or padded with zero coefficients, to order k."""
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


def _graded_products(phis, dim, n):
    """(X, [P_0(X), .., P_l(X)]) for every basis n-tuple X, in lexicographic
    order, with P_m(X) = sum_{j_1+..+j_n=m} phis[j_1](x_1) (x) .. (x) phis[j_n](x_n)
    for l = len(phis) - 1.

    Each slot is one order-graded convolution step, taken once per prefix
    of X and shared by every X that extends it.
    """
    l = len(phis) - 1

    def step(prods, x):
        nxt = [{} for _ in range(l + 1)]
        for m, pm in enumerate(prods):
            for j in range(l + 1 - m):
                col = phis[j].column(x)
                for key, c in pm.items():
                    for y, v in col.items():
                        cadd(nxt[m + j], key + (y,), c * v)
        return nxt

    def walk(prefix, prods):
        if len(prefix) == n:
            yield prefix, prods
            return
        for x in range(dim):
            yield from walk(prefix + (x,), step(prods, x))

    return walk((), [{(): Q(1)}] + [{} for _ in range(l)])


def morphism_order_residual(md: MorphismDeformation, l):
    """Residuals of the three order-l equations: the two algebra equations
    and the morphism-compatibility equation, on all basis tuples.

    The morphism equation is sum_{i+j=l} phi_i(xi_j(X)) = sum_i eta_i(P_{l-i}(X)),
    with the order-graded products P_m(X) of _graded_products and eta_i read
    at their keys by direct lookups.
    """
    res_xi = algebra_order_residual(md.xi, l)
    res_eta = algebra_order_residual(md.eta, l)
    src = md.phi.source
    phis = [md.phi_coeff(i) for i in range(l + 1)]
    xis = [md.xi.coeff(j) for j in range(l + 1)]
    etas = [md.eta.coeff(i) for i in range(l + 1)]
    res_phi = {}
    for X, prods in _graded_products(phis, src.dim, src.arity):
        res = {}
        for i in range(l + 1):
            xj = xis[l - i].get(X)
            if xj:
                for k, v in matrix_combo(phis[i], xj).items():
                    cadd(res, k, v)
        for i, eta in enumerate(etas):
            for key, c in prods[l - i].items():
                entry = eta.get(key)
                if entry:
                    for k, v in entry.items():
                        cadd(res, k, -c * v)
        if res:
            res_phi[X] = res
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
    head = md.truncated(l - 1).truncated(l)
    o1, o2, r3 = morphism_order_residual(head, l)
    return ObstructionCochain(l, o1, o2, {X: cscale(res, -1) for X, res in r3.items()})


# ---------------------------------------------------------------------------
# ambient packing helpers


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
# the extension solver


def solve_extension(md: MorphismDeformation, l, convention=DEFAULT_CONVENTION):
    """Extend a deformation valid through l-1 by one order, or report it
    obstructed.

    The order-l equations are solved as d(xi_l, eta_l, phi_l) = F_l at the
    ambient tensor level, with d the morphism complex's operator(2); the
    unknowns are not constrained to the twist-compatible subspaces.
    Coefficients of md above order l-1 are ignored.  Any returned triple is
    re-verified, on md cut to order l-1, against the direct order-l residual
    evaluators, a disagreement being a hard failure.
    """
    if l < 1:
        raise ValueError("extension order must be at least 1")
    if md.order < l - 1:
        raise ValueError(f"deformation must carry coefficients through order {l - 1}")
    fl = obstruction(md, l)

    mc = MorphismComplex(md.phi, convention)
    L, M = md.phi.source, md.phi.target
    n = L.arity
    au, av, aw = mc.ambient_dims(2)
    rows = [{} for _ in range(sum(mc.ambient_dims(3)))]
    op = mc.operator(2)
    for j, col in op.read(range(op.size)).items():
        for r, v in col:
            rows[r][j] = v
    rhs = (
        multimap_to_ambient(fl.o1, 2 * n - 1, L.dim, L.dim)
        + multimap_to_ambient(fl.o2, 2 * n - 1, M.dim, M.dim)
        + multimap_to_ambient(fl.o3, n, L.dim, M.dim)
    )
    x = solve(Matrix.from_rows(rows, au + av + aw), rhs)
    if x is None:
        return None

    xi_l = ambient_to_multimap(x[:au], n, L.dim, L.dim)
    eta_l = ambient_to_multimap(x[au : au + av], n, M.dim, M.dim)
    phi_l = ambient_to_matrix(x[au + av :], M.dim, L.dim)

    r1, r2, r3 = morphism_order_residual(md.truncated(l - 1).extended(xi_l, eta_l, phi_l), l)
    if r1 or r2 or r3:
        raise RuntimeError(
            "solver produced a triple whose order-l residual is nonzero; "
            "the linear system disagrees with the residual oracle"
        )
    return xi_l, eta_l, phi_l


def infinitesimal(md: MorphismDeformation, convention=DEFAULT_CONVENTION) -> MorphismCochain:
    """(xi_1, eta_1, phi_1) as a degree-2 morphism cochain.

    Deformation coefficients are not forced to commute with the twists, so
    membership in the twist-compatible cochain spaces is checked here and a
    ConstraintViolation reported when it fails.
    """
    if md.order < 1:
        raise ValueError("deformation carries no order-1 coefficients")
    mc = MorphismComplex(md.phi, convention)
    L, M = md.phi.source, md.phi.target
    n = L.arity
    u_raw = multimap_to_ambient(md.xi.coeff(1), n, L.dim, L.dim)
    v_raw = multimap_to_ambient(md.eta.coeff(1), n, M.dim, M.dim)
    w_raw = matrix_to_ambient(md.phi_coeff(1))
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
