"""Finite-dimensional multiplicative n-Hom-Leibniz algebras by structure constants.

An algebra is a basis, a sparse structure-constant tensor for the n-ary
bracket, and a twist endomorphism alpha.  Representations carry n
position-indexed actions.  The checkers below walk tensor supports, the
representation identities on the semidirect product L x| M, and return
full violation lists in basis-tuple order.

Linear data is passed around as sparse "combos":

* element combo: dict {basis index: Fraction}
* tuple combo:   dict {(i1, ..., ik): Fraction}

A bracket / multilinear-map tensor is a dict mapping an input index tuple
of length n to an element combo for the output, missing entries meaning
zero.  Action tensors use keys (j1, ..., j_{n-1}, m): the n-1 algebra
arguments in positional order followed by the module argument, the module
slot sitting at position i for action i.  Brackets, actions and
deformation coefficients pass through one normalise-and-check,
normalize_tensor, when their object is built: cells become Fractions, zeros
are dropped, and each key slot is checked against its dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt

from .linalg import Matrix

# ---------------------------------------------------------------------------
# combo helpers


def cadd(dst, key, coeff):
    v = dst.get(key)
    v = coeff if v is None else v + coeff
    if v:
        dst[key] = v
    else:
        dst.pop(key, None)


def cscale(combo, s):
    if not s:
        return {}
    return {k: v * s for k, v in combo.items()}


def csub(a, b):
    out = dict(a)
    for k, v in b.items():
        cadd(out, k, -v)
    return out


def matrix_combo(mat: Matrix, combo):
    """Apply a matrix to an element combo (columns indexed by basis)."""
    out = {}
    for j, v in combo.items():
        for i, e in mat.column(j).items():
            cadd(out, i, e * v)
    return out


def normalize_tensor(tensor, dims, what):
    """tensor with tuple keys and nonzero Fraction cells, zeros dropped after
    conversion.  dims lists each key slot's dimension, then the output's; a
    key of another length or an index outside its dimension is a ValueError."""
    out_dim, arity = dims[-1], len(dims) - 1  # no copy of dims: one call per action
    out = {}
    for key, entry in tensor.items():
        key = tuple(key)
        if len(key) != arity or min(key) < 0 or not all(map(gt, dims, key)):
            raise ValueError(f"{what} key {key} is not {arity} indices below {tuple(dims[:-1])}")
        if not all(0 <= k < out_dim for k in entry):
            raise ValueError(f"output index out of range in {what} entry {key}")
        cleaned = {k: q for k, v in entry.items() if (q := _q(v))}
        if cleaned:
            out[key] = cleaned
    return out


def _q(x):
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# violation reports


@dataclass(frozen=True)
class Violation:
    identity: str
    where: tuple
    residual: tuple  # sorted ((index or tuple, Fraction), ...)

    def __str__(self):
        res = ", ".join(f"{k}: {v}" for k, v in self.residual)
        return f"{self.identity} at {self.where}: residual {{{res}}}"


def _residual_violation(identity, where, residual_combo):
    if not residual_combo:
        return None
    items = tuple(sorted(residual_combo.items()))
    return Violation(identity, where, items)


# ---------------------------------------------------------------------------
# core types


def _is_diagonal(m: Matrix):
    """Whether the square matrix m has no nonzero entry off its diagonal."""
    return all(row.keys() <= {i} for i, row in enumerate(m.numerators()[0]))


@dataclass
class HomNaryAlgebra:
    arity: int
    dim: int
    basis: tuple
    bracket: dict
    alpha: Matrix

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        self.basis = tuple(self.basis)
        if len(self.basis) != self.dim:
            raise ValueError("basis label count does not match dimension")
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise ValueError("alpha must be a dim x dim matrix")
        self.bracket = normalize_tensor(self.bracket, [self.dim] * (self.arity + 1), "bracket")
        self.untwisted = self.alpha == Matrix.identity(self.dim)  # alpha = id, decided once
        self.diagonal = _is_diagonal(self.alpha)
        self.power_rows = {}  # cochain's memo: rows of alpha^{tensor j}, or w_j, powers alpha^j and slot tables

@dataclass
class Morphism:
    source: HomNaryAlgebra
    target: HomNaryAlgebra
    matrix: Matrix

    def __post_init__(self):
        if self.source.arity != self.target.arity:
            raise ValueError("source and target arities differ")
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("morphism matrix shape must be (target dim) x (source dim)")

    def apply(self, combo):
        return matrix_combo(self.matrix, combo)

    def column(self, j):
        return self.matrix.column(j)


@dataclass
class Representation:
    algebra: HomNaryAlgebra
    module_dim: int
    alpha_module: Matrix
    actions: tuple  # n tensors, key (j1..j_{n-1}, m)

    def __post_init__(self):
        n = self.algebra.arity
        if self.module_dim < 1:
            raise ValueError("module dimension must be at least 1")
        if self.alpha_module.rows != self.module_dim or self.alpha_module.cols != self.module_dim:
            raise ValueError("alpha_module must be module_dim x module_dim")
        if len(self.actions) != n:
            raise ValueError(f"expected {n} action tensors")
        dims = [self.algebra.dim] * (n - 1) + [self.module_dim] * 2
        self.actions = tuple(normalize_tensor(a, dims, f"action {i}") for i, a in enumerate(self.actions))
        self.diagonal = _is_diagonal(self.alpha_module)
        self.action_rows = None  # cochain's memo: the actions' int numerators over their lcm


# ---------------------------------------------------------------------------
# checkers


def precompose(f, maps):
    """f o (m_1, .., m_n): the tensor Z -> f(m_1 z_1, .., m_n z_n).

    maps[i] is a Matrix, or None for the identity.  Built from f's support
    and the maps' sparse rows: f's entry at key K reaches every Z with
    m_i[k_i][z_i] != 0 in each slot.  Nonzero entries only, in no
    particular key order.
    """
    out = {}
    for key, entry in f.items():
        terms = [((), 1)]
        for k, m in zip(key, maps):
            if m is None:
                terms = [(z + (k,), c) for z, c in terms]
            else:
                terms = [(z + (j,), c * x) for z, c in terms for j, x in m.row(k).items()]
        for z, c in terms:
            _accumulate(out, z, c, entry)
    return {z: e for z, e in out.items() if e}


def _accumulate(out, key, c, combo):
    acc = out.setdefault(key, {})
    for k, v in combo.items():
        cadd(acc, k, c * v)


def _by_slot(t, pos):
    """The entries of tensor t grouped by their argument in slot pos."""
    index = {}
    for z, entry in t.items():
        index.setdefault(z[pos], []).append((z, entry))
    return index


def hom_composition(a: HomNaryAlgebra, pairs):
    """Sum of B(F, G) over the (F, G) pairs, read off the support of each G.

    B(F, G)(X, Y) = F(G(X), abar Y) - sum_k F(alpha x_1, .., G(x_k, Y), .., alpha x_n)
    is the Hom analogue of Gerstenhaber's composition of n-linear tensors:
    B(mu, mu) = 0 is the n-Hom-Leibniz identity, and sum_{i+j=l} B(xi_i, xi_j)
    = 0 is the order-l deformation equation.

    Each pair twists F into n tensors T_k = F o (alpha, .., id at slot k,
    .., alpha) (F itself when alpha = id), grouped by their slot-k argument.
    Each key of G is read both as X, giving the first term
    sum_m G(X)_m T_1(m, Y), and as (x_k, Y), giving the k-th of the others,
    sum_m G(x_k, Y)_m T_k(x_1, .., m, .., x_n): the cost follows the nonzeros
    of G and T, never the dim^(2n-1) basis tuples.

    Returns {(x_1..x_n, y_1..y_{n-1}): residual combo}, nonzero entries only,
    in lexicographic key order.
    """
    n = a.arity
    alpha = None if a.untwisted else a.alpha
    out = {}
    for f, g in pairs:
        if not (f and g):
            continue
        ts = [
            _by_slot(f if alpha is None else precompose(f, [None if i == pos else alpha for i in range(n)]), pos)
            for pos in range(n)
        ]
        for key, gv in g.items():
            head, tail = key[:1], key[1:]
            for m, c in gv.items():
                for z, entry in ts[0].get(m, ()):
                    _accumulate(out, key + z[1:], c, entry)
                neg = -c
                for pos, t in enumerate(ts):
                    for z, entry in t.get(m, ()):
                        _accumulate(out, z[:pos] + head + z[pos + 1 :] + tail, neg, entry)
    return {key: out[key] for key in sorted(out) if out[key]}


def check_hom_leibniz(a: HomNaryAlgebra):
    """Evaluate the n-Hom-Leibniz identity B(mu, mu) = 0 on every basis tuple;
    empty iff valid."""
    return [
        _residual_violation("hom-leibniz", tup, res)
        for tup, res in hom_composition(a, [(a.bracket, a.bracket)]).items()
    ]


def _violations(identity, lhs, rhs):
    """Violations of lhs = rhs, two tensors keyed by basis tuples, in key order."""
    report = []
    for key in sorted(lhs.keys() | rhs.keys()):
        v = _residual_violation(identity, key, csub(lhs.get(key, {}), rhs.get(key, {})))
        if v:
            report.append(v)
    return report


def check_multiplicative(a: HomNaryAlgebra):
    """alpha([x1..xn]) = [alpha(x1)..alpha(xn)] on all basis tuples, read off
    the supports of the bracket and of [ ] o alpha^(x n)."""
    lhs = {X: matrix_combo(a.alpha, entry) for X, entry in a.bracket.items()}
    return _violations("multiplicative", lhs, precompose(a.bracket, [a.alpha] * a.arity))


def check_morphism(phi: Morphism):
    """Bracket preservation and phi.alpha = beta.phi, both exact.

    phi([X]) = [phi x_1, .., phi x_n] is read off the supports of the
    source bracket and of the target bracket o phi^(x n)."""
    src, tgt = phi.source, phi.target
    lhs = {X: phi.apply(entry) for X, entry in src.bracket.items()}
    report = _violations("bracket-preservation", lhs, precompose(tgt.bracket, [phi.matrix] * tgt.arity))
    diff = phi.matrix @ src.alpha - tgt.alpha @ phi.matrix
    bad = sorted(((i, j), x) for j in range(diff.cols) for i, x in diff.column(j).items())
    if bad:
        report.append(Violation("twist-intertwining", (), tuple(bad)))
    report.sort(key=lambda v: (v.identity, v.where))
    return report


def _semidirect(rep: Representation) -> HomNaryAlgebra:
    """The semidirect product L x| M: L's basis then M's, so module index k
    becomes d + k, the twist alpha + alpha_M, and L's bracket together with
    action i's entries, their module argument moved into slot i."""
    a, d, m = rep.algebra, rep.algebra.dim, rep.module_dim
    rows = [a.alpha.row(i) for i in range(d)]
    rows += [{d + j: x for j, x in rep.alpha_module.row(k).items()} for k in range(m)]
    bracket = dict(a.bracket)
    for i, action in enumerate(rep.actions):
        for key, entry in action.items():
            bracket[key[:i] + (d + key[-1],) + key[i:-1]] = {d + k: v for k, v in entry.items()}
    return HomNaryAlgebra(a.arity, d + m, tuple(range(d + m)), bracket, Matrix.from_rationals(rows, d + m))


def check_representation(rep: Representation):
    """All 2n-1 module specializations of the fundamental identity.

    M is a representation of L iff L x| M satisfies the n-Hom-Leibniz
    identity (Casas-Loday-Pirashvili; Sheng for the Hom case): every term
    with two module arguments vanishes there, so the residual of L x| M at
    a tuple with exactly one module slot s is the slot-s identity, read off
    the supports by hom_composition.  With A the action entries of L x| M's
    bracket S, B(S, S) = B(mu_L, mu_L) + B(mu_L, A) + B(A, S): the first
    term lives on tuples with no module slot and the second is 0, so only
    B(A, S) is evaluated."""
    d = rep.algebra.dim
    s_alg = _semidirect(rep)
    actions = {key: entry for key, entry in s_alg.bracket.items() if max(key) >= d}
    report = []
    for key, res in hom_composition(s_alg, [(actions, s_alg.bracket)]).items():
        slots = [s for s, k in enumerate(key) if k >= d]
        if len(slots) == 1:
            s = slots[0]
            where = key[:s] + (key[s] - d,) + key[s + 1 :]
            shifted = {k - d: v for k, v in res.items()}
            report.append(_residual_violation(f"representation[slot={s}]", where, shifted))
    report.sort(key=lambda v: (v.identity, v.where))
    return report


# ---------------------------------------------------------------------------
# constructions


def _module_actions(bracket, n, phi=None):
    """The n actions of a bracket on its output space through phi: action i
    is bracket o (phi, .., id at slot i, .., phi), read off the bracket's
    support by precompose (the bracket itself when phi is None), with the
    slot-i argument moved last.  One map list serves every action, so the
    work is linear in n beyond the bracket's support."""
    actions = []
    maps = [phi] * n
    for i in range(n):
        maps[i] = None
        t = bracket if phi is None else precompose(bracket, maps)
        maps[i] = phi
        actions.append({K[:i] + K[i + 1 :] + K[i : i + 1]: e for K, e in t.items()})
    return tuple(actions)


def adjoint_representation(a: HomNaryAlgebra) -> Representation:
    """M = L with alpha_M = alpha; action i is the bracket with the module in slot i."""
    return Representation(a, a.dim, a.alpha, _module_actions(a.bracket, a.arity))


def pullback_representation(phi: Morphism) -> Representation:
    """Target of phi as a module over the source, acting through phi."""
    bad = check_morphism(phi)
    if bad:
        raise ValueError(f"not a morphism ({len(bad)} violated identities); pullback undefined")
    tgt = phi.target
    return Representation(phi.source, tgt.dim, tgt.alpha, _module_actions(tgt.bracket, tgt.arity, phi.matrix))


def yau_twist(a: HomNaryAlgebra, t: Matrix) -> HomNaryAlgebra:
    """Twist an ordinary (alpha = id) n-Leibniz algebra by an endomorphism t.

    New bracket is t o bracket, new twist is t; the output is multiplicative
    and satisfies the Hom-Leibniz identity whenever the input does.
    """
    if not a.untwisted:
        raise ValueError("yau_twist expects an untwisted (alpha = id) algebra")
    if t.rows != a.dim or t.cols != a.dim:
        raise ValueError("endomorphism matrix shape mismatch")
    bad = check_multiplicative(HomNaryAlgebra(a.arity, a.dim, a.basis, a.bracket, t))
    if bad:
        raise ValueError(f"t is not an endomorphism of the bracket (fails at {bad[0].where})")
    bracket = {}
    for key, entry in a.bracket.items():
        out = matrix_combo(t, dict(entry))
        if out:
            bracket[key] = out
    return HomNaryAlgebra(a.arity, a.dim, a.basis, bracket, t)
