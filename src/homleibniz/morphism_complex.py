"""The deformation complex of a morphism phi: L -> M.

C^p(phi) = C^p(L;L) + C^p(M;M) + C^{p-1}(L;M), where the mixed summand uses
the target as a module over the source through phi, and C^0 := 0.  The
differential is d(u, v, w) = (delta u, delta v, phi.u - v.phi - delta w).
All three summands share one sign convention; cohomology dimensions come
from the block matrix of d over the computed bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Morphism,
    adjoint_representation,
    check_morphism,
    pullback_representation,
)
from .cochain import (
    Cochain,
    CochainComplex,
    ConstraintViolation,
    NotACochainComplex,
    DEFAULT_CONVENTION,
    input_length,
    _flat,
)
from .linalg import Matrix, Q, rank, solve


class HypothesisNotMet(Exception):
    """A vanishing-transfer precondition (a cohomology group) is nonzero."""


def push_tensor(phi: Morphism, coeffs, module_dim_in):
    """Compose a C^p(L;L) ambient tensor with phi on the output."""
    d_src = phi.source.dim
    d_tgt = phi.target.dim
    n_inputs = len(coeffs) // module_dim_in
    out = [Q(0)] * (n_inputs * d_tgt)
    for pos in range(n_inputs):
        for k in range(module_dim_in):
            c = coeffs[pos * module_dim_in + k]
            if c:
                for r in range(d_tgt):
                    e = phi.matrix.entries[r][k]
                    if e:
                        out[pos * d_tgt + r] += e * c
    return out


def pull_tensor(phi: Morphism, p, coeffs):
    """Precompose a C^p(M;M) ambient tensor with phi on every input slot."""
    n = phi.source.arity
    d_src = phi.source.dim
    d_tgt = phi.target.dim
    m = d_tgt
    in_len = input_length(n, p)
    out = [Q(0)] * (d_src ** in_len * m)
    cols = [phi.column(j) for j in range(d_src)]
    import itertools

    for inp in itertools.product(range(d_src), repeat=in_len):
        # expand phi applied componentwise to the whole input tuple
        expanded = {(): Q(1)}
        for i in inp:
            nxt = {}
            for key, coeff in expanded.items():
                for t, v in cols[i].items():
                    nxt[key + (t,)] = nxt.get(key + (t,), Q(0)) + coeff * v
            expanded = nxt
        base = _flat(inp, d_src) * m
        for key, coeff in expanded.items():
            if not coeff:
                continue
            src_base = _flat(key, d_tgt) * m
            for mo in range(m):
                c = coeffs[src_base + mo]
                if c:
                    out[base + mo] += coeff * c
    return out


@dataclass
class MorphismCochain:
    """(u, v, w) with u in C^p(L;L), v in C^p(M;M), w in C^{p-1}(L;M).

    w is None exactly in degree 1, where C^0 := 0 makes it vacuous.
    """

    degree: int
    u: Cochain
    v: Cochain
    w: Cochain | None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.u.space.degree != self.degree or self.v.space.degree != self.degree:
            raise ValueError("u and v degrees must equal the cochain degree")
        if self.degree == 1:
            if self.w is not None:
                raise ValueError("w must be absent in degree 1 (C^0 = 0)")
        elif self.w is None or self.w.space.degree != self.degree - 1:
            raise ValueError("w must have degree one below the cochain degree")

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero() and (self.w is None or self.w.is_zero())


class MorphismComplex:
    """The three summand complexes of a morphism, wired to one convention."""

    def __init__(self, phi: Morphism, convention=DEFAULT_CONVENTION):
        bad = check_morphism(phi)
        if bad:
            raise ValueError(f"not a morphism ({len(bad)} violated identities)")
        self.phi = phi
        self.convention = convention
        self.left = CochainComplex(
            phi.source, adjoint_representation(phi.source), convention
        )
        self.right = CochainComplex(
            phi.target, adjoint_representation(phi.target), convention
        )
        self.mixed = CochainComplex(
            phi.source, pullback_representation(phi), convention
        )
        self._d_matrices = {}
        self._push = {}
        self._pull = {}

    # -- summand dimensions -------------------------------------------------

    def space_dims(self, p):
        wd = self.mixed.space(p - 1).dim if p >= 2 else 0
        return (self.left.space(p).dim, self.right.space(p).dim, wd)

    def total_dim(self, p):
        return sum(self.space_dims(p))

    # -- push / pull --------------------------------------------------------

    def push(self, u: Cochain) -> Cochain:
        """phi o u, landing in the mixed complex; membership is verified."""
        p = u.space.degree
        raw = push_tensor(self.phi, u.coeffs, self.phi.source.dim)
        target = self.mixed.space(p)
        try:
            target.coords(raw)
        except ConstraintViolation as exc:
            raise ConstraintViolation(
                "push image violates the mixed compatibility constraint; "
                "phi does not intertwine the twists"
            ) from exc
        return Cochain(target, raw)

    def pull(self, v: Cochain) -> Cochain:
        """v precomposed with phi on every slot, landing in the mixed complex."""
        p = v.space.degree
        raw = pull_tensor(self.phi, p, v.coeffs)
        target = self.mixed.space(p)
        target.coords(raw)
        return Cochain(target, raw)

    def push_matrix(self, p) -> Matrix:
        if p not in self._push:
            src = self.left.space(p)
            tgt = self.mixed.space(p)
            cols = [
                tgt.coords(push_tensor(self.phi, bv, self.phi.source.dim))
                for bv in src.basis.vectors
            ]
            self._push[p] = _cols_to_matrix(cols, tgt.dim)
        return self._push[p]

    def pull_matrix(self, p) -> Matrix:
        if p not in self._pull:
            src = self.right.space(p)
            tgt = self.mixed.space(p)
            cols = [tgt.coords(pull_tensor(self.phi, p, bv)) for bv in src.basis.vectors]
            self._pull[p] = _cols_to_matrix(cols, tgt.dim)
        return self._pull[p]

    # -- the differential ---------------------------------------------------

    def differential(self, c: MorphismCochain) -> MorphismCochain:
        """d(u, v, w) = (delta u, delta v, push u - pull v - delta w)."""
        from .cochain import coboundary

        p = c.degree
        du = coboundary(c.u, self.convention, self.left.space(p + 1))
        dv = coboundary(c.v, self.convention, self.right.space(p + 1))
        third = self.push(c.u) - self.pull(c.v)
        if c.w is not None:
            third = third - coboundary(c.w, self.convention, self.mixed.space(p))
        return MorphismCochain(p + 1, du, dv, third)

    def d_matrix(self, p) -> Matrix:
        """Block matrix of d^p over the direct-sum bases."""
        if p in self._d_matrices:
            return self._d_matrices[p]
        du, dv, dw = self.space_dims(p)
        ru, rv, rw = self.space_dims(p + 1)
        dl = self.left.delta(p)
        dr = self.right.delta(p)
        ph = self.push_matrix(p)
        pl = self.pull_matrix(p)
        dm = self.mixed.delta(p - 1) if p >= 2 else None
        rows = ru + rv + rw
        cols = du + dv + dw
        entries = [[Q(0)] * cols for _ in range(rows)]
        _paste(entries, dl, 0, 0)
        _paste(entries, dr, ru, du)
        _paste(entries, ph, ru + rv, 0)
        _paste(entries, pl.scaled(-1), ru + rv, du)
        if dm is not None:
            _paste(entries, dm.scaled(-1), ru + rv, du + dv)
        out = Matrix(rows, cols, entries)
        self._d_matrices[p] = out
        return out

    # -- coordinates --------------------------------------------------------

    def coords(self, c: MorphismCochain):
        u = c.u.space.coords(c.u.coeffs)
        v = c.v.space.coords(c.v.coeffs)
        w = c.w.space.coords(c.w.coeffs) if c.w is not None else []
        return u + v + w

    def from_coords(self, p, coords) -> MorphismCochain:
        du, dv, dw = self.space_dims(p)
        if len(coords) != du + dv + dw:
            raise ValueError("coordinate length does not match C^p(phi)")
        u = self.left.space(p).from_coords(coords[:du])
        v = self.right.space(p).from_coords(coords[du : du + dv])
        w = (
            self.mixed.space(p - 1).from_coords(coords[du + dv :])
            if p >= 2
            else None
        )
        return MorphismCochain(p, u, v, w)

    def zero(self, p) -> MorphismCochain:
        return self.from_coords(p, [Q(0)] * self.total_dim(p))

    # -- cohomology ---------------------------------------------------------

    def cohomology_dim(self, p) -> int:
        if p < 1:
            raise ValueError("degree must be at least 1")
        dp = self.d_matrix(p)
        kernel_dim = dp.cols - rank(dp)
        if p == 1:
            return kernel_dim
        dprev = self.d_matrix(p - 1)
        if not (dp @ dprev).is_zero():
            raise NotACochainComplex(
                f"d^{p} o d^{p-1} is nonzero with convention {self.convention.label()}"
            )
        return kernel_dim - rank(dprev)

    # -- constructive vanishing transfer ------------------------------------

    def vanishing_transfer_witness(self, p, c: MorphismCochain) -> MorphismCochain:
        """Preimage of a p-cocycle under d^{p-1}, following the vanishing proof.

        Requires H^p(L,L) = H^p(M,M) = H^{p-1}(L,M) = 0; solves for u1, then
        v1, then w1 in three successive exact linear solves.
        """
        if p < 2:
            raise ValueError("transfer needs degree at least 2 (C^0 = 0)")
        if c.degree != p:
            raise ValueError("cocycle degree mismatch")
        dc = self.d_matrix(p).matvec(self.coords(c))
        if any(x != 0 for x in dc):
            raise ValueError("input is not a cocycle")
        hL = self.left.cohomology_dim(p)
        hM = self.right.cohomology_dim(p)
        hmix = self.mixed.cohomology_dim(p - 1)
        if hL or hM or hmix:
            raise HypothesisNotMet(
                f"H^{p}(L,L)={hL}, H^{p}(M,M)={hM}, H^{p-1}(L,M)={hmix}; all must vanish"
            )
        u1c = solve(self.left.delta(p - 1), c.u.space.coords(c.u.coeffs))
        v1c = solve(self.right.delta(p - 1), c.v.space.coords(c.v.coeffs))
        if u1c is None or v1c is None:
            raise RuntimeError("solve failed despite vanishing cohomology")
        u1 = self.left.space(p - 1).from_coords(u1c)
        v1 = self.right.space(p - 1).from_coords(v1c)
        residue = self.push(u1) - self.pull(v1)
        if c.w is not None:
            residue = residue - c.w
        # residue is a (p-1)-cocycle of the mixed complex
        if p >= 3:
            w1c = solve(
                self.mixed.delta(p - 2), residue.space.coords(residue.coeffs)
            )
            if w1c is None:
                raise RuntimeError("solve failed despite vanishing cohomology")
            w1 = self.mixed.space(p - 2).from_coords(w1c)
        else:
            # C^0 = 0 and H^1(L,M) = 0 force the residue itself to vanish
            if not residue.is_zero():
                raise RuntimeError("nonzero 1-cocycle contradicts H^1(L,M) = 0")
            w1 = None
        out = MorphismCochain(p - 1, u1, v1, w1)
        back = self.d_matrix(p - 1).matvec(self.coords(out))
        if back != self.coords(c):
            raise RuntimeError("witness failed exact verification")
        return out


def _cols_to_matrix(cols, rows):
    if cols:
        entries = [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
    else:
        entries = [[] for _ in range(rows)]
    return Matrix(rows, len(cols), entries)


def _paste(entries, block: Matrix, r0, c0):
    for i in range(block.rows):
        row = block.entries[i]
        for j in range(block.cols):
            if row[j]:
                entries[r0 + i][c0 + j] = row[j]
