"""The deformation complex of a morphism phi: L -> M.

C^p(phi) = C^p(L;L) + C^p(M;M) + C^{p-1}(L;M), where the mixed summand uses
the target as a module over the source through phi, and C^0 := 0.  The
differential is d(u, v, w) = (delta u, delta v, phi.u - v.phi - delta w).
All three summands share one sign convention, and a summand equal to the
first as (algebra, rep) is that complex itself: all three for an identity
morphism, the first two for an endomorphism, so each distinct complex builds
its spaces, tables, operators and ranks once.

d^p is assembled in one place, MorphismComplex.operator: a Columns cache
whose columns are built on first read from the summand complexes' operator
columns plus the push and pull columns, in ints over one denominator.  rank
eliminates d^p's images of the direct-sum basis, each block certified by
its summand's twist constraint, so no basis of degree p+1 is built;
differential applies it to a cochain's stacked sparse vectors, whose
Cochains are certified the same way, and deformation.solve_extension reads
every column.
cochain.squares_to_zero certifies d o d = 0 on the operators.  _d_columns
alone applies phi to a cochain: a push column phi.u applies phi to the
output index; a pull column -v.phi is the unit tensor of v precomposed with
phi in every input slot, the Kronecker product of phi's int rows by
cochain._products, so it visits only the inputs that phi sends onto its key.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .algebra import Morphism, adjoint_representation, pullback_representation
from .cochain import (
    Cochain,
    Columns,
    CochainComplex,
    DEFAULT_CONVENTION,
    ambient_dim,
    apply_sparse,
    cohomology_dim_of,
    image_rank,
    input_length,
    restrict_operator,
    _products,
)
from .linalg import Matrix, Q, dense_vector, direct_sum, integral_rows, solve, sparse_vector, transpose


class HypothesisNotMet(Exception):
    """A vanishing-transfer precondition (a cohomology group) is nonzero."""


def _d_columns(phi, p, ops, dims, den, js):
    """{j: column} of d^p for the columns js, in int numerators over den,
    from the columns of the summand operators ops (delta^p of L and of M,
    then delta^{p-1} of the mixed complex), the ambient sizes dims in
    degrees p and p+1, and phi's int numerators."""
    (au, av, _), (ru, rv, _) = dims
    third = ru + rv
    d_src, d_tgt = phi.source.dim, phi.target.dim
    phi_rows, phi_den = phi.matrix.numerators()
    in_len = input_length(phi.source.arity, p)
    us = [j for j in js if j < au]
    vs = [j - au for j in js if au <= j < au + av]
    ws = [j - au - av for j in js if j >= au + av]
    op = {}
    # u: delta u on top, phi.u below; phi acts on the output index
    left, scale, push = ops[0].read(us), den // ops[0].den, den // phi_den
    phi_cols = transpose(phi_rows, d_src)
    for j in us:
        pos, k = divmod(j, d_src)
        op[j] = [(r, x * scale) for r, x in left[j]] + [
            (third + pos * d_tgt + r, x * push) for r, x in phi_cols[k].items()
        ]
    # v: delta v, then -v.phi; phi acts on every input slot
    right, scale, pull = ops[1].read(vs), den // ops[1].den, den // phi_den ** in_len
    places = range(in_len - 1, -1, -1)
    for j in vs:
        pos, mo = divmod(j, d_tgt)
        # slot by slot, phi's row at the slot's key digit, the Z digit placed
        slots = [[(z * d_src ** e, x) for z, x in phi_rows[pos // d_tgt ** e % d_tgt].items()] for e in places]
        op[au + j] = [(ru + r, x * scale) for r, x in right[j]] + [
            (third + Z * d_tgt + mo, c) for Z, c in _products(slots, 0, -pull)
        ]
    # w: -delta w
    if ws:
        mixed, scale = ops[2].read(ws), den // ops[2].den
        for j in ws:
            op[au + av + j] = [(third + r, -x * scale) for r, x in mixed[j]]
    return {j: col for j, col in op.items() if col}


@dataclass
class MorphismCochain:
    """(u, v, w) with u in C^p(L;L), v in C^p(M;M), w in C^{p-1}(L;M).

    w is None exactly in degree 1, where C^0 := 0 makes it vacuous.
    """

    degree: int
    u: Cochain
    v: Cochain
    w: Cochain | None = None

    def __post_init__(self):
        # spaces refuse degree < 1, so this check covers it
        if self.u.space.degree != self.degree or self.v.space.degree != self.degree:
            raise ValueError("u and v degrees must equal the cochain degree")
        if self.degree == 1:
            if self.w is not None:
                raise ValueError("w must be absent in degree 1 (C^0 = 0)")
        elif self.w is None or self.w.space.degree != self.degree - 1:
            raise ValueError("w must have degree one below the cochain degree")

    def is_zero(self):
        return not (self.u.vector or self.v.vector or self.w and self.w.vector)


class MorphismComplex:
    """The three summand complexes of a morphism, wired to one convention;
    a summand equal to left as (algebra, rep) is left itself."""

    def __init__(self, phi: Morphism, convention=DEFAULT_CONVENTION):
        # pullback_representation checks that phi is a morphism
        mixed_rep = pullback_representation(phi)
        right_rep = adjoint_representation(phi.target)
        self.phi = phi
        self.convention = convention
        self.left = CochainComplex(phi.source, adjoint_representation(phi.source), convention)
        self.right = self.left if right_rep == self.left.rep else CochainComplex(phi.target, right_rep, convention)
        self.mixed = self.left if mixed_rep == self.left.rep else CochainComplex(phi.source, mixed_rep, convention)
        self._operators = {}
        self._d_matrices = {}
        self._ranks = {}
        self._cohomology = {}

    # -- summand dimensions -------------------------------------------------

    def summands(self, p):
        """The cochain spaces whose direct sum is C^p(phi)."""
        w = [self.mixed.space(p - 1)] if p >= 2 else []
        return [self.left.space(p), self.right.space(p)] + w

    def ambient_dims(self, p):
        """Ambient sizes of the u, v and w tensors in degree p (w is 0 in degree 1)."""
        L, M = self.phi.source, self.phi.target
        aw = ambient_dim(L, self.mixed.rep, p - 1) if p >= 2 else 0
        return ambient_dim(L, self.left.rep, p), ambient_dim(M, self.right.rep, p), aw

    def space_dims(self, p):
        wd = self.mixed.space(p - 1).dim if p >= 2 else 0
        return (self.left.space(p).dim, self.right.space(p).dim, wd)

    def total_dim(self, p):
        return sum(self.space_dims(p))

    # -- the differential ---------------------------------------------------

    def differential(self, c: MorphismCochain) -> MorphismCochain:
        """d(u, v, w) = (delta u, delta v, phi.u - v.phi - delta w): _image
        split into Cochains, which certify each block on its support, so no
        basis of degree p+1 is built."""
        image, den = self._image(c)
        return self._split(c.degree + 1, {r: Q(x, den) for r, x in image.items()})

    def _image(self, c: MorphismCochain):
        """(int numerators, den) of operator(p) on c's u, v and w stacked.
        Empty exactly when c is a cocycle: a zero image lies in every space,
        so that test builds no space of degree p+1."""
        stacked, offset = {}, 0
        for b in self._blocks(c):
            stacked.update((offset + i, x) for i, x in b.vector.items())
            offset += b.space.ambient
        (nums,), den = integral_rows([stacked])
        ((image, den),) = apply_sparse(self.operator(c.degree), [(nums, den)])
        return image, den

    def operator(self, p) -> Columns:
        """Sparse ambient columns of d^p, each built on its first read.

        Columns run over the ambient u, v, w tensors and rows over the
        ambient (delta u, delta v, phi.u - v.phi - delta w), in that order.
        """
        if p not in self._operators:
            ops = [self.left.operator(p), self.right.operator(p)]
            ops += [self.mixed.operator(p - 1)] if p >= 2 else []
            dims = self.ambient_dims(p), self.ambient_dims(p + 1)
            den = math.lcm(*(op.den for op in ops), self.phi.matrix.den ** input_length(self.phi.source.arity, p))
            build = functools.partial(_d_columns, self.phi, p, ops, dims, den)
            self._operators[p] = Columns(build, sum(dims[0]), den)
        return self._operators[p]

    def d_matrix(self, p) -> Matrix:
        """Matrix of d^p over the direct-sum bases: the operator, restricted."""
        if p not in self._d_matrices:
            self._d_matrices[p] = restrict_operator(
                self.operator(p), self.summands(p), self.summands(p + 1)
            )
        return self._d_matrices[p]

    def rank(self, p) -> int:
        if p not in self._ranks:
            self._ranks[p] = image_rank(self.operator(p), self.summands(p), self.summands(p + 1))
        return self._ranks[p]

    # -- coordinates --------------------------------------------------------

    def _blocks(self, c: MorphismCochain):
        """c's u, v and w; ValueError unless each lies in this complex's summand."""
        spaces = self.summands(c.degree)
        blocks = [c.u, c.v, c.w][: len(spaces)]
        if any((b.space.algebra, b.space.rep) != (s.algebra, s.rep) for b, s in zip(blocks, spaces)):
            raise ValueError("cochain does not belong to this morphism complex")
        return blocks

    def coords(self, c: MorphismCochain):
        """c's dense coordinates over the direct-sum basis, for the witness's solves."""
        return [x for b in self._blocks(c) for x in dense_vector(b.space.coords(b.vector), b.space.dim)]

    def from_coords(self, p, coords) -> MorphismCochain:
        basis = direct_sum([s.basis for s in self.summands(p)])
        if len(coords) != basis.dim:
            raise ValueError("coordinate length does not match C^p(phi)")
        return self._split(p, basis.combination(sparse_vector(coords)))

    def _split(self, p, vector) -> MorphismCochain:
        """The p-cochain whose u, v and w, stacked, are the sparse ambient vector."""
        blocks, offset = [], 0
        for space in self.summands(p):
            blocks.append(Cochain(space, {r - offset: x for r, x in vector.items() if 0 <= r - offset < space.ambient}))
            offset += space.ambient
        return MorphismCochain(p, *blocks)

    # -- cohomology ---------------------------------------------------------

    def cohomology_dim(self, p) -> int:
        if p not in self._cohomology:
            self._cohomology[p] = cohomology_dim_of(self, p, "d")
        return self._cohomology[p]

    # -- constructive vanishing transfer ------------------------------------

    def vanishing_transfer_witness(self, p, c: MorphismCochain) -> MorphismCochain:
        """Preimage of a p-cocycle under d^{p-1}, following the vanishing proof.

        Requires H^p(L,L) = H^p(M,M) = H^{p-1}(L,M) = 0; solves for u1, then
        v1, then w1 in three successive exact linear solves, in coordinates,
        reading phi.u1 - v1.phi off differential, which checks the witness.
        """
        if p < 2:
            raise ValueError("transfer needs degree at least 2 (C^0 = 0)")
        if c.degree != p:
            raise ValueError("cocycle degree mismatch")
        cc = self.coords(c)
        if self._image(c)[0]:
            raise ValueError("input is not a cocycle")
        hL = self.left.cohomology_dim(p)
        hM = self.right.cohomology_dim(p)
        hmix = self.mixed.cohomology_dim(p - 1)
        if hL or hM or hmix:
            raise HypothesisNotMet(
                f"H^{p}(L,L)={hL}, H^{p}(M,M)={hM}, H^{p-1}(L,M)={hmix}; all must vanish"
            )
        du, dv, _ = self.space_dims(p)
        u1c = solve(self.left.delta(p - 1), cc[:du])
        v1c = solve(self.right.delta(p - 1), cc[du : du + dv])
        if u1c is None or v1c is None:
            raise RuntimeError("solve failed despite vanishing cohomology")
        # the w-block of d(u1, v1, 0) - c is phi.u1 - v1.phi - w, a (p-1)-cocycle
        # of the mixed complex that delta w1 must equal
        w0 = [0] * self.space_dims(p - 1)[2]
        image = self.coords(self.differential(self.from_coords(p - 1, u1c + v1c + w0)))
        residue = [x - y for x, y in zip(image[du + dv :], cc[du + dv :])]
        if p >= 3:
            w1c = solve(self.mixed.delta(p - 2), residue)
            if w1c is None:
                raise RuntimeError("solve failed despite vanishing cohomology")
        else:
            # C^0 = 0 and H^1(L,M) = 0 force the residue itself to vanish
            if any(residue):
                raise RuntimeError("nonzero 1-cocycle contradicts H^1(L,M) = 0")
            w1c = []
        witness = self.from_coords(p - 1, u1c + v1c + w1c)
        d = self.differential(witness)
        if (d.u.vector, d.v.vector, d.w.vector) != (c.u.vector, c.v.vector, c.w.vector):
            raise RuntimeError("witness failed exact verification")
        return witness
