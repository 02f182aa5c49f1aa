#!/usr/bin/env python3
"""Generate the checked-in fixture documents under fixtures/.

Writes algebra / morphism / deformation documents for the desk-scale
examples, plus a battery of randomized order-1 morphism deformations with
recorded extend/obstruct verdicts.  The verdicts come from a brute-force
affine assembly of the order-2 equations using only the residual
evaluators (no coboundary machinery), so the battery doubles as an
independent oracle for the extension solver.

Deterministic: a fixed seed, so reruns reproduce the corpus byte for byte.
"""

import itertools
import os
import random
import sys
from fractions import Fraction as Q

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homleibniz.algebra import HomNaryAlgebra
from homleibniz.deformation import (
    MorphismDeformation,
    TruncatedDeformation,
    morphism_order_residual,
)
from homleibniz.documents import (
    dump_json,
    serialize_algebra,
    serialize_deformation,
    serialize_morphism,
)
from homleibniz.fixtures import (
    abelian_algebra,
    aff1,
    h3_sheared,
    identity_morphism,
    leibniz_ff_e,
    ternary_fff_e,
    twist_endomorphism,
    twisted_ff_e,
    vanishing_pair,
)
from homleibniz.linalg import Matrix, kernel_basis, solve

ROOT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


# ---------------------------------------------------------------------------
# brute-force residual linearization (independent of the cochain machinery)


def _triple_slots(phi):
    """Flat enumeration of the unknown order-l coefficient triple."""
    L, M = phi.source, phi.target
    n = L.arity
    slots = []
    for key in itertools.product(range(L.dim), repeat=n):
        for k in range(L.dim):
            slots.append(("xi", key, k))
    for key in itertools.product(range(M.dim), repeat=n):
        for k in range(M.dim):
            slots.append(("eta", key, k))
    for j in range(L.dim):
        for r in range(M.dim):
            slots.append(("phi", j, r))
    return slots


def _triple_from_vector(phi, slots, vec):
    L, M = phi.source, phi.target
    xi, eta = {}, {}
    pm = [[Q(0)] * L.dim for _ in range(M.dim)]
    for (kind, a, b), v in zip(slots, vec):
        if not v:
            continue
        if kind == "xi":
            xi.setdefault(a, {})[b] = v
        elif kind == "eta":
            eta.setdefault(a, {})[b] = v
        else:
            pm[b][a] = v
    return xi, eta, Matrix(M.dim, L.dim, pm)


def _residual_vector(md, l):
    """Residuals of the order-l equations flattened in a fixed order."""
    L, M = md.phi.source, md.phi.target
    n = L.arity
    r1, r2, r3 = morphism_order_residual(md, l)
    out = []
    for key in itertools.product(range(L.dim), repeat=2 * n - 1):
        ent = r1.get(key, {})
        out.extend(ent.get(k, Q(0)) for k in range(L.dim))
    for key in itertools.product(range(M.dim), repeat=2 * n - 1):
        ent = r2.get(key, {})
        out.extend(ent.get(k, Q(0)) for k in range(M.dim))
    for key in itertools.product(range(L.dim), repeat=n):
        ent = r3.get(key, {})
        out.extend(ent.get(k, Q(0)) for k in range(M.dim))
    return out


def order_l_system(md, l):
    """(A, b): the order-l equations as A.c = b for the unknown triple c."""
    phi = md.phi
    slots = _triple_slots(phi)
    zero = _triple_from_vector(phi, slots, [Q(0)] * len(slots))
    base = _residual_vector(md.extended(*zero), l)
    cols = []
    for i in range(len(slots)):
        unit = [Q(0)] * len(slots)
        unit[i] = Q(1)
        r = _residual_vector(md.extended(*_triple_from_vector(phi, slots, unit)), l)
        cols.append([x - y for x, y in zip(r, base)])
    a = Matrix(len(base), len(slots), [[cols[j][i] for j in range(len(slots))] for i in range(len(base))])
    return a, [-x for x in base], slots


def random_valid_order1(phi, rng):
    """A random order-1 morphism deformation of phi, valid at order 1.

    Order-1 validity is a homogeneous linear condition, so sample from the
    kernel of the brute-force order-1 system.
    """
    base = MorphismDeformation.trivial(phi, 0)
    a, b, slots = order_l_system(base, 1)
    assert all(x == 0 for x in b)
    basis = kernel_basis(a)
    vec = [Q(0)] * len(slots)
    for kv in basis.vectors:
        c = Q(rng.randint(-2, 2), rng.choice([1, 1, 2]))
        if c:
            vec = [x + c * y for x, y in zip(vec, kv)]
    xi1, eta1, phi1 = _triple_from_vector(phi, slots, vec)
    return MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(phi.source, [xi1]),
        TruncatedDeformation.from_higher(phi.target, [eta1]),
        [phi.matrix, phi1],
    )


def oracle_extends(md, l):
    a, b, _ = order_l_system(md, l)
    return solve(a, b) is not None


# ---------------------------------------------------------------------------
# corpus


def write(name, obj):
    path = os.path.join(ROOT, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    dump_json(obj, path)
    print(f"wrote {name}")


def main():
    rng = random.Random(20260823)

    algebras = {
        "abelian.json": abelian_algebra(2, 2),
        "leibniz_ff_e.json": leibniz_ff_e(),
        "twisted_ff_e_2.json": twisted_ff_e(2),
        "twisted_ff_e_4.json": twisted_ff_e(4),
        "aff1.json": aff1(),
        "ternary_fff_e.json": ternary_fff_e(),
        "h3_sheared.json": h3_sheared(),
    }
    for name, a in algebras.items():
        write(name, serialize_algebra(a))

    # an algebra document that violates the defining identity
    bad = HomNaryAlgebra(
        2, 2, ("e", "f"),
        {(0, 0): {1: Q(1)}, (1, 1): {0: Q(1)}},
        Matrix.identity(2),
    )
    write("bad_bracket.json", serialize_algebra(bad))

    write("identity_leibniz.json", serialize_morphism(identity_morphism(leibniz_ff_e())))
    write("twist_endo.json", serialize_morphism(twist_endomorphism()))
    write("vanishing_pair.json", serialize_morphism(vanishing_pair()))

    write(
        "trivial_deformation.json",
        serialize_deformation(MorphismDeformation.trivial(identity_morphism(leibniz_ff_e()), 2)),
    )
    ab = abelian_algebra(2, 2)
    ff_e = {(1, 1): {0: Q(1)}}
    phi = identity_morphism(ab)
    write(
        "abelian_ff_e_deformation.json",
        serialize_deformation(
            MorphismDeformation(
                phi,
                TruncatedDeformation.from_higher(ab, [ff_e]),
                TruncatedDeformation.from_higher(ab, [dict(ff_e)]),
                [phi.matrix, Matrix.zeros(2, 2)],
            )
        ),
    )

    # randomized order-1 battery with recorded extend/obstruct verdicts
    bases = [
        identity_morphism(abelian_algebra(2, 2)),
        identity_morphism(leibniz_ff_e()),
        identity_morphism(aff1()),
        twist_endomorphism(),
        vanishing_pair(),
    ]
    entries = []
    count = 0
    while count < 54:
        phi = bases[count % len(bases)]
        md = random_valid_order1(phi, rng)
        name = f"deform/d{count:02d}.json"
        write(name, serialize_deformation(md))
        entries.append({"file": name, "extends": oracle_extends(md, 2)})
        count += 1
    write("deform_battery.json", {"seed": 20260823, "entries": entries})
    verdicts = [e["extends"] for e in entries]
    print(f"battery: {sum(verdicts)} extendable, {len(verdicts) - sum(verdicts)} obstructed")


if __name__ == "__main__":
    main()
