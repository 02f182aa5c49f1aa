import collections
import os
import random
from fractions import Fraction as Q

import pytest

from homleibniz import morphism_complex
from homleibniz.algebra import adjoint_representation, pullback_representation
from homleibniz.cochain import CochainComplex
from homleibniz.documents import load_json, parse_deformation
from homleibniz.fixtures import (
    abelian_algebra,
    fixture_morphisms,
    identity_morphism,
    leibniz_ff_e,
    ternary_fff_e,
    vanishing_pair,
)
from homleibniz.linalg import kernel_basis, sparse_vector
from homleibniz.morphism_complex import (
    HypothesisNotMet,
    MorphismCochain,
    MorphismComplex,
)
from oracles import blockwise_differential, matvec, morphism_ambient, pull_tensor, push_tensor, random_cochain


def random_morphism_cochain(mc, p, rng):
    return mc.from_coords(
        p, [Q(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(mc.total_dim(p))]
    )


def test_abelian_identity_degree_one():
    mc = MorphismComplex(identity_morphism(abelian_algebra(2, 2)))
    assert mc.total_dim(1) == 8
    assert mc.cohomology_dim(1) == 4


def test_ff_e_identity_dims():
    mc = MorphismComplex(identity_morphism(leibniz_ff_e()))
    assert mc.space_dims(1) == (4, 4, 0)
    assert mc.space_dims(2) == (8, 8, 4)
    assert mc.cohomology_dim(1) == 2
    assert mc.cohomology_dim(2) == 1


def test_differential_matches_blockwise_definition():
    rng = random.Random(5)
    for phi in fixture_morphisms():
        mc = MorphismComplex(phi)
        for p in (1, 2):
            c = random_morphism_cochain(mc, p, rng)
            assert morphism_ambient(mc.differential(c)) == blockwise_differential(mc, c)
            assert mc._d_matrices == {}  # applied on the operator, never restricted


def test_d_squared_zero_on_random_cochains():
    rng = random.Random(6)
    for phi in fixture_morphisms():
        mc = MorphismComplex(phi)
        for p in (1, 2):
            for _ in range(3):
                c = random_morphism_cochain(mc, p, rng)
                assert mc.differential(mc.differential(c)).is_zero()


def test_degree_one_has_no_w_component():
    mc = MorphismComplex(identity_morphism(leibniz_ff_e()))
    c = mc.from_coords(1, [0] * mc.total_dim(1))
    assert c.w is None
    with pytest.raises(ValueError):
        MorphismCochain(1, c.u, c.v, mc.mixed.space(1).from_coords([0] * mc.mixed.space(1).dim))


def test_vanishing_pair_satisfies_the_hypotheses_nonvacuously():
    mc = MorphismComplex(vanishing_pair())
    assert mc.space_dims(2) == (1, 1, 1)
    assert mc.left.cohomology_dim(2) == 0
    assert mc.right.cohomology_dim(2) == 0
    assert mc.mixed.cohomology_dim(1) == 0
    assert mc.cohomology_dim(2) == 0
    # the conclusion is not vacuous: there are nonzero cocycles to transfer
    assert kernel_basis(mc.d_matrix(2)).dim == 2


def test_vanishing_transfer_witness_on_spanning_cocycles():
    mc = MorphismComplex(vanishing_pair())
    for vec in kernel_basis(mc.d_matrix(2)).vectors:
        c = mc.from_coords(2, vec)
        w = mc.vanishing_transfer_witness(2, c)
        assert blockwise_differential(mc, w) == morphism_ambient(c)


def test_vanishing_transfer_rejects_non_cocycles():
    mc = MorphismComplex(vanishing_pair())
    rng = random.Random(7)
    for _ in range(20):
        c = random_morphism_cochain(mc, 2, rng)
        if any(x != 0 for x in matvec(mc.d_matrix(2), mc.coords(c))):
            with pytest.raises(ValueError):
                mc.vanishing_transfer_witness(2, c)
            return
    raise AssertionError("no non-cocycle found")


def test_the_cocycle_check_builds_no_space_above_the_cocycle_degree():
    # the witness tests its input's image for emptiness: a zero image lies in
    # every space, so C^3's spaces are never built, and a nonzero one is refused
    mc = MorphismComplex(identity_morphism(ternary_fff_e()))
    assert mc.left is mc.right is mc.mixed  # one complex serves all three summands
    rng = random.Random(3)
    cocycle = mc.differential(random_morphism_cochain(mc, 1, rng))
    assert not cocycle.is_zero() and sorted(mc.left._spaces) == [1, 2]
    with pytest.raises(HypothesisNotMet):  # past the cocycle check
        mc.vanishing_transfer_witness(2, cocycle)
    d2, rejected = mc.d_matrix(2), 0
    mc.left._spaces.pop(3)  # d_matrix's target, which the check must not rebuild
    for _ in range(10):
        c = random_morphism_cochain(mc, 2, rng)
        if any(x != 0 for x in matvec(d2, mc.coords(c))):
            with pytest.raises(ValueError, match="not a cocycle"):
                mc.vanishing_transfer_witness(2, c)
            rejected += 1
        assert sorted(mc.left._spaces) == [1, 2]
    assert rejected


def test_vanishing_transfer_reports_failed_hypotheses():
    mc = MorphismComplex(identity_morphism(leibniz_ff_e()))
    assert mc.left.cohomology_dim(2) == 1  # hypothesis fails here
    c = mc.from_coords(2, kernel_basis(mc.d_matrix(2)).vectors[0])
    with pytest.raises(HypothesisNotMet):
        mc.vanishing_transfer_witness(2, c)


def test_cochains_of_another_complex_are_refused():
    # both complexes have space_dims(1) == (4, 4, 0), so only the spaces tell them apart
    mc = MorphismComplex(identity_morphism(leibniz_ff_e()))
    other = MorphismComplex(identity_morphism(abelian_algebra(2, 2)))
    assert mc.space_dims(1) == other.space_dims(1) == (4, 4, 0)
    for p in (1, 2):
        c = other.from_coords(p, [1] * other.total_dim(p))
        with pytest.raises(ValueError, match="does not belong"):
            mc.differential(c)
        with pytest.raises(ValueError, match="does not belong"):
            mc.coords(c)
    with pytest.raises(ValueError, match="does not belong"):
        mc.vanishing_transfer_witness(2, c)
    # a complex of the same morphism has the same spaces and accepts them
    twin = MorphismComplex(identity_morphism(leibniz_ff_e()))
    c = twin.from_coords(2, [1] * twin.total_dim(2))
    assert mc.coords(c) == twin.coords(c)
    assert morphism_ambient(mc.differential(c)) == morphism_ambient(twin.differential(c))


def test_a_wrong_solve_fails_the_witness_verification(monkeypatch):
    mc = MorphismComplex(vanishing_pair())
    c = mc.from_coords(2, kernel_basis(mc.d_matrix(2)).vectors[0])
    assert not c.is_zero()
    exact = morphism_complex.solve

    def perturbed(m, b):
        x = exact(m, b)
        return [x[0] + 1] + x[1:]

    monkeypatch.setattr(morphism_complex, "solve", perturbed)
    with pytest.raises(RuntimeError, match="witness failed exact verification"):
        mc.vanishing_transfer_witness(2, c)


def test_push_pull_land_in_mixed_space():
    rng = random.Random(8)
    for phi in fixture_morphisms():
        mc = MorphismComplex(phi)
        for _ in range(3):
            u = random_cochain(mc.left.space(1), rng)
            v = random_cochain(mc.right.space(1), rng)
            # coords raises ConstraintViolation off the space
            mc.mixed.space(1).coords(sparse_vector(push_tensor(phi, u.coeffs, phi.source.dim)))
            mc.mixed.space(1).coords(sparse_vector(pull_tensor(phi, 1, v.coeffs)))


def battery_morphisms():
    """The fixture morphisms, then the distinct base morphisms of the deformation battery."""
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    phis = fixture_morphisms()
    for entry in load_json(os.path.join(fixtures, "deform_battery.json"))["entries"]:
        phi = parse_deformation(load_json(os.path.join(fixtures, entry["file"])), fixtures).phi
        if phi not in phis:
            phis.append(phi)
    return phis


def test_equal_summands_are_one_complex():
    # twist_endo shares C(L;L) with C(M;M) but not with the mixed C(L;M),
    # though its source and target are one algebra
    shared = collections.Counter()
    for phi in battery_morphisms():
        mc = MorphismComplex(phi)
        reps = adjoint_representation(phi.source), adjoint_representation(phi.target), pullback_representation(phi)
        assert (mc.right is mc.left) == (reps[1] == reps[0])
        assert (mc.mixed is mc.left) == (reps[2] == reps[0])
        shared[mc.right is mc.left, mc.mixed is mc.left] += 1
        fresh = MorphismComplex(phi)
        fresh.left, fresh.right, fresh.mixed = (
            CochainComplex(a, rep) for a, rep in zip((phi.source, phi.target, phi.source), reps)
        )
        for p in (1, 2, 3):
            assert (mc.rank(p), mc.cohomology_dim(p)) == (fresh.rank(p), fresh.cohomology_dim(p)), (phi, p)
    assert shared[True, True] and shared[True, False] and shared[False, False]

