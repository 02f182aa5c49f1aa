import random
from fractions import Fraction as Q

import pytest

from homleibniz.algebra import HomNaryAlgebra, adjoint_representation
from homleibniz.cochain import (
    CochainComplex,
    CochainSpace,
    ConstraintViolation,
    DEFAULT_CONVENTION,
    SignConvention,
    all_conventions,
    ambient_dim,
    coboundary_tensor,
    convention_passes,
    random_cochain,
    squares_to_zero,
)
from homleibniz.fixtures import (
    abelian_algebra,
    aff1,
    calibration_battery,
    diag,
    leibniz_ff_e,
    ternary_fff_e,
    twisted_ff_e,
    twisted_ternary_fff_e,
)
from oracles import classical_coboundary, dense_convention_passes, dense_restriction


def complex_for(a):
    return CochainComplex(a, adjoint_representation(a))


# ---------------------------------------------------------------------------
# dimensions and hand values


def test_untwisted_spaces_are_full_ambient():
    a = leibniz_ff_e()
    cc = complex_for(a)
    assert cc.space(1).dim == 4
    assert cc.space(2).dim == 8
    assert cc.space(3).dim == 16


def test_ff_e_degree_one_cohomology():
    # delta^1 has rank 2 on the 4-dimensional space of maps L -> L
    cc = complex_for(leibniz_ff_e())
    from homleibniz.linalg import rank

    assert rank(cc.delta(1)) == 2
    assert cc.cohomology_dim(1) == 2


def test_abelian_cohomology_is_everything():
    cc = complex_for(abelian_algebra(2, 2))
    assert cc.cohomology_dim(1) == 4
    assert cc.cohomology_dim(2) == 8


def test_twisted_constraint_cuts_the_space():
    # alpha = diag(4, 2): a compatible map L -> L must preserve the
    # eigenspaces, leaving only the two diagonal matrix units
    cc = complex_for(twisted_ff_e(2))
    assert cc.space(1).dim == 2
    assert cc.space(2).dim == 1


def test_twisted_ternary_space_dims():
    cc = complex_for(twisted_ternary_fff_e(2))
    assert cc.space(1).dim == 2
    assert cc.space(2).dim == 1


def test_constraint_violation_raised_for_incompatible_tensor():
    a = twisted_ff_e(2)
    space = CochainSpace(a, adjoint_representation(a), 1)
    off_diagonal = [Q(0), Q(1), Q(0), Q(0)]
    with pytest.raises(ConstraintViolation):
        space.coords(off_diagonal)
    assert not space.contains(off_diagonal)


def test_cochains_of_different_spaces_do_not_combine():
    a = leibniz_ff_e()
    rep = adjoint_representation(a)
    f = CochainSpace(a, rep, 1).zero()
    g = CochainSpace(a, rep, 1).zero()  # same shape, another space
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f - g
    assert (f + f).is_zero() and (f - f).is_zero()


# ---------------------------------------------------------------------------
# operator behaviour


def test_coboundary_is_linear():
    rng = random.Random(2)
    a = aff1()
    cc = complex_for(a)
    sp = cc.space(1)
    for _ in range(10):
        f = random_cochain(sp, rng)
        g = random_cochain(sp, rng)
        c = Q(rng.randint(-3, 3), rng.choice([1, 2]))
        lhs = cc.delta_ambient(1, [c * x + y for x, y in zip(f.coeffs, g.coeffs)])
        rhs = [
            c * x + y
            for x, y in zip(cc.delta_ambient(1, f.coeffs), cc.delta_ambient(1, g.coeffs))
        ]
        assert lhs == rhs


def test_operator_and_tensor_evaluation_agree():
    rng = random.Random(3)
    for a in (leibniz_ff_e(), twisted_ff_e(2), ternary_fff_e()):
        rep = adjoint_representation(a)
        cc = CochainComplex(a, rep)
        for p in (1, 2):
            f = [Q(rng.randint(-2, 2)) for _ in range(ambient_dim(a, rep, p))]
            assert cc.delta_ambient(p, f) == coboundary_tensor(a, rep, p, f)


def test_delta_squared_zero_on_matrices():
    for a in (leibniz_ff_e(), twisted_ff_e(2), aff1(), ternary_fff_e()):
        cc = complex_for(a)
        assert (cc.delta(2) @ cc.delta(1)).is_zero()


def test_degree_two_cohomology_regression_values():
    assert complex_for(leibniz_ff_e()).cohomology_dim(2) == 1
    assert complex_for(aff1()).cohomology_dim(2) == 0
    assert complex_for(twisted_ff_e(2)).cohomology_dim(2) == 0


# ---------------------------------------------------------------------------
# classical reduction (n = 2, alpha = id)


def test_pinned_convention_matches_classical_coboundary():
    rng = random.Random(4)
    for a in (leibniz_ff_e(), aff1(), abelian_algebra(2, 2)):
        rep = adjoint_representation(a)
        cc = CochainComplex(a, rep)
        for p in (1, 2):
            for _ in range(10):
                f = [Q(rng.randint(-3, 3)) for _ in range(ambient_dim(a, rep, p))]
                assert cc.delta_ambient(p, f) == classical_coboundary(a, p, f)


def test_degree_one_formula_by_hand():
    # (delta g)(z, x) = -g([z,x]) + [g(z),x] + [z,g(x)] for g: L -> L
    a = leibniz_ff_e()
    rep = adjoint_representation(a)
    cc = CochainComplex(a, rep)
    # g = matrix unit E_{00}: g(e) = e, g(f) = 0
    g = [Q(1), Q(0), Q(0), Q(0)]
    dg = cc.delta_ambient(1, g)
    # (delta g)(f, f) = -g([f,f]) + [g(f),f] + [f,g(f)] = -g(e) = -e
    # flat index of input (1,1), output 0 is (1*2+1)*2 + 0 = 6
    assert dg[6] == Q(-1)
    assert [x for i, x in enumerate(dg) if i != 6] == [Q(0)] * 7


# ---------------------------------------------------------------------------
# conventions


def test_convention_label_roundtrip():
    for conv in all_conventions():
        assert SignConvention.from_label(conv.label()) == conv
    with pytest.raises(ValueError):
        SignConvention.from_label("nonsense")


def test_sparse_certificate_agrees_with_the_dense_product():
    # battery members 0-2; the dense product takes about 46 s on member 7 alone
    passing = []
    for algebra, rep in calibration_battery()[:3]:
        spaces = {}
        sparse = [convention_passes(algebra, rep, cv, (1, 2), spaces) for cv in all_conventions()]
        dense = [
            dense_convention_passes(algebra, rep, cv, (1, 2), spaces) for cv in all_conventions()
        ]
        assert sparse == dense
        passing.append(sum(sparse))
    assert passing == [8, 8, 32]


def test_restriction_matches_the_dense_reference_on_the_battery():
    for algebra, rep in calibration_battery():
        cx = CochainComplex(algebra, rep)
        for p in (1, 2, 3):
            dense = dense_restriction(cx.operator(p), cx.space(p), cx.space(p + 1))
            assert cx.delta(p).entries == dense
            assert all(type(x) is Q for row in dense for x in row)


def test_calibration_rejects_an_image_outside_the_compatible_subspace():
    # [f,f]=e with alpha = diag(2,1) is not multiplicative: delta^1 leaves the
    # twist-compatible subspace although the ambient operators square to zero,
    # so only the restriction makes convention_passes reject a convention
    a = HomNaryAlgebra(2, 2, ("e", "f"), {(1, 1): {0: 1}}, diag(2, 1))
    rep = adjoint_representation(a)
    cx = CochainComplex(a, rep)
    with pytest.raises(ConstraintViolation):
        cx.delta(1)
    assert squares_to_zero(cx, 2) and squares_to_zero(cx, 3)
    assert not any(convention_passes(a, rep, cv) for cv in all_conventions())


def test_default_convention_is_all_plus():
    assert DEFAULT_CONVENTION.label() == "A+B+C+D+|xy|hat-twisted|c-full"
