from fractions import Fraction as Q

import pytest

from homleibniz.algebra import (
    HomNaryAlgebra,
    Morphism,
    Representation,
    adjoint_representation,
    check_hom_leibniz,
    check_morphism,
    check_multiplicative,
    check_representation,
    pullback_representation,
    yau_twist,
)
from homleibniz.fixtures import (
    aff1,
    abelian_algebra,
    battery_algebras,
    fixture_morphisms,
    identity_morphism,
    leibniz_ff_e,
    ternary_fff_e,
    twist_endomorphism,
    twisted_ff_e,
)
from homleibniz.linalg import Matrix
from homleibniz.morphism_complex import MorphismComplex


def test_all_fixture_algebras_satisfy_the_identities():
    for a in battery_algebras():
        assert check_hom_leibniz(a) == []
        assert check_multiplicative(a) == []


def test_invalid_bracket_is_reported_with_tuples():
    bad = HomNaryAlgebra(
        2, 2, ("e", "f"), {(0, 0): {1: Q(1)}, (1, 1): {0: Q(1)}}, Matrix.identity(2)
    )
    report = check_hom_leibniz(bad)
    assert report
    # e.g. [[e,e],e] = [f,e] = 0 but [[e,e],e]+[e,[e,e]] picks up [e,f] = 0... the
    # first failing tuple is recorded with its exact residual
    assert all(len(v.where) == 3 for v in report)
    assert report == sorted(report, key=lambda v: v.where)


def test_non_multiplicative_twist_is_reported():
    a = HomNaryAlgebra(
        2, 2, ("e", "f"), {(1, 1): {0: Q(1)}}, Matrix(2, 2, [[2, 0], [0, 1]])
    )
    assert check_multiplicative(a) != []


def test_adjoint_representation_satisfies_all_specializations():
    for a in (leibniz_ff_e(), twisted_ff_e(2), aff1(), ternary_fff_e()):
        assert check_representation(adjoint_representation(a)) == []


def test_pullback_representation_satisfies_all_specializations():
    for phi in fixture_morphisms():
        assert check_representation(pullback_representation(phi)) == []


def test_representation_check_evaluates_only_tuples_with_a_module_slot(monkeypatch):
    # L's own identity, on tuples with no module slot, is check_hom_leibniz's
    # work; the representation check accumulates no term there
    from homleibniz import algebra

    reps = [adjoint_representation(a) for a in battery_algebras()]
    reps += [pullback_representation(phi) for phi in fixture_morphisms()]
    keys, accumulate, seen = [], algebra._accumulate, 0

    def recording(out, key, c, combo):
        keys.append(key)
        accumulate(out, key, c, combo)

    monkeypatch.setattr(algebra, "_accumulate", recording)
    for rep in reps:
        keys.clear()
        assert check_representation(rep) == []
        assert all(max(key) >= rep.algebra.dim for key in keys)
        seen += len(keys)
    assert seen


def test_pullback_rejects_non_morphism():
    a = leibniz_ff_e()
    bad = Morphism(a, a, Matrix(2, 2, [[0, 1], [1, 0]]))
    assert check_morphism(bad) != []
    with pytest.raises(ValueError):
        pullback_representation(bad)
    with pytest.raises(ValueError):
        MorphismComplex(bad)


def test_fixture_morphisms_validate():
    for phi in fixture_morphisms():
        assert check_morphism(phi) == []


def test_twist_intertwining_failure_detected():
    src = twisted_ff_e(2)
    tgt = leibniz_ff_e()
    phi = Morphism(src, tgt, Matrix.identity(2))
    report = check_morphism(phi)
    assert any(v.identity == "twist-intertwining" for v in report)


def test_yau_twist_guards():
    with pytest.raises(ValueError):
        yau_twist(twisted_ff_e(2), Matrix.identity(2))  # already twisted
    with pytest.raises(ValueError):
        # swap is not an endomorphism of [f,f]=e
        yau_twist(leibniz_ff_e(), Matrix(2, 2, [[0, 1], [1, 0]]))


def test_yau_twist_bracket_and_alpha():
    a = twisted_ff_e(2)
    assert a.alpha == Matrix(2, 2, [[4, 0], [0, 2]])
    assert a.bracket == {(1, 1): {0: Q(4)}}
    assert check_hom_leibniz(a) == []


def test_twist_endomorphism_is_a_morphism():
    assert check_morphism(twist_endomorphism()) == []


def test_construction_guards():
    with pytest.raises(ValueError):
        HomNaryAlgebra(1, 2, ("e", "f"), {}, Matrix.identity(2))
    with pytest.raises(ValueError):
        HomNaryAlgebra(2, 2, ("e",), {}, Matrix.identity(2))
    for bad in ({(0, 0, 0): {0: Q(1)}}, {(0, 2): {0: 1}}, {(0, 0): {2: 1}}, {(-1, 0): {0: 1}}):
        with pytest.raises(ValueError):
            HomNaryAlgebra(2, 2, ("e", "f"), bad, Matrix.identity(2))
    with pytest.raises(ValueError):
        Morphism(leibniz_ff_e(), ternary_fff_e(), Matrix.identity(2))  # arity clash
    # action keys hold n-1 algebra slots of dim 2, then one module slot of dim 3
    a, m = ternary_fff_e(), Matrix.identity(3)
    assert Representation(a, 3, m, ({(1, 1, 2): {2: 1}}, {}, {})).actions[0] == {(1, 1, 2): {2: Q(1)}}
    for bad in ({(2, 0, 0): {0: 1}}, {(0, 0, 3): {0: 1}}, {(0, 0, 0): {3: 1}}, {(0, 0): {0: 1}}):
        with pytest.raises(ValueError):
            Representation(a, 3, m, ({}, bad, {}))


def test_zero_cells_are_dropped_after_conversion():
    e = Matrix.identity(2)
    with_zero = HomNaryAlgebra(2, 2, ("e", "f"), {(0, 0): {0: "0"}, (1, 1): {0: "1"}}, e)
    assert with_zero.bracket == {(1, 1): {0: Q(1)}}
    assert with_zero == HomNaryAlgebra(2, 2, ("e", "f"), {(1, 1): {0: "1"}}, e)
    assert HomNaryAlgebra(2, 2, ("e", "f"), {(1, 1): {0: "0/3", 1: "1/2"}}, e).bracket == {(1, 1): {1: Q(1, 2)}}


def test_abelian_identity_morphism_trivially_valid():
    assert check_morphism(identity_morphism(abelian_algebra(3, 2))) == []
