import collections
import dataclasses
import functools
import glob
import math
import os
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from homleibniz import cli, cochain
from homleibniz.algebra import (
    HomNaryAlgebra,
    Morphism,
    Representation,
    adjoint_representation,
    pullback_representation,
    yau_twist,
)
from homleibniz.documents import load_json, parse_algebra, parse_deformation, parse_morphism
from homleibniz.cochain import (
    Cochain,
    CochainComplex,
    CochainSpace,
    Columns,
    ConstraintViolation,
    DEFAULT_CONVENTION,
    SignConvention,
    SlotTables,
    all_conventions,
    ambient_dim,
    apply_sparse,
    calibration_report,
    coboundary_operator,
    convention_passes,
    input_length,
    restrict_operator,
    squares_to_zero,
)
from homleibniz.fixtures import (
    abelian_algebra,
    aff1,
    battery_algebras,
    calibration_battery,
    diag,
    fixture_morphisms,
    h3,
    h3_sheared,
    leibniz_ff_e,
    ternary_fff_e,
    twisted_aff1,
    twisted_ff_e,
    twisted_ternary_fff_e,
    vanishing_pair,
)
from homleibniz.linalg import Matrix, coords_in_basis, dense_vector, integral_rows, kernel_basis, rank, sparse_vector, transpose
from homleibniz.morphism_complex import MorphismComplex
from oracles import (
    action_tables_by_precompose,
    apply_operator,
    assert_kernel_born_in_ints,
    as_columns,
    blockwise_ambient,
    bracket_table_by_tuples,
    classical_coboundary,
    dense_convention_passes,
    dense_coords_in_basis,
    delta_ambient,
    dense_restriction,
    fraction_columns,
    fractions_made,
    generic_constraint_matrix,
    module_actions_by_precompose,
    per_input_constraint_rows,
    random_cochain,
    row_coboundary_operator,
    row_operators,
)


def complex_for(a):
    return CochainComplex(a, adjoint_representation(a))


BATTERY = calibration_battery()


@functools.lru_cache(maxsize=None)
def battery_row_operators(k, p):
    """The row oracle's delta^p of calibration battery member k, by convention."""
    return row_operators(*BATTERY[k], p)


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


def test_constraint_kernel_matches_the_per_input_oracle():
    cases = [(a, rep, 3) for a, rep in BATTERY]
    for a, top in ((h3_generic(), 4), (twisted_ternary_fff_e(2), 6), (twisted_aff1(2), 11), (h3_sheared(), 4)):
        cases.append((a, adjoint_representation(a), top))
    for a, rep, top in cases:
        for p in range(1, top + 1):
            space = CochainSpace(a, rep, p)
            rows = per_input_constraint_rows(a, rep, p)
            want = Matrix.from_rationals(rows, space.ambient)
            assert generic_constraint_matrix(a, rep, p).numerators() == want.numerators()
            ref = kernel_basis(want)
            assert space.basis.integral == ref.integral
            assert list(space.basis.unit_rows.items()) == list(ref.unit_rows.items())


def test_constraint_kernels_are_born_in_ints_as_the_fraction_rref_gave_them():
    inputs = list(calibration_battery()) + fractional_inputs()
    for a, rep in inputs:
        for p in (1, 2, 3):
            assert_kernel_born_in_ints(generic_constraint_matrix(a, rep, p))
    # h3 twisted by diag(2, 3, 6): C^3's constraint has rank 81 and no free
    # column, so its kernel basis is built without a Fraction
    a = yau_twist(h3(), diag(2, 3, 6))
    assert CochainSpace(a, adjoint_representation(a), 3).dim == 0
    m = generic_constraint_matrix(a, adjoint_representation(a), 3)
    assert rank(m) == m.cols == 81
    with fractions_made() as made:
        assert Q(1, 2) + Q(1, 3) == Q(5, 6) and made  # the counter sees construction
        made.clear()
        kernel_basis(m)
    assert made == []


def test_constraint_violation_raised_for_incompatible_tensor():
    a = twisted_ff_e(2)
    space = CochainSpace(a, adjoint_representation(a), 1)
    off_diagonal = {1: Q(1)}
    with pytest.raises(ConstraintViolation):
        space.coords(off_diagonal)
    with pytest.raises(ConstraintViolation):
        Cochain(space, off_diagonal)


def test_from_coords_refuses_a_coordinate_list_of_the_wrong_length():
    space = complex_for(leibniz_ff_e()).space(1)
    assert space.dim == 4
    for length in (3, 5):
        with pytest.raises(ValueError, match="coordinate length"):
            space.from_coords([Q(1)] * length)
    assert space.from_coords([Q(1)] * 4).coeffs == [Q(1)] * 4


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
        lhs = delta_ambient(cc, 1, [c * x + y for x, y in zip(f.coeffs, g.coeffs)])
        rhs = [
            c * x + y
            for x, y in zip(delta_ambient(cc, 1, f.coeffs), delta_ambient(cc, 1, g.coeffs))
        ]
        assert lhs == rhs


def test_operator_and_tensor_evaluation_agree():
    # delta_ambient on full-ambient tensors, twist-compatible or not, against the row oracle
    rng = random.Random(3)
    for a in (leibniz_ff_e(), twisted_ff_e(2), ternary_fff_e()):
        rep = adjoint_representation(a)
        cc = CochainComplex(a, rep)
        for p in (1, 2):
            f = [Q(rng.randint(-2, 2)) for _ in range(ambient_dim(a, rep, p))]
            reference = as_columns(row_coboundary_operator(a, rep, p), len(f))
            assert delta_ambient(cc, p, f) == apply_operator(reference, f, ambient_dim(a, rep, p + 1))


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
                assert delta_ambient(cc, p, f) == classical_coboundary(a, p, f)


def test_degree_one_formula_by_hand():
    # (delta g)(z, x) = -g([z,x]) + [g(z),x] + [z,g(x)] for g: L -> L
    a = leibniz_ff_e()
    rep = adjoint_representation(a)
    cc = CochainComplex(a, rep)
    # g = matrix unit E_{00}: g(e) = e, g(f) = 0
    g = [Q(1), Q(0), Q(0), Q(0)]
    dg = delta_ambient(cc, 1, g)
    # (delta g)(f, f) = -g([f,f]) + [g(f),f] + [f,g(f)] = -g(e) = -e
    # flat index of input (1,1), output 0 is (1*2+1)*2 + 0 = 6
    assert dg[6] == Q(-1)
    assert [x for i, x in enumerate(dg) if i != 6] == [Q(0)] * 7


# ---------------------------------------------------------------------------
# conventions


def test_convention_label_roundtrip():
    labels = [conv.label() for conv in all_conventions()]
    assert len(set(labels)) == 128
    for conv, label in zip(all_conventions(), labels):
        assert SignConvention.from_label(label) == conv
    refused = ["nonsense", None, 3, "", labels[0][:-1], labels[0] + " ", "a" + labels[0][1:]]
    assert labels[0].startswith("A+")
    for label in refused:
        with pytest.raises(ValueError, match="cannot parse convention label"):
            SignConvention.from_label(label)


def test_sparse_certificate_agrees_with_the_dense_product():
    # battery members 0-2; the dense product takes about 46 s on member 7 alone
    passing = []
    for k, (algebra, rep) in enumerate(BATTERY[:3]):
        base = CochainComplex(algebra, rep)
        sparse = [convention_passes(base.with_convention(cv)) for cv in all_conventions()]
        row = lambda p, cv: battery_row_operators(k, p)(cv)  # noqa: E731
        dense = [dense_convention_passes(base.with_convention(cv), row) for cv in all_conventions()]
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
        cx.rank(1)  # certified on the images, without C^2's space
    assert 2 not in cx._spaces
    with pytest.raises(ConstraintViolation):
        cx.delta(1)
    assert squares_to_zero(cx, 2) and squares_to_zero(cx, 3)
    assert not any(convention_passes(cx.with_convention(cv)) for cv in all_conventions())


def test_convention_flags_must_be_bools():
    # 2 would label itself yx and 'no' hat-twisted, yet neither equals that convention
    for flags in ({"bracket_y_first": 2}, {"twist_after_hat": "no"}, {"c_full_range": 1}, {"c_full_range": None}):
        with pytest.raises(ValueError, match="flags must be True or False"):
            SignConvention(**flags)
    for bad in (0, 2, "+"):
        with pytest.raises(ValueError, match="signs must be"):
            SignConvention(sign_c=bad)
    assert SignConvention(-1, 1, 1, 1, True, False, False).label() == "A-B+C+D+|yx|hat-bare|c-short"


def test_default_convention_is_all_plus():
    assert DEFAULT_CONVENTION.label() == "A+B+C+D+|xy|hat-twisted|c-full"


def test_the_algebra_tables_are_built_once_per_algebra(monkeypatch):
    # alpha, abar and mu read the algebra alone, and a bracket order only the
    # algebra and bracket_y_first: every degree, every convention sibling and
    # both summand complexes over a morphism's source share one build
    built, orders = [], []
    build_tables, build_bracket = cochain._algebra_tables, cochain._bracket_rows

    def counting_tables(a):
        built.append(id(a))
        return build_tables(a)

    def counting_bracket(t, yf):
        orders.append((id(t.algebra), yf))
        return build_bracket(t, yf)

    monkeypatch.setattr(cochain, "_algebra_tables", counting_tables)
    monkeypatch.setattr(cochain, "_bracket_rows", counting_bracket)
    twisted = yau_twist(h3(), diag(2, 3, 6))
    cx = CochainComplex(twisted, adjoint_representation(twisted))
    for p in (1, 2, 3, 4):
        cx.cohomology_dim(p)
    assert cx._tables.keys() == {1, 2, 3, 4}
    member, rep = calibration_battery()[1]  # twisted_aff1(2), with a fresh memo
    base = CochainComplex(member, rep)
    verdicts = [convention_passes(base.with_convention(cv)) for cv in all_conventions()]
    assert any(verdicts) and not all(verdicts)
    phi = vanishing_pair()
    mc = MorphismComplex(phi)
    assert mc.mixed is not mc.left and mc.mixed.algebra is mc.left.algebra is phi.source
    for p in (1, 2, 3):
        mc.cohomology_dim(p)
    algebras = [twisted, member, phi.source, phi.target]
    assert sorted(built) == sorted(map(id, algebras))
    assert len(orders) == len(set(orders)) and {(id(member), False), (id(member), True)} <= set(orders)
    assert all(t.mu is twisted.power_rows["slots"][2] for t in cx._tables.values())


def test_alpha_powers_are_built_once_per_algebra(monkeypatch, capsys):
    # the action tables read alpha^{p-1}'s rows from the algebra's memo, where
    # each power is one product past the one before: no Matrix.power call in a
    # deform extend, one product per exponent per algebra, and the rows and
    # den are the ones Matrix.power gives
    powers, products = [], []
    power, matmul = Matrix.power, Matrix.__matmul__

    def counting_power(m, k):
        powers.append(k)
        return power(m, k)

    def counting_matmul(m, other):
        products.append((m, other))
        return matmul(m, other)

    monkeypatch.setattr(Matrix, "power", counting_power)
    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "deform", "d05.json")
    assert cli.main(["deform", "extend", fixture, "--order", "2"]) in (0, 1)
    assert "order 2" in capsys.readouterr().out and powers == []
    phi = vanishing_pair()
    mc = MorphismComplex(phi)
    for p in (1, 2, 3, 4):
        mc.cohomology_dim(p)
    assert powers == []
    monkeypatch.undo()
    # left and mixed over the source read alpha^0..alpha^3, right over the target too
    for a in (phi.source, phi.target):
        memo = a.power_rows["power"]
        assert sum(m is memo[j] and other is a.alpha for m, other in products for j in range(len(memo))) == 3
        assert [m.numerators() for m in memo] == [a.alpha.power(j).numerators() for j in range(4)]


def test_a_convention_sibling_shares_the_spaces_and_tables():
    a, rep = BATTERY[1]
    cx = CochainComplex(a, rep)
    cv = SignConvention.from_label("A-B-C-D-|xy|hat-bare|c-full")
    sibling = cx.with_convention(cv)
    assert (sibling.algebra, sibling.rep, sibling.convention) == (a, rep, cv)
    assert sibling._spaces is cx._spaces and sibling._tables is cx._tables
    assert sibling._constraints is cx._constraints
    assert sibling._operators is not cx._operators and sibling._matrices is not cx._matrices
    sibling.delta(1)  # what the sibling builds, the parent reads
    assert cx._spaces.keys() == {1, 2} and cx._tables.keys() == {1}
    assert cx.operator(1) is not sibling.operator(1)


def test_calibration_builds_the_slot_tables_once_per_member_and_degree(monkeypatch):
    battery = calibration_battery()
    members = {id(rep): k for k, (_, rep) in enumerate(battery)}
    assert len(members) == len(battery)
    built = []
    init = SlotTables.__init__

    def counting(self, algebra, rep, p):
        built.append((members[id(rep)], p))
        init(self, algebra, rep, p)

    monkeypatch.setattr(SlotTables, "__init__", counting)
    passing = calibration_report(battery)
    assert sorted(built) == [(k, p) for k in range(len(battery)) for p in (1, 2, 3)]
    assert sorted(cv.label() for cv in passing) == [
        "A+B+C+D+|xy|hat-bare|c-full",
        "A+B+C+D+|xy|hat-twisted|c-full",
        "A-B-C-D-|xy|hat-bare|c-full",
        "A-B-C-D-|xy|hat-twisted|c-full",
    ]


def group_flags(cv):
    """The keys of the term groups A, B, C, D that cv selects: the flags each reads."""
    return [("A", cv.bracket_y_first, cv.twist_after_hat), ("B",), ("C", cv.c_full_range), ("D",)]


def test_calibration_builds_each_term_group_column_once(monkeypatch):
    battery = calibration_battery()
    members = {id(rep): k for k, (_, rep) in enumerate(battery)}
    built, calls, operators, checks = collections.Counter(), [], [], collections.Counter()
    term_groups, operator, passes = cochain._term_groups, cochain.coboundary_operator, cochain.convention_passes

    def counting(t, cv, groups, todo):
        calls.append((members[id(t.rep)], t.p))
        for key, want in zip(group_flags(cv), todo):
            built.update((members[id(t.rep)], t.p, key, j) for j in want)
        term_groups(t, cv, groups, todo)

    def operators_counted(*args, **kwargs):
        operators.append(args)
        return operator(*args, **kwargs)

    def checks_counted(cx):
        checks[members[id(cx.rep)]] += 1
        return passes(cx)

    monkeypatch.setattr(cochain, "_term_groups", counting)
    monkeypatch.setattr(cochain, "coboundary_operator", operators_counted)
    monkeypatch.setattr(cochain, "convention_passes", checks_counted)
    passing = calibration_report(battery)
    assert built and max(built.values()) == 1
    # member 0 sees all 128 conventions, but alpha = id there, so its 32
    # representatives are hat-twisted and never read the hat-bare A groups
    keys = {key for cv in all_conventions() for key in group_flags(cv)}
    bare = {("A", yf, False) for yf in (False, True)}
    assert len(keys) == 8 and {key for k, _, key, _ in built if k == 0} == keys - bare
    # one check per distinct delta: sign pairs, and both hat flags where alpha = id
    assert [checks[k] for k in range(len(battery))] == [32, 4, 2, 2, 2, 1, 2, 1]
    # B, C and D do not read the bracket order, so both orders share their columns
    assert len(operators) == 103 and len(calls) == 43
    assert len(passing) == 4


def sign_flipped(cv):
    return dataclasses.replace(cv, sign_a=-cv.sign_a, sign_b=-cv.sign_b, sign_c=-cv.sign_c, sign_d=-cv.sign_d)


def hat_flipped(cv):
    return dataclasses.replace(cv, twist_after_hat=not cv.twist_after_hat)


def test_negated_signs_negate_delta_and_the_hat_flag_is_inert_when_alpha_is_id():
    inputs = list(BATTERY)
    for phi in fixture_morphisms():
        inputs += [(phi.source, pullback_representation(phi)), (phi.source, adjoint_representation(phi.source))]
    trivial = Representation(aff1(), 2, diag(2, 3), ({}, {}))  # alpha_M != id over alpha = id
    inputs.append((trivial.algebra, trivial))
    conventions, untwisted = list(all_conventions()), 0
    for a, rep in inputs:
        for p in (1, 2, 3):
            t, cols = SlotTables(a, rep, p), range(ambient_dim(a, rep, p))
            op = {cv: coboundary_operator(t, cols, cv) for cv in conventions}
            for cv in conventions:
                assert op[sign_flipped(cv)] == {j: [(r, -x) for r, x in col] for j, col in op[cv].items()}
                if a.untwisted:
                    assert op[hat_flipped(cv)] == op[cv]
            untwisted += a.untwisted and any(op.values())
    assert untwisted >= 20


def test_each_convention_takes_its_representatives_verdict_and_no_more():
    for a, rep in BATTERY:
        base = CochainComplex(a, rep)
        for cv in all_conventions():
            key = cochain._representative(cv, a.untwisted)
            assert key.sign_a == 1 and key.twist_after_hat == (cv.twist_after_hat or a.untwisted)
            assert convention_passes(base.with_convention(cv)) == convention_passes(base.with_convention(key))
    # guards: on the twisted members the hat flag moves delta^3, so the key keeps it
    twisted = [(a, rep) for a, rep in BATTERY if not a.untwisted]
    assert len(twisted) == 4
    for a, rep in twisted:
        t, cols = SlotTables(a, rep, 3), range(ambient_dim(a, rep, 3))
        for cv in all_conventions():
            assert coboundary_operator(t, cols, cv) != coboundary_operator(t, cols, hat_flipped(cv))
            assert cochain._representative(cv, False) != cochain._representative(hat_flipped(cv), False)
    # and on member 0, c_full_range splits 8 pairs of verdicts: a key without it would merge them
    a, rep = BATTERY[0]
    base = CochainComplex(a, rep)
    verdict = {cv: convention_passes(base.with_convention(cv)) for cv in all_conventions()}
    split = [cv for cv in verdict if verdict[cv] != verdict[dataclasses.replace(cv, c_full_range=not cv.c_full_range)]]
    assert len(split) == 16
    assert all(cochain._representative(cv, True).c_full_range == cv.c_full_range for cv in split)


def test_calibration_filters_a_custom_list_in_its_order():
    lone = [SignConvention.from_label("A-B-C-D-|xy|hat-bare|c-full")]
    assert cochain._representative(lone[0], True) != lone[0]  # checked, yet not in the list
    got = calibration_report(BATTERY, lone)
    assert len(got) == 1 and got[0] is lone[0]
    conventions = list(all_conventions())
    random.Random(27).shuffle(conventions)
    expected = [cv for cv in conventions if all(convention_passes(CochainComplex(a, rep, cv)) for a, rep in BATTERY)]
    got = calibration_report(BATTERY, conventions)
    assert len(got) == len(expected) == 4 and all(g is e for g, e in zip(got, expected))


def test_shared_term_groups_match_a_fresh_build_and_the_row_oracle():
    rng = random.Random(20)
    inputs = [(a, rep, functools.partial(battery_row_operators, k)) for k, (a, rep) in enumerate(BATTERY)]
    inputs += [(a, rep, functools.partial(row_operators, a, rep)) for a, rep in fractional_inputs()]
    conventions = list(all_conventions())
    for a, rep, oracle in inputs:
        for p in (1, 2, 3):
            t, size, row_op = SlotTables(a, rep, p), ambient_dim(a, rep, p), oracle(p)
            rng.shuffle(conventions)
            seen = []
            for cv in conventions if p < 3 else conventions[:24]:
                cols = rng.sample(range(size), rng.randint(1, min(size, 12)))
                cols += rng.sample(seen, min(len(seen), 3))  # columns read before, some twice in this list
                seen = sorted(set(seen + cols))
                shared = coboundary_operator(t, cols, cv)
                assert shared == coboundary_operator(SlotTables(a, rep, p), cols, cv)
                assert fraction_columns(shared, t.q) == row_op(cv, sorted(set(cols)))


# ---------------------------------------------------------------------------
# the column-by-column assembly against the row-driven oracle


def h3_generic():
    return yau_twist(h3(), diag(2, 3, 6))


DEGREE_3_CONVENTIONS = [
    # the four survivors, then non-survivors with yx, hat-bare and c-short
    "A+B+C+D+|xy|hat-twisted|c-full",
    "A+B+C+D+|xy|hat-bare|c-full",
    "A-B-C-D-|xy|hat-twisted|c-full",
    "A-B-C-D-|xy|hat-bare|c-full",
    "A+B+C+D+|yx|hat-twisted|c-full",
    "A+B+C+D+|xy|hat-bare|c-short",
    "A-B+C-D+|yx|hat-bare|c-short",
    "A+B-C+D-|yx|hat-twisted|c-short",
]


def test_column_assembly_matches_the_row_oracle():
    for k, (a, rep) in enumerate(BATTERY):
        for p in (1, 2):
            t = SlotTables(a, rep, p)  # shared across conventions
            for cv in all_conventions():
                cols = coboundary_operator(t, range(ambient_dim(a, rep, p)), cv)
                assert fraction_columns(cols, t.q) == battery_row_operators(k, p)(cv)
                assert all(type(x) is int for col in cols.values() for _, x in col)
            # the linear reading of the oracle, checked at a convention it did not build
            cv = SignConvention.from_label("A-B+C-D-|yx|hat-bare|c-short")
            assert battery_row_operators(k, p)(cv) == row_coboundary_operator(a, rep, p, cv)
        t = SlotTables(a, rep, 3)
        for label in DEGREE_3_CONVENTIONS:
            cv = SignConvention.from_label(label)
            cols = coboundary_operator(t, range(ambient_dim(a, rep, 3)), cv)
            assert fraction_columns(cols, t.q) == battery_row_operators(k, 3)(cv)
    for a, top in ((h3_generic(), 3), (twisted_ternary_fff_e(2), 4), (twisted_aff1(2), 6)):
        rep = adjoint_representation(a)
        for p in range(1, top + 1):
            t = SlotTables(a, rep, p)
            cols = coboundary_operator(t, range(ambient_dim(a, rep, p)))
            assert fraction_columns(cols, t.q) == row_coboundary_operator(a, rep, p)
    for phi in fixture_morphisms():
        # d^p (u, v, w) = (delta u, delta v, phi.u - v.phi - delta w), with the row oracle's delta
        mc = MorphismComplex(phi)
        row_ops = {}

        def delta(cx, p, vec):
            if (id(cx), p) not in row_ops:
                row_ops[id(cx), p] = as_columns(row_coboundary_operator(cx.algebra, cx.rep, p), len(vec))
            return apply_operator(row_ops[id(cx), p], vec, ambient_dim(cx.algebra, cx.rep, p + 1))

        for p in (1, 2, 3):
            au, av, aw = mc.ambient_dims(p)
            for j in range(au + av + aw):
                e = [Q(int(i == j)) for i in range(au + av + aw)]
                blockwise = blockwise_ambient(mc, p, e[:au], e[au : au + av], e[au + av :], delta)
                assert apply_operator(mc.operator(p), e, len(blockwise)) == blockwise


def fractional_inputs():
    """(algebra, rep) pairs on which every SlotTables table carries a denominator.

    The last rep satisfies no identity, which delta^p does not need; its two
    actions carry the primes 5 and 7, which no other table of it does."""
    twisted = yau_twist(h3(), diag(Q(1, 2), Q(2, 3), Q(1, 3)))
    half = yau_twist(h3(Q(1, 2)), diag(Q(3, 2), Q(1, 5), Q(3, 10)))
    phi = Morphism(twisted, twisted, diag(Q(1, 2), 3, Q(3, 2)))
    actions = ({(0, 0): {1: Q(1, 5)}, (2, 1): {0: Q(2, 5)}}, {(1, 0): {0: Q(3, 7)}, (2, 1): {1: Q(-1, 7)}})
    coprime = Representation(twisted, 2, diag(Q(1, 2), Q(1, 3)), actions)
    return [(a, adjoint_representation(a)) for a in (twisted, half)] + [
        (twisted, pullback_representation(phi)), (twisted, coprime)]


def slot_tables(t):
    """{name: (rows, the key of its den in t.den)} for the tables of the
    SlotTables t, each bracket order read through its lazy builder."""
    tables = {name: (getattr(t, name), name) for name in ("alpha", "abar", "mu")}
    tables.update({name: (getattr(t, name), "action") for name in ("action_c", "action_d")})
    tables.update({("bracket", yf): (t.bracket_rows(yf), "bracket") for yf in (False, True)})
    return tables


def test_int_slot_tables_assemble_the_row_oracle_on_fractional_inputs():
    for a, rep in fractional_inputs():
        for p in (1, 2, 3):
            t, n, den_a = SlotTables(a, rep, p), a.arity, a.alpha.den
            # the bracket orders and the actions are over the den of the products they are built from
            den_act = math.lcm(*(x.denominator for action in rep.actions for out in action.values() for x in out.values()))
            products = {"bracket": t.den["mu"] * den_a ** (n - 2), "action": den_act * den_a ** ((n - 1) * (p - 1))}
            for name, (rows, key) in slot_tables(t).items():
                den = t.den[key]
                assert den > 1, name
                assert all(type(e[-1]) is int and e[-1] for row in rows for e in row), name
                # alpha, abar and mu are over exactly the lcm of their table's denominators, no multiple of it
                lcm = math.lcm(*{Q(e[-1], den).denominator for row in rows for e in row})
                assert den == products.get(key, lcm) and den % lcm == 0, name
            row_op = row_operators(a, rep, p)
            labels = [cv.label() for cv in all_conventions()] if p < 3 else DEGREE_3_CONVENTIONS
            fractional = 0
            for label in labels:
                cv = SignConvention.from_label(label)
                cols = coboundary_operator(t, range(ambient_dim(a, rep, p)), cv)
                assert all(type(x) is int for col in cols.values() for _, x in col)
                cols = fraction_columns(cols, t.q)
                assert cols == row_op(cv), (p, label)
                fractional += sum(x.denominator > 1 for col in cols.values() for _, x in col)
            assert fractional


def test_slot_tables_and_term_groups_construct_no_fraction():
    # fractional twists and actions, the fractional shear, and one draw of
    # the twisted workload's diagonal twists: every table and both bracket
    # orders are built from the algebra's int numerators
    rng = random.Random(1)
    u, v = rng.sample([2, 3, 5, 7], 2)
    s = rng.randint(2, 7)
    drawn = [yau_twist(h3(), diag(u, v, u * v)), twisted_ternary_fff_e(s), twisted_aff1(s)]
    inputs = fractional_inputs() + [fractional_shear()] + [(a, adjoint_representation(a)) for a in drawn]
    for a, rep in inputs:
        for p in (1, 2, 3, 4):
            cols = range(ambient_dim(a, rep, p))
            a.power_rows.clear()  # so that this degree builds the algebra's tables too
            with fractions_made() as made:
                assert Q(1, 2) + Q(1, 3) == Q(5, 6) and made  # the counter sees construction
                made.clear()
                t = SlotTables(a, rep, p)
                coboundary_operator(t, cols)
                assert a.power_rows["bracket"].keys() == {False}  # one convention builds one bracket order
                for cv in all_conventions():
                    coboundary_operator(t, cols, cv)
            assert made == [], (a.basis, p)
            assert a.power_rows["bracket"].keys() == {False, True} and len(t.groups) == 8


def random_bracket_algebra(rng, arity, dim):
    """An arity-n bracket with a few random entries and a random rational alpha
    with off-diagonal entries; no identity holds, which the tables do not need."""
    frac = lambda: Q(rng.randint(-3, 3), rng.randint(1, 4))  # noqa: E731
    keys = {tuple(rng.randrange(dim) for _ in range(arity)) for _ in range(4)}
    bracket = {K: {rng.randrange(dim): frac()} for K in keys}
    alpha = Matrix(dim, dim, [[frac() for _ in range(dim)] for _ in range(dim)])
    return HomNaryAlgebra(arity, dim, tuple(f"e{i}" for i in range(dim)), bracket, alpha)


def test_bracket_table_from_the_support_matches_the_all_pairs_oracle():
    rng = random.Random(12)
    algebras = [a for a, _ in BATTERY + fractional_inputs()]
    algebras += [phi.target for phi in fixture_morphisms()] + [h3_sheared()]
    algebras += [random_bracket_algebra(rng, arity, dim) for arity, dim in ((2, 3), (3, 2), (3, 3), (4, 2))]
    # 1-dim, [e, .., e] = 3/2 e and alpha = (2): each of the n - 1 slots adds (3/2) 2^(n-2)
    lines = {n: HomNaryAlgebra(n, 1, ("e",), {(0,) * n: {0: Q(3, 2)}}, Matrix(1, 1, [[2]])) for n in (2, 3, 7, 50)}
    for a in algebras + list(lines.values()):
        t = SlotTables(a, adjoint_representation(a), 1)
        for yf in (False, True):
            rows, den = t.bracket_rows(yf), t.den["bracket"]
            table = {(Y, X, X2): Q(c, den) for Y, row in enumerate(rows) for X, X2, c in row}
            assert len(table) == sum(map(len, rows))
            assert table == bracket_table_by_tuples(a, yf)
    for n, a in lines.items():
        t = SlotTables(a, adjoint_representation(a), 1)
        for yf in (False, True):
            den = t.den["bracket"]
            closed = [[(0, 0, (n - 1) * Q(3, 2) * 2 ** (n - 2))]]
            assert [[(X, X2, Q(c, den)) for X, X2, c in row] for row in t.bracket_rows(yf)] == closed


def fixture_documents():
    """(algebras, morphisms) of the documents under fixtures/, a deformation
    giving its morphism, in path order."""
    algebras, morphisms = [], []
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    for path in sorted(glob.glob(os.path.join(fixtures, "**", "*.json"), recursive=True)):
        obj, base = load_json(path), os.path.dirname(path)
        if "xi" in obj:
            morphisms.append(parse_deformation(obj, base).phi)
        elif "source" in obj:
            morphisms.append(parse_morphism(obj, base))
        elif "bracket" in obj:
            algebras.append(parse_algebra(obj))
    return algebras, morphisms


def action_map(table, den):
    """{(mf, *entry but its coeff): the sum of its coeffs over den} of an
    action table, zero sums dropped: the view in which a table that merges
    equal entries and one that does not compare."""
    out = {}
    for mf, entries in enumerate(table):
        for *key, c in entries:
            out[mf, *key] = out.get((mf, *key), 0) + Q(c, den)
    return {key: x for key, x in out.items() if x}


def test_action_builders_match_the_precompose_path():
    # adjoint actions re-key the bracket, and the slot tables place each
    # action's support through the rows of alpha^{p-1}; on the fixture corpus
    # and the battery both must equal the tensors the precompose path builds
    algebras, morphisms = fixture_documents()
    algebras, morphisms = battery_algebras() + algebras, fixture_morphisms() + morphisms
    reps = []
    for a in algebras:
        reps.append(adjoint_representation(a))
        assert reps[-1].actions == module_actions_by_precompose(a.bracket, a.arity)
    for phi in morphisms:
        reps.append(pullback_representation(phi))
        assert reps[-1].actions == module_actions_by_precompose(phi.target.bracket, phi.target.arity, phi.matrix)
    cases = collections.Counter()
    for rep in reps:
        a = rep.algebra
        for p in (1, 2, 3):
            t = SlotTables(a, rep, p)
            action_c, action_d, den = action_tables_by_precompose(a, rep, p)
            assert action_map(t.action_c, t.den["action"]) == action_map(action_c, den["action_c"])
            assert action_map(t.action_d, t.den["action"]) == action_map(action_d, den["action_d"])
            if any(t.action_c) and any(t.action_d):
                cases["p = 1"] += p == 1
                cases["alpha = id"] += a.untwisted
                cases["diagonal twist"] += p > 1 and a.diagonal and not a.untwisted
                cases["non-diagonal twist"] += p > 1 and not a.diagonal
    # one path for every case: alpha^{p-1} = id, diagonal and not
    assert len(reps) > 60 and len(cases) == 4 and all(cases.values())


def row_passes(k, cx):
    """convention_passes on cx, a complex of battery member k, with the row
    oracle's operators in place of its own."""
    for p in (1, 2, 3):
        size = ambient_dim(cx.algebra, cx.rep, p)
        cx._operators[p] = as_columns(battery_row_operators(k, p)(cx.convention), size)
    return convention_passes(cx)


def test_unbuilt_columns_never_read_as_zero():
    rng = random.Random(11)
    nonzero = 0
    for k, (a, rep) in enumerate(BATTERY):
        cx = CochainComplex(a, rep)
        for p in (1, 2, 3):
            cx.delta(p)  # builds the columns on the support of C^p's basis
            support = {j for v, _ in cx.space(p).basis.integral[0] for j in v}
            off = [j for j in range(ambient_dim(a, rep, p)) if j not in support]
            reference = as_columns(battery_row_operators(k, p)(DEFAULT_CONVENTION), ambient_dim(a, rep, p))
            for _ in range(3):
                f = [Q(0)] * ambient_dim(a, rep, p)
                for j in rng.sample(off, min(len(off), 4)):
                    f[j] = Q(rng.randint(-3, 3), rng.randint(1, 3))
                expected = apply_operator(reference, f, ambient_dim(a, rep, p + 1))
                assert delta_ambient(cx, p, f) == expected
                nonzero += any(expected)
    assert nonzero >= 20
    # battery member 1, aff1 twisted by diag(2, 1), rejects this convention
    a, rep = BATTERY[1]
    assert not convention_passes(CochainComplex(a, rep, SignConvention.from_label("A+B-C+D+|xy|hat-twisted|c-full")))
    for k, (a, rep) in enumerate(BATTERY):
        base = CochainComplex(a, rep)
        column = {cv for cv in all_conventions() if convention_passes(base.with_convention(cv))}
        assert column == {cv for cv in all_conventions() if row_passes(k, base.with_convention(cv))}


# ---------------------------------------------------------------------------
# the restriction in ints against the dense oracles


def fractional_shear():
    """h3 Yau-twisted by a fractional shear: unlike the diagonal twists of
    fractional_inputs, whose bases are integral, its cochain bases carry
    denominators in degrees 1..4."""
    a = yau_twist(h3(), Matrix(3, 3, [[Q(1, 2), Q(1, 3), 0], [0, 2, 0], [0, 0, 1]]))
    return a, adjoint_representation(a)


RESTRICTION_INPUTS = fractional_inputs() + [fractional_shear()]
RESTRICTION_COMPLEXES = [CochainComplex(a, rep) for a, rep in RESTRICTION_INPUTS]  # their spaces and tables are shared by the examples


def perturbed(op, j, row, eps):
    """The Columns op with eps added to its entry at (row, column j), over
    op.den times eps's denominator."""
    def build(js):
        built = op.read(js)
        cols = {i: [(r, x * eps.denominator) for r, x in built[i]] for i in js if built[i]}
        if j in js:
            col = dict(cols.get(j, []))
            col[row] = col.get(row, 0) + eps.numerator * op.den
            cols[j] = sorted((r, x) for r, x in col.items() if x)
        return cols

    return Columns(build, op.size, op.den * eps.denominator)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(RESTRICTION_INPUTS) - 1),
    st.integers(1, 3),
    st.sampled_from([cv.label() for cv in all_conventions()]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
    st.randoms(use_true_random=False),
)
@example(len(RESTRICTION_INPUTS) - 1, 2, DEFAULT_CONVENTION.label(), Q(2, 7), random.Random(0))
@example(len(RESTRICTION_INPUTS) - 1, 3, DEFAULT_CONVENTION.label(), Q(-1, 3), random.Random(1))
def test_int_restriction_matches_the_dense_oracles(k, p, label, eps, rnd):
    cx = RESTRICTION_COMPLEXES[k].with_convention(SignConvention.from_label(label))
    source, target, op = cx.space(p), cx.space(p + 1), cx.operator(p)
    if k == len(RESTRICTION_INPUTS) - 1:
        assert any(d > 1 for _, d in source.basis.integral[0])
        assert any(d > 1 for _, d in target.basis.integral[0])

    # the restricted matrix: equal dicts, every entry a Fraction, or both refuse
    try:
        want = dense_restriction(op, source, target)
    except ConstraintViolation:
        with pytest.raises(ConstraintViolation):
            restrict_operator(op, [source], [target])
    else:
        got = restrict_operator(op, [source], [target])
        assert [got.row(i) for i in range(got.rows)] == [sparse_vector(row) for row in want]
        assert all(type(x) is Q for i in range(got.rows) for x in got.row(i).values())

    # coordinates of a rational combination of the target basis, and of it moved off the span
    coords = {j: Q(rnd.randint(-3, 3), rnd.randint(1, 5)) for j in range(target.dim)}
    inside = target.basis.combination({j: c for j, c in coords.items() if c})
    (nums,), den = integral_rows([inside])
    got = coords_in_basis(target.basis, nums)
    assert all(type(x) is int for x in got.values())
    got = {j: Q(x, den) for j, x in got.items()}
    assert got == {j: c for j, c in coords.items() if c}
    assert got == sparse_vector(dense_coords_in_basis(target.basis, dense_vector(inside, target.ambient)))
    off = [r for r in range(target.ambient) if r not in target.basis.unit_rows]
    if off:
        row = rnd.choice(off)
        moved = dict(inside)
        moved[row] = moved.get(row, 0) + eps
        assert coords_in_basis(target.basis, integral_rows([moved])[0][0]) is None
        assert dense_coords_in_basis(target.basis, dense_vector(moved, target.ambient)) is None

    # one perturbed operator entry: an image off the target space, and delta o delta != 0
    support = sorted({j for v, _ in source.basis.integral[0] for j in v})
    if support and off:
        bad = perturbed(op, rnd.choice(support), rnd.choice(off), eps)
        with pytest.raises(ConstraintViolation):
            restrict_operator(bad, [source], [target])
        with pytest.raises(ConstraintViolation):
            dense_restriction(bad, source, target)
    if p < 3 and squares_to_zero(cx, p + 1):
        images = [v for v, _ in apply_sparse(op, source.basis.integral[0]) if v]
        if images:
            column = rnd.choice(sorted({j for v in images for j in v}))
            cx._operators[p + 1] = perturbed(cx.operator(p + 1), column, rnd.randrange(cx.operator(p + 1).size), eps)
            assert not squares_to_zero(cx, p + 1)


def test_restriction_and_certificate_do_no_fraction_arithmetic(monkeypatch):
    counts = {}

    def counting(name):
        method = getattr(Q, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return method(*args)

        return wrapper

    names = ["__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__truediv__"]
    for name in names:
        monkeypatch.setattr(Q, name, counting(name))
    assert Q(1, 2) * Q(1, 3) + Q(1, 5) - Q(1, 7) == Q(1, 6) + Q(2, 35)
    assert {"__mul__", "__add__", "__sub__"} <= counts.keys()  # the counters see the arithmetic
    # h3 twisted by diag(1/2, 2/3, 1/3), whose delta^2 vanishes on the basis of
    # C^2, then the fractional shear, whose columns read carry denominators
    fractional = []
    for a, rep in (fractional_inputs()[0], fractional_shear()):
        cx = CochainComplex(a, rep)
        for p in (2, 3):
            cx.space(p), cx.operator(p)  # spaces and tables are built beforehand: the count covers the rest
        counts.clear()
        cx.delta(2)
        assert squares_to_zero(cx, 3)
        assert counts == {}
        columns = [Q(x, cx.operator(p).den) for p in (2, 3) for col in cx.operator(p)._built.values() for _, x in col]
        fractional.append(sum(x.denominator > 1 for x in columns))
    assert fractional[1] > 0


def test_ranks_construct_no_fraction():
    # h3 twisted by diag(1/2, 2/3, 1/3), then the fractional shear: with the
    # spaces and tables built, rank 2 and rank 3 run in ints from the operator
    # columns through the restriction to the elimination
    ranks = []
    for a, rep in (fractional_inputs()[0], fractional_shear()):
        cx = CochainComplex(a, rep)
        for p in (2, 3, 4):
            cx.space(p), cx.operator(p)
        with fractions_made() as made:
            assert Q(1, 2) + Q(1, 3) == Q(5, 6) and made  # the counter sees construction
            made.clear()
            ranks += [cx.rank(2), cx.rank(3)]
        assert made == []
        assert ranks[-2:] == [rank(cx.delta(2)), rank(cx.delta(3))]
    assert ranks[2] and ranks[3]  # the shear's restricted matrices are not zero


# ---------------------------------------------------------------------------
# the twist constraint's columns, and ranks read off certified images


SURVIVORS = [SignConvention.from_label(label) for label in DEGREE_3_CONVENTIONS[:4]]


def constraint_agrees_with_rows(columns, a, rep, p):
    """Whether the Columns of C^p's twist constraint, read in full as Fractions,
    are the transpose of the per-input oracle's rows."""
    size = ambient_dim(a, rep, p)
    built = columns.read(range(size))
    got = [{r: Q(x, columns.den) for r, x in built[j]} for j in range(size)]
    want = [{} for _ in range(size)]
    for r, row in enumerate(per_input_constraint_rows(a, rep, p)):
        for j, x in row.items():
            want[j][r] = x
    return columns.size == size and got == want


def test_constraint_columns_are_the_transposed_per_input_rows():
    cases = [(a, rep, 3) for a, rep in BATTERY] + [fractional_shear() + (4,), (h3_sheared(), adjoint_representation(h3_sheared()), 3)]
    for a, rep, top in cases:
        cx = CochainComplex(a, rep)
        for p in range(1, top + 1):
            assert constraint_agrees_with_rows(cx.constraint(p), a, rep, p), (a, p)
            assert all(type(x) is int and x for col in cx.constraint(p)._built.values() for _, x in col)
            assert cx.space(p).constraint is cx.constraint(p)


def test_a_constraint_column_with_one_sign_flipped_fails_the_oracle():
    rng = random.Random(24)
    flipped = 0
    for a, rep in BATTERY + [fractional_shear()]:
        for p in (1, 2):
            good = cochain.twist_constraint(a, rep, p)
            built = good.read(range(good.size))
            nonzero = [j for j in range(good.size) if built[j]]
            if not nonzero:
                assert a.alpha == Matrix.identity(a.dim)  # alpha_M o f = f: no constraint
                continue
            j = rng.choice(nonzero)
            k = rng.randrange(len(built[j]))

            def build(js, j=j, k=k):
                cols = {i: list(good.read(js)[i]) for i in js}
                if j in cols:
                    r, x = cols[j][k]
                    cols[j][k] = (r, -x)
                return cols

            assert constraint_agrees_with_rows(good, a, rep, p)
            assert not constraint_agrees_with_rows(Columns(build, good.size, good.den), a, rep, p)
            flipped += 1
    assert flipped >= 10


def test_identity_twists_give_the_empty_constraint_and_only_they_do():
    # with alpha = id and alpha_M = id the generic builder cancels every cell,
    # and twist_constraint's diagonal rule, every weight 1, gives the same empty columns
    inputs = list(BATTERY)
    for phi in fixture_morphisms():
        inputs += [(phi.source, adjoint_representation(phi.source)), (phi.target, adjoint_representation(phi.target))]
        inputs.append((phi.source, pullback_representation(phi)))
    both = [(a, rep) for a, rep in inputs if a.untwisted and rep.alpha_module == Matrix.identity(rep.module_dim)]
    assert len(both) >= 10
    for a, rep in both:
        assert a.alpha.den == rep.alpha_module.den == 1
        cols_m = transpose(rep.alpha_module.numerators()[0], rep.module_dim)
        for p in (1, 2, 3, 4):
            generic = cochain._constraint_columns(a, cols_m, 1, 1, input_length(a.arity, p), range(ambient_dim(a, rep, p)))
            assert len(generic) == ambient_dim(a, rep, p) and not any(generic.values())
            short = cochain.twist_constraint(a, rep, p)
            assert short.den == 1 and not any(short.read(range(short.size)).values())
    # alpha = id alone is not enough: alpha_M = diag(2, 3) leaves f = 0 the only compatible cochain
    trivial = Representation(aff1(), 2, diag(2, 3), ({}, {}))
    assert trivial.algebra.untwisted and trivial.alpha_module != Matrix.identity(2)
    for p in (1, 2):
        constraint = cochain.twist_constraint(trivial.algebra, trivial, p)
        assert any(constraint.read(range(constraint.size)).values())
        with pytest.raises(ConstraintViolation):
            Cochain(CochainSpace(trivial.algebra, trivial, p), {0: Q(1)})


def off_diagonal_free(m):
    """Whether every entry of m off its diagonal is zero, read off the dense grid."""
    return all(x == 0 for i, row in enumerate(m.entries) for j, x in enumerate(row) if i != j)


def cli_top_degree(a, rep):
    """The highest degree p the CLI takes for (a, rep): delta^p's images,
    in C^{p+1}, within cli.MAX_AMBIENT, and p at most cli.MAX_DEGREE."""
    p = 1
    while p < cli.MAX_DEGREE and ambient_dim(a, rep, p + 2) <= cli.MAX_AMBIENT:
        p += 1
    return p


def test_the_diagonal_rule_equals_the_generic_rule_up_to_the_cli_top_degree():
    # every diagonal (algebra, rep) of the fixtures, the battery and the twisted
    # benchmark's draws, and two shears, which must take the generic rule
    algebras, morphisms = fixture_documents()
    algebras += battery_algebras() + [h3_sheared(), fractional_shear()[0]]
    algebras += [yau_twist(h3(), diag(x, y, x * y)) for x in (2, 3, 5, 7) for y in (2, 3, 5, 7) if x != y]
    algebras += [f(s) for f in (twisted_ternary_fff_e, twisted_aff1) for s in range(2, 8)]
    inputs = []
    for a in algebras:
        inputs.append((a, adjoint_representation(a)))
    for phi in fixture_morphisms() + morphisms:
        inputs += [(phi.source, adjoint_representation(phi.source)), (phi.target, adjoint_representation(phi.target))]
        inputs.append((phi.source, pullback_representation(phi)))
    distinct = []
    for a, rep in inputs:
        # equal pairs may differ in their flags, so every pair's are checked
        assert a.diagonal == off_diagonal_free(a.alpha) and rep.diagonal == off_diagonal_free(rep.alpha_module)
        if (a, rep) not in distinct:
            distinct.append((a, rep))
    diagonal = 0
    for a, rep in distinct:
        assert_the_generic_rule(a, rep)
        diagonal += a.diagonal and rep.diagonal
    assert diagonal >= 30 and len(distinct) - diagonal == 2


def assert_the_generic_rule(a, rep, top=None):
    """twist_constraint's columns equal oracles.generic_constraint_matrix, and
    CochainSpace's basis its kernel_basis, the spaces up to top (by default
    cli_top_degree, every degree the CLI reaches) and the constraints one above."""
    top = top or cli_top_degree(a, rep)
    for p in range(1, top + 2):
        generic = generic_constraint_matrix(a, rep, p)
        c = cochain.twist_constraint(a, rep, p)
        cols = c.read(range(c.size))
        rows = transpose([dict(cols[j]) for j in range(c.size)], c.size)
        assert (c.size, rows, c.den) == (generic.cols, *generic.numerators()), (a, rep, p)
        if p <= top:
            space, ref = CochainSpace(a, rep, p, c), kernel_basis(generic)
            assert space.basis.integral == ref.integral, (a, rep, p)
            assert list(space.basis.unit_rows.items()) == list(ref.unit_rows.items()), (a, rep, p)


# ---------------------------------------------------------------------------
# folded columns and the diagonal rule off the fixtures

COEFFS = (-2, -1, 1, 2, 3, Q(1, 2), Q(-3, 4))
# zero, negative and repeated entries; 2 * 1/2 and (-1) * (-1) are weight products equal to 1
WEIGHTS = (-2, -1, -1, 0, 1, 2, 2, Q(1, 2), 3)


def drawn_twist(draw, size, shear):
    """A size x size twist: diagonal over WEIGHTS, or, when shear, one with a
    row of two entries, a row of one entry and any other row of one or two."""
    grid = [[Q(draw(st.sampled_from(WEIGHTS))) if i == j else Q(0) for j in range(size)] for i in range(size)]
    if shear:
        several, one, *rest = draw(st.permutations(range(size)))
        grid[several][several] = grid[several][several] or Q(1)
        grid[one][one] = grid[one][one] or Q(1)
        grid[several][one] = Q(draw(st.sampled_from(COEFFS)))
        for i in rest:
            if draw(st.booleans()):
                grid[i][draw(st.sampled_from([j for j in range(size) if j != i]))] = Q(draw(st.sampled_from(COEFFS)))
    return Matrix(size, size, grid)


@st.composite
def off_fixture_pairs(draw):
    """(algebra, rep) with n in {2, 3} and d <= 3: a few random bracket and
    action entries, since the formulas need no identity, and alpha either
    diagonal, with alpha_M diagonal too, or a shear, with alpha_M a shear or not."""
    n, d, m = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    index = lambda k: st.integers(0, k - 1)  # noqa: E731
    value = lambda k: st.dictionaries(index(k), st.sampled_from(COEFFS), min_size=1, max_size=2)  # noqa: E731
    bracket = draw(st.dictionaries(st.tuples(*[index(d)] * n), value(d), max_size=4))
    actions = tuple(draw(st.dictionaries(st.tuples(*[index(d)] * (n - 1), index(m)), value(m), max_size=3)) for _ in range(n))
    shear = d > 1 and draw(st.booleans())
    alpha = drawn_twist(draw, d, shear)
    alpha_m = drawn_twist(draw, m, shear and m > 1 and draw(st.booleans()))
    a = HomNaryAlgebra(n, d, tuple(f"e{i}" for i in range(d)), bracket, alpha)
    return a, Representation(a, m, alpha_m, actions)


def weight_one_pair():
    """Ternary, d = 2, alpha = diag(2, 1/2), alpha_M = (1): every key with as
    many 0 digits as 1 digits has weight 1 and a free cell."""
    a = HomNaryAlgebra(3, 2, ("e0", "e1"), {(0, 1, 1): {0: Q(1)}, (1, 0, 1): {1: Q(-2)}}, diag(2, Q(1, 2)))
    actions = ({(0, 1, 0): {0: Q(3)}}, {(1, 1, 0): {0: Q(1, 2)}}, {(0, 0, 0): {0: Q(-1)}})
    return a, Representation(a, 1, diag(1), actions)


def mixed_shear_pair():
    """Binary, d = 3, alpha with rows of two, one and three entries and alpha_M
    diag(-1, 2)."""
    alpha = Matrix(3, 3, [[2, 1, 0], [0, -1, 0], [1, Q(1, 2), 1]])
    a = HomNaryAlgebra(2, 3, ("e0", "e1", "e2"), {(0, 1): {1: Q(1)}, (2, 2): {0: Q(2), 2: Q(-1)}}, alpha)
    actions = ({(1, 0): {1: Q(1)}, (2, 1): {0: Q(-3, 4)}}, {(0, 1): {1: Q(2)}})
    return a, Representation(a, 2, diag(-1, 2), actions)


@settings(max_examples=15, deadline=None)
@given(off_fixture_pairs(), st.randoms(use_true_random=False))
@example(weight_one_pair(), random.Random(0))
@example(mixed_shear_pair(), random.Random(1))
def test_folded_columns_match_the_row_oracle_off_the_fixtures(pair, rnd):
    # a one-entry row folds into the product's base and weight, any other row
    # is a factor, and term C's base is read off the key: on diagonal twists
    # nearly every row folds, on a shear both kinds meet in one product
    a, rep = pair
    conventions = rnd.sample(list(all_conventions()), 8)
    conventions[0] = dataclasses.replace(conventions[0], bracket_y_first=True, twist_after_hat=False)
    conventions[1] = dataclasses.replace(conventions[1], bracket_y_first=False, twist_after_hat=True)
    for p in (1, 2, 3):
        t, cols = SlotTables(a, rep, p), range(ambient_dim(a, rep, p))
        for cv in conventions:
            got = coboundary_operator(t, cols, cv)
            assert fraction_columns(got, t.q) == row_coboundary_operator(a, rep, p, cv), (p, cv.label())


@settings(max_examples=25, deadline=None)
@given(off_fixture_pairs())
@example(weight_one_pair())
@example(mixed_shear_pair())
def test_the_diagonal_rule_equals_the_generic_rule_off_the_fixtures(pair):
    # diagonal pairs up to the CLI's top degree; a shear takes the generic
    # builder on both sides, so it stops at degree 3, short of the dense
    # kernels of its top degrees (2048 cells at d = 2, n = 2)
    a, rep = pair
    assert a.diagonal == off_diagonal_free(a.alpha) and rep.diagonal == off_diagonal_free(rep.alpha_module)
    top = cli_top_degree(a, rep)
    assert_the_generic_rule(a, rep, top if a.diagonal and rep.diagonal else min(top, 3))


def test_diagonal_weights_are_the_k_fold_kronecker_power():
    # binary powers give w_k, the product of alpha's diagonal entries over the
    # k digits of each key, on diagonals with zero, negative and repeated
    # entries, and keep only the power asked for
    rng = random.Random(5)
    for _ in range(40):
        dim, k = rng.randint(1, 3), rng.randint(0, 7)
        entries = [rng.choice((-3, -1, 0, 1, 2, 2, 3)) for _ in range(dim)]
        a = HomNaryAlgebra(2, dim, tuple(f"e{i}" for i in range(dim)), {}, diag(*entries))
        naive = [1]
        for _ in range(k):
            naive = [x * e for x in naive for e in entries]
        assert cochain._weights(a, k) == naive and a.power_rows.keys() == {k}, (entries, k)
    line = HomNaryAlgebra(2, 1, ("e",), {}, Matrix(1, 1, [[2]]))
    assert cochain._weights(line, 100_000) == [2**100_000] and line.power_rows.keys() == {100_000}


def outcome(f, *args):
    """f(*args), or the ConstraintViolation class when it raises one."""
    try:
        return f(*args)
    except ConstraintViolation:
        return ConstraintViolation


def test_ranks_of_certified_images_match_the_restricted_matrices():
    # the calibration battery, every input the twisted benchmark can draw,
    # fractional and non-diagonal twists, under the four calibrated survivors
    cases = [(a, rep, 3) for a, rep in BATTERY + fractional_inputs() + [fractional_shear()]]
    cases += [(yau_twist(h3(), diag(x, y, x * y)), None, 3) for x in (2, 3, 5, 7) for y in (2, 3, 5, 7) if x != y]
    cases += [(twisted_ternary_fff_e(s), None, 4) for s in range(2, 8)]
    cases += [(twisted_aff1(s), None, 6) for s in range(2, 8)]
    nonzero = 0
    for a, rep, top in cases:
        base = CochainComplex(a, rep or adjoint_representation(a))
        for cv in SURVIVORS:
            cx = base.with_convention(cv)
            for p in range(1, top + 1):
                got = outcome(cx.rank, p)
                assert got == outcome(lambda q: rank(cx.delta(q)), p), (a, cv, p)
                nonzero += got not in (0, ConstraintViolation)
    assert nonzero > len(cases)
    for phi in fixture_morphisms():
        for cv in SURVIVORS:
            mc = MorphismComplex(phi, cv)
            for p in (1, 2, 3):
                assert mc.rank(p) == rank(mc.d_matrix(p)), (phi, cv, p)


def test_a_rank_builds_no_space_of_its_target_degree():
    a = yau_twist(h3(), Matrix(3, 3, [[Q(1, 2), Q(1, 3), 0], [0, 2, 0], [0, 0, 1]]))
    cx = CochainComplex(a, adjoint_representation(a))
    for p in (1, 2, 3):
        cx.cohomology_dim(p)
    assert cx._spaces.keys() == {1, 2, 3} and cx._constraints.keys() == {1, 2, 3, 4}
    # C^4's constraint is read on the images' support only
    assert 0 < len(cx.constraint(4)._built) < cx.constraint(4).size
