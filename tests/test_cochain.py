import collections
import functools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from homleibniz import cochain
from homleibniz.algebra import (
    HomNaryAlgebra,
    Morphism,
    Representation,
    adjoint_representation,
    pullback_representation,
    yau_twist,
)
from homleibniz.cochain import (
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
    restrict_operator,
    squares_to_zero,
)
from homleibniz.fixtures import (
    abelian_algebra,
    aff1,
    calibration_battery,
    diag,
    fixture_morphisms,
    leibniz_ff_e,
    ternary_fff_e,
    twisted_aff1,
    twisted_ff_e,
    twisted_ternary_fff_e,
)
from homleibniz.linalg import Matrix, coords_in_basis, dense_vector, integral_rows, kernel_basis, rank, sparse_vector
from homleibniz.morphism_complex import MorphismComplex
from oracles import (
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


def h3(constant=1):
    """The Heisenberg Lie algebra [x, y] = constant z, alpha = id."""
    return HomNaryAlgebra(
        2, 3, ("x", "y", "z"), {(0, 1): {2: constant}, (1, 0): {2: -constant}}, Matrix.identity(3)
    )


def h3_sheared():
    """h3 Yau-twisted by the shear y -> x + y: unlike every diagonal twist of
    the battery, its Kronecker powers have columns with several entries."""
    return yau_twist(h3(), Matrix(3, 3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_constraint_kernel_matches_the_per_input_oracle(monkeypatch):
    built = []
    monkeypatch.setattr(cochain, "kernel_basis", lambda m: built.append(m) or kernel_basis(m))
    cases = [(a, rep, 3) for a, rep in BATTERY]
    for a, top in ((h3_generic(), 4), (twisted_ternary_fff_e(2), 6), (twisted_aff1(2), 11), (h3_sheared(), 4)):
        cases.append((a, adjoint_representation(a), top))
    for a, rep, top in cases:
        for p in range(1, top + 1):
            space = CochainSpace(a, rep, p)
            rows = per_input_constraint_rows(a, rep, p)
            want = Matrix.from_rationals(rows, space.ambient)
            assert built.pop().numerators() == want.numerators()
            ref = kernel_basis(want)
            assert space.basis.integral == ref.integral
            assert list(space.basis.unit_rows.items()) == list(ref.unit_rows.items())


def test_constraint_kernels_are_born_in_ints_as_the_fraction_rref_gave_them(monkeypatch):
    seen = []
    monkeypatch.setattr(cochain, "kernel_basis", lambda m: seen.append(m) or kernel_basis(m))
    inputs = list(calibration_battery()) + fractional_inputs()
    for a, rep in inputs:
        for p in (1, 2, 3):
            CochainSpace(a, rep, p)
    assert len(seen) == 3 * len(inputs)
    for m in seen:
        assert_kernel_born_in_ints(m)
    # h3 twisted by diag(2, 3, 6): C^3's constraint has rank 81 and no free
    # column, so its kernel basis is built without a Fraction
    seen.clear()
    a = yau_twist(h3(), diag(2, 3, 6))
    assert CochainSpace(a, adjoint_representation(a), 3).dim == 0
    (m,) = seen
    assert rank(m) == m.cols == 81
    with fractions_made() as made:
        assert Q(1, 2) + Q(1, 3) == Q(5, 6) and made  # the counter sees construction
        made.clear()
        kernel_basis(m)
    assert made == []


def test_constraint_violation_raised_for_incompatible_tensor():
    a = twisted_ff_e(2)
    space = CochainSpace(a, adjoint_representation(a), 1)
    off_diagonal = [Q(0), Q(1), Q(0), Q(0)]
    with pytest.raises(ConstraintViolation):
        space.coords(off_diagonal)
    assert not space.contains(off_diagonal)


def test_from_coords_refuses_a_coordinate_list_of_the_wrong_length():
    space = complex_for(leibniz_ff_e()).space(1)
    assert space.dim == 4
    for length in (3, 5):
        with pytest.raises(ValueError, match="coordinate length"):
            space.from_coords([Q(1)] * length)
    assert space.from_coords([Q(1)] * 4).coeffs == [Q(1)] * 4


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


def test_a_convention_sibling_shares_the_spaces_and_tables():
    a, rep = BATTERY[1]
    cx = CochainComplex(a, rep)
    cv = SignConvention.from_label("A-B-C-D-|xy|hat-bare|c-full")
    sibling = cx.with_convention(cv)
    assert (sibling.algebra, sibling.rep, sibling.convention) == (a, rep, cv)
    assert sibling._spaces is cx._spaces and sibling._tables is cx._tables
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
    yf = cv.bracket_y_first
    return [("A", yf, cv.twist_after_hat), ("B", yf), ("C", yf, cv.c_full_range), ("D", yf)]


def test_calibration_builds_each_term_group_column_once(monkeypatch):
    battery = calibration_battery()
    members = {id(rep): k for k, (_, rep) in enumerate(battery)}
    built, calls, operators = collections.Counter(), [], []
    term_groups, operator = cochain._term_groups, cochain.coboundary_operator

    def counting(t, cv, groups, todo):
        calls.append((members[id(t.rep)], t.p))
        for key, want in zip(group_flags(cv), todo):
            built.update((members[id(t.rep)], t.p, key, j) for j in want)
        term_groups(t, cv, groups, todo)

    def operators_counted(*args, **kwargs):
        operators.append(args)
        return operator(*args, **kwargs)

    monkeypatch.setattr(cochain, "_term_groups", counting)
    monkeypatch.setattr(cochain, "coboundary_operator", operators_counted)
    passing = calibration_report(battery)
    assert built and max(built.values()) == 1
    # member 0 sees all 128 conventions, so every flag setting of every group
    keys = {key for cv in all_conventions() for key in group_flags(cv)}
    assert len(keys) == 12 and {key for k, _, key, _ in built if k == 0} == keys
    assert len(operators) == 364 and len(calls) < len(operators) / 2
    assert len(passing) == 4


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
                assert fraction_columns(shared, t.q[cv.bracket_y_first]) == row_op(cv, sorted(set(cols)))


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
                assert fraction_columns(cols, t.q[cv.bracket_y_first]) == battery_row_operators(k, p)(cv)
                assert all(type(x) is int for col in cols.values() for _, x in col)
            # the linear reading of the oracle, checked at a convention it did not build
            cv = SignConvention.from_label("A-B+C-D-|yx|hat-bare|c-short")
            assert battery_row_operators(k, p)(cv) == row_coboundary_operator(a, rep, p, cv)
        t = SlotTables(a, rep, 3)
        for label in DEGREE_3_CONVENTIONS:
            cv = SignConvention.from_label(label)
            cols = coboundary_operator(t, range(ambient_dim(a, rep, 3)), cv)
            assert fraction_columns(cols, t.q[cv.bracket_y_first]) == battery_row_operators(k, 3)(cv)
    for a, top in ((h3_generic(), 3), (twisted_ternary_fff_e(2), 4), (twisted_aff1(2), 6)):
        rep = adjoint_representation(a)
        for p in range(1, top + 1):
            t = SlotTables(a, rep, p)
            cols = coboundary_operator(t, range(ambient_dim(a, rep, p)))
            assert fraction_columns(cols, t.q[False]) == row_coboundary_operator(a, rep, p)
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
    """{name: (rows, den)} for the tables of the SlotTables t."""
    tables = {name: (getattr(t, name), t.den[name]) for name in ("alpha", "abar", "mu", "action_c", "action_d")}
    for yf in (False, True):
        tables["bracket", yf] = (t.bracket[yf], t.den["bracket"][yf])
    return tables


def test_int_slot_tables_assemble_the_row_oracle_on_fractional_inputs():
    for a, rep in fractional_inputs():
        for p in (1, 2, 3):
            t = SlotTables(a, rep, p)
            for name, (rows, den) in slot_tables(t).items():
                assert den > 1, name
                assert all(type(e[-1]) is int and e[-1] for row in rows for e in row), name
                # each den is exactly the lcm of its table's denominators, no multiple of it
                assert den == math.lcm(*{Q(e[-1], den).denominator for row in rows for e in row}), name
            row_op = row_operators(a, rep, p)
            labels = [cv.label() for cv in all_conventions()] if p < 3 else DEGREE_3_CONVENTIONS
            fractional = 0
            for label in labels:
                cv = SignConvention.from_label(label)
                cols = coboundary_operator(t, range(ambient_dim(a, rep, p)), cv)
                assert all(type(x) is int for col in cols.values() for _, x in col)
                cols = fraction_columns(cols, t.q[cv.bracket_y_first])
                assert cols == row_op(cv), (p, label)
                fractional += sum(x.denominator > 1 for col in cols.values() for _, x in col)
            assert fractional


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
    for a in algebras:
        t = SlotTables(a, adjoint_representation(a), 1)
        for yf in (False, True):
            rows, den = t.bracket[yf], t.den["bracket"][yf]
            table = {(Y, X, X2): Q(c, den) for Y, row in enumerate(rows) for X, X2, c in row}
            assert len(table) == sum(map(len, rows))
            assert table == bracket_table_by_tuples(a, yf)


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
