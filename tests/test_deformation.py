import os
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as Q

import pytest

from homleibniz.cochain import CochainSpace, ConstraintViolation
from homleibniz.deformation import (
    MorphismDeformation,
    TruncatedDeformation,
    _pack,
    _unpack,
    algebra_order_residual,
    infinitesimal,
    is_valid_through,
    morphism_order_residual,
    multiplicativity_violations,
    obstruction,
    solve_extension,
)
from homleibniz.documents import load_json, parse_deformation
from homleibniz.fixtures import (
    abelian_algebra,
    aff1,
    fixture_morphisms,
    identity_morphism,
    leibniz_ff_e,
    ternary_fff_e,
    twisted_ff_e,
)
from homleibniz.linalg import Matrix, sparse_vector
from homleibniz.morphism_complex import MorphismComplex
from oracles import (
    ambient_to_matrix,
    apply_operator,
    delta_ambient,
    ambient_to_multimap,
    fractions_made,
    basis_tuples,
    blockwise_differential,
    matrix_to_ambient,
    multimap_to_ambient,
    obstruction_by_formula,
    primed_index_tuples,
    pull_tensor,
    push_tensor,
    regrouping_identity_check,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def rand_mm(a, rng, span=2):
    mm = {}
    for key in basis_tuples(a):
        ent = {k: Q(rng.randint(-span, span)) for k in range(a.dim)}
        ent = {k: v for k, v in ent.items() if v}
        if ent:
            mm[key] = ent
    return mm


def abelian_ff_e_deformation():
    ab = abelian_algebra(2, 2)
    phi = identity_morphism(ab)
    ff_e = {(1, 1): {0: Q(1)}}
    return MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(ab, [ff_e]),
        TruncatedDeformation.from_higher(ab, [dict(ff_e)]),
        [phi.matrix, Matrix.zeros(2, 2)],
    )


# ---------------------------------------------------------------------------
# residuals


def test_trivial_deformation_has_zero_residuals():
    for a in (leibniz_ff_e(), aff1(), ternary_fff_e()):
        d = TruncatedDeformation.trivial(a, 3)
        for l in range(4):
            assert algebra_order_residual(d, l) == {}


def test_order_zero_residual_is_the_defining_identity():
    from homleibniz.algebra import HomNaryAlgebra

    broken = HomNaryAlgebra(
        2, 2, ("e", "f"), {(0, 0): {1: Q(1)}, (1, 1): {0: Q(1)}}, Matrix.identity(2)
    )
    assert algebra_order_residual(TruncatedDeformation.trivial(broken), 0) != {}
    assert algebra_order_residual(TruncatedDeformation.trivial(leibniz_ff_e()), 0) == {}


def test_abelian_ff_e_deformation_valid_through_order_one():
    md = abelian_ff_e_deformation()
    assert is_valid_through(md, 1)


def test_mismatched_eta_fails_the_morphism_equation():
    ab = abelian_algebra(2, 2)
    phi = identity_morphism(ab)
    md = MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(ab, [{(1, 1): {0: Q(1)}}]),
        TruncatedDeformation.trivial(ab, 1),
        [phi.matrix, Matrix.zeros(2, 2)],
    )
    r1, r2, r3 = morphism_order_residual(md, 1)
    assert not r1 and not r2
    assert sorted(r3) == [(1, 1)]


def test_morphism_equation_reads_matrices_on_the_bracket_support(monkeypatch):
    """The identity of a 200-dim binary algebra whose bracket is only
    [e1, e1] = e0: the order-2 morphism equation reads phi at the one bracket
    key, not a row or column of phi for each of the 200^2 basis pairs."""
    from homleibniz.algebra import HomNaryAlgebra

    a = HomNaryAlgebra(2, 200, tuple(f"e{i}" for i in range(200)), {(1, 1): {0: Q(1)}}, Matrix.identity(200))
    md = MorphismDeformation.trivial(identity_morphism(a), 2)
    reads = Counter()

    def counted(name):
        read = getattr(Matrix, name)

        def counting_read(self, i):
            reads[name] += 1
            return read(self, i)

        return counting_read

    for name in ("row", "column"):
        monkeypatch.setattr(Matrix, name, counted(name))
    assert morphism_order_residual(md, 2) == ({}, {}, {})
    assert sum(reads.values()) <= 50, reads


def test_constructor_guards():
    a = leibniz_ff_e()
    with pytest.raises(ValueError):
        TruncatedDeformation(a, [{}])  # order-0 must equal the bracket
    phi = identity_morphism(a)
    with pytest.raises(ValueError):
        MorphismDeformation(
            phi,
            TruncatedDeformation.trivial(a, 1),
            TruncatedDeformation.trivial(a, 2),
            [phi.matrix, Matrix.zeros(2, 2)],
        )


# ---------------------------------------------------------------------------
# regrouping identity


def test_regrouping_identity_on_random_invalid_coefficients():
    rng = random.Random(11)
    algebras = [leibniz_ff_e(), aff1(), twisted_ff_e(2), ternary_fff_e()]
    for trial in range(12):
        a = algebras[trial % len(algebras)]
        d = TruncatedDeformation.from_higher(
            a, [rand_mm(a, rng), rand_mm(a, rng), rand_mm(a, rng)]
        )
        for l in (1, 2, 3):
            assert regrouping_identity_check(d, l) == []


def test_regrouping_rejects_order_zero():
    with pytest.raises(ValueError):
        regrouping_identity_check(TruncatedDeformation.trivial(leibniz_ff_e()), 0)


# ---------------------------------------------------------------------------
# obstruction cochains


def test_trivial_obstruction_vanishes():
    md = MorphismDeformation.trivial(identity_morphism(leibniz_ff_e()), 2)
    for l in (1, 2, 3):
        assert obstruction(md, l).is_zero()


def test_obstruction_requires_validity_below():
    ab = abelian_algebra(2, 2)
    phi = identity_morphism(ab)
    md = MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(ab, [{(1, 1): {0: Q(1)}}]),
        TruncatedDeformation.trivial(ab, 1),
        [phi.matrix, Matrix.zeros(2, 2)],
    )
    with pytest.raises(ValueError):
        obstruction(md, 2)


def test_primed_sum_set_excludes_order_l_and_counts_once():
    for n in (2, 3):
        for l in (2, 3):
            tuples = primed_index_tuples(l, n)
            counts = Counter(tuples)
            assert max(counts.values()) == 1
            for t in tuples:
                assert sum(t) == l
                assert t[0] != l and all(j != l for j in t[1:])


def _check_chain_obstructions(md, top):
    """Extend md order by order up to top, comparing every obstruction with
    the explicit-formula oracle; returns the number of orders compared."""
    compared = 0
    for l in range(md.order + 1, top + 1):
        assert obstruction(md, l) == obstruction_by_formula(md, l), l
        compared += 1
        md = solve_extension(md, l)
        if md is None:
            break
    return compared


def test_obstruction_matches_explicit_formula_along_battery_chains():
    battery = load_json(os.path.join(FIXTURES, "deform_battery.json"))
    compared = Counter()
    for entry in battery["entries"][:12]:
        md = parse_deformation(load_json(os.path.join(FIXTURES, entry["file"])), FIXTURES)
        compared[_check_chain_obstructions(md, 6)] += 1
    # both obstructed chains and chains reaching the top order occur
    assert compared[1] and compared[5]


def test_obstruction_matches_explicit_formula_for_ternary():
    # over an abelian ternary base, (xi_1, xi_1, phi_1) is valid at order 1
    # for any xi_1 and phi_1; primed-sum tuples with two vanishing inner
    # indices then enter O3
    rng = random.Random(19)
    ab = abelian_algebra(2, 3)
    phi = identity_morphism(ab)
    fff_e = ternary_fff_e().bracket
    orders = 0
    for xi1 in [fff_e, fff_e, rand_mm(ab, rng), rand_mm(ab, rng)]:
        w = Matrix(2, 2, [[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
        md = MorphismDeformation(
            phi,
            TruncatedDeformation.from_higher(ab, [xi1]),
            TruncatedDeformation.from_higher(ab, [dict(xi1)]),
            [phi.matrix, w],
        )
        assert not obstruction(md, 2).is_zero()
        orders += _check_chain_obstructions(md, 4)
    assert orders == 8


def test_residual_equals_differential_minus_obstruction():
    """The order-l equations are affine with linear part d and constant -F_l:

    res_xi = -(delta u - O1), res_eta = -(delta v - O2),
    res_phi = (push u - pull v - delta w) - O3.
    """
    rng = random.Random(13)
    # over an abelian base any (xi1, xi1, phi1) is valid at order 1, and a
    # non-Leibniz xi1 makes every component of F_2 nonzero
    ab = abelian_algebra(2, 2)
    phi = identity_morphism(ab)
    xi1 = rand_mm(ab, rng)
    md = MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(ab, [xi1]),
        TruncatedDeformation.from_higher(ab, [dict(xi1)]),
        [phi.matrix, Matrix(2, 2, [[1, 0], [0, -1]])],
    )
    assert is_valid_through(md, 1)
    L = phi.source
    n, dL = L.arity, L.dim
    mc = MorphismComplex(phi)
    f = obstruction(md, 2)
    fo1 = multimap_to_ambient(f.o1, 2 * n - 1, dL, dL)
    fo2 = multimap_to_ambient(f.o2, 2 * n - 1, dL, dL)
    fo3 = multimap_to_ambient(f.o3, n, dL, dL)
    assert any(fo1) and any(fo3)  # the instance actually exercises the signs
    for _ in range(5):
        xi, eta = rand_mm(L, rng), rand_mm(L, rng)
        w = Matrix(dL, dL, [[Q(rng.randint(-2, 2)) for _ in range(dL)] for _ in range(dL)])
        r1, r2, r3 = morphism_order_residual(md.extended(xi, eta, w), 2)
        u = multimap_to_ambient(xi, n, dL, dL)
        v = multimap_to_ambient(eta, n, dL, dL)
        wv = matrix_to_ambient(w)
        du = delta_ambient(mc.left, 2, u)
        dv = delta_ambient(mc.right, 2, v)
        third = [
            x - y - z
            for x, y, z in zip(
                push_tensor(phi, u, dL), pull_tensor(phi, 2, v), delta_ambient(mc.mixed, 1, wv)
            )
        ]
        assert multimap_to_ambient(r1, 2 * n - 1, dL, dL) == [y - x for x, y in zip(du, fo1)]
        assert multimap_to_ambient(r2, 2 * n - 1, dL, dL) == [y - x for x, y in zip(dv, fo2)]
        assert multimap_to_ambient(r3, n, dL, dL) == [x - y for x, y in zip(third, fo3)]
        # the assembled operator of d^2 agrees with the blockwise evaluation
        blockwise = du + dv + third
        assert apply_operator(mc.operator(2), u + v + wv, len(blockwise)) == blockwise


# ---------------------------------------------------------------------------
# extension solver


def test_trivial_extension_returns_zeros():
    md = MorphismDeformation.trivial(identity_morphism(leibniz_ff_e()), 0)
    ext = solve_extension(md, 1)
    # the homogeneous system admits the canonical zero solution
    assert ext == MorphismDeformation.trivial(md.phi, 1)
    assert is_valid_through(ext, 1)


def test_abelian_ff_e_extends_to_any_order():
    md = abelian_ff_e_deformation()
    assert obstruction(md, 2).is_zero()
    md2 = solve_extension(md, 2)
    assert md2 is not None and md2.truncated(1) == md
    md3 = solve_extension(md2, 3)
    assert md3 is not None and md3.truncated(2) == md2
    assert is_valid_through(md3, 3)


def test_extension_verdicts_obstructed_instance():
    # a non-Leibniz order-1 bracket over the abelian base cannot extend:
    # the quadratic obstruction must be a coboundary, but delta = 0
    ab = abelian_algebra(2, 2)
    phi = identity_morphism(ab)
    xi1 = {(0, 1): {0: Q(1)}, (1, 1): {1: Q(1)}}
    md = MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(ab, [xi1]),
        TruncatedDeformation.from_higher(ab, [dict(xi1)]),
        [phi.matrix, Matrix.zeros(2, 2)],
    )
    assert is_valid_through(md, 1)
    assert not obstruction(md, 2).is_zero()
    assert solve_extension(md, 2) is None


def test_extension_requires_validity():
    ab = abelian_algebra(2, 2)
    phi = identity_morphism(ab)
    md = MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(ab, [{(1, 1): {0: Q(1)}}]),
        TruncatedDeformation.trivial(ab, 1),
        [phi.matrix, Matrix.zeros(2, 2)],
    )
    with pytest.raises(ValueError):
        solve_extension(md, 2)


def test_ambient_roundtrips():
    """The solve's sparse packing pair equals the dense oracles read sparsely,
    key order included, on tensors of arity 2 and 3 and on matrices as
    one-input tensors {(j,): column j}, one with an empty column."""
    rng = random.Random(17)
    tensors = [(rand_mm(a, rng), a.arity, a.dim, a.dim) for a in (leibniz_ff_e(), ternary_fff_e())]
    tensors += [
        ({(1, 0, 0): {0: Q(-3), 1: Q(2)}, (0, 1, 1): {2: Q(1, 2)}}, 3, 2, 3),
        ({}, 2, 2, 2),
    ]
    for mm, length, d_in, m in tensors:
        vec = multimap_to_ambient(mm, length, d_in, m)
        assert ambient_to_multimap(vec, length, d_in, m) == mm
        assert _pack(mm, d_in, m) == sparse_vector(vec)
        assert _pack(mm, d_in, m, 7) == {i + 7: v for i, v in sparse_vector(vec).items()}
        unpacked = _unpack(_pack(mm, d_in, m), length, d_in, m)
        assert list(unpacked.items()) == list(ambient_to_multimap(vec, length, d_in, m).items())
    matrices = [
        Matrix(2, 3, [[Q(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)]),
        Matrix(3, 2, [[Q(1), 0], [Q(-2, 3), 0], [0, 0]]),
    ]
    for mat in matrices:
        vec = matrix_to_ambient(mat)
        assert ambient_to_matrix(vec, mat.rows, mat.cols) == mat
        packed = _pack({(j,): mat.column(j) for j in range(mat.cols)}, mat.cols, mat.rows)
        assert packed == sparse_vector(vec)
        cols = {(j,): mat.column(j) for j in range(mat.cols) if mat.column(j)}
        assert _unpack(packed, 1, mat.cols, mat.rows) == cols


def test_extension_solve_builds_only_the_nonzero_rows():
    """The trivial deformation of the 8-ary abelian identity on 2 dims: its
    degree-3 ambient has 2 * 2^16 + 2^9 coordinates, and a dense right-hand
    side and row list of that length peak at 20 MiB; the solve keeps only the
    nonzero rows of d^2 and the support of F_l."""
    md = MorphismDeformation.trivial(identity_morphism(abelian_algebra(2, 8)), 1)
    tracemalloc.start()
    try:
        ext = solve_extension(md, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ext is not None
    assert peak < 8 * 2**20


def test_extension_solve_builds_no_cochain_space(monkeypatch):
    # the ambient solve and a full read of d^2 use the summands' slot tables only
    built = []
    init = CochainSpace.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(CochainSpace, "__init__", counting)
    MorphismComplex(identity_morphism(leibniz_ff_e())).summands(2)
    assert len(built) == 3  # the counter sees construction
    built.clear()
    verdicts = Counter()
    for entry in load_json(os.path.join(FIXTURES, "deform_battery.json"))["entries"]:
        md = parse_deformation(load_json(os.path.join(FIXTURES, entry["file"])), FIXTURES)
        verdicts[solve_extension(md, 2) is not None] += 1
    for phi in fixture_morphisms():
        op = MorphismComplex(phi).operator(2)
        assert len(op.read(range(op.size))) == op.size
    assert built == []
    assert verdicts[True] and verdicts[False]


def test_extension_right_hand_side_makes_no_zero_fraction_per_row():
    # rows of d^2 outside F_l's support read an int 0, not a fresh Fraction(0)
    solved = 0
    for entry in load_json(os.path.join(FIXTURES, "deform_battery.json"))["entries"]:
        md = parse_deformation(load_json(os.path.join(FIXTURES, entry["file"])), FIXTURES)
        with fractions_made() as made:
            solved += solve_extension(md, 2) is not None
        assert (0,) not in made
    assert solved


# ---------------------------------------------------------------------------
# infinitesimal


def test_infinitesimal_of_valid_deformation_is_a_cocycle():
    md = abelian_ff_e_deformation()
    c = infinitesimal(md)
    mc = MorphismComplex(md.phi)
    assert mc.differential(c).is_zero()
    assert not any(blockwise_differential(mc, c))


def test_infinitesimal_reports_twist_incompatibility():
    a = twisted_ff_e(2)
    phi = identity_morphism(a)
    # off-diagonal phi_1 cannot commute with diag(4, 2)
    md = MorphismDeformation(
        phi,
        TruncatedDeformation.trivial(a, 1),
        TruncatedDeformation.trivial(a, 1),
        [phi.matrix, Matrix(2, 2, [[0, 1], [0, 0]])],
    )
    assert is_valid_through(md, 1)
    with pytest.raises(ConstraintViolation):
        infinitesimal(md)


def test_multiplicativity_check_is_optional_and_explicit():
    a = twisted_ff_e(2)
    d = TruncatedDeformation.from_higher(a, [{(0, 1): {1: Q(1)}}])
    bad = multiplicativity_violations(d)
    assert bad and bad[0][0] == 1
    assert multiplicativity_violations(TruncatedDeformation.trivial(a, 2)) == []


def test_coefficient_keys_are_checked_at_construction():
    # an index past the basis would reach the residual as a garbage key (or an IndexError)
    for a in (leibniz_ff_e(), twisted_ff_e()):
        for bad in ({(0, 9): {0: 1}}, {(0, 0, 0): {0: 1}}, {(0, 0): {9: 1}}):
            with pytest.raises(ValueError):
                TruncatedDeformation(a, [a.bracket, bad])
        assert TruncatedDeformation(a, [a.bracket, {(0, 1): {0: "0", 1: "2"}}]).coeffs[1] == {(0, 1): {1: Q(2)}}
