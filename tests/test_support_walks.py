"""The support-walking residual evaluators against their all-tuples oracles.

Random sparse tensors and random twists and morphisms (singular, negative
and non-identity ones included) of arity 2-4 over dimension 1-3: every
evaluator must return the oracle's result exactly, with the same key order.
The residuals draw dimension 1-2 at arity 4, where the oracles' loop over
all d^(2n-1) tuples would take an example past about 50 ms; the
representations cap the module dimension to the same end.
"""

from fractions import Fraction as Q

from hypothesis import example, given, settings, strategies as st

from homleibniz.algebra import (
    HomNaryAlgebra,
    Morphism,
    Representation,
    _module_actions,
    check_morphism,
    check_multiplicative,
    check_representation,
    hom_composition,
)
from homleibniz.deformation import MorphismDeformation, TruncatedDeformation, morphism_order_residual
from homleibniz.linalg import Matrix
from oracles import (
    check_morphism_by_tuples,
    check_multiplicative_by_tuples,
    hom_composition_by_tuples,
    module_actions_by_tuples,
    morphism_order_residual_by_compositions,
    representation_violations_by_tuples,
)

VALUES = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3)])
CELLS = st.one_of(st.just(Q(0)), st.just(Q(0)), VALUES)


@st.composite
def tensors(draw, n, d_in, d_out, max_keys=5):
    keys = draw(st.lists(st.tuples(*[st.integers(0, d_in - 1)] * n), max_size=max_keys, unique=True))
    return {
        key: draw(st.dictionaries(st.integers(0, d_out - 1), VALUES, min_size=1, max_size=2))
        for key in keys
    }


@st.composite
def matrices(draw, rows, cols):
    if rows == cols and draw(st.booleans()):
        return Matrix.identity(rows)
    return Matrix(rows, cols, [[draw(CELLS) for _ in range(cols)] for _ in range(rows)])


@st.composite
def algebras(draw, n=None, dim=None):
    n = draw(st.integers(2, 4)) if n is None else n
    d = draw(st.integers(1, 3 if n < 4 else 2)) if dim is None else dim
    labels = tuple(f"e{i}" for i in range(d))
    return HomNaryAlgebra(n, d, labels, draw(tensors(n, d, d)), draw(matrices(d, d)))


def _same(got, want):
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=150, deadline=None)
@given(algebras(), st.data())
def test_hom_composition_matches_the_all_tuples_loop(a, data):
    fs = data.draw(st.lists(tensors(a.arity, a.dim, a.dim), min_size=1, max_size=3))
    # draw members from a shared list, so one F may meet several G
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(fs), st.sampled_from(fs)), max_size=4))
    _same(hom_composition(a, pairs), hom_composition_by_tuples(a, pairs))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_check_multiplicative_matches_the_all_tuples_loop(n, d, data):
    a = data.draw(algebras(n, d))
    assert check_multiplicative(a) == check_multiplicative_by_tuples(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_check_morphism_matches_the_all_tuples_loop(n, d_src, d_tgt, data):
    src = data.draw(algebras(n, d_src))
    tgt = data.draw(algebras(n, d_tgt))
    phi = Morphism(src, tgt, data.draw(matrices(d_tgt, d_src)))
    assert check_morphism(phi) == check_morphism_by_tuples(phi)


@st.composite
def morphism_deformations(draw):
    src = draw(algebras())
    n = src.arity
    tgt = draw(algebras(n))
    phi = Morphism(src, tgt, draw(matrices(tgt.dim, src.dim)))
    order = draw(st.integers(0, 3))
    xi = [draw(tensors(n, src.dim, src.dim, 3)) for _ in range(order)]
    eta = [draw(tensors(n, tgt.dim, tgt.dim, 3)) for _ in range(order)]
    phis = [draw(matrices(tgt.dim, src.dim)) for _ in range(order)]
    return MorphismDeformation(
        phi,
        TruncatedDeformation.from_higher(src, xi),
        TruncatedDeformation.from_higher(tgt, eta),
        [phi.matrix] + phis,
    )


@settings(max_examples=100, deadline=None)
@given(morphism_deformations(), st.integers(0, 4))
def test_morphism_order_residual_matches_the_composition_sum(md, l):
    for got, want in zip(morphism_order_residual(md, l), morphism_order_residual_by_compositions(md, l)):
        _same(got, want)


@st.composite
def representations(draw):
    """A random sparse representation, valid or not, with a non-identity
    alpha_M: action i has the module argument in slot i.  The module
    dimension is capped so that the oracle visits at most 500 tuples."""
    a = draw(algebras())
    n, d = a.arity, a.dim
    m = draw(st.integers(1, min(3, 500 // ((2 * n - 1) * d ** (2 * n - 2)))))
    alpha_m = draw(matrices(m, m).filter(lambda t: t != Matrix.identity(m)))
    actions = []
    for _ in range(n):
        keys = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * (n - 1), st.integers(0, m - 1)),
                             min_size=1, max_size=4, unique=True))
        actions.append({key: draw(st.dictionaries(st.integers(0, m - 1), VALUES, min_size=1, max_size=2))
                        for key in keys})
    return Representation(a, m, alpha_m, tuple(actions))


def arity_six_representation():
    """Violations at slots 0..10, so "representation[slot=10]" must sort
    before "representation[slot=2]", as strings do."""
    a = HomNaryAlgebra(6, 1, ("e0",), {(0,) * 6: {0: Q(1)}}, Matrix(1, 1, [[Q(2)]]))
    actions = tuple({(0,) * 6: {1: Q(i + 1)}, (0,) * 5 + (1,): {0: Q(1, 2)}} for i in range(6))
    return Representation(a, 2, Matrix(2, 2, [[Q(1), Q(1)], [Q(0), Q(-1, 3)]]), actions)


@settings(max_examples=60, deadline=None)
@given(representations())
@example(arity_six_representation())
def test_check_representation_matches_the_all_tuples_loop(rep):
    assert check_representation(rep) == representation_violations_by_tuples(rep)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_module_actions_match_the_all_tuples_loop(n, d_src, d_tgt, data):
    bracket = data.draw(tensors(n, d_tgt, d_tgt))
    if data.draw(st.booleans()):
        phi, d_src = None, d_tgt
    else:
        phi = data.draw(matrices(d_tgt, d_src))
    want = module_actions_by_tuples(bracket, n, phi or Matrix.identity(d_tgt), d_src, d_tgt)
    assert _module_actions(bracket, n, phi) == want
