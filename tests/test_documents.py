import glob
import hashlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from homleibniz.deformation import MorphismDeformation
from homleibniz.documents import (
    DocumentError,
    canonical_text,
    digest,
    dump_json,
    format_rational,
    load_json,
    parse_algebra,
    parse_deformation,
    parse_morphism,
    parse_rational,
    parse_representation,
    serialize_algebra,
    serialize_deformation,
    serialize_morphism,
    serialize_representation,
)
from homleibniz.algebra import Representation, adjoint_representation
from homleibniz.fixtures import (
    abelian_algebra,
    battery_algebras,
    diag,
    fixture_morphisms,
    identity_morphism,
    leibniz_ff_e,
    ternary_fff_e,
    twisted_ff_e,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_rational_parsing():
    assert parse_rational("3/2") == Q(3, 2)
    assert parse_rational("-7") == Q(-7)
    assert format_rational(Q(6, 4)) == "3/2"
    assert parse_rational("-0.25") == Q(-1, 4)
    for bad in ("1/0", "x", None, 1.5, "1e-9999999", "2E3", True, False):
        with pytest.raises(DocumentError):
            parse_rational(bad)


def test_algebra_roundtrip_all_fixtures():
    for a in battery_algebras():
        doc = serialize_algebra(a)
        again = parse_algebra(doc)
        assert again == a
        assert serialize_algebra(again) == doc


def test_morphism_roundtrip_all_fixtures():
    for phi in fixture_morphisms():
        doc = serialize_morphism(phi)
        assert serialize_morphism(parse_morphism(doc)) == doc


def test_representation_roundtrip():
    a = twisted_ff_e(2)
    # a ternary action key joins two algebra labels (e, f) and one module label (u, v, w)
    actions = ({(1, 1, 2): {0: Q(1, 2)}}, {(0, 1, 0): {2: Q(-3)}, (1, 0, 1): {1: Q(1)}}, {})
    ternary = Representation(ternary_fff_e(), 3, diag(1, 2, Q(1, 3)), actions)
    assert serialize_representation(ternary, ["u", "v", "w"])["actions"] == [
        {"f,f,w": {"u": "1/2"}}, {"e,f,u": {"w": "-3"}, "f,e,v": {"v": "1"}}, {}]
    for rep, module_basis in ((adjoint_representation(a), list(a.basis)), (ternary, ["u", "v", "w"])):
        doc = serialize_representation(rep, module_basis)
        rep2, labels = parse_representation(doc)
        assert rep2 == rep and labels == module_basis
        assert serialize_representation(rep2, labels) == doc


# malformed copies of the ternary adjoint document (module labels m0, m1):
# (name, action index, key the error names or None, mutation)
MALFORMED_REPRESENTATIONS = [
    ("too few labels", 1, "f,m1", lambda acts: acts[1].update({"f,m1": {"m0": "1"}})),
    ("too many labels", 0, "f,f,f,m1", lambda acts: acts[0].update({"f,f,f,m1": {"m0": "1"}})),
    ("unknown algebra label", 2, "g,f,m1", lambda acts: acts[2].update({"g,f,m1": {"m0": "1"}})),
    ("module label in an algebra slot", 1, "m0,f,m1", lambda acts: acts[1].update({"m0,f,m1": {"m0": "1"}})),
    ("algebra label in the module slot", 0, "f,f,e", lambda acts: acts[0].update({"f,f,e": {"m0": "1"}})),
    ("algebra label as output", 2, "f,f,m1", lambda acts: acts[2].update({"f,f,m1": {"e": "1"}})),
    ("entry not an object", 1, "f,f,m1", lambda acts: acts[1].update({"f,f,m1": ["1"]})),
    ("action not an object", 2, None, lambda acts: acts.__setitem__(2, ["f,f,m1"])),
    ("too few actions", None, None, lambda acts: acts.pop()),
    ("too many actions", None, None, lambda acts: acts.append({})),
]


def malformed_representation(mutate):
    doc = serialize_representation(adjoint_representation(ternary_fff_e()), ["m0", "m1"])
    mutate(doc["actions"])
    return doc


@pytest.mark.parametrize("name, action, key, mutate", MALFORMED_REPRESENTATIONS,
                         ids=[m[0].replace(" ", "_") for m in MALFORMED_REPRESENTATIONS])
def test_malformed_representation_documents_are_document_errors(name, action, key, mutate):
    with pytest.raises(DocumentError) as exc:
        parse_representation(malformed_representation(mutate))
    message = str(exc.value)
    assert ("actions" if action is None else f"action {action}") in message, name
    assert key is None or repr(key) in message, name


def test_deformation_roundtrip_with_inherit():
    md = MorphismDeformation.trivial(identity_morphism(leibniz_ff_e()), 2)
    doc = serialize_deformation(md)
    assert doc["xi"][0] == "inherit"
    md2 = parse_deformation(doc)
    assert md2.xi.coeffs == md.xi.coeffs
    assert md2.phis == md.phis
    assert serialize_deformation(md2) == doc


def test_inherit_rejected_above_order_zero():
    md = MorphismDeformation.trivial(identity_morphism(leibniz_ff_e()), 1)
    doc = serialize_deformation(md)
    doc["xi"][1] = "inherit"
    with pytest.raises(DocumentError):
        parse_deformation(doc)


def test_parse_errors_are_document_errors():
    with pytest.raises(DocumentError):
        parse_algebra({"arity": 2, "basis": ["e", "e"], "alpha": [["1", "0"], ["0", "1"]], "bracket": {}})
    with pytest.raises(DocumentError):
        parse_algebra({"arity": 2, "basis": ["e", "f"], "alpha": [["1"]], "bracket": {}})
    with pytest.raises(DocumentError):
        parse_algebra(
            {"arity": 2, "basis": ["e", "f"], "alpha": [["1", "0"], ["0", "1"]],
             "bracket": {"f": {"e": "1"}}}
        )
    with pytest.raises(DocumentError):
        parse_algebra(
            {"arity": 2, "basis": ["e", "f"], "alpha": [["1", "0"], ["0", "1"]],
             "bracket": {"f,g": {"e": "1"}}}
        )
    with pytest.raises(DocumentError):
        parse_algebra([1, 2, 3])
    # an empty bracket parses at any arity, but module checks and degree-3
    # cochains would range over 2^(2n-1) tuples
    for arity in (True, 10**18):
        with pytest.raises(DocumentError):
            parse_algebra({"arity": arity, "basis": ["e", "f"], "alpha": [["1", "0"], ["0", "1"]], "bracket": {}})


def test_the_arity_refusal_names_what_it_bounds():
    # 23 * 2^23 cells of 23-tuples; the degree-3 cochains of the extension
    # solve read those tuples, validation of the bracket or a module does not
    with pytest.raises(DocumentError) as exc:
        parse_algebra(serialize_algebra(abelian_algebra(2, 12)))
    assert str(exc.value) == (
        "arity 12 is too large for 2 basis elements: the degree-3 cochains "
        "of the extension solve range over 2^23 tuples"
    )
    assert parse_algebra(serialize_algebra(abelian_algebra(2, 11))) == abelian_algebra(2, 11)


def test_morphism_source_by_relative_path(tmp_path):
    a = leibniz_ff_e()
    dump_json(serialize_algebra(a), str(tmp_path / "alg.json"))
    doc = {"source": "alg.json", "target": "alg.json",
           "matrix": [["1", "0"], ["0", "1"]]}
    dump_json(doc, str(tmp_path / "mor.json"))
    phi = parse_morphism(load_json(str(tmp_path / "mor.json")), str(tmp_path))
    assert phi.source == a and phi.target == a


def test_digest_is_stable_and_order_insensitive():
    a = {"b": "1", "a": "2"}
    b = {"a": "2", "b": "1"}
    assert canonical_text(a) == canonical_text(b)
    assert digest(a) == digest(b)


def test_digest_is_the_sha256_of_the_canonical_text_on_every_fixture():
    paths = sorted(glob.glob(os.path.join(FIXTURES, "**", "*.json"), recursive=True))
    assert len(paths) > 50
    for path in paths:
        obj = load_json(path)
        assert digest(obj) == hashlib.sha256(canonical_text(obj).encode()).hexdigest(), path


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None, reason="no built-in _sha256 module")
def test_importing_the_cli_does_not_load_openssl():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, homleibniz.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_checked_in_fixture_documents_parse():
    for name in ("abelian.json", "leibniz_ff_e.json", "ternary_fff_e.json"):
        parse_algebra(load_json(os.path.join(FIXTURES, name)))
    parse_morphism(load_json(os.path.join(FIXTURES, "vanishing_pair.json")), FIXTURES)
    parse_deformation(load_json(os.path.join(FIXTURES, "trivial_deformation.json")), FIXTURES)


def test_load_json_errors(tmp_path):
    with pytest.raises(DocumentError):
        load_json(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(DocumentError):
        load_json(str(p))
