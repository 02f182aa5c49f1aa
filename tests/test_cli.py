import argparse
import json
import os
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from homleibniz import cli
from homleibniz.cli import main
from oracles import representation_violations_by_tuples

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_passes_on_good_documents(capsys):
    code, out, _ = run(capsys, "validate", fx("leibniz_ff_e.json"), fx("identity_leibniz.json"))
    assert code == 0
    assert "status:     PASS" in out


def test_validate_fails_on_bad_bracket(capsys):
    code, out, _ = run(capsys, "validate", fx("bad_bracket.json"))
    assert code == 1
    assert "hom-leibniz" in out and "FAIL" in out


def _non_multiplicative_algebra(tmp_path):
    from homleibniz.algebra import HomNaryAlgebra
    from homleibniz.documents import dump_json, serialize_algebra, serialize_morphism
    from homleibniz.fixtures import diag, identity_morphism

    a = HomNaryAlgebra(2, 2, ("e", "f"), {(1, 1): {0: 1}}, diag(2, 1))
    dump_json(serialize_algebra(a), str(tmp_path / "ff_e_diag21.json"))
    dump_json(serialize_morphism(identity_morphism(a)), str(tmp_path / "id_ff_e_diag21.json"))
    return str(tmp_path / "ff_e_diag21.json"), str(tmp_path / "id_ff_e_diag21.json")


def test_build_parser_makes_one_parser_per_process(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    counts = []
    for _ in range(10):
        assert main(["cohomology", fx("abelian.json"), "--degrees", "1"]) == 0
        counts.append(len(built))
    capsys.readouterr()
    assert counts[0] > 0 and counts == [counts[0]] * 10


def test_the_shared_parser_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path):
    # an interleaved sequence with usage and input errors between the
    # commands reads the same twice on the shared parser and once on a
    # parser built for every call
    monkeypatch.setenv("COLUMNS", "80")
    battery = json.load(open(fx("deform_battery.json")))
    good = next(e for e in battery["entries"] if e["extends"])
    emit = str(tmp_path / "ext.json")
    calls = [
        ["cohomology"],
        ["--help"],
        ["validate", fx("leibniz_ff_e.json"), fx("identity_leibniz.json")],
        ["cohomology", fx("leibniz_ff_e.json"), "--format", "json"],
        ["deform", "extend", fx(good["file"]), "--order", "2", "--emit", emit],
        ["cohomology", fx("abelian.json"), "--convention", "bogus"],
    ]

    def answers():
        got = []
        for argv in calls:
            code, out, err = run(capsys, *argv)
            got.append((code, out, err, open(emit).read() if "--emit" in argv else None))
            if "--emit" in argv:
                os.remove(emit)
        return got

    shared = answers() + answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = answers()
    assert [code for code, *_ in fresh] == [2, 0, 0, 0, 0, 2]
    assert "usage: homleibniz cohomology" in fresh[0][2] and "input error" in fresh[5][2]
    assert shared == fresh * 2


def test_cohomology_reports_non_multiplicative_input(capsys, tmp_path):
    algebra, morphism = _non_multiplicative_algebra(tmp_path)
    for argv in (["cohomology", algebra], ["morphism-cohomology", morphism]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 1
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
        assert failed and all("multiplicativity" in name for name in failed)
        assert report["tables"] == []
        assert "Traceback" not in err


def test_cohomology_blames_the_invalid_bracket(capsys):
    code, out, err = run(capsys, "cohomology", fx("bad_bracket.json"), "--format", "json")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if c["verdict"] == "fail"]
    assert [c["name"] for c in failed] == ["bad_bracket.json: hom-leibniz identity"]
    assert "convention" not in failed[0]["details"]
    assert "Traceback" not in err


def test_cohomology_checks_a_module_document(capsys, tmp_path):
    from homleibniz.algebra import Representation, adjoint_representation
    from homleibniz.documents import dump_json, serialize_representation
    from homleibniz.fixtures import leibniz_ff_e

    a = leibniz_ff_e()
    adj = adjoint_representation(a)
    broken = Representation(a, 2, adj.alpha_module, ({(1, 0): {1: 1}},) + adj.actions[1:])
    for name, rep, code in (("adj.json", adj, 0), ("broken.json", broken, 1)):
        path = str(tmp_path / name)
        dump_json(serialize_representation(rep, ["m0", "m1"]), path)
        got, out, _ = run(capsys, "cohomology", fx("leibniz_ff_e.json"), "--module", path,
                          "--degrees", "1", "--format", "json")
        assert got == code
        verdicts = {c["name"]: c["verdict"] for c in json.loads(out)["checks"]}
        assert verdicts[f"{name}: representation identities"] == ("pass" if code == 0 else "fail")
    # validate renders the all-tuples oracle's violations, byte for byte
    got, out, _ = run(capsys, "validate", path, "--format", "json")
    assert got == 1
    failed = [c for c in json.loads(out)["checks"] if c["verdict"] == "fail"]
    want = representation_violations_by_tuples(broken)
    assert [c["name"] for c in failed] == ["broken.json: representation identities"]
    assert want
    assert failed[0]["details"] == "; ".join(str(v) for v in want[:5]) + ("; ..." if len(want) > 5 else "")


def test_malformed_module_documents_are_input_errors(capsys, tmp_path):
    from homleibniz.documents import dump_json
    from test_documents import MALFORMED_REPRESENTATIONS, malformed_representation

    good = str(tmp_path / "good.json")
    dump_json(malformed_representation(lambda acts: None), good)
    assert run(capsys, "cohomology", fx("ternary_fff_e.json"), "--module", good, "--degrees", "1")[0] == 0
    for name, _, _, mutate in MALFORMED_REPRESENTATIONS:
        path = str(tmp_path / "bad.json")
        dump_json(malformed_representation(mutate), path)
        for argv in (["cohomology", fx("ternary_fff_e.json"), "--module", path, "--degrees", "1"], ["validate", path]):
            code, out, err = run(capsys, *argv)
            assert code == 2, (name, argv[0])
            assert out == "" and "input error" in err and "Traceback" not in err, name


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "validate", fx("no_such_file.json"))
    assert code == 2
    assert "input error" in err


def test_cohomology_hand_values(capsys):
    code, out, _ = run(capsys, "cohomology", fx("abelian.json"), "--degrees", "1..2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["tables"][0]["rows"]
    assert rows == [[1, 4, 0, 4], [2, 8, 0, 8]]

    code, out, _ = run(capsys, "cohomology", fx("leibniz_ff_e.json"), "--degrees", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["tables"][0]["rows"] == [[1, 4, 2, 2]]


def test_degree_zero_is_a_usage_error(capsys):
    code, _, err = run(capsys, "cohomology", fx("abelian.json"), "--degrees", "0..1")
    assert code == 2


def test_cohomology_refuses_spaces_above_the_ambient_limit(capsys):
    # abelian.json is 2-dimensional and binary: degree 18 needs ambient 2 * 2^19
    for degrees in ("40..40", "18..18"):
        code, out, err = run(capsys, "cohomology", fx("abelian.json"), "--degrees", degrees)
        assert code == 2, degrees
        assert out == "" and "input error" in err and "ambient dimension" in err
        assert "Traceback" not in err


def test_morphism_cohomology_refuses_spaces_above_the_ambient_limit(capsys):
    # degree 11 of the 2-dimensional identity morphism needs ambient 2 * 2^12,
    # one step above the limit of 4096
    code, out, err = run(capsys, "morphism-cohomology", fx("identity_leibniz.json"), "--degrees", "11..11")
    assert code == 2
    assert out == "" and "input error" in err and "ambient dimension 8192" in err
    assert "Traceback" not in err


def test_cohomology_refuses_huge_degree_ranges_without_printing_huge_numbers(capsys):
    # 2 * 2^15001 has over 4300 digits, past Python's int-to-str limit
    for degrees in ("1..15000", "1..3000000"):
        code, out, err = run(capsys, "cohomology", fx("abelian.json"), "--degrees", degrees)
        assert code == 2, degrees
        assert out == "" and "input error" in err and "ambient dimension at least" in err
        assert "Traceback" not in err


def test_degree_ranges_end_at_max_degree_on_one_dimensional_algebras(capsys, tmp_path):
    # every cochain space of a 1-dim algebra has ambient dimension 1, so only
    # MAX_DEGREE bounds the range
    from homleibniz.documents import dump_json, serialize_algebra, serialize_morphism
    from homleibniz.fixtures import abelian_algebra, identity_morphism

    a = abelian_algebra(1, 2)
    dump_json(serialize_algebra(a), str(tmp_path / "a1.json"))
    dump_json(serialize_morphism(identity_morphism(a)), str(tmp_path / "id_a1.json"))
    for cmd, name in (("cohomology", "a1.json"), ("morphism-cohomology", "id_a1.json")):
        path = str(tmp_path / name)
        code, out, err = run(capsys, cmd, path, "--degrees", "1..1000")
        assert code == 2, cmd
        assert out == "" and "degree 1000 is above the limit of 64" in err
        assert "Traceback" not in err
        code, out, _ = run(capsys, cmd, path, "--degrees", "1..64", "--format", "json")
        assert code == 0, cmd
        assert [row[0] for row in json.loads(out)["tables"][0]["rows"]] == list(range(1, 65))


def test_deform_orders_end_at_max_degree(capsys):
    path = fx("abelian_ff_e_deformation.json")
    code, out, _ = run(capsys, "deform", "check", path, "--order", "64", "--format", "json")
    assert code == 0
    assert [row[0] for row in json.loads(out)["tables"][0]["rows"]] == list(range(65))
    for mode in ("check", "obstruct", "extend"):
        code, out, err = run(capsys, "deform", mode, path, "--order", "65")
        assert code == 2, mode
        assert out == "" and "--order 65 is above the limit of 64" in err
        assert "Traceback" not in err


def test_deform_check_names_its_own_lower_order_bound(capsys):
    code, out, err = run(capsys, "deform", "check", fx("abelian_ff_e_deformation.json"), "--order", "-1")
    assert code == 2
    assert out == "" and "--order must be at least 0 for check" in err


def test_validate_skips_the_identity_loops_for_an_empty_bracket(capsys, tmp_path):
    # arity 11 over dim 2: 2^21 tuples for the identity, 2^11 for multiplicativity
    from homleibniz.documents import dump_json, serialize_algebra
    from homleibniz.fixtures import abelian_algebra

    path = str(tmp_path / "abelian11.json")
    dump_json(serialize_algebra(abelian_algebra(2, 11)), path)
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", path, "--format", "json")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert [(c["name"], c["verdict"]) for c in json.loads(out)["checks"]] == [
        ("abelian11.json: hom-leibniz identity", "pass"),
        ("abelian11.json: multiplicativity", "pass"),
    ]


def test_validate_walks_the_support_of_a_large_ternary_bracket(capsys, tmp_path):
    # 24-dim ternary, [e1, e1, e1] = 8 e0: 24^5 (about 8M) identity tuples and
    # 24^3 multiplicativity tuples, of which only a handful meet the bracket
    from homleibniz.algebra import HomNaryAlgebra
    from homleibniz.documents import dump_json, serialize_algebra
    from homleibniz.fixtures import diag
    from homleibniz.linalg import Matrix

    for name, alpha in (("t24.json", Matrix.identity(24)), ("t24_twisted.json", diag(8, 2, *[1] * 22))):
        basis = tuple(f"e{i}" for i in range(24))
        a = HomNaryAlgebra(3, 24, basis, {(1, 1, 1): {0: 8}}, alpha)
        path = str(tmp_path / name)
        dump_json(serialize_algebra(a), path)
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", path, "--format", "json")
        assert time.perf_counter() - start < 0.5, name
        assert code == 0, name
        assert [c["verdict"] for c in json.loads(out)["checks"]] == ["pass", "pass"]


def test_the_arity_ladder_ends_in_a_report_or_an_input_error(capsys, tmp_path):
    # abelian_algebra(2, n): H^1 needs C^2, of ambient 2 * 2^n, which reaches
    # the 4096 limit at n = 11; n = 12 is refused by the document's arity bound
    from homleibniz.documents import dump_json, serialize_algebra
    from homleibniz.fixtures import abelian_algebra

    for n in range(8, 13):
        path = str(tmp_path / f"abelian_{n}.json")
        dump_json(serialize_algebra(abelian_algebra(2, n)), path)
        code, out, err = run(capsys, "cohomology", path, "--degrees", "1..1", "--format", "json")
        assert "Traceback" not in err, n
        if n < 12:
            assert code == 0, (n, err)
            assert json.loads(out)["tables"][0]["rows"] == [[1, 4, 0, 4]], n
        else:
            assert code == 2 and out == ""
            assert "arity 12 is too large for 2 basis elements" in err


def test_cohomology_at_the_ambient_limit(capsys, tmp_path):
    # C^5 of the 4-dim abelian algebra has ambient 4 * 4^5 = 4096, the limit.
    # The bracket is zero and alpha = id, so delta vanishes: H^4 = dim C^4 = 4 * 4^4.
    from homleibniz.documents import dump_json, serialize_algebra
    from homleibniz.fixtures import abelian_algebra

    path = str(tmp_path / "abelian4.json")
    dump_json(serialize_algebra(abelian_algebra(4)), path)
    code, out, err = run(capsys, "cohomology", path, "--degrees", "4..4", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["tables"][0]["rows"] == [[4, 1024, 0, 1024]]


def test_bad_convention_label_is_an_input_error(capsys):
    code, _, err = run(capsys, "cohomology", fx("abelian.json"), "--convention", "bogus")
    assert code == 2


def test_morphism_cohomology_flags_vanishing_transfer(capsys):
    code, out, _ = run(capsys, "morphism-cohomology", fx("vanishing_pair.json"), "--degrees", "1..2")
    assert code == 0
    assert "vanishing transfer at p=2" in out
    assert "H^2(phi)=0" in out


FAILING_CONVENTION = "A-B+C+D+|xy|hat-twisted|c-full"


def _failed_check(out, name):
    report = json.loads(out)
    return [c["details"] for c in report["checks"] if c["name"] == name and c["verdict"] == "fail"]


def test_cohomology_reports_a_nonzero_square(capsys):
    code, out, _ = run(
        capsys, "cohomology", fx("aff1.json"), "--convention", FAILING_CONVENTION,
        "--degrees", "1..3", "--format", "json",
    )
    assert code == 1
    assert _failed_check(out, "coboundary squares to zero") == [
        f"delta^2 o delta^1 is nonzero with convention {FAILING_CONVENTION}"
    ]


def test_morphism_cohomology_reports_a_nonzero_square(capsys):
    code, out, _ = run(
        capsys, "morphism-cohomology", fx("identity_leibniz.json"), "--convention",
        FAILING_CONVENTION, "--degrees", "1..3", "--format", "json",
    )
    assert code == 1
    assert _failed_check(out, "differential squares to zero") == [
        f"d^2 o d^1 is nonzero with convention {FAILING_CONVENTION}"
    ]


def test_only_the_cohomology_commands_take_a_convention(capsys):
    # deform's order-l equations have the default convention's d^2 as their
    # linear part; under this calibrated survivor, extending d31.json to
    # order 2 once raised RuntimeError, and d01.json read "obstructed"
    survivor = "A-B-C-D-|xy|hat-twisted|c-full"
    refused = [
        ["deform", "extend", fx("deform/d31.json"), "--order", "2"],
        ["deform", "extend", fx("deform/d01.json"), "--order", "2"],
        ["deform", "check", fx("deform/d01.json")],
        ["deform", "obstruct", fx("deform/d01.json"), "--order", "2"],
        ["validate", fx("leibniz_ff_e.json")],
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv, "--convention", survivor)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --convention" in err and "Traceback" not in err
    for argv in (["cohomology", fx("aff1.json")], ["morphism-cohomology", fx("identity_leibniz.json")]):
        code, out, _ = run(capsys, *argv, "--convention", survivor)
        assert code == 0 and f"convention: {survivor}" in out


def test_deform_check_and_obstruct(capsys):
    code, out, _ = run(capsys, "deform", "check", fx("abelian_ff_e_deformation.json"))
    assert code == 0
    code, out, _ = run(capsys, "deform", "obstruct", fx("abelian_ff_e_deformation.json"), "--order", "2")
    assert code == 0
    assert "F_2 vanishes" in out


def test_deform_extend_reports_obstruction_with_exit_one(capsys):
    battery = json.load(open(fx("deform_battery.json")))
    blocked = next(e for e in battery["entries"] if not e["extends"])
    code, out, _ = run(capsys, "deform", "extend", fx(blocked["file"]), "--order", "2")
    assert code == 1
    assert "obstructed" in out


def test_deform_extend_succeeds_and_emits(capsys, tmp_path, monkeypatch):
    from homleibniz.deformation import TruncatedDeformation

    # the document's two order-1 deformations, then the two of the one
    # extended deformation that the solve verifies and --emit writes
    built, post_init = [], TruncatedDeformation.__post_init__

    def counting(d):
        post_init(d)
        built.append(d.order)

    monkeypatch.setattr(TruncatedDeformation, "__post_init__", counting)
    battery = json.load(open(fx("deform_battery.json")))
    good = next(e for e in battery["entries"] if e["extends"])
    out_path = str(tmp_path / "ext.json")
    code, out, _ = run(capsys, "deform", "extend", fx(good["file"]), "--order", "2", "--emit", out_path)
    assert code == 0
    assert built == [1, 1, 2, 2]
    # the emitted document is itself a valid order-2 deformation
    code, out, _ = run(capsys, "deform", "check", out_path)
    assert code == 0


def test_extend_below_the_stored_order_replaces_the_top_order(capsys, tmp_path):
    # extending an order-2 document to order 2 again re-solves order 2 on
    # orders 0..1 instead of appending the triple at order 3
    once, twice = str(tmp_path / "once.json"), str(tmp_path / "twice.json")
    code, _, _ = run(capsys, "deform", "extend", fx("deform/d01.json"), "--order", "2", "--emit", once)
    assert code == 0
    code, _, _ = run(capsys, "deform", "extend", once, "--order", "2", "--emit", twice)
    assert code == 0
    code, out, _ = run(capsys, "deform", "check", twice, "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if c["name"].startswith("order-")] == [
        f"order-{l} residuals vanish" for l in range(3)
    ]
    assert all(c["verdict"] == "pass" for c in checks)


def _extension_chain(capsys, tmp_path, file):
    """deform extend --order l --emit for l = 2..6, each emitted document
    feeding the next and the first obstruction ending the chain, then deform
    check on the last document: [(exit code, stdout, emitted text), ...]."""
    src, record = fx(file), []
    for l in range(2, 7):
        out = tmp_path / f"order{l}.json"
        if out.exists():
            out.unlink()
        code, stdout, _ = run(capsys, "deform", "extend", src, "--order", str(l), "--emit", str(out), "--format", "json")
        record.append((code, stdout, out.read_text() if out.exists() else None))
        if code:
            break
        src = str(out)
    code, stdout, _ = run(capsys, "deform", "check", src, "--format", "json")
    return record + [(code, stdout, None)]


def test_extension_chains_are_byte_identical_on_the_all_tuples_oracles(capsys, tmp_path, monkeypatch):
    import sys

    from homleibniz import algebra, cli, deformation
    from oracles import (
        check_morphism_by_tuples,
        check_multiplicative_by_tuples,
        hom_composition_by_tuples,
        morphism_order_residual_by_compositions,
    )

    battery = json.load(open(fx("deform_battery.json")))["entries"]
    # obstructed at order 2, obstructed at order 3 (entry 34), extends to order 6
    files = [battery[i]["file"] for i in (0, 34, 46)]
    real = [_extension_chain(capsys, tmp_path, f) for f in files]
    assert [[code for code, _, _ in chain] for chain in real] == [[1, 0], [0, 1, 0], [0] * 6]

    swaps = [
        (algebra.hom_composition, hom_composition_by_tuples),
        (algebra.check_multiplicative, check_multiplicative_by_tuples),
        (algebra.check_morphism, check_morphism_by_tuples),
        (deformation.morphism_order_residual, morphism_order_residual_by_compositions),
    ]
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "homleibniz"]:
        for attr, value in list(vars(module).items()):
            for fn, oracle in swaps:
                if value is fn:
                    monkeypatch.setattr(module, attr, oracle)
    assert cli.morphism_order_residual is morphism_order_residual_by_compositions
    assert deformation.hom_composition is hom_composition_by_tuples
    assert [_extension_chain(capsys, tmp_path, f) for f in files] == real


def test_deform_validates_the_morphism_first(capsys, tmp_path):
    # target twist diag(2,1) does not intertwine with the identity matrix
    obj = json.load(open(fx("abelian_ff_e_deformation.json")))
    obj["morphism"]["target"]["alpha"] = [["2", "0"], ["0", "1"]]
    obj["xi"][1], obj["eta"][1], obj["phi"][1] = {}, {}, [["0", "0"], ["0", "0"]]
    path = tmp_path / "bad_twist.json"
    path.write_text(json.dumps(obj))
    for mode in ("check", "obstruct", "extend"):
        code, out, err = run(capsys, "deform", mode, str(path), "--order", "1", "--format", "json")
        assert code == 1, mode
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
        assert failed == ["morphism identities"], mode
        assert report["tables"] == []
        assert "Traceback" not in err


def test_json_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "cohomology", fx("leibniz_ff_e.json"), "--format", "json")
    _, second, _ = run(capsys, "cohomology", fx("leibniz_ff_e.json"), "--format", "json")
    assert first == second
    assert "digests" in json.loads(first)


def test_csv_rendering(capsys):
    code, out, _ = run(capsys, "cohomology", fx("leibniz_ff_e.json"), "--format", "csv", "--degrees", "1")
    assert code == 0
    assert out.splitlines()[0] == "section,name,value,details"


def test_fixtures_env_var_selects_selftest_corpus(capsys, monkeypatch, tmp_path):
    import shutil

    for name in ("abelian.json", "leibniz_ff_e.json"):
        shutil.copy(fx(name), tmp_path / name)
    monkeypatch.setenv("HOMLEIBNIZ_FIXTURES", str(tmp_path))
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "abelian.json" in out and "leibniz_ff_e.json" in out


def test_validate_without_files_or_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.delenv("HOMLEIBNIZ_FIXTURES", raising=False)
    code, _, err = run(capsys, "validate")
    assert code == 2



def test_paths_the_cli_cannot_use_are_input_errors(capsys, monkeypatch, tmp_path):
    # an --emit path under a missing directory or naming a directory, and a
    # fixtures directory that is missing or a file
    missing = str(tmp_path / "missing")
    extend = ["deform", "extend", fx("deform/d01.json"), "--order", "2", "--emit"]
    cases = [
        (extend + [os.path.join(missing, "x.json")], None, "cannot write"),
        (extend + [str(tmp_path)], None, "cannot write"),
        (["validate"], missing, "cannot list"),
        (["validate"], fx("leibniz_ff_e.json"), "cannot list"),
    ]
    for argv, root, message in cases:
        if root is not None:
            monkeypatch.setenv("HOMLEIBNIZ_FIXTURES", root)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("input error: ") and message in err and "Traceback" not in err
    assert not os.path.exists(missing)

# ---------------------------------------------------------------------------
# malformed documents end in an input error or a report, never a traceback


def test_exponent_and_boolean_values_are_input_errors(capsys, tmp_path):
    base = json.load(open(fx("leibniz_ff_e.json")))
    documents = {
        "exponent": dict(base, bracket={"f,f": {"e": "1e-9999999"}}),
        "bool_alpha": dict(base, alpha=[[True, False], [False, True]]),
        "bool_bracket": dict(base, bracket={"f,f": {"e": True}}),
        "bool_arity": dict(base, arity=True),
    }
    documents = {name: json.dumps(obj) for name, obj in documents.items()}
    documents["deep"] = "[" * 200000 + "]" * 200000  # json.load runs out of stack on it
    for name, text in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2, name
        assert out == "" and "input error" in err and "Traceback" not in err


def test_undecodable_documents_are_input_errors_on_every_reading_path(capsys, tmp_path):
    # a byte that is not UTF-8, and an integer literal past Python's
    # int-string digit limit, on each command that reads a document
    texts = {"utf8": b'{"arity": 2, "basis": ["e\xff"]}', "digits": b'{"arity": ' + b"1" * 5000 + b"}"}
    for name, text in texts.items():
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(text)
        morphism = tmp_path / f"{name}_morphism.json"
        morphism.write_text(json.dumps({"source": bad.name, "target": bad.name, "matrix": [[1]]}))
        for argv in (
            ["validate", str(bad)],
            ["cohomology", str(bad)],
            ["cohomology", fx("leibniz_ff_e.json"), "--module", str(bad)],
            ["morphism-cohomology", str(morphism)],
            ["deform", "check", str(bad)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith(f"input error: {bad}: ") and "Traceback" not in err, argv
    # a JSON syntax error, also a ValueError, keeps its line and column message
    bad = tmp_path / "syntax.json"
    bad.write_text('{"arity": 2,\n "basis": [1e]}')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and err == f"input error: {bad}: invalid JSON at line 2 col 13\n"


# each fixture and a command run on it besides validate; PATH is the mutated copy
FUZZ_DOCUMENTS = {
    "abelian.json": ["cohomology", "PATH", "--degrees", "1..2"],
    "leibniz_ff_e.json": ["cohomology", "PATH", "--degrees", "1..2"],
    "ternary_fff_e.json": ["cohomology", "PATH", "--degrees", "1"],
    "identity_leibniz.json": ["morphism-cohomology", "PATH", "--degrees", "1..2"],
    "vanishing_pair.json": ["morphism-cohomology", "PATH", "--degrees", "1..2"],
    "abelian_ff_e_deformation.json": ["deform", "check", "PATH"],
    "deform/d01.json": ["deform", "obstruct", "PATH", "--order", "2"],
}
BAD_VALUES = ["x", "1/0", "", "1e-9999999", "2E3", True, False, None, 1.5, [], {}, [[]]]


def _nodes(obj):
    """(container, key) of every value nested in obj, in document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    out = []
    for k, v in list(items):
        out.append((obj, k))
        out += _nodes(v)
    return out


def _mutate(doc, kind, index, value):
    """Apply one mutation of the given kind at the index-th node it applies to;
    False when the document has no such node."""
    nodes = _nodes(doc)
    if kind == "drop":
        spots = [(c, k) for c, k in nodes if isinstance(c, dict)]
    elif kind == "value":
        spots = nodes
    elif kind == "shape":  # a matrix loses a row, its last column or one cell
        spots = [(c, k) for c, k in nodes if isinstance(c[k], list) and c[k]
                 and all(isinstance(r, list) and r for r in c[k])]
    elif kind == "label":  # a tensor key or output label names an unknown element
        spots = [(c, k) for c, k in nodes if isinstance(c, dict) and k[:1].islower()
                 and k not in ("alpha", "arity", "basis", "bracket", "matrix", "source", "target")]
    elif kind == "arity":
        spots = [(c, k) for c, k in nodes if k == "arity"]
    else:  # "source": an int, a missing path or a directory
        spots = [(c, k) for c, k in nodes if k == "source"]
    if not spots:
        return False
    c, k = spots[index % len(spots)]
    if kind == "drop":
        del c[k]
    elif kind == "value":
        c[k] = value
    elif kind == "shape":
        rows = c[k]
        if index % 3 == 0:
            rows.pop()  # a missing row
        elif index % 3 == 1:
            for row in rows:  # a missing column
                row.pop()
        else:
            rows[0].pop()  # a ragged row
    elif kind == "label":
        c[",".join(["zz"] * (k.count(",") + 1))] = c.pop(k)
    elif kind == "arity":
        c[k] = [10**3, 2**31, 10**18, True][index % 4]
    else:
        c[k] = [7, "no_such_file.json", "."][index % 3]
    return True


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(sorted(FUZZ_DOCUMENTS)),
    kind=st.sampled_from(["drop", "value", "shape", "label", "arity", "source"]),
    index=st.integers(0, 200),
    value=st.sampled_from(BAD_VALUES),
    validate=st.booleans(),
)
# node 2 of leibniz_ff_e.json is alpha[0][0]
@example(name="leibniz_ff_e.json", kind="value", index=2, value="1e-9999999", validate=True)
@example(name="leibniz_ff_e.json", kind="value", index=2, value=True, validate=True)
def test_mutated_documents_end_in_a_report_or_an_input_error(capsys, tmp_path, name, kind, index, value, validate):
    doc = json.load(open(fx(name)))
    if not _mutate(doc, kind, index, value):
        return
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", "PATH"] if validate else FUZZ_DOCUMENTS[name]
    start = time.perf_counter()
    code, _, err = run(capsys, *[str(path) if a == "PATH" else a for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_cohomology_builds_no_basis_above_its_top_degree(capsys, monkeypatch):
    # rank delta^p is read off delta^p's images, certified by C^{p+1}'s
    # constraint: the top degree's basis is the last one built
    from homleibniz import cli, cochain

    spaces, complexes = [], []
    init, mc_init = cochain.CochainSpace.__init__, cli.MorphismComplex.__init__

    def counting(self, *args):
        init(self, *args)
        spaces.append(self)

    def capturing(self, *args):
        mc_init(self, *args)
        complexes.append(self)

    def built():
        return [(s.rep, s.degree) for s in spaces if "basis" in vars(s)]

    monkeypatch.setattr(cochain.CochainSpace, "__init__", counting)
    monkeypatch.setattr(cli.MorphismComplex, "__init__", capturing)
    code, _, _ = run(capsys, "cohomology", fx("ternary_fff_e.json"), "--degrees", "1..3")
    assert code == 0 and sorted(p for _, p in built()) == [1, 2, 3]
    spaces.clear()
    code, _, _ = run(capsys, "morphism-cohomology", fx("twist_endo.json"), "--degrees", "1..3")
    (mc,) = complexes
    # an endomorphism: C(L;L) and C(M;M) are one complex, built once
    assert mc.right is mc.left and mc.mixed is not mc.left
    summand = {id(mc.left.rep): "left", id(mc.mixed.rep): "mixed"}
    assert code == 0 and len(summand) == 2
    assert sorted((summand[id(rep)], p) for rep, p in built()) == sorted(
        [("left", p) for p in (1, 2, 3)] + [("mixed", 1), ("mixed", 2)]
    )


def test_morphism_cohomology_certifies_each_square_once(capsys, monkeypatch, tmp_path):
    # the identity's three summands are one complex, and its H^p, read again
    # by the vanishing-transfer row as H^p(M,M) and H^{p-1}(L,M), is cached
    from homleibniz import cochain
    from homleibniz.documents import dump_json, load_json, parse_algebra, serialize_morphism
    from homleibniz.fixtures import identity_morphism

    path = str(tmp_path / "ternary_identity.json")
    dump_json(serialize_morphism(identity_morphism(parse_algebra(load_json(fx("ternary_fff_e.json"))))), path)
    certified, squares = [], cochain.squares_to_zero

    def counting(cx, p):
        certified.append((type(cx).__name__, p))
        return squares(cx, p)

    monkeypatch.setattr(cochain, "squares_to_zero", counting)
    code, out, _ = run(capsys, "morphism-cohomology", path, "--degrees", "1..3")
    assert code == 0 and "vanishing transfer" not in out
    assert certified == [("MorphismComplex", 2), ("CochainComplex", 2), ("MorphismComplex", 3), ("CochainComplex", 3)]


def test_degree_ranges_of_a_high_arity_one_dimensional_algebra_end_in_a_report(capsys, tmp_path):
    # arity 20 at degree 64: C^64's inputs have 1198 slots, and alpha^{tensor 1198}
    # is built one slot at a time, with no recursion as deep as the slots; at
    # arity 1200 and degree 1 the slot tables read alpha^{tensor j} the same way
    from homleibniz.documents import dump_json, serialize_algebra
    from homleibniz.fixtures import abelian_algebra

    for arity, first, last in ((20, 60, 64), (1200, 1, 1)):
        path = str(tmp_path / f"a1_arity{arity}.json")
        dump_json(serialize_algebra(abelian_algebra(1, arity)), path)
        code, out, err = run(capsys, "cohomology", path, "--degrees", f"{first}..{last}", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["tables"][0]["rows"] == [[p, 1, 0, 1] for p in range(first, last + 1)]


def test_a_high_arity_diagonal_twist_keeps_only_the_powers_it_reads(capsys, tmp_path):
    # the 65-byte document of a 1-dim algebra of arity 10,000 with alpha = (2):
    # w_j = [2^j] is kept for the j the slot tables and the constraints read
    # (n - 2, n - 1 and each degree's input length), not for every j below the
    # arity, which would hold about n^2 / 2 bits (11.7 MiB traced here)
    import tracemalloc

    path = tmp_path / "a1_arity10000.json"
    path.write_text(json.dumps({"arity": 10000, "basis": ["e"], "bracket": {}, "alpha": [["2"]]}))
    assert len(path.read_bytes()) == 65
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "cohomology", str(path), "--degrees", "1..2", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    # f o alpha^{tensor k} = alpha f holds only for k = 1: C^2 is cut to 0
    assert json.loads(out)["tables"][0]["rows"] == [[1, 1, 0, 1], [2, 0, 0, 0]]
    assert peak < 4 * 2**20
