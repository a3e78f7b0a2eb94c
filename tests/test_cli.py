import copy
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from gpnorm import (aut0_generators, classifier, classify, cli, expand_to_primary, generator,
                    named_presentation, norm_ball, norm_lower, norm_upper, orbit, power)
from gpnorm.classifier import HOMOMORPHISM, SPLIT_QM, verdict_from_obj, verdict_to_obj
from gpnorm.cli import build_parser, main
from gpnorm.corpus import NAMED, gen_corpus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def corpus_dir(tmp_path):
    gen_corpus(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf(corpus_dir, capsys):
    code, out, _ = run(capsys, "nf", str(corpus_dir / "psl.json"), "b^4")
    assert code == 0 and out.strip() == "b"


def test_nf_bad_word(corpus_dir, capsys):
    code, _, err = run(capsys, "nf", str(corpus_dir / "psl.json"), "zzz")
    assert code == 1 and "error" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/x.json")
    assert code == 1 and "error" in err


def test_usage_error_exit_1(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nf"])  # missing arguments
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["norm", "psl.json", "a b", "--seed", "1"],  # not --seed-word
    ["orbit", "psl.json", "--seed", "a", "--orbit-depth", "0"],
])
def test_abbreviated_flags_are_usage_errors(corpus_dir, capsys, argv):
    argv[1] = str(corpus_dir / argv[1])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed" in err and err.startswith("usage:")


def test_classify_json(corpus_dir, capsys):
    code, out, _ = run(capsys, "classify", str(corpus_dir / "dinf.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["bounded"] is True
    assert obj["certificate"]["kind"] == "BOUNDED_DECOMPOSITION"
    assert obj["certificate"]["payload"]["m"] == 1


def test_classify_expands_composite_orders(tmp_path, capsys):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({"vertices": [{"id": "a", "order": 6}]}))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and json.loads(out)["bounded"] is True


def test_composite_order_vertex_in_words(corpus_dir, tmp_path, capsys):
    # a of order 6 expands to a.0 (C_2) and a.1 (C_3); a^e reads as a.0^e a.1^e
    c6 = str(corpus_dir / "c6_star_z.json")
    for text, want in [("a b", "a.0 a.1 b"), ("a.0 a.1 b", "a.0 a.1 b"), ("a^6", ""),
                       ("a^-1 b a^7", "a.0 a.1^2 b a.0 a.1")]:
        assert run(capsys, "nf", c6, text) == (0, want + "\n", "")
    code, out, _ = run(capsys, "norm", c6, "a^5", "--radius", "2")
    assert code == 0 and json.loads(out)["word"] == "a.0 a.1^2"
    code, out, _ = run(capsys, "distortion", c6, "a", "--nmax", "2", "--radius", "2")
    assert code == 0 and out.splitlines()[0] == "n,lower,upper"
    code, out, _ = run(capsys, "orbit", c6, "--seed-word", "a b^-1", "--orbit-depth", "0")
    assert (code, out) == (0, "a.0 a.1 b^-1\n")
    # a vertex given as several factors is not cyclic
    path = tmp_path / "c2xc3.json"
    path.write_text(json.dumps({"vertices": [{"id": "a", "factors": [2, 3]}]}))
    code, out, err = run(capsys, "nf", str(path), "a")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "a.0 a.1" in err


def test_norm_json(corpus_dir, capsys):
    code, out, _ = run(
        capsys, "norm", str(corpus_dir / "dinf.json"), "a b a",
        "--radius", "2", "--orbit-depth", "4", "--len-cap", "9",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["upper"] == 1  # a b a is in the orbit
    assert obj["lower"] == "0"


def test_norm_radius_3_builds_half_radius_ball(tmp_path, capsys):
    """random_3_002 of ``gen-corpus --random 6 --seed 3``: C_4, Z and an
    edge C_2 - C_2.  The full radius-3 ball over its 176 orbit elements
    does not fit in 2 GB; radius 3 reads the radius-2 ball instead."""
    path = tmp_path / "random_3_002.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v0", "order": 4}, {"id": "v1", "order": "inf"},
                     {"id": "v2", "order": 2}, {"id": "v3", "order": 2}],
        "edges": [["v2", "v3"]],
    }))
    start = time.perf_counter()
    code, out, _ = run(capsys, "norm", str(path), "v1 v3 v3", "--orbit-depth", "2",
                       "--len-cap", "8", "--radius", "3")
    assert time.perf_counter() - start < 5
    obj = json.loads(out)
    assert code == 0 and obj["upper"] == 1 and obj["params"]["orbit_size"] == 176


def test_norm_with_custom_generators(corpus_dir, capsys):
    code, out, _ = run(
        capsys, "norm", str(corpus_dir / "z2.json"), "a b^4",
        "--radius", "2", "--orbit-depth", "6", "--len-cap", "9",
        "--gen", "tv(a,b)", "--seed-word", "a", "--seed-word", "b",
    )
    assert code == 0
    assert json.loads(out)["upper"] == 1  # a b^4 is itself an orbit element


def test_custom_orbit_is_labelled(corpus_dir, tmp_path, capsys):
    """With --gen or --seed-word the upper bound is over another orbit, so it
    bounds another norm: norm marks its params and both commands write one
    stderr note; the default orbit gets neither."""
    graph = str(corpus_dir / "psl.json")
    cert = tmp_path / "psl.v"
    assert run(capsys, "classify", graph, "--out", str(cert))[0] == 0
    w = " ".join(["a b"] * 18)
    code, out, err = run(capsys, "norm", graph, w, "--cert", str(cert), "--seed-word", w,
                         "--orbit-depth", "0", "--len-cap", "40", "--radius", "1")
    obj = json.loads(out)
    assert code == 0 and (obj["lower"], obj["upper"]) == ("3", 1)
    assert obj["params"]["custom_orbit"] is True
    assert err.count("\n") == 1 and "different norm" in err
    code, out, err = run(capsys, "norm", graph, "a b", "--radius", "1")
    assert code == 0 and "custom_orbit" not in json.loads(out)["params"] and err == ""


def test_custom_orbit_note_on_distortion(corpus_dir, capsys):
    argv = ["distortion", str(corpus_dir / "z2.json"), "a b", "--nmax", "2", "--radius", "2"]
    code, default, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, "--gen", "tv(a,b)")
    assert code == 0 and out.splitlines()[0] == "n,lower,upper"
    assert err.count("\n") == 1 and "different norm" in err


def test_parser_is_built_once_and_keeps_no_values(corpus_dir, capsys):
    assert build_parser() is build_parser()
    argv = ["orbit", str(corpus_dir / "z2.json"), "--orbit-depth", "2", "--len-cap", "4",
            "--gen", "tv(a,b)", "--seed-word", "a"]
    first = run(capsys, *argv)
    assert first[0] == 0
    assert first[1].splitlines() == ["a", "a b^-1", "a b", "a b^-2", "a b^2"]
    assert run(capsys, *argv) == first
    ns = build_parser().parse_args(argv)
    assert ns.gen == ["tv(a,b)"] and ns.seed_word == ["a"]
    ns = build_parser().parse_args(["orbit", "g.json"])
    assert ns.gen == [] and ns.seed_word == []


def test_distortion_csv_and_cert(corpus_dir, tmp_path, capsys):
    cert = tmp_path / "psl.cert"
    svg = tmp_path / "plot.svg"
    code, out, _ = run(
        capsys, "distortion", str(corpus_dir / "psl.json"), "a b",
        "--nmax", "6", "--cert", str(cert), "--radius", "4",
        "--orbit-depth", "3", "--len-cap", "8", "--svg", str(svg),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lower,upper"
    assert lines[1].startswith("1,1/6,")
    assert lines[6].startswith("6,1,")
    assert cert.exists() and json.loads(cert.read_text())["kind"] == "SPLIT_QM"
    assert svg.read_text().startswith("<svg")
    # second run reuses the certificate file
    code2, out2, _ = run(
        capsys, "distortion", str(corpus_dir / "psl.json"), "a b",
        "--nmax", "6", "--cert", str(cert), "--radius", "4",
        "--orbit-depth", "3", "--len-cap", "8",
    )
    assert code2 == 0 and out2 == out


def test_classes_json_and_dot(corpus_dir, capsys):
    code, out, _ = run(capsys, "classes", str(corpus_dir / "path_raag.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["bounded_form"] is False
    assert obj["hasse_dot"].startswith("digraph")
    assert obj["complement_dot"].startswith("graph")
    code, out, _ = run(capsys, "classes", str(corpus_dir / "path_raag.json"),
                       "--format", "dot")
    assert code == 0 and "digraph" in out


def test_orbit_dump(corpus_dir, capsys):
    code, out, err = run(
        capsys, "orbit", str(corpus_dir / "dinf.json"),
        "--orbit-depth", "2", "--len-cap", "5",
    )
    assert code == 0
    words = out.strip().splitlines()
    assert "a" in words and "a b a" in words
    assert "size=" in err


def test_verify_pass_and_fail(corpus_dir, tmp_path, capsys):
    verdict_path = tmp_path / "v.json"
    code, out, _ = run(
        capsys, "classify", str(corpus_dir / "path_raag.json"),
        "--out", str(verdict_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(corpus_dir / "path_raag.json"),
                       str(verdict_path))
    assert code == 0 and json.loads(out)["passed"] is True
    # tamper: replace the chain by a non-lower-cone
    obj = json.loads(verdict_path.read_text())
    obj["certificate"]["chain"] = [["b"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(corpus_dir / "path_raag.json"), str(bad))
    assert code == 2
    rep = json.loads(out)
    assert rep["passed"] is False
    assert any("tv(" in c["detail"] for c in rep["checks"] if c["status"] == "FAIL")


def test_norm_and_distortion_verify_certificate_first(tmp_path, capsys):
    graph = tmp_path / "c4c4.json"
    graph.write_text(json.dumps({"vertices": [{"id": "a", "order": 4}, {"id": "b", "order": 4}]}))
    cert = tmp_path / "c4c4.cert"
    assert run(capsys, "classify", str(graph), "--out", str(cert))[0] == 0
    norm = ["norm", str(graph), "a b", "--cert", str(cert), "--radius", "2"]
    distortion = ["distortion", str(graph), "a b", "--cert", str(cert), "--nmax", "2",
                  "--radius", "2"]
    code, out, _ = run(capsys, *norm)
    assert code == 0 and json.loads(out)["lower"] == "1/3"
    # an understated defect would make norm report lower 100
    obj = json.loads(cert.read_text())
    obj["certificate"]["payload"]["defect"] = "1/100"
    cert.write_text(json.dumps(obj))
    for argv in (norm, distortion):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "split-defect-constant" in err


def test_distortion_verifies_the_certificate_it_writes(tmp_path, capsys, monkeypatch):
    """With no file at --cert, distortion writes classify's certificate and
    then verifies it like a given one: a false certificate exits 2."""
    graph = tmp_path / "c4c4.json"
    graph.write_text(json.dumps({"vertices": [{"id": "a", "order": 4}, {"id": "b", "order": 4}]}))
    calls = []
    verify = classifier.verify_certificate
    monkeypatch.setattr(classifier, "verify_certificate",
                        lambda p, v: calls.append(v) or verify(p, v))
    cert = tmp_path / "c4c4.cert"
    argv = ["distortion", str(graph), "a b", "--cert", str(cert), "--nmax", "2", "--radius", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and cert.exists() and len(calls) == 1
    assert run(capsys, *argv) == (0, out, "") and len(calls) == 2
    # an understated defect, as classify's own answer, would give lower 100
    real = classify

    def forged(p):
        obj = verdict_to_obj(real(p))
        obj["certificate"]["payload"]["defect"] = "1/100"
        return verdict_from_obj(p, obj)
    monkeypatch.setattr(classifier, "classify", forged)
    cert.unlink()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(calls) == 3
    assert len(err.strip().splitlines()) == 1 and "split-defect-constant" in err


def _sigma_left(base):
    """c2c2c2's sigma_left, the zero function on <a>, given a power base."""
    return {"power_base": base, "side": ["a"], "sup_norm": "0", "table": {}, "zero": True}


# (field of the c2c2c2 certificate, tampered value, exit code, the failed
# check on exit 2 or the error text on exit 1)
TAMPERED = {
    "chain-not-nested": ("chain", [["c"], ["a", "b", "c"]], 2, "chain-subset"),
    "chain-unknown-vertices": ("chain", [["a", "q", "r", "s"]], 1, "unknown vertex 'q'"),
    "split-side-outside-step": ("split_left", ["q", "r", "s"], 2, "split-valid"),
    "split-side-empty": ("split_left", [], 2, "split-valid"),
    # the identity, written empty or as an involution squared, has no sign rule
    "power-base-empty": ("sigma_left", _sigma_left(""), 2, "split-power-base"),
    "power-base-b^2": ("sigma_left", _sigma_left("b^2"), 2, "split-power-base"),
}


@pytest.mark.parametrize("case", TAMPERED)
def test_tampered_certificate_output_independent_of_hash_seed(corpus_dir, tmp_path, case):
    """verify, norm --cert and distortion --cert read a tampered certificate
    to the same bytes under two hash seeds: a non-nested chain, a split
    side outside the last step and an identity power base are FAILs, and
    an unknown vertex is named in input order."""
    field, value, want_code, want = TAMPERED[case]
    obj = verdict_to_obj(classify(named_presentation("c2c2c2")))
    cert = obj["certificate"]
    (cert if field == "chain" else cert["payload"])[field] = value
    path = tmp_path / "tampered.v"
    path.write_text(json.dumps(obj))
    graph = str(corpus_dir / "c2c2c2.json")
    for argv in (["verify", graph, str(path)],
                 ["norm", graph, "a b", "--cert", str(path), "--radius", "1"],
                 ["distortion", graph, "a b", "--cert", str(path), "--nmax", "2",
                  "--radius", "1"]):
        code, out, err = _under_hash_seeds(argv)
        assert code == want_code, err
        assert err.count("\n") <= 1 and "Traceback" not in err
        if code == 1:
            assert want in err
        elif argv[0] == "verify":
            failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
            assert failed == [want]
        else:
            assert out == "" and f"certificate fails {want}:" in err


MUTANT_VALUES = [None, [], {}, "", 0, 1, -1, True, 1.5, "x", ["a"], {"a": "1"}, "1/0", "a b",
                 "b^2", "zz"]


def _node_paths(node, path=()):
    """The key path of every node below node, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def test_mutated_certificates_exit_cleanly_and_bound_soundly(corpus_dir, tmp_path, capsys):
    """Hostile-certificate referee.  Each node below the root of each named
    verdict that classify --out writes is replaced in turn by each of
    MUTANT_VALUES.  verify and norm --cert return 0, 1 or 2 on every mutant
    and raise nothing; norm --cert exits as verify does, and writes one
    stderr line unless it passes.  An upper bound from genuine orbit
    elements is true, so each passed HOMOMORPHISM or SPLIT_QM mutant must
    give norm_lower(w^k) <= norm_upper(w^k) for its witness w, k = 1..4,
    wherever the Aut0 orbit of the vertices (depth 2, cap 8) bounds w^k
    within radius 4."""
    codes, checks, bounded = Counter(), 0, 0
    mutant = tmp_path / "mutant.json"
    for name in NAMED:
        graph = str(corpus_dir / f"{name}.json")
        verdict = tmp_path / f"{name}.verdict"
        assert run(capsys, "classify", graph, "--out", str(verdict))[0] == 0
        obj = json.loads(verdict.read_text())
        p = expand_to_primary(named_presentation(name))
        ball = None
        for path in _node_paths(obj):
            for value in MUTANT_VALUES:
                mut = copy.deepcopy(obj)
                node = mut
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = copy.deepcopy(value)
                mutant.write_text(json.dumps(mut))
                code, _, err = run(capsys, "verify", graph, str(mutant))
                assert code in (0, 1, 2) and (code != 1 or err.count("\n") == 1), (path, value)
                codes[code] += 1
                norm_code, _, err = run(capsys, "norm", graph, "a", "--cert", str(mutant),
                                        "--orbit-depth", "1", "--len-cap", "4", "--radius", "2")
                assert norm_code == code and (code == 0 or err.count("\n") == 1), (path, value)
                cert = verdict_from_obj(p, mut).certificate if code == 0 else None
                if cert is None or cert.kind not in (HOMOMORPHISM, SPLIT_QM):
                    continue
                if ball is None:
                    orb = orbit(p, [generator(p, v) for v in p.vertex_ids], aut0_generators(p),
                                2, 8)
                    ball = norm_ball(p, orb, 4)
                for k in range(1, 5):
                    xk = power(p, cert.witness, k)
                    upper = norm_upper(p, xk, orb, 4, ball=ball)
                    checks += 1
                    if upper is not None:
                        bounded += 1
                        assert norm_lower(p, xk, cert) <= upper, (name, path, value, k)
    assert codes == {0: 315, 1: 2311, 2: 206}
    assert (checks, bounded) == (616, 506)


def _under_hash_seeds(argv):
    """(exit code, stdout, stderr) of the CLI, the same under PYTHONHASHSEED
    1 and 2."""
    runs = [
        subprocess.run(
            [sys.executable, "-m", "gpnorm.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60,
        )
        for seed in ("1", "2")
    ]
    outputs = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert outputs[0] == outputs[1]
    return outputs[0]


def test_classes_dot_independent_of_hash_seed(corpus_dir):
    code, out, _ = _under_hash_seeds(
        ["classes", str(corpus_dir / "path_raag.json"), "--format", "dot"])
    assert code == 0 and 'graph complement {' in out


def test_malformed_certificate_file_exits_1(corpus_dir, tmp_path, capsys):
    graph = str(corpus_dir / "psl.json")
    verdict = tmp_path / "v.json"
    assert run(capsys, "classify", graph, "--out", str(verdict))[0] == 0
    obj = json.loads(verdict.read_text())
    assert obj["certificate"]["kind"] == "SPLIT_QM"
    listed = dict(obj, certificate=[])
    table_list = json.loads(verdict.read_text())
    table_list["certificate"]["payload"]["sigma_right"]["table"] = []
    no_sigma = obj["certificate"]  # a bare certificate
    del no_sigma["payload"]["sigma_left"]
    for name, bad in [("no_sigma.json", no_sigma), ("listed.json", listed),
                      ("table_list.json", table_list)]:
        path = tmp_path / name
        path.write_text(json.dumps(bad))
        for argv in (["verify", graph, str(path)],
                     ["norm", graph, "a b", "--cert", str(path), "--radius", "1"],
                     ["distortion", graph, "a b", "--cert", str(path), "--nmax", "1",
                      "--radius", "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and f"malformed certificate file {path}" in err


# (presentation, path of a vertex list in its verdict): each is replaced by
# a string, which must not be read as a list of one-letter vertices
STRING_FIELDS = {
    "chain-step": ("path_raag", ("certificate", "chain"), ["ac"]),
    "finite-part": ("dinf_x_c2", ("certificate", "payload", "finite_part"), "c"),
    "split-left": ("psl", ("certificate", "payload", "split_left"), "a"),
    "side": ("psl", ("certificate", "payload", "sigma_left", "side"), "a"),
}


@pytest.mark.parametrize("case", STRING_FIELDS)
def test_vertex_list_given_as_string_exits_1(corpus_dir, tmp_path, capsys, case):
    name, keys, value = STRING_FIELDS[case]
    graph = str(corpus_dir / f"{name}.json")
    obj = verdict_to_obj(classify(named_presentation(name)))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "v.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", graph, str(path))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert f"malformed certificate file {path} (TypeError:" in err


# (presentation, fields of its verdict, replacements): a JSON value that
# compares equal to the right one (True == 1, 0.0 == 0) or is truthy must
# still be refused as the wrong type
WRONG_TYPES = {
    "bool-and-float-counts": ("dinf_x_c2", ("certificate", "payload"), {"m": True, "n": 0.0}),
    "float-count": ("dinf_x_c2", ("certificate", "payload"), {"n": 0.0}),
    "string-bounded": ("psl", (), {"bounded": "no"}),
    "integer-bounded": ("dinf_x_c2", (), {"bounded": 1}),
    # rationals are JSON strings, as certificate_to_obj writes them
    "bool-defect": ("psl", ("certificate", "payload"), {"defect": True}),
    "integer-defect": ("psl", ("certificate", "payload"), {"defect": 3}),
    "float-sup-norm": ("psl", ("certificate", "payload", "sigma_right"), {"sup_norm": 3.0}),
    "integer-table-value": ("psl", ("certificate", "payload", "sigma_right"),
                            {"table": {"b": 1, "b^2": "-1"}}),
    "list-target-vertex": ("z", ("certificate", "payload"), {"target_vertex": ["a"]}),
    "list-citation": ("f2", ("certificate", "payload"), {"citation": ["FREE_GROUP_PRIMITIVES"]}),
    "list-note": ("psl", ("certificate",), {"note": [1, 2]}),
    "string-trace": ("psl", (), {"trace": "abc"}),
    # derived fields are computed, never read, but must still have their type
    "string-zero": ("psl", ("certificate", "payload", "sigma_right"), {"zero": "x"}),
    "list-homogenized-defect": ("psl", ("certificate", "payload"), {"homogenized_defect": [1]}),
    # a word is a JSON string, not a list of syllables
    "list-witness": ("psl", ("certificate",), {"witness": ["a", "b"]}),
    "list-power-base": ("c2c2c2", ("certificate", "payload", "sigma_right"),
                        {"power_base": ["b", "c"]}),
    # a rational is n or n/d as str(Fraction) writes it: no zero denominator,
    # no exponent (Fraction would build 10^999999999), no nan
    "zero-denominator-defect": ("psl", ("certificate", "payload"), {"defect": "1/0"}),
    "zero-denominator-table-value": ("psl", ("certificate", "payload", "sigma_right"),
                                     {"table": {"b": "1/0", "b^2": "-1"}}),
    "exponent-defect": ("psl", ("certificate", "payload"), {"defect": "1e999999999"}),
    "nan-defect": ("psl", ("certificate", "payload"), {"defect": "nan"}),
    # more digits than int() converts
    "long-defect": ("psl", ("certificate", "payload"), {"defect": "1" * 5001}),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_wrong_json_type_exits_1(corpus_dir, tmp_path, capsys, case):
    name, keys, fields = WRONG_TYPES[case]
    graph = str(corpus_dir / f"{name}.json")
    obj = verdict_to_obj(classify(named_presentation(name)))
    target = obj
    for key in keys:
        target = target[key]
    target.update(fields)
    path = tmp_path / "v.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", graph, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert f"malformed certificate file {path} (TypeError:" in err


@pytest.mark.parametrize("command", ["classify", "verify", "norm"])
def test_deeply_nested_json_exits_1(corpus_dir, tmp_path, capsys, command):
    """200,000 nested lists overflow the JSON decoder's recursion, in a
    presentation file (classify) or a certificate file (verify, norm
    --cert); each exits 1 with one line."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    graph = str(corpus_dir / "psl.json")
    argv = {"classify": ["classify", str(nested)],
            "verify": ["verify", graph, str(nested)],
            "norm": ["norm", graph, "a b", "--cert", str(nested), "--radius", "1"]}[command]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("gpnorm: error:") and "maximum recursion depth" in err


def test_one_expansion_per_cli_call(corpus_dir, capsys, monkeypatch):
    """The word parser reads each raw vertex's primary ids without expanding
    a presentation again: nf on c6_star_z expands its file once."""
    calls = []
    expand = cli.expand_to_primary
    monkeypatch.setattr(cli, "expand_to_primary", lambda p: calls.append(p) or expand(p))
    assert run(capsys, "nf", str(corpus_dir / "c6_star_z.json"), "a b") == (0, "a.0 a.1 b\n", "")
    assert len(calls) == 1


# the literal and the one stderr line of its rejection
REJECTED_GENERATORS = {
    "tv(b,a)": "tv(b,a): not v <=_tau w",
    "tv(a,a)": "transvection needs v != w",
    "tv(a)": "tv needs 2 arguments: 'tv(a)'",
    "factor(a,2)": "factor(a,2): infinite order needs m = +-1",
    "factor(a,x)": "invalid literal for int() with base 10: 'x'",
    "pc(b,a)": "pc(b,a): a not in any component of Gamma - St(b)",
    "pc(a,zz)": "pc(a,zz): zz not in any component of Gamma - St(a)",
    "graph(a:b,b:a,c:c)": "graph map does not preserve edge b-c",
    "graph(a:c,b:b)": "graph map is not a permutation of the vertices",
    "graph(a)": "graph entries must be v:w pairs: 'graph(a)'",
    "foo(a,b)": "unknown generator family 'foo'",
    "tv": "bad generator literal 'tv'",
}


@pytest.mark.parametrize("literal", REJECTED_GENERATORS)
def test_rejected_generator_literal(corpus_dir, capsys, literal):
    code, out, err = run(capsys, "orbit", str(corpus_dir / "path_raag.json"),
                         "--gen", literal)
    assert (code, out, err) == (1, "", f"gpnorm: error: {REJECTED_GENERATORS[literal]}\n")


@pytest.mark.parametrize("text", ['{"vertices": [1, 2]}', '{"vertices": {"id": "a"}}',
                                  '{"vertices": [{"id": "a", "factors": 6}]}',
                                  '{"vertices": [{"id": "a", "order": 2}], "edges": [1]}',
                                  # ids and endpoints are JSON strings, not str() of a value
                                  '{"vertices": [{"id": null, "order": 2}]}',
                                  '{"vertices": [{"id": [1], "order": 3}]}',
                                  '{"vertices": [{"id": "1", "order": 2}, {"id": "b", "order": 2}],'
                                  ' "edges": [[1, "b"]]}',
                                  # no duplicate is declared: a.0 clashes with part 0 of a
                                  '{"vertices": [{"id": "a", "order": 6}, {"id": "a.0", "order": 2}]}',
                                  '{"edges": []}', '{"vertices": [{"id": "a"}]}',
                                  '{"vertices": [{"id": "a", "order": "x"}]}',
                                  '{"vertices": [{"id": "a", "order": true}]}',
                                  '{"vertices": [{"id": "a", "order": 2.5}]}',
                                  '{"vertices": [{"id": "a", "factors": [1]}]}',
                                  '{"vertices": [{"id": "a", "order": 2}], "edges": [["a", "zz"]]}',
                                  '{"vertices": [{"id": "a", "order": 2}], "edges": [["zz", "a"]]}'])
def test_malformed_presentation_exits_1(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("gpnorm: error:")


def test_part_id_clash_exits_1_with_its_message(tmp_path, capsys):
    path = tmp_path / "clash.json"
    path.write_text('{"vertices": [{"id": "a", "order": 6}, {"id": "a.0", "order": 2}]}')
    assert run(capsys, "classify", str(path)) == (
        1, "", "gpnorm: error: vertex id 'a.0' clashes with part 0 of 'a'\n")


# ids the word, generator or DOT grammar cannot name: at the parent of the id
# rule, classify wrote a certificate whose own verify rejected it, or broken DOT
@pytest.mark.parametrize("vertices", [
    [{"id": "a", "order": "inf"}, {"id": "a^2", "order": "inf"}],
    [{"id": "a b", "order": 2}, {"id": "c", "order": 3}],
    [{"id": 'x"', "order": 2}],
], ids=["caret", "space", "quote"])
def test_unnameable_vertex_id_exits_1(tmp_path, capsys, vertices):
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"vertices": vertices}))
    code, out, err = run(capsys, "classify", str(path), "--out", str(tmp_path / "v"))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("gpnorm: error: vertex id ")
    assert not (tmp_path / "v").exists()


def test_order_above_ceiling_exits_1(tmp_path, capsys):
    """A vertex of order 2^61 - 1 would need minutes of trial division; it
    is refused at once with one line."""
    path = tmp_path / "mersenne61.json"
    path.write_text(json.dumps({"vertices": [{"id": "a", "order": 2**61 - 1},
                                             {"id": "b", "order": "inf"}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err == f"gpnorm: error: order {2**61 - 1} is above the supported ceiling 2^40\n"


def test_gen_corpus_cli(tmp_path, capsys):
    out_dir = tmp_path / "corp"
    code, out, _ = run(
        capsys, "gen-corpus", "--out", str(out_dir), "--random", "3",
        "--max-vertices", "4", "--seed", "1",
    )
    assert code == 0
    listed = out.strip().splitlines()
    assert len(listed) == len(list(out_dir.glob("*.json")))
    # determinism: identical bytes on a second run
    first = {p.name: p.read_bytes() for p in out_dir.glob("*.json")}
    out_dir2 = tmp_path / "corp2"
    run(capsys, "gen-corpus", "--out", str(out_dir2), "--random", "3",
        "--max-vertices", "4", "--seed", "1")
    second = {p.name: p.read_bytes() for p in out_dir2.glob("*.json")}
    assert first == second


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_distortion_experiment_script(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "distortion_experiment.py"),
         "--nmax", "2", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 4
    assert len(list(tmp_path.glob("*.svg"))) == 4
