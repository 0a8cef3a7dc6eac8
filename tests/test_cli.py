import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hkconvex
from hkconvex import cli, lifting
from hkconvex.cli import main

X3 = {
    "points": ["a", "b", "c"],
    "dist": [["a", "b", "1/2"], ["b", "c", "1/2"], ["a", "c", "1"]],
}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


@pytest.fixture
def space_file(files):
    return files("X3.json", X3)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_validate_space(capsys, space_file):
    code, out = run(capsys, "validate-space", "--space", space_file)
    assert code == 0
    assert out == {
        "points": ["a", "b", "c"],
        "dist": [["a", "b", "1/2"], ["a", "c", "1"], ["b", "c", "1/2"]],
    }


def test_validate_space_domain_error(capsys, files):
    bad = files("bad.json", {"points": ["a", "b"], "dist": [["a", "b", "3"]]})
    code, out = run(capsys, "validate-space", "--space", bad)
    assert code == 1
    assert out["error"] == "OutOfRange"


@pytest.mark.parametrize("command", ["validate-space", "derive"])
def test_label_the_term_syntax_cannot_write_is_a_domain_error(capsys, files, command):
    # otherwise derive writes a proof whose conclusion does not parse back
    space = files("space.json", {"points": ["a b", "c"], "dist": [["a b", "c", "1/2"]]})
    argv = [command, "--space", space]
    if command == "derive":
        s1 = files("s1.json", {"generators": [{"a b": "1"}]})
        s2 = files("s2.json", {"generators": [{"a b": "1/2", "c": "1/2"}]})
        argv += ["--left", s1, "--right", s2]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    reply = json.loads(lines[0])
    assert reply["error"] == "MalformedInput" and "'a b'" in reply["detail"]


def test_kantorovich_golden(capsys, space_file, files):
    da = files("da.json", {"a": "1"})
    db = files("db.json", {"b": "1"})
    code, out = run(capsys, "kantorovich", "--space", space_file, "--left", da, "--right", db)
    assert code == 0
    assert out == {"value": "1/2", "witness": [["a", "b", "1"]]}


def test_hausdorff_uses_raw_families(capsys, space_file, files, monkeypatch):
    calls = []
    measure = cli.kantorovich

    def counting(*args):
        calls.append(args[1:])
        return measure(*args)

    monkeypatch.setattr(cli, "kantorovich", counting)
    left = files("l.json", [{"a": "1"}, {"b": "1"}])
    right = files("r.json", [{"c": "1"}])
    code, out = run(capsys, "hausdorff", "--space", space_file, "--left", left, "--right", right)
    assert code == 0
    assert out == {"left_to_right": "1", "right_to_left": "1/2", "value": "1"}
    # both directions read one table: each pair is measured once
    assert len(calls) == len(set(calls)) == 2


def test_hk_accepts_both_set_encodings(capsys, space_file, files):
    as_list = files("l.json", [{"a": "1"}, {"b": "1"}, {"a": "1/2", "b": "1/2"}])
    as_object = files("r.json", {"generators": [{"c": "1"}]})
    code, out = run(capsys, "hk", "--space", space_file, "--left", as_list, "--right", as_object)
    assert code == 0
    assert out["value"] == "1"


def test_base_drops_interior_generators(capsys, space_file, files):
    s = files("s.json", {"generators": [{"a": "1"}, {"b": "1"}, {"a": "1/2", "b": "1/2"}]})
    code, out = run(capsys, "base", "--space", space_file, "--set", s)
    assert code == 0
    assert out == {"generators": [{"a": "1"}, {"b": "1"}]}


def test_normalize(capsys, space_file):
    code, out = run(
        capsys, "normalize", "--space", space_file, "--term", "(oplus a (p+ 1/2 a b))"
    )
    assert code == 0
    assert out == {
        "set": {"generators": [{"a": "1/2", "b": "1/2"}, {"a": "1"}]},
        "term": "(oplus (p+ 1/2 a b) a)",
    }


def test_nu(capsys, space_file, files):
    s = files("s.json", {"generators": [{"b": "1"}, {"a": "1"}]})
    code, out = run(capsys, "nu", "--space", space_file, "--set", s)
    assert code == 0
    assert out == {"term": "(oplus a b)"}


def test_tdist_trivial(capsys, space_file):
    code, out = run(capsys, "tdist", "--space", space_file, "a", "a")
    assert code == 0
    assert out == {"value": "0"}


def test_tdist_parse_error_carries_position(capsys, space_file):
    code, out = run(capsys, "tdist", "--space", space_file, "(oplus a", "a")
    assert code == 1
    assert out["error"] == "ParseError"
    assert out["position"] == 8


def test_oplus_plusp_mu(capsys, space_file, files):
    s1 = files("s1.json", {"generators": [{"a": "1"}, {"b": "1"}]})
    s2 = files("s2.json", {"generators": [{"c": "1"}]})
    code, out = run(capsys, "oplus", "--space", space_file, "--left", s1, "--right", s2)
    assert code == 0
    assert out == {"generators": [{"a": "1"}, {"b": "1"}, {"c": "1"}]}

    code, out = run(
        capsys, "plusp", "--space", space_file, "--p", "1/2", "--left", s1, "--right", s2
    )
    assert code == 0
    assert out == {"generators": [{"a": "1/2", "c": "1/2"}, {"b": "1/2", "c": "1/2"}]}

    nested = files(
        "nested.json",
        {
            "generators": [
                [
                    [{"generators": [{"a": "1"}]}, "1/2"],
                    [[{"b": "1"}], "1/2"],
                ]
            ]
        },
    )
    code, out = run(capsys, "mu", "--space", space_file, "--set", nested)
    assert code == 0
    assert out == {"generators": [{"a": "1/2", "b": "1/2"}]}


def test_plusp_rejects_endpoint(capsys, space_file, files):
    s1 = files("s1.json", {"generators": [{"a": "1"}]})
    code, out = run(capsys, "plusp", "--space", space_file, "--p", "1", "--left", s1, "--right", s1)
    assert code == 1
    assert out["error"] == "BadProbability"


def test_derive_then_check_round_trip(capsys, space_file, files, tmp_path):
    s1 = files("s1.json", {"generators": [{"a": "1"}, {"b": "1"}]})
    s2 = files("s2.json", {"generators": [{"c": "1"}]})
    code, out = run(capsys, "derive", "--space", space_file, "--left", s1, "--right", s2)
    assert code == 0
    assert out["conclusion"]["eps"] == "1"
    proof = files("proof.json", out)
    gamma = files("gamma.json", out["hypotheses"])
    code, res = run(capsys, "check", "--space", space_file, "--gamma", gamma, "--proof", proof)
    assert code == 0
    assert res == {"ok": True, "path": [], "reason": ""}


def test_check_rejects_tampered_proof(capsys, space_file, files):
    s1 = files("s1.json", {"generators": [{"a": "1"}]})
    s2 = files("s2.json", {"generators": [{"b": "1"}]})
    _, proof_obj = run(capsys, "derive", "--space", space_file, "--left", s1, "--right", s2)
    proof_obj["conclusion"]["eps"] = "0"
    proof = files("tampered.json", proof_obj)
    gamma = files("gamma.json", proof_obj["hypotheses"])
    code, res = run(capsys, "check", "--space", space_file, "--gamma", gamma, "--proof", proof)
    assert code == 1
    assert res["ok"] is False
    assert res["reason"]


def test_laws_and_roundtrip(capsys, space_file):
    code, out = run(capsys, "laws", "--space", space_file, "--seed", "3", "--trials", "8")
    assert code == 0
    assert out["ok"] is True and out["trials"] == 8

    code, out = run(capsys, "roundtrip", "--space", space_file, "--samples", "8", "--seed", "3")
    assert code == 0
    assert out["gf"]["ok"] is True and out["fg"]["ok"] is True


def test_laws_loads_its_space(capsys, space_file, files):
    # The laws draw their own spaces, yet a missing or malformed --space
    # file gets the same error reply as in every other subcommand.
    bad = files("bad.json", {"points": ["a", "a"], "dist": []})
    for path, error in (("no.json", "FileNotFound"), (bad, "DuplicateLabel")):
        replies = [run(capsys, command, "--space", path) for command in ("laws", "validate-space")]
        assert replies[0] == replies[1]
        assert replies[0][0] == 1 and replies[0][1]["error"] == error


@pytest.mark.parametrize(
    "argv",
    [["laws", "--trials", "-1"], ["roundtrip", "--samples", "-3"]],
    ids=["laws-trials", "roundtrip-samples"],
)
def test_negative_count_is_a_usage_error(capsys, space_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--space", space_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 0" in captured.err


def test_usage_error_exits_2(capsys, space_file):
    with pytest.raises(SystemExit) as exc:
        main(["kantorovich", "--space", space_file])
    assert exc.value.code == 2


def test_subcommands_in_one_process_print_what_fresh_processes_do(capsys, space_file, files):
    da = files("da.json", {"a": "1"})
    db = files("db.json", {"b": "1/2", "c": "1/2"})
    s1 = files("s1.json", {"generators": [{"b": "1"}, {"a": "1"}, {"a": "1/2", "b": "1/2"}]})
    commands = [
        ["kantorovich", "--space", space_file, "--left", da, "--right", db],
        ["base", "--space", space_file, "--set", s1],
        ["validate-space", "--space", space_file],
        ["kantorovich", "--space", space_file, "--left", db, "--right", da],
    ]
    in_process = []
    for argv in commands:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        main(["base", "--space", space_file])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(commands[0]) == 0
    assert capsys.readouterr().out == in_process[0]
    assert cli._build_parser() is cli._build_parser()
    src = os.path.dirname(os.path.dirname(os.path.abspath(hkconvex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, out in zip(commands, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "hkconvex.cli", *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert fresh.stdout == out


def test_missing_file_reports_error(capsys, space_file):
    code = main(["kantorovich", "--space", space_file, "--left", "no.json", "--right", "no.json"])
    assert code == 1
    assert capsys.readouterr().out == (
        '{"detail": "[Errno 2] No such file or directory: \'no.json\'", "error": "FileNotFound"}\n'
    )


def test_output_is_byte_stable(capsys, space_file, files):
    s1 = files("s1.json", {"generators": [{"b": "1"}, {"a": "1"}]})
    outs = set()
    for _ in range(2):
        main(["base", "--space", space_file, "--set", s1])
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_bad_rational_weight_is_a_domain_error(capsys, space_file, files):
    bad = files("bad.json", {"generators": [{"a": "x"}]})
    good = files("good.json", {"generators": [{"a": "1"}]})
    code, out = run(capsys, "hk", "--space", space_file, "--left", bad, "--right", good)
    assert code == 1
    assert out["error"] == "MalformedInput"
    assert "'x'" in out["detail"]
    floating = files("float.json", {"generators": [{"a": 0.5, "b": 0.5}]})
    code, out = run(capsys, "base", "--space", space_file, "--set", floating)
    assert code == 1
    assert out["error"] == "MalformedInput"
    code, out = run(capsys, "plusp", "--space", space_file, "--p", "x", "--left", good, "--right", good)
    assert code == 1
    assert out["error"] == "MalformedInput"


@pytest.mark.parametrize("command", ["validate-space", "base", "check"])
def test_json_booleans_are_not_rationals(capsys, space_file, files, command):
    # JSON true is a Python bool, which is an int; it must not read as 1
    if command == "validate-space":
        space = files("space.json", {"points": ["a", "b"], "dist": [["a", "b", True]]})
        argv = ["validate-space", "--space", space]
    elif command == "base":
        cset = files("set.json", {"generators": [{"a": True}]})
        argv = ["base", "--space", space_file, "--set", cset]
    else:
        s1 = files("s1.json", {"generators": [{"a": "1"}, {"b": "1"}]})
        s2 = files("s2.json", {"generators": [{"c": "1"}]})
        _, proof_obj = run(capsys, "derive", "--space", space_file, "--left", s1, "--right", s2)
        assert proof_obj["conclusion"]["eps"] == "1"
        proof_obj["conclusion"]["eps"] = True
        gamma = files("gamma.json", proof_obj["hypotheses"])
        proof = files("proof.json", proof_obj)
        argv = ["check", "--space", space_file, "--gamma", gamma, "--proof", proof]
    code, out, err = _run_quietly(argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == "MalformedInput"


@pytest.mark.parametrize("where", ["space", "distribution", "eps", "term"])
def test_exponent_notation_is_not_a_rational(capsys, space_file, files, where):
    # Fraction("1e10000000") builds a ten-million-digit integer before any
    # range check, so every reader refuses exponents, even small ones.
    if where == "space":
        space = files("space.json", {"points": ["a", "b"], "dist": [["a", "b", "1e-1"]]})
        argv = ["validate-space", "--space", space]
    elif where == "distribution":
        left = files("l.json", {"a": "1e-1", "b": "9/10"})
        right = files("r.json", {"c": "1"})
        argv = ["kantorovich", "--space", space_file, "--left", left, "--right", right]
    elif where == "eps":
        s1 = files("s1.json", {"generators": [{"a": "1"}, {"b": "1"}]})
        s2 = files("s2.json", {"generators": [{"c": "1"}]})
        _, proof_obj = run(capsys, "derive", "--space", space_file, "--left", s1, "--right", s2)
        proof_obj["conclusion"]["eps"] = "1e-1"
        gamma = files("gamma.json", proof_obj["hypotheses"])
        proof = files("proof.json", proof_obj)
        argv = ["check", "--space", space_file, "--gamma", gamma, "--proof", proof]
    else:
        argv = ["tdist", "--space", space_file, "(p+ 1e-1 a b)", "a"]
    code, out, err = _run_quietly(argv)
    assert code == 1
    assert out.count("\n") == 1
    reply = json.loads(out)
    if where == "term":
        assert reply["error"] == "ParseError"
        assert reply["position"] == 4
    else:
        assert reply["error"] == "MalformedInput"
        assert "1e-1" in reply["detail"]


@pytest.mark.parametrize("where", ["space", "distribution", "gamma", "proof"])
def test_overlong_json_integer_is_a_parse_error(capsys, space_file, files, tmp_path, where):
    # json.loads refuses an int literal past sys.get_int_max_str_digits()
    # with a bare ValueError; every reader reports where the literal starts.
    big = "1" * (sys.get_int_max_str_digits() + 700)
    s1 = files("s1.json", {"generators": [{"a": "1"}, {"b": "1"}]})
    s2 = files("s2.json", {"generators": [{"c": "1"}]})
    _, proof_obj = run(capsys, "derive", "--space", space_file, "--left", s1, "--right", s2)
    gamma = files("gamma.json", proof_obj["hypotheses"])
    proof = files("proof.json", proof_obj)
    if where == "space":
        obj = {"points": ["a", "b"], "dist": [["a", "b", "BIG"]]}
        argv = ["validate-space", "--space", "FILE"]
    elif where == "distribution":
        obj = {"a": "BIG", "b": "9/10"}
        argv = ["kantorovich", "--space", space_file, "--left", "FILE", "--right", s2]
    elif where == "gamma":
        obj = proof_obj["hypotheses"]
        obj[0]["eps"] = "BIG"
        argv = ["check", "--space", space_file, "--gamma", "FILE", "--proof", proof]
    else:
        obj = proof_obj
        obj["conclusion"]["eps"] = "BIG"
        argv = ["check", "--space", space_file, "--gamma", gamma, "--proof", "FILE"]
    text = json.dumps(obj).replace('"BIG"', big)
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, err = _run_quietly([str(path) if a == "FILE" else a for a in argv])
    assert code == 1
    assert out.count("\n") == 1
    reply = json.loads(out)
    assert reply["error"] == "ParseError"
    assert reply["position"] == text.index(big)
    assert "Traceback" not in err


def test_hk_projects_each_base_point_once(capsys, space_file, files, monkeypatch):
    calls = []
    project = lifting.nearest_point

    def counting(*args, **kwargs):
        calls.append(args[1])
        return project(*args, **kwargs)

    monkeypatch.setattr(lifting, "nearest_point", counting)
    measured = []
    measure = lifting.kantorovich

    def counting_pairs(*args):
        measured.append(args[1:])
        return measure(*args)

    monkeypatch.setattr(lifting, "kantorovich", counting_pairs)
    left = files("l.json", [{"a": "1"}, {"b": "1"}])
    right = files("r.json", [{"c": "1"}, {"a": "1/2", "c": "1/2"}])
    code, out = run(capsys, "hk", "--space", space_file, "--left", left, "--right", right)
    assert code == 0
    assert out == {"left_to_right": "1/2", "right_to_left": "1/2", "value": "1/2"}
    # Both directions read one table of base-to-base distances, so each
    # of the 2 x 2 pairs is measured once.
    assert len(measured) == len(set(measured)) == 4
    # No base point is projected twice. From left to right, b's nearest
    # right base point is at 1/2, no more than a's projection distance, so
    # b is not projected at all.
    assert len(calls) == len(set(calls)) == 3
    assert {"b": 1} not in [dict(g.items()) for g in calls]


def test_space_without_dist_is_a_domain_error(capsys, files):
    space = files("space.json", {"points": ["a", "b"]})
    code, out = run(capsys, "validate-space", "--space", space)
    assert code == 1
    assert out == {"error": "MalformedInput", "detail": "space object missing field 'dist'"}


def test_set_without_generators_is_a_domain_error(capsys, space_file, files):
    s = files("s.json", {"gens": [{"a": "1"}]})
    code, out = run(capsys, "base", "--space", space_file, "--set", s)
    assert code == 1
    assert out == {
        "error": "MalformedInput",
        "detail": "convex set object missing field 'generators'",
    }


def test_nested_set_of_wrong_shape_is_a_domain_error(capsys, space_file, files):
    nested = files("nested.json", {"generators": [[["x"]]]})
    code, out = run(capsys, "mu", "--space", space_file, "--set", nested)
    assert code == 1
    assert out["error"] == "MalformedInput"


def _deep_term() -> str:
    term = "a"
    for _ in range(sys.getrecursionlimit() + 200):
        term = f"(oplus {term} a)"
    return term


def test_tdist_on_a_too_deep_term_is_a_domain_error(capsys, space_file):
    code, out = run(capsys, "tdist", "--space", space_file, _deep_term(), "a")
    assert code == 1
    assert out["error"] == "TooDeep"


def test_check_on_a_too_deep_term_is_a_domain_error(capsys, space_file, files):
    gamma = files("gamma.json", [{"eps": "0", "l": _deep_term(), "r": "a"}])
    proof = files("proof.json", PROOF)
    code, out = run(capsys, "check", "--space", space_file, "--gamma", gamma, "--proof", proof)
    assert code == 1
    assert out["error"] == "TooDeep"


# Fuzzing: malformed space, set, hypothesis and proof files. Each document
# is either arbitrary JSON or a valid document with one entry replaced or
# removed, so that the wrong shapes reach every reader.

SET = {"generators": [{"a": "1"}, {"b": "1/2", "c": "1/2"}]}
NESTED = {"generators": [[[SET, "1/2"], [[{"c": "1"}], "1/2"]], [[SET, "1"]]]}


def _write(folder: str, **docs) -> dict:
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(folder, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    return paths


def _valid_proof() -> dict:
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        paths = _write(folder, space=X3, left=SET, right={"generators": [{"c": "1"}]})
        with contextlib.redirect_stdout(out):
            assert main(["derive", "--space", paths["space"], "--left", paths["left"],
                         "--right", paths["right"]]) == 0
    return json.loads(out.getvalue())


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5)
    | st.sampled_from(["a", "b", "1/2", "0", "x", "(oplus a b)", "(p+ 1/2 a", "Refl"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["points", "dist", "generators", "rule", "conclusion",
                         "premises", "subst", "theta", "hypotheses", "axiom",
                         "l", "r", "eps", "a", "b"]) | st.text(max_size=3),
        inner,
        max_size=3,
    ),
    max_leaves=8,
)


def _slots(doc, holder, key):
    """(container, key) of every value in doc, the document itself first."""
    yield holder, key
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _slots(v, doc, k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _slots(v, doc, i)


@st.composite
def malformed(draw, valid):
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUES)
    root = [copy.deepcopy(valid)]
    slots = list(_slots(root[0], root, 0))
    holder, key = slots[draw(st.integers(0, len(slots) - 1))]
    if holder is not root and draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(JSON_VALUES)
    return root[0]


def _run_quietly(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


PROOF = _valid_proof()


@given(
    space=malformed(X3),
    cset=malformed(SET),
    gamma=malformed(PROOF["hypotheses"]),
    proof=malformed(PROOF),
    nested=malformed(NESTED),
)
def test_malformed_files_get_a_json_reply(space, cset, gamma, proof, nested):
    with tempfile.TemporaryDirectory() as folder:
        good = _write(folder, space=X3, set=SET, gamma=PROOF["hypotheses"], proof=PROOF)
        bad = _write(folder, bad_space=space, bad_set=cset, bad_gamma=gamma, bad_proof=proof,
                     bad_nested=nested)
        runs = [
            ["validate-space", "--space", bad["bad_space"]],
            ["base", "--space", bad["bad_space"], "--set", good["set"]],
            ["base", "--space", good["space"], "--set", bad["bad_set"]],
            ["check", "--space", good["space"], "--gamma", bad["bad_gamma"],
             "--proof", good["proof"]],
            ["check", "--space", good["space"], "--gamma", good["gamma"],
             "--proof", bad["bad_proof"]],
            ["mu", "--space", good["space"], "--set", bad["bad_nested"]],
        ]
        for argv in runs:
            code, out, err = _run_quietly(argv)
            assert code in (0, 1), argv
            assert out.endswith("\n") and out.count("\n") == 1, argv
            json.loads(out)
            assert "Traceback" not in err


@pytest.mark.parametrize("unreadable", ["not-utf8", "directory"])
@pytest.mark.parametrize("option", ["--space", "--gamma", "--proof"])
def test_unreadable_file_gets_a_json_reply(tmp_path, option, unreadable):
    good = _write(str(tmp_path), space=X3, gamma=PROOF["hypotheses"], proof=PROOF)
    if unreadable == "directory":
        bad = tmp_path / "folder"
        bad.mkdir()
    else:
        bad = tmp_path / "bytes.json"
        bad.write_bytes(b'{"points": ["\xff"]}')
    paths = {"--space": good["space"], "--gamma": good["gamma"], "--proof": good["proof"]}
    paths[option] = str(bad)
    if option == "--space":
        argv = ["validate-space", "--space", paths["--space"]]
    else:
        argv = ["check", *(part for pair in paths.items() for part in pair)]
    code, out, err = _run_quietly(argv)
    assert code == 1
    assert json.loads(out)["error"] == "MalformedInput"
    assert out.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--space", "--set", "--proof"])
def test_truncated_json_gets_a_parse_error_reply(tmp_path, option):
    name = option.lstrip("-")
    paths = _write(str(tmp_path), space=X3, set=SET, gamma=PROOF["hypotheses"], proof=PROOF)
    text = json.dumps({"space": X3, "set": SET, "proof": PROOF}[name])
    truncated = text[: len(text) // 2]
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(truncated)
    paths[name] = str(tmp_path / "truncated.json")
    with open(paths[name], "w", encoding="utf-8") as handle:
        handle.write(truncated)
    if option == "--proof":
        argv = ["check", "--space", paths["space"], "--gamma", paths["gamma"],
                "--proof", paths["proof"]]
    else:
        argv = ["base", "--space", paths["space"], "--set", paths["set"]]
    code, out, err = _run_quietly(argv)
    assert code == 1
    assert out.count("\n") == 1
    reply = json.loads(out)
    assert (reply["error"], reply["position"]) == ("ParseError", decoded.value.pos)
    assert "Traceback" not in err


def test_a_count_that_is_not_an_int_exits_2_without_a_traceback(space_file):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hkconvex.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "hkconvex.cli", "laws", "--space", space_file, "--trials", "x"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "expected an int" in done.stderr and "Traceback" not in done.stderr


def test_roundtrip_on_a_space_with_no_points(capsys, files):
    empty = files("empty.json", {"points": [], "dist": []})
    code = main(["roundtrip", "--space", empty, "--samples", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["error"] == "EmptyInput"
    code, out = run(capsys, "roundtrip", "--space", empty, "--samples", "0")
    assert code == 0
    assert out["gf"]["ok"] is True and out["fg"]["ok"] is True


# Every subcommand over a small table of inputs: a reply is one JSON object
# and exit code 0 or 1, never a traceback.
SPACES = {
    "x3": X3,
    "no-points": {"points": [], "dist": []},
    "one-point": {"points": ["a"], "dist": []},
    "null": None,
}
DOCS = {
    "null": None,
    "int": 3,
    "str": "x",
    "list": [],
    "object": {},
    "null-list": [None],
    "set": SET,
    "dist": {"a": "1/2", "b": "1/2"},
    "proof": PROOF,
    "gamma": PROOF["hypotheses"],
}
# Each subcommand: its file options with a valid document, then other arguments.
COMMANDS = {
    "validate-space": ({}, []),
    "kantorovich": ({"--left": "dist", "--right": "dist"}, []),
    "hausdorff": ({"--left": "family", "--right": "family"}, []),
    "hk": ({"--left": "set", "--right": "set"}, []),
    "base": ({"--set": "set"}, []),
    "normalize": ({}, ["--term", "(oplus a (p+ 1/2 a b))"]),
    "nu": ({"--set": "set"}, []),
    "tdist": ({}, ["a", "(p+ 1/2 a b)"]),
    "oplus": ({"--left": "set", "--right": "set"}, []),
    "plusp": ({"--left": "set", "--right": "set"}, ["--p", "1/2"]),
    "mu": ({"--set": "nested"}, []),
    "derive": ({"--left": "set", "--right": "set"}, []),
    "check": ({"--gamma": "gamma", "--proof": "proof"}, []),
    "laws": ({}, ["--trials", "2"]),
    "roundtrip": ({}, ["--samples", "2"]),
}


def _cli_inputs(paths):
    """argv lists: each subcommand under every space, with its valid files
    and with each file option in turn holding every document."""
    for command, (options, extra) in COMMANDS.items():
        choices = [options] + [{**options, o: doc} for o in options for doc in DOCS]
        for space in SPACES:
            for chosen in choices:
                files = [part for option, doc in chosen.items() for part in (option, paths[doc])]
                yield [command, "--space", paths["space-" + space], *files, *extra]


def test_no_cli_input_ends_in_a_traceback(tmp_path):
    docs = {"family": [DOCS["dist"]], "nested": NESTED, **DOCS}
    docs.update({"space-" + name: space for name, space in SPACES.items()})
    paths = _write(str(tmp_path), **docs)
    for argv in _cli_inputs(paths):
        code, out, err = _run_quietly(argv)
        assert code in (0, 1), argv
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert isinstance(json.loads(out), dict), argv
        assert "Traceback" not in err, argv
