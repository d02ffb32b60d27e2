"""The command line interface, driven over the corpus files."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semiglue import enumerate_oracle
from semiglue.cli import InputDocument, main
from support import twisted_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes over the corpus ----------------------------------------------

CORPUS_MATRIX = [
    (("lattice-point", "twisted_glue.txt"), 0),
    (("lattice-point", "twisted_noglue.txt"), 0),
    (("toric", "twisted_glue.txt"), 0),
    (("membership", "monomial_curves_scaled_glue.txt"), 2),
    (("check-gluing", "twisted_glue.txt"), 0),
    (("check-gluing", "monomial_curves_scaled_glue.txt"), 0),
    (("check-gluing", "monomial_curves_union_noglue.txt"), 1),
    (("check-gluing", "shared_column_glue.txt"), 0),
    (("check-gluing", "mu_arithmetic_noglue.txt"), 1),
    (("check-gluing", "linear_binomial_noglue.txt"), 1),
    (("find-gluing", "twisted_glue.txt"), 0),
    (("find-gluing", "twisted_noglue.txt"), 1),
    (("find-gluing", "shared_factor_noglue.txt"), 3),
    (("audit", "twisted_glue.txt"), 0),
    (("audit", "twisted_noglue.txt"), 0),
    (("audit", "shared_factor_noglue.txt"), 0),
    (("audit", "shared_column_glue.txt"), 0),
    (("embed-glue", "plane_embed_selfglue.txt"), 0),
    (("embed-glue", "cm_curve_selfglue.txt"), 0),
    (("embed-glue", "non_cm_curve_selfglue.txt"), 0),
]


@pytest.mark.parametrize("argv,expected", CORPUS_MATRIX,
                         ids=["-".join(a) for a, _ in CORPUS_MATRIX])
def test_corpus_exit_codes(capsys, argv, expected):
    command, name = argv
    code, _, _ = run(capsys, command, CORPUS / name)
    assert code == expected


# -- human readable output ---------------------------------------------------

def test_lattice_point_output(capsys):
    code, out, _ = run(capsys, "lattice-point", CORPUS / "twisted_glue.txt")
    assert code == 0
    assert "u = (1, 1, 0)" in out
    assert "ranks: 2 + 2 = 3 + 1" in out


def test_find_gluing_output(capsys):
    code, out, _ = run(capsys, "find-gluing", CORPUS / "twisted_glue.txt")
    assert code == 0
    assert "found scalings k1=3 k2=2" in out
    assert "gluing: yes, rho = x3 - y1 (level 1)" in out

    code, out, _ = run(capsys, "find-gluing", CORPUS / "twisted_noglue.txt")
    assert code == 1
    assert ("no gluing for any scalings: no positive multiple of (1, 2, 0) "
            "can ever lie in the second semigroup") in out

    code, out, _ = run(capsys, "find-gluing",
                       CORPUS / "shared_factor_noglue.txt")
    assert code == 3
    assert "no coprime pair within bound 50: inconclusive" in out


def test_find_gluing_proves_no_when_the_lattice_point_misses_a_cone(
        capsys, tmp_path):
    # No multiple of (2, 1) lies in the first semigroup, so no scalings
    # glue the pair, although no cheap obstruction proves it.
    f = tmp_path / "cone_miss.txt"
    f.write_text("A:\n0 4\n4 3\nB:\n2 1\n")
    detail = "the lattice point (2, 1) misses the cone of the first semigroup"
    code, out, _ = run(capsys, "find-gluing", f)
    assert code == 1
    assert out == f"no gluing for any scalings: {detail}\n"
    code, out, _ = run(capsys, "find-gluing", f, "--json")
    assert code == 1
    result = json.loads(out)["result"]
    assert result == {"found": False, "detail": detail,
                      "u": [2, 1],
                      "rank": {"rank_a": 2, "rank_b": 1, "rank_joint": 2,
                               "ambient": 2, "ok": True}}
    code, out, _ = run(capsys, "audit", f)
    assert code == 0
    assert "gluing for some scalings: no" in out
    assert "cones meet: no" in out


def test_check_gluing_output(capsys):
    code, out, _ = run(capsys, "check-gluing",
                       CORPUS / "shared_column_glue.txt")
    assert code == 0
    assert "candidate: k1=2 k2=1 in dimension 3" in out
    assert "mu: 3 + 2 + 1 vs 6" in out
    assert "gluing: yes, rho = x4 - y4 (level 5)" in out

    code, out, _ = run(capsys, "check-gluing",
                       CORPUS / "mu_arithmetic_noglue.txt")
    assert code == 1
    assert ("gluing: no (no single mixed binomial completes the two "
            "ideals)") in out


def test_audit_output(capsys):
    code, out, _ = run(capsys, "audit", CORPUS / "shared_column_glue.txt")
    assert code == 0
    assert "gluing for some scalings: yes (2, 1)" in out
    assert "VIOLATION" not in out

    code, out, _ = run(capsys, "audit", CORPUS / "shared_factor_noglue.txt")
    assert code == 0
    assert "gluing for some scalings: unknown" in out
    assert "multiples in both semigroups: yes" in out


def test_embed_glue_output(capsys):
    code, out, _ = run(capsys, "embed-glue",
                       CORPUS / "plane_embed_selfglue.txt")
    assert code == 0
    assert "padding: m = 2, r = 1" in out
    assert "scalings: k1 = 3, k2 = 2" in out
    assert "lattice point: (1, 1, 0)" in out
    assert "rho = x3 - y1" in out
    assert "verified gluing: yes" in out


def test_embed_glue_flag_overrides_file_index(capsys):
    code, out, _ = run(capsys, "embed-glue",
                       CORPUS / "plane_embed_selfglue.txt", "--i", "1")
    assert code == 0
    assert "padding: m = 3, r = 0" in out


def test_toric_output_and_degree_bound(capsys):
    code, out, _ = run(capsys, "toric", CORPUS / "twisted_glue.txt")
    assert code == 0
    assert "mu = 3" in out

    code, out, _ = run(capsys, "toric", CORPUS / "twisted_glue.txt",
                       "--degree-bound", "8 8 0")
    assert code == 0
    a, _ = twisted_pair()
    expected = len(enumerate_oracle(a, (8, 8, 0)))
    assert f"binomials with degree within (8, 8, 0): {expected}" in out


def test_membership_via_temp_file(capsys, tmp_path):
    member = tmp_path / "member.txt"
    member.write_text("A:\n4 0 0\n3 1 0\n2 2 0\n1 3 0\nv: 4 4 0\n")
    code, out, _ = run(capsys, "membership", member)
    assert code == 0
    assert "(4, 4, 0) = combination with exponents" in out

    outside = tmp_path / "outside.txt"
    outside.write_text("A:\n4 0 0\n3 1 0\n2 2 0\n1 3 0\nv: 1 1 0\n")
    code, out, _ = run(capsys, "membership", outside)
    assert code == 1
    assert "(1, 1, 0) is not in the semigroup" in out


def test_betti_glue_via_temp_file(capsys, tmp_path):
    f = tmp_path / "betti.txt"
    f.write_text("betti_a: 1 3 2\nbetti_b: 1 3 2\n")
    code, out, _ = run(capsys, "betti-glue", f)
    assert code == 0
    assert "betti numbers of the glued ring: (1, 7, 19, 25, 16, 4)" in out
    assert "projective dimension: 5" in out


def test_stdin_input(capsys, monkeypatch):
    text = (CORPUS / "twisted_glue.txt").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "lattice-point", "-")
    assert code == 0
    assert "u = (1, 1, 0)" in out


# -- json output -------------------------------------------------------------

def test_json_payload_shape(capsys):
    code, out, _ = run(capsys, "lattice-point", CORPUS / "twisted_glue.txt",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["bounds", "command", "input_sha256",
                               "result", "version"]
    assert payload["command"] == "lattice-point"
    assert payload["result"]["u"] == [1, 1, 0]
    doc = InputDocument.parse((CORPUS / "twisted_glue.txt").read_text())
    assert payload["input_sha256"] == doc.sha256()


def test_json_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SEMIGLUE_JSON", "1")
    code, out, _ = run(capsys, "check-gluing", CORPUS / "twisted_glue.txt")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["is_gluing"] is True
    assert payload["result"]["mu"] == {"a": 3, "b": 3, "c": 7}
    assert payload["result"]["rho"]["text"] == "x3^3 - y1^2"
    assert payload["result"]["rho_level"] == 6


def test_json_find_gluing_result(capsys):
    code, out, _ = run(capsys, "find-gluing", CORPUS / "twisted_glue.txt",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["found"] is True
    assert payload["result"]["k1"] == 3 and payload["result"]["k2"] == 2
    assert payload["bounds"] == {"kmax": 50, "work_limit": 10 ** 6}


# -- precedence of flag, environment and file --------------------------------

def test_kmax_env_beats_file_flag_beats_env(capsys, monkeypatch, tmp_path):
    f = tmp_path / "low.txt"
    f.write_text((CORPUS / "twisted_glue.txt").read_text() + "kmax: 2\n")
    code, _, _ = run(capsys, "find-gluing", f)
    assert code == 3
    monkeypatch.setenv("SEMIGLUE_KMAX", "50")
    code, _, _ = run(capsys, "find-gluing", f)
    assert code == 0
    monkeypatch.setenv("SEMIGLUE_KMAX", "2")
    code, out, _ = run(capsys, "find-gluing", f, "--kmax", "50")
    assert code == 0
    assert "found scalings" in out


def test_degree_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("SEMIGLUE_DEGREE_BOUND", "8 8 0")
    code, out, _ = run(capsys, "toric", CORPUS / "twisted_glue.txt")
    assert code == 0
    assert "binomials with degree within (8, 8, 0):" in out


def test_work_limit_flag_gives_inconclusive(capsys):
    code, _, err = run(capsys, "toric", CORPUS / "twisted_glue.txt",
                       "--degree-bound", "9 9 0", "--work-limit", "10")
    assert code == 3
    assert "inconclusive" in err


# -- input errors ------------------------------------------------------------

def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "lattice-point", tmp_path / "absent.txt")
    assert code == 2
    assert "error:" in err


def test_unknown_key_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("A:\n1 0\n0 1\nspin: 7\n")
    code, _, err = run(capsys, "lattice-point", f)
    assert code == 2
    assert "unknown key" in err


def test_generator_line_outside_section(capsys, tmp_path):
    f = tmp_path / "loose.txt"
    f.write_text("1 2 3\n")
    code, _, err = run(capsys, "lattice-point", f)
    assert code == 2
    assert "outside a section" in err


def test_ragged_generators_are_an_input_error(capsys, tmp_path):
    f = tmp_path / "ragged.txt"
    f.write_text("A:\n1 2 3\n1 2\nB:\n1 1 1\n")
    code, _, err = run(capsys, "lattice-point", f)
    assert code == 2
    assert "same length" in err


def test_empty_section_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("A:\nB:\n1 1 1\n")
    code, _, err = run(capsys, "lattice-point", f)
    assert code == 2


def test_missing_section_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "only_a.txt"
    f.write_text("A:\n1 0\n0 1\n")
    code, _, err = run(capsys, "check-gluing", f)
    assert code == 2
    assert "needs an B: section" in err


def test_nonpositive_scaling_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "check-gluing", CORPUS / "twisted_glue.txt",
                       "--k1", "0")
    assert code == 2
    assert "must be positive" in err
    f = tmp_path / "zero.txt"
    f.write_text("A:\n1 0 0\n0 1 0\n0 0 1\nB:\n1 1 1\nk1: 0\n")
    code, out, err = run(capsys, "check-gluing", f)
    assert code == 2
    assert "must be positive" in err
    assert out == ""
    code, _, err = run(capsys, "audit", CORPUS / "twisted_glue.txt",
                       "--k1", "-1", "--k2", "1")
    assert code == 2


def test_nonpositive_kmax_is_an_input_error(capsys, monkeypatch, tmp_path):
    for command in ("find-gluing", "audit"):
        for kmax in ("0", "-3"):
            code, _, err = run(capsys, command, CORPUS / "twisted_glue.txt",
                               "--kmax", kmax)
            assert code == 2
            assert "kmax must be positive" in err
    f = tmp_path / "zero.txt"
    f.write_text((CORPUS / "twisted_glue.txt").read_text() + "kmax: 0\n")
    code, _, err = run(capsys, "find-gluing", f)
    assert code == 2
    assert "kmax must be positive" in err
    monkeypatch.setenv("SEMIGLUE_KMAX", "0")
    code, _, _ = run(capsys, "audit", CORPUS / "twisted_glue.txt")
    assert code == 2


def test_nonpositive_work_limit_is_an_input_error(capsys, monkeypatch,
                                                  tmp_path):
    glue = CORPUS / "twisted_glue.txt"
    for command in ("toric", "check-gluing", "find-gluing"):
        for limit in ("0", "-5"):
            code, out, err = run(capsys, command, glue, "--work-limit", limit)
            assert code == 2, (command, limit)
            assert "work limit must be positive" in err
            assert out == ""
        f = tmp_path / "zero.txt"
        f.write_text(glue.read_text() + "work_limit: 0\n")
        code, _, err = run(capsys, command, f)
        assert code == 2, command
        assert "work limit must be positive" in err
        monkeypatch.setenv("SEMIGLUE_WORK_LIMIT", "-5")
        code, _, err = run(capsys, command, glue)
        monkeypatch.delenv("SEMIGLUE_WORK_LIMIT")
        assert code == 2, command
        assert "work limit must be positive" in err
    code, _, _ = run(capsys, "toric", glue, "--degree-bound", "2 2 0",
                     "--work-limit", "-5")
    assert code == 2


def test_bound_flags_belong_to_the_commands_that_read_them(capsys, tmp_path):
    f = tmp_path / "betti.txt"
    f.write_text("betti_a: 1 3 2\nbetti_b: 1 3 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["betti-glue", str(f), "--kmax", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["audit", str(CORPUS / "twisted_glue.txt"), "--work-limit", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_membership_vector_of_the_wrong_length(capsys, tmp_path):
    f = tmp_path / "long.txt"
    f.write_text("A:\n1 0\n0 1\nv: 1 2 3\n")
    code, out, err = run(capsys, "membership", f)
    assert code == 2
    assert "length 3" in err
    assert "combination" not in out


def test_malformed_json_fields_are_input_errors(capsys, tmp_path):
    for payload in ({"a": 5}, {"a": [5]}, {"a": [[1, 0]], "v": 3},
                    {"a": [[1, 0]], "v": [[1], 0]},
                    {"a": [[1, 0]], "kmax": None}):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(payload))
        code, _, err = run(capsys, "membership", f)
        assert code == 2, payload
        assert err.startswith("error: "), payload


def test_degree_bound_of_the_wrong_length(capsys, tmp_path):
    f = tmp_path / "plane.txt"
    f.write_text("A:\n1 0\n0 1\n1 1\n")
    code, out, err = run(capsys, "toric", f, "--degree-bound", "5 5 5")
    assert code == 2
    assert "needs 2 entries" in err
    assert out == ""
    code, _, err = run(capsys, "toric", f, "--degree-bound", "5 -1")
    assert code == 2
    assert "nonnegative" in err


def test_betti_numbers_must_start_with_one(capsys, tmp_path):
    f = tmp_path / "betti.txt"
    f.write_text("betti_a: 2 3 1\nbetti_b: 1 3 2\n")
    code, out, err = run(capsys, "betti-glue", f)
    assert code == 2
    assert "beta_0 = 1" in err
    assert out == ""
    f.write_text("betti_a: 1 3 2\nbetti_b: 1 -3 2\n")
    code, _, err = run(capsys, "betti-glue", f)
    assert code == 2
    assert "nonnegative" in err


def test_repeated_keys_are_input_errors(capsys, tmp_path):
    text = (CORPUS / "twisted_glue.txt").read_text()
    for extra in ("k1: 2\nk1: 3\n", "i: 1\nindex: 2\n",
                  "betti_a: 1 1\nbetti_a: 1 2\n"):
        f = tmp_path / "twice.txt"
        f.write_text(text + extra)
        code, _, err = run(capsys, "check-gluing", f)
        assert code == 2, extra
        assert "repeated key" in err, extra
    f = tmp_path / "twice.json"
    f.write_text('{"a": [[1, 0], [0, 1]], "k1": 2, "k1": 3}')
    code, _, err = run(capsys, "toric", f)
    assert code == 2
    assert "repeated key 'k1'" in err


def test_input_errors_hold_under_optimization(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    long_v = tmp_path / "long.txt"
    long_v.write_text("A:\n1 0\n0 1\nv: 1 2 3\n")
    zero_kmax = tmp_path / "zero.txt"
    zero_kmax.write_text((CORPUS / "twisted_glue.txt").read_text()
                         + "kmax: 0\n")
    betti = tmp_path / "betti.txt"
    betti.write_text("betti_a: 2 3 1\nbetti_b: 1 3 2\n")
    twice = tmp_path / "twice.txt"
    twice.write_text((CORPUS / "twisted_glue.txt").read_text()
                     + "k1: 2\nk1: 3\n")
    plane = tmp_path / "plane.txt"
    plane.write_text("A:\n1 0\n0 1\n1 1\n")
    for argv in (("membership", long_v), ("find-gluing", zero_kmax),
                 ("betti-glue", betti), ("check-gluing", twice),
                 ("toric", plane, "--degree-bound", "5 5 5")):
        done = subprocess.run(
            [sys.executable, "-O", "-m", "semiglue", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, (argv, done.stdout, done.stderr)
        assert "Traceback" not in done.stderr


def test_embed_glue_input_checks_hold_under_optimization(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cubic = "B:\n3 0\n1 2\n0 3\ni: 1\n"
    negative = tmp_path / "negative.txt"
    negative.write_text("A:\n4 0\n5 -1\n0 4\n" + cubic)
    unordered = tmp_path / "unordered.txt"
    unordered.write_text("A:\n4 0\n2 2\n3 1\n0 4\n" + cubic)
    for path in (negative, unordered):
        for flags in ((), ("-O",)):
            done = subprocess.run(
                [sys.executable, *flags, "-m", "semiglue", "embed-glue",
                 str(path)], env=env, capture_output=True, text=True,
                timeout=60)
            assert done.returncode == 2, (path.name, flags, done.stdout)
            assert done.stderr.startswith("error: steps "), done.stderr
            assert "Traceback" not in done.stderr


def corpus_command(text):
    """Return the CLI command for a corpus file: its keys pick it."""
    keys = {line.split(":")[0].strip()
            for line in text.splitlines() if ":" in line}
    if "i" in keys:
        return "embed-glue"
    if "k1" in keys or "k2" in keys:
        return "check-gluing"
    return "find-gluing"


def test_every_corpus_file_answers_the_same_under_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    files = sorted(CORPUS.glob("*.txt"))
    assert len(files) >= 11
    for path in files:
        argv = ["-m", "semiglue", corpus_command(path.read_text()),
                str(path), "--json"]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, timeout=120)
            for flags in ((), ("-O",)))
        # The name says the answer: *noglue is a proven or open "no".
        expected = (1, 3) if path.stem.endswith("noglue") else (0,)
        assert plain.returncode in expected, (path.name, plain.stderr)
        assert optimized.returncode == plain.returncode, path.name
        assert optimized.stdout == plain.stdout, path.name
        json.loads(plain.stdout)


def test_membership_without_vector(capsys):
    code, _, err = run(capsys, "membership", CORPUS / "twisted_glue.txt")
    assert code == 2
    assert "needs a v: vector" in err


# -- document round trips ----------------------------------------------------

def test_document_roundtrip_and_hash_stability():
    for name in ("twisted_glue.txt", "plane_embed_selfglue.txt",
                 "shared_column_glue.txt"):
        doc = InputDocument.parse((CORPUS / name).read_text())
        again = InputDocument.parse(doc.serialize())
        assert again == doc
        assert again.sha256() == doc.sha256()


def test_text_and_json_forms_hash_identically():
    text = "A:\n1 0\n0 1\nk1: 2\n"
    doc = InputDocument.parse(text)
    as_json = json.dumps({"a": [[1, 0], [0, 1]], "k1": 2})
    assert InputDocument.parse(as_json) == doc


def test_unknown_json_field_is_rejected():
    with pytest.raises(ValueError):
        InputDocument.parse(json.dumps({"a": [[1, 0]], "q": 3}))
