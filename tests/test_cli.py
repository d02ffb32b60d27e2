"""The command line interface, driven over the corpus files."""

import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from semiglue import cli, enumerate_oracle, gluing, toric
from semiglue.cli import main
from support import seed_parser, twisted_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Return the environment of a CLI child process.

    The child imports this checkout's package, and its stdout is
    buffered whatever the caller's PYTHONUNBUFFERED says, as it is for a
    user: an unbuffered child would hide a failed flush at exit.
    """
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return env


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
    (("find-gluing", "rank_noglue.txt"), 1),
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

    code, out, _ = run(capsys, "find-gluing", CORPUS / "rank_noglue.txt")
    assert code == 1
    assert out == ("no gluing for any scalings: the column spaces do not "
                   "meet in a line\n")


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
    doc = cli._document((CORPUS / "twisted_glue.txt").read_text())
    canonical = json.dumps(doc, sort_keys=True).encode()
    assert payload["input_sha256"] == hashlib.sha256(canonical).hexdigest()


def test_json_check_gluing_result(capsys):
    code, out, _ = run(capsys, "check-gluing", CORPUS / "twisted_glue.txt",
                       "--json")
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


# -- precedence of flag and file ---------------------------------------------

def test_kmax_flag_beats_file(capsys, tmp_path):
    f = tmp_path / "low.txt"
    f.write_text((CORPUS / "twisted_glue.txt").read_text() + "kmax: 2\n")
    code, _, _ = run(capsys, "find-gluing", f)
    assert code == 3
    code, out, _ = run(capsys, "find-gluing", f, "--kmax", "50")
    assert code == 0
    assert "found scalings" in out


def test_degree_bound_file_key(capsys, tmp_path):
    f = tmp_path / "bound.txt"
    f.write_text((CORPUS / "twisted_glue.txt").read_text()
                 + "degree_bound: 8 8 0\n")
    code, out, _ = run(capsys, "toric", f)
    assert code == 0
    assert "binomials with degree within (8, 8, 0):" in out
    code, out, _ = run(capsys, "toric", f, "--degree-bound", "2 2 0")
    assert code == 0
    assert "binomials with degree within (2, 2, 0):" in out


def test_the_environment_changes_no_answer(capsys, monkeypatch):
    # Answers come from argv and the input file alone.
    settings = {"SEMIGLUE_KMAX": "2", "SEMIGLUE_WORK_LIMIT": "3",
                "SEMIGLUE_JSON": "1", "SEMIGLUE_DEGREE_BOUND": "8 8 0"}
    glue = CORPUS / "twisted_glue.txt"
    commands = ("find-gluing", "toric")
    for name in settings:
        monkeypatch.delenv(name, raising=False)
    plain = [run(capsys, command, glue) for command in commands]
    for name, value in settings.items():
        monkeypatch.setenv(name, value)
    assert [run(capsys, command, glue) for command in commands] == plain


def test_work_limit_flag_gives_inconclusive(capsys):
    code, _, err = run(capsys, "toric", CORPUS / "twisted_glue.txt",
                       "--degree-bound", "9 9 0", "--work-limit", "10")
    assert code == 3
    assert "inconclusive" in err


def test_find_gluing_passes_its_work_limit_to_every_search(capsys,
                                                          monkeypatch):
    searches = []   # (work_limit, whether a multiples sweep made it)
    sweeping = []
    real_member, real_sweep = gluing.is_member, gluing.multiples_in_semigroup

    def member(v, gens, work_limit=10 ** 6):
        searches.append((work_limit, bool(sweeping)))
        return real_member(v, gens, work_limit)

    def sweep(*args):
        sweeping.append(True)
        try:
            return real_sweep(*args)
        finally:
            sweeping.pop()

    monkeypatch.setattr(gluing, "is_member", member)
    monkeypatch.setattr(gluing, "multiples_in_semigroup", sweep)
    code, _, _ = run(capsys, "find-gluing", CORPUS / "twisted_glue.txt",
                     "--work-limit", "50")
    assert code == 0
    assert {limit for limit, _ in searches} == {50}
    # Both the sweep and the verification searched.
    assert {in_sweep for _, in_sweep in searches} == {True, False}


def test_membership_and_audit_honour_their_work_limit(capsys, tmp_path):
    f = tmp_path / "member.txt"
    f.write_text("A:\n2 1\n1 2\n3 0\n0 3\nv: 20 21\nwork_limit: 5\n")
    code, out, err = run(capsys, "membership", f)
    assert (code, out) == (3, "")
    assert err == "inconclusive: membership search passed 5 states\n"
    code, out, _ = run(capsys, "membership", f, "--work-limit", "1000",
                       "--json")
    assert code == 1
    assert json.loads(out)["bounds"] == {"work_limit": 1000}
    f = tmp_path / "audit.txt"
    f.write_text("A:\n1 0\n0 1\nB:\n1 1\nwork_limit: 1\n")
    for command in ("find-gluing", "audit"):
        code, _, err = run(capsys, command, f)
        assert code == 3, command
        assert err.startswith("inconclusive: "), command
    code, out, _ = run(capsys, "audit", f, "--work-limit", "1000", "--json")
    assert code == 0
    assert json.loads(out)["bounds"] == {"kmax": 50, "work_limit": 1000}


def test_audit_passes_its_work_limit_to_every_search(capsys, monkeypatch):
    # twisted_noglue has no pair up to kmax, so the audit verifies the
    # pair it is given; both the decision and that verification search.
    searches = []   # (work_limit, whether a verification made it)
    verifying = []
    real_member, real_verify = gluing.is_member, gluing.verify_gluing

    def member(v, gens, work_limit=10 ** 6):
        searches.append((work_limit, bool(verifying)))
        return real_member(v, gens, work_limit)

    def verify(cand, work_limit=10 ** 6):
        verifying.append(work_limit)
        try:
            return real_verify(cand, work_limit)
        finally:
            verifying.pop()

    monkeypatch.setattr(gluing, "is_member", member)
    monkeypatch.setattr(gluing, "verify_gluing", verify)
    code, _, _ = run(capsys, "audit", CORPUS / "twisted_noglue.txt",
                     "--k1", "3", "--k2", "2", "--work-limit", "77")
    assert code == 0
    assert {limit for limit, _ in searches} == {77}
    assert {in_verify for _, in_verify in searches} == {True, False}


def test_find_gluing_computes_the_meeting_line_once(capsys, monkeypatch):
    # find-gluing verifies its pair on the meeting line that the decision
    # computed, so one reduction of [A|B] serves both.
    calls = []
    real = gluing._meeting_line

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(gluing, "_meeting_line", spy)
    for name in ("twisted_glue.txt", "monomial_curves_scaled_glue.txt"):
        calls.clear()
        code, _, _ = run(capsys, "find-gluing", CORPUS / name)
        assert (code, len(calls)) == (0, 1), name


WIDE = "A:\n1 0\n0 1\nB:\n1 1\nkmax: {}\n"


def test_listing_multiples_counts_against_the_work_limit(capsys, tmp_path):
    # u = (1, 1) lies on an independent face of A and on B's ray, so A
    # lists one witness per k <= kmax and B builds (kmax + 1)-bit tables.
    f = tmp_path / "wide.txt"
    f.write_text(WIDE.format(200000))
    code, out, err = run(capsys, "find-gluing", f, "--work-limit", "1000")
    assert (code, out) == (3, "")
    assert err == ("inconclusive: listing the multiples up to 200000 "
                   "passed 1000 steps\n")
    # Within the limit, the pair search stops at the first coprime pair
    # instead of reading all 20000 * 20000.
    f.write_text(WIDE.format(20000))
    code, out, _ = run(capsys, "find-gluing", f)
    assert code == 0 and "found scalings k1=1 k2=1" in out


def test_a_huge_kmax_is_inconclusive_at_once(tmp_path):
    # Run in a child with a capped address space, so that listing 10**11
    # multiples fails on memory there instead of filling this process.
    f = tmp_path / "huge.txt"
    f.write_text(WIDE.format(10 ** 11))
    cap = 2 ** 30
    done = subprocess.run(
        [sys.executable, "-m", "semiglue", "find-gluing", str(f)],
        env=child_env(),
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == 3, done.stderr
    assert done.stderr == ("inconclusive: listing the multiples up to "
                           "100000000000 passed 1000000 steps\n")


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text('{"a": ' + "[" * 3000 + "]" * 3000 + "}")
    code, out, err = run(capsys, "toric", f)
    assert (code, out) == (2, "")
    assert err == "error: the JSON input is nested too deeply\n"


def test_find_gluing_sweep_within_a_small_limit_is_inconclusive(capsys):
    # The pair's coprime scalings (3, 2) verify within 5 states, and so
    # does each membership of the sweep; listing the multiples of its
    # lattice point up to kmax 50 does not fit in 5 steps.
    code, _, err = run(capsys, "find-gluing", CORPUS / "twisted_glue.txt",
                       "--work-limit", "5")
    assert code == 3
    assert err == ("inconclusive: listing the multiples up to 50 passed 5 "
                   "steps\n")


def test_a_huge_kmax_over_a_searched_face_is_inconclusive_at_once(tmp_path):
    # Without k1 and k2, find-gluing sweeps A's face of u, which is
    # neither independent nor a ray: kmax // g multiples would each be
    # searched, so their count is checked against the limit first.
    text = (CORPUS / "twisted_glue.txt").read_text()
    f = tmp_path / "huge.txt"
    f.write_text("".join(line for line in text.splitlines(keepends=True)
                         if not line.startswith(("k1:", "k2:")))
                 + "kmax: 100000000000\n")
    done = subprocess.run(
        [sys.executable, "-m", "semiglue", "find-gluing", str(f)],
        env=child_env(),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stderr == ("inconclusive: listing the multiples up to "
                           "100000000000 passed 1000000 steps\n")


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


@pytest.mark.optimized
def test_nonpositive_scaling_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "check-gluing", CORPUS / "twisted_glue.txt",
                       "--k1", "0")
    assert code == 2
    assert err == "error: k1 and k2 must be positive\n"
    f = tmp_path / "zero.txt"
    f.write_text("A:\n1 0 0\n0 1 0\n0 0 1\nB:\n1 1 1\nk1: 0\n")
    code, out, err = run(capsys, "check-gluing", f)
    assert code == 2
    assert err == "error: k1 and k2 must be positive\n"
    assert out == ""
    code, _, err = run(capsys, "audit", CORPUS / "twisted_glue.txt",
                       "--k1", "-1", "--k2", "1")
    assert code == 2
    code, _, err = run(capsys, "check-gluing", CORPUS / "twisted_glue.txt",
                       "--k2", "-3")
    assert (code, err) == (2, "error: k1 and k2 must be positive\n")


def test_audit_needs_both_scalings_or_neither(capsys, tmp_path):
    noglue = CORPUS / "shared_factor_noglue.txt"
    for flag, missing in (("--k1", "k2"), ("--k2", "k1")):
        code, out, err = run(capsys, "audit", noglue, flag, "2")
        assert code == 2
        assert out == ""
        assert err == (f"error: audit tries scalings only as a pair: "
                       f"{missing} is missing\n")
    f = tmp_path / "lone_k1.txt"
    f.write_text(noglue.read_text() + "k1: 2\n")
    code, out, err = run(capsys, "audit", f)
    assert code == 2
    assert err == ("error: audit tries scalings only as a pair: k2 is "
                   "missing\n")
    code, _, _ = run(capsys, "audit", f, "--k2", "3")
    assert code == 0


@pytest.mark.optimized
def test_nonpositive_kmax_is_an_input_error(capsys, tmp_path):
    for command in ("find-gluing", "audit"):
        for kmax in ("0", "-3"):
            code, _, err = run(capsys, command, CORPUS / "twisted_glue.txt",
                               "--kmax", kmax)
            assert code == 2
            assert "kmax must be positive" in err
    f = tmp_path / "zero.txt"
    f.write_text((CORPUS / "twisted_glue.txt").read_text() + "kmax: 0\n")
    for command in ("find-gluing", "audit"):
        code, _, err = run(capsys, command, f)
        assert code == 2
        assert "kmax must be positive" in err


def test_nonpositive_work_limit_is_an_input_error(capsys, tmp_path):
    glue = CORPUS / "twisted_glue.txt"
    for command in ("toric", "check-gluing", "find-gluing", "audit"):
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
        main(["lattice-point", str(CORPUS / "twisted_glue.txt"),
              "--work-limit", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # The same bounds as file keys are refused, naming the key, by the
    # commands that have no such flag; the others read them.
    for name, command, extra, key in (
            ("twisted_glue.txt", "lattice-point", "kmax: 0\nwork_limit: -4\n",
             "kmax"),
            ("twisted_glue.txt", "lattice-point", "work_limit: 5\n",
             "work_limit"),
            ("plane_embed_selfglue.txt", "embed-glue", "work_limit: 1\n",
             "work_limit"),
            ("twisted_glue.txt", "check-gluing", "kmax: 5\n", "kmax")):
        f = tmp_path / "bounded.txt"
        f.write_text((CORPUS / name).read_text() + extra)
        code, out, err = run(capsys, command, f)
        assert (code, out) == (2, ""), (command, extra)
        assert err == f"error: {command} reads no {key!r} key\n", err
    f.write_text(json.dumps({"betti_a": [1, 3, 2], "betti_b": [1, 3, 2],
                             "kmax": 5}))
    assert run(capsys, "betti-glue", f)[:2] == (2, "")
    f.write_text((CORPUS / "twisted_glue.txt").read_text()
                 + "kmax: 5\nwork_limit: 10000\n")
    assert run(capsys, "find-gluing", f)[0] == 0
    assert run(capsys, "check-gluing", f)[0] == 2
    f.write_text((CORPUS / "twisted_glue.txt").read_text()
                 + "work_limit: 10000\n")
    assert run(capsys, "check-gluing", f)[0] == 0


def test_a_closed_stdout_pipe_keeps_the_verdict():
    # A reader that stops early, as `| head -1` does, is not bad input:
    # the command exits with its verdict and prints no error, neither its
    # own nor Python's at exit.  The read end is closed before the
    # command writes, so every write meets a broken pipe.
    # Help and version text are printed by argparse, outside the
    # command's writer, and are flushed as quietly.
    for argv, verdict in (
            (["embed-glue", CORPUS / "plane_embed_selfglue.txt", "--json"],
             0),
            (["embed-glue", CORPUS / "plane_embed_selfglue.txt"], 0),
            (["check-gluing", CORPUS / "monomial_curves_union_noglue.txt"],
             1),
            (["-h"], 0), (["toric", "-h"], 0), (["--version"], 0)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "semiglue", *map(str, argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (verdict, b""), (argv, err)


@pytest.mark.optimized
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


@pytest.mark.optimized
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


@pytest.mark.optimized
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


@pytest.mark.optimized
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


@pytest.mark.optimized
def test_embed_glue_refuses_bad_steps(capsys, tmp_path):
    cubic = "B:\n3 0\n1 2\n0 3\ni: 1\n"
    for name, a in (("negative", "4 0\n5 -1\n0 4\n"),
                    ("unordered", "4 0\n2 2\n3 1\n0 4\n")):
        f = tmp_path / f"{name}.txt"
        f.write_text("A:\n" + a + cubic)
        code, out, err = run(capsys, "embed-glue", f)
        assert code == 2, (name, out)
        assert err.startswith("error: steps "), err


@pytest.mark.optimized
def test_find_gluing_self_check_refuses_a_failed_verification(capsys,
                                                              monkeypatch):
    # The verification is replaced by one that refuses every candidate,
    # so the coprime pair that find-gluing found fails its self-check:
    # an internal error, exit 4, since exit 1 is a proven no.
    real = cli._verify_on_line
    monkeypatch.setattr(cli, "_verify_on_line", lambda *args: replace(
        real(*args), is_gluing=False))
    code, out, err = run(capsys, "find-gluing", CORPUS / "twisted_glue.txt")
    assert (code, out) == (4, "")
    assert err.startswith("Traceback (most recent call last):\n"), err
    message = ("coprime scalings k1=3 k2=2 failed verification: no single "
               "mixed binomial completes the two ideals")
    assert err.endswith(f"AssertionError: {message}\n"
                        f"internal error: {message}\n"), err


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
    env = child_env()
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


# -- the parser a call builds ------------------------------------------------

VALID_INPUT = {"lattice-point": "twisted_glue.txt",
               "toric": "twisted_glue.txt",
               "membership": "monomial_curves_scaled_glue.txt",
               "check-gluing": "shared_column_glue.txt",
               "find-gluing": "twisted_noglue.txt",
               "audit": "shared_factor_noglue.txt",
               "embed-glue": "plane_embed_selfglue.txt",
               "betti-glue": None}
# Commands without an int flag get --kmax, which they reject as stray.
INT_FLAG = {"toric": "--work-limit", "check-gluing": "--k1",
            "find-gluing": "--kmax", "audit": "--k2", "embed-glue": "--i"}


def _parity_cases():
    cases = [["-h"], ["--version"], [], ["bogus", "input.txt"]]
    for command, name in VALID_INPUT.items():
        path = "BETTI" if name is None else str(CORPUS / name)
        flag = INT_FLAG.get(command, "--kmax")
        cases += [[command, "-h"], [command], [command, path, flag, "x"],
                  [command, path, flag], [command, path, "--bogus"],
                  [command, path, "--version"], [command, path]]
    return cases


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _parity_cases(),
                         ids=lambda argv: " ".join(
                             Path(a).name for a in argv) or "no arguments")
def test_every_call_reads_as_under_the_full_parser(capsys, monkeypatch,
                                                   tmp_path, argv):
    betti = tmp_path / "betti.txt"
    betti.write_text("betti_a: 1 3 2\nbetti_b: 1 3 2\n")
    argv = [str(betti) if a == "BETTI" else a for a in argv]
    got = _outcome(capsys, argv)
    if "--bogus" in argv:
        assert "unrecognized arguments: --bogus" in got[2]
        assert "{%s}" % ",".join(cli._COMMANDS) in got[2]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: build())
    assert _outcome(capsys, argv) == got
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: seed_parser())
    assert _outcome(capsys, argv) == got


def test_a_call_builds_only_the_parser_of_its_command(capsys, monkeypatch):
    # Building all eight subparsers cost more than the algebra of most
    # corpus files; a second call must build them again, as a new
    # process would.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        built.clear()
        assert main(["betti-glue", str(CORPUS / "twisted_glue.txt")]) == 2
        assert len(built) == 2
    for argv in (["--version"], ["bogus"]):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert len(built) == 9
    capsys.readouterr()


# -- document round trips ----------------------------------------------------

def test_document_roundtrip_and_hash_stability():
    for name in ("twisted_glue.txt", "plane_embed_selfglue.txt",
                 "shared_column_glue.txt"):
        doc = cli._document((CORPUS / name).read_text())
        again = cli._document(json.dumps(doc, sort_keys=True))
        assert again == doc


def test_text_and_json_forms_hash_identically():
    text = "A:\n1 0\n0 1\nk1: 2\n"
    doc = cli._document(text)
    as_json = json.dumps({"a": [[1, 0], [0, 1]], "k1": 2})
    assert cli._document(as_json) == doc


def test_unknown_json_field_is_rejected():
    with pytest.raises(ValueError, match=r"unknown input fields: \['q'\]"):
        cli._document(json.dumps({"a": [[1, 0]], "q": 3}))


def test_the_json_form_answers_as_the_text_form_does(capsys, tmp_path):
    # Each corpus file's checked document, written as indented JSON with
    # its keys reversed, must give the file's command the same exit
    # code, output and digest as the text it came from.
    files = sorted(CORPUS.glob("*.txt"))
    assert len(files) == 12
    for path in files:
        text = path.read_text()
        doc = cli._document(text)
        as_json = tmp_path / f"{path.stem}.json"
        reverse = dict(sorted(doc.items(), reverse=True))
        as_json.write_text(json.dumps(reverse, indent=2))
        for flags in ((), ("--json",)):
            outcomes = []
            for source in (path, as_json):
                toric.toric_ideal_of_matrix.cache_clear()
                outcomes.append(run(capsys, corpus_command(text), source,
                                    *flags))
            assert outcomes[0] == outcomes[1], (path.name, flags)
