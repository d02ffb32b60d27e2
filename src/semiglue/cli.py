"""Command line interface.

Input files describe the data in a small text format: ``A:`` and ``B:``
open generator sections with one generator per line (generators are the
columns of the matrix), ``k1: 3`` style lines set scalars, ``v: 2 2 4``
style lines set inline vectors, and ``#`` starts a comment.  A file
whose first nonblank character is ``{`` is read as JSON with the same
field names.  A command line flag beats the file's value, which beats
the default; nothing else, the environment included, changes an answer.
A ``kmax`` or ``work_limit`` key is bad input to a command that has no
such flag, as the flag would be.

Each command is one row of ``_COMMANDS``: handler, help, shared flags
and own flags, each flag an (option, type, help) triple.  A call whose
first argument names a command builds only that command's parser; any
other call (``-h``, ``--version``, no arguments, an unknown command)
builds the parser of all eight, so every message reads the same.

Exit codes: 0 for an affirmative answer, 1 for a definitive negative,
2 for unusable input, 3 for inconclusive within the given bounds, 4 for
an internal error (a fault of this program, printed with its traceback).
A reader that closes stdout early changes no exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .binomial import Binomial
from .constructions import PlaneHomogeneousGens, embed_and_glue
from .exactlin import IntegerMatrix
from .gluing import (
    GluingCandidate,
    _meeting_line,
    _verify_on_line,
    decide_pair,
    implication_chain_audit,
    is_member,
    verify_gluing,
)
from .homology import BettiSequence, glued_betti
from .toric import BoundTooLarge, SemigroupGens, enumerate_oracle, toric_ideal

_SCALARS = ("k1", "k2", "kmax", "index", "work_limit")
_VECTORS = ("v", "betti_a", "betti_b", "degree_bound")


def _document(text: str) -> dict:
    """Parse the text or JSON form and return the checked JSON object.

    The object is what ``--json`` hashes, as sorted-key JSON, so a text
    file and its JSON form hash alike; a command reads only its fields.
    """
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("the JSON input is nested too deeply") from None
    else:
        doc = _parse_text(text)
    unknown = set(doc) - {"a", "b", *_SCALARS, *_VECTORS}
    if unknown:
        raise ValueError(f"unknown input fields: {sorted(unknown)}")
    for name in ("a", "b"):
        if name in doc:
            if not isinstance(doc[name], list):
                raise ValueError(f"{name} must be a list of generators")
            for col in doc[name]:
                _ints(col, f"a generator of {name}")
    for name in _SCALARS:
        if name in doc:
            _ints([doc[name]], name)
    for name in _VECTORS:
        if name in doc:
            _ints(doc[name], name)
    return doc


def _unique_keys(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _ints(value, what: str) -> None:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be integers")


def _vector(text: str) -> list:
    return [int(tok) for tok in text.split()]


def _parse_text(text: str) -> dict:
    data: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            head, _, rest = line.partition(":")
            key = head.strip().lower()
            rest = rest.strip()
            if key in ("a", "b"):
                section = key
                data.setdefault(key, [])
                if rest:
                    data[key].append(_vector(rest))
                continue
            section = None
            if key == "i":
                key = "index"
            if key in data:
                raise ValueError(f"repeated key {head.strip()!r}")
            if key in _SCALARS:
                data[key] = int(rest)
            elif key in _VECTORS:
                data[key] = _vector(rest)
            else:
                raise ValueError(f"unknown key {head.strip()!r}")
            continue
        if section is None:
            raise ValueError(f"generator line outside a section: "
                             f"{line!r}")
        data[section].append(_vector(line))
    return data


def _read_document(args) -> dict:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    doc = _document(text)
    # A bound key is refused where its flag is: by a command that has none.
    for name in ("kmax", "work_limit"):
        if name in doc and not hasattr(args, name):
            raise ValueError(f"{args.command} reads no {name!r} key")
    return doc


def _setting(flag, file_value, default=None):
    """Return the flag's value, else the file's, else the default."""
    if flag is not None:
        return flag
    return default if file_value is None else file_value


def _kmax(args, doc: dict) -> int:
    kmax = _setting(args.kmax, doc.get("kmax"), 50)
    if kmax < 1:
        raise ValueError("kmax must be positive")
    return kmax


def _work_limit(args, doc: dict) -> int:
    work_limit = _setting(args.work_limit, doc.get("work_limit"), 10 ** 6)
    if work_limit < 1:
        raise ValueError("work limit must be positive")
    return work_limit


def _gens(doc: dict, which: str, command: str) -> SemigroupGens:
    if which not in doc:
        raise ValueError(f"{command} needs an {which.upper()}: section")
    return SemigroupGens.from_columns(doc[which],
                                      "x" if which == "a" else "y")


def _bino(b: Binomial | None):
    if b is None:
        return None
    return {"text": str(b), "plus": list(b.plus.exponents),
            "minus": list(b.minus.exponents)}


def _rankdict(rc) -> dict:
    return {"rank_a": rc.rank_a, "rank_b": rc.rank_b,
            "rank_joint": rc.rank_joint, "ambient": rc.ambient,
            "ok": rc.ok}


def _write(text: str) -> None:
    """Write text to stdout and flush it: the one writer to stdout.

    A reader that closes the pipe early is not bad input, so the command
    keeps its verdict's exit code.  As the note on SIGPIPE in Python's
    ``signal`` docs advises, the output is flushed here, where a
    BrokenPipeError is caught, and nothing more may reach the closed
    pipe, not even the flush at exit.  The docs point the descriptor at
    devnull; stdout need not have one (an in-process run may write to a
    StringIO), so stdout is dropped instead: print and that flush skip a
    None stdout.  Help and version text, which argparse prints itself,
    is flushed by an empty write.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = None


def _emit(args, command: str, doc: dict, bounds: dict,
          result: dict, lines: list) -> None:
    """Print the JSON payload or the lines."""
    if not args.json:
        _write("".join(f"{ln}\n" for ln in lines))
        return
    import hashlib  # only --json reads the digest; OpenSSL loads slowly
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    payload = {"command": command, "version": __version__,
               "input_sha256": digest.hexdigest(), "bounds": bounds,
               "result": result}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _check_result(report) -> dict:
    return {
        "is_gluing": report.is_gluing,
        "k1": report.candidate.k1,
        "k2": report.candidate.k2,
        "u": None if report.u is None else list(report.u),
        "rho": _bino(report.rho),
        "rho_level": report.rho_level,
        "mu": {"a": report.mu_a, "b": report.mu_b, "c": report.mu_c},
        "shared_columns": [list(p) for p in report.candidate.shared_columns],
        "rank": _rankdict(report.rank),
        "homology": {name: getattr(report.homology, name)
                     for name in report.homology._fields},
        "detail": report.detail,
    }


def _check_lines(report) -> list:
    cand = report.candidate
    lines = [f"candidate: k1={cand.k1} k2={cand.k2} in dimension "
             f"{cand.ambient}",
             f"mu: {report.mu_a} + {report.mu_b} + 1 vs {report.mu_c}"]
    if report.u is not None:
        lines.append(f"lattice point: {report.u}")
    if cand.shared_columns:
        lines.append(f"shared columns: {cand.shared_columns}")
    if report.is_gluing:
        lines.append(f"gluing: yes, rho = {report.rho}"
                     + (f" (level {report.rho_level})"
                        if report.rho_level is not None else ""))
    else:
        lines.append(f"gluing: no ({report.detail})")
    return lines


def cmd_lattice_point(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "lattice-point")
    b = _gens(doc, "b", "lattice-point")
    rc, u = _meeting_line(a, b)
    if rc.ok:
        result = {"u": list(u), "rank": _rankdict(rc)}
        _emit(args, "lattice-point", doc, {}, result,
              [f"u = {u}",
               f"ranks: {rc.rank_a} + {rc.rank_b} = {rc.rank_joint} + 1"])
        return 0
    result = {"u": None, "rank": _rankdict(rc),
              "detail": "the column spaces do not meet in a line"}
    _emit(args, "lattice-point", doc, {}, result,
          [f"no lattice point: ranks {rc.rank_a}, {rc.rank_b}, joint "
           f"{rc.rank_joint} in dimension {rc.ambient}"])
    return 1


def cmd_toric(args) -> int:
    doc = _read_document(args)
    gens = _gens(doc, "a", "toric")
    work_limit = _work_limit(args, doc)
    t = toric_ideal(gens)
    result: dict = {"mu": t.mu, "generators": []}
    lines = [f"mu = {t.mu}"]
    for g in t.ideal.generators:
        deg = t.adegrees[g]
        entry = _bino(g)
        entry["degree"] = list(deg)
        result["generators"].append(entry)
        lines.append(f"  {g}   degree {deg}")
    bounds: dict = {"work_limit": work_limit}
    flag_bound = (None if args.degree_bound is None
                  else _vector(args.degree_bound))
    bound = _setting(flag_bound, doc.get("degree_bound"))
    if bound is not None:
        bound = tuple(bound)
        bounds["degree_bound"] = list(bound)
        oracle = enumerate_oracle(gens, bound, work_limit)
        result["oracle"] = [_bino(g) for g in oracle]
        lines.append(f"binomials with degree within {bound}: {len(oracle)}")
        lines.extend(f"  {g}" for g in oracle)
    _emit(args, "toric", doc, bounds, result, lines)
    return 0


def cmd_membership(args) -> int:
    doc = _read_document(args)
    gens = _gens(doc, "a", "membership")
    if "v" not in doc:
        raise ValueError("membership needs a v: vector")
    v = tuple(doc["v"])
    work_limit = _work_limit(args, doc)
    sol = is_member(v, gens, work_limit)
    result = {"member": sol is not None,
              "witness": None if sol is None else list(sol)}
    bounds = {"work_limit": work_limit}
    if sol is None:
        _emit(args, "membership", doc, bounds, result,
              [f"{v} is not in the semigroup"])
        return 1
    _emit(args, "membership", doc, bounds, result,
          [f"{v} = combination with exponents {sol}"])
    return 0


def cmd_check_gluing(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "check-gluing")
    b = _gens(doc, "b", "check-gluing")
    cand = GluingCandidate(a, b, _setting(args.k1, doc.get("k1"), 1),
                           _setting(args.k2, doc.get("k2"), 1))
    work_limit = _work_limit(args, doc)
    report = verify_gluing(cand, work_limit)
    _emit(args, "check-gluing", doc, {"work_limit": work_limit},
          _check_result(report), _check_lines(report))
    return 0 if report.is_gluing else 1


def cmd_find_gluing(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "find-gluing")
    b = _gens(doc, "b", "find-gluing")
    kmax = _kmax(args, doc)
    work_limit = _work_limit(args, doc)
    bounds = {"kmax": kmax, "work_limit": work_limit}
    d = decide_pair(a, b, kmax, work_limit)
    u = None if d.u is None else list(d.u)
    if d.gluable is False:
        # Name the proof: the obstruction to multiples, or the missed cone.
        detail = d.detail if d.multiples is False else d.reason
        result = {"found": False, "detail": detail,
                  "rank": _rankdict(d.rank), "u": u}
        _emit(args, "find-gluing", doc, bounds, result,
              [f"no gluing for any scalings: {detail}"])
        return 1
    if d.gluable is None:
        result = {"found": None, "detail": d.detail, "u": u}
        _emit(args, "find-gluing", doc, bounds, result,
              [f"no coprime pair within bound {kmax}: inconclusive"])
        return 3
    k1, k2 = d.pair
    # A self-check, on the meeting line the decision computed; explicit
    # so that -O keeps it.
    report = _verify_on_line(GluingCandidate(a, b, k1, k2), d.rank, d.u,
                             work_limit)
    if not report.is_gluing:
        raise AssertionError(f"coprime scalings k1={k1} k2={k2} failed "
                             f"verification: {report.detail}")
    result = _check_result(report)
    result["found"] = True
    _emit(args, "find-gluing", doc, bounds, result,
          [f"found scalings k1={k1} k2={k2}"]
          + _check_lines(report))
    return 0


def cmd_audit(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "audit")
    b = _gens(doc, "b", "audit")
    kmax = _kmax(args, doc)
    work_limit = _work_limit(args, doc)
    k1 = _setting(args.k1, doc.get("k1"))
    k2 = _setting(args.k2, doc.get("k2"))
    if (k1 is not None and k1 < 1) or (k2 is not None and k2 < 1):
        raise ValueError("k1 and k2 must be positive")
    if (k1 is None) != (k2 is None):
        missing = "k2" if k2 is None else "k1"
        raise ValueError(f"audit tries scalings only as a pair: {missing} "
                         "is missing")
    try_pairs = [] if k1 is None else [(k1, k2)]
    audit = implication_chain_audit(a, b, kmax, try_pairs, work_limit)
    result = {
        "gluing": audit.gluing,
        "multiples": audit.multiples,
        "cone_meet": audit.cone_meet,
        "semigroup_meet": audit.semigroup_meet,
        "pair": None if audit.pair is None else list(audit.pair),
        "u": None if audit.u is None else list(audit.u),
        "common_element": (None if audit.common_element is None
                           else list(audit.common_element)),
        "rank": _rankdict(audit.rank),
        "violations": list(audit.violations),
    }

    def show(val):
        return "unknown" if val is None else ("yes" if val else "no")

    lines = [f"gluing for some scalings: {show(audit.gluing)}"
             + (f" {audit.pair}" if audit.pair else ""),
             f"multiples in both semigroups: {show(audit.multiples)}",
             f"cones meet: {show(audit.cone_meet)}",
             f"semigroups meet: {show(audit.semigroup_meet)}"]
    for v in audit.violations:
        lines.append(f"VIOLATION: {v}")
    _emit(args, "audit", doc, {"kmax": kmax, "work_limit": work_limit},
          result, lines)
    return 1 if audit.violations else 0


def cmd_embed_glue(args) -> int:
    doc = _read_document(args)
    if "a" not in doc or "b" not in doc:
        raise ValueError("embed-glue needs A: and B: sections of plane "
                         "generators")
    p = PlaneHomogeneousGens.from_matrix(IntegerMatrix.from_columns(doc["a"]))
    q = PlaneHomogeneousGens.from_matrix(IntegerMatrix.from_columns(doc["b"]))
    index = _setting(args.i, doc.get("index"))
    if index is None:
        raise ValueError("embed-glue needs a step index (i: in the file "
                         "or --i)")
    eg = embed_and_glue(p, q, index)
    report = verify_gluing(eg.candidate)
    result = {
        "m": eg.m, "r": eg.r, "index": eg.index,
        "k1": eg.k1, "k2": eg.k2,
        "u": list(eg.u),
        "rho": _bino(eg.rho),
        "a_prime": [list(c) for c in eg.a_prime.matrix.columns()],
        "b_prime": [list(c) for c in eg.b_prime.matrix.columns()],
        "verified": report.is_gluing,
        "mu": {"a": report.mu_a, "b": report.mu_b, "c": report.mu_c},
    }
    lines = [f"padding: m = {eg.m}, r = {eg.r}",
             f"scalings: k1 = {eg.k1}, k2 = {eg.k2}",
             f"first block columns: {eg.a_prime.matrix.columns()}",
             f"second block columns: {eg.b_prime.matrix.columns()}",
             f"lattice point: {eg.u}",
             f"rho = {eg.rho}",
             f"verified gluing: {'yes' if report.is_gluing else 'NO'}"]
    _emit(args, "embed-glue", doc, {}, result, lines)
    return 0 if report.is_gluing else 1


def cmd_betti_glue(args) -> int:
    doc = _read_document(args)
    if "betti_a" not in doc or "betti_b" not in doc:
        raise ValueError("betti-glue needs betti_a: and betti_b: lines")
    ba = BettiSequence(doc["betti_a"])
    bb = BettiSequence(doc["betti_b"])
    glued = glued_betti(ba, bb)
    result = {"betti": list(glued.values), "pd": glued.pd}
    _emit(args, "betti-glue", doc, {}, result,
          [f"betti numbers of the glued ring: {glued.values}",
           f"projective dimension: {glued.pd}"])
    return 0


_KMAX = ("--kmax", int, "bound on searched multiples")
_WORK = ("--work-limit", int, "bound on enumeration steps")
_K12 = (("--k1", int, None), ("--k2", int, None))

_COMMANDS = {
    "lattice-point": (cmd_lattice_point,
                      "the primitive point where the spans meet", (), ()),
    "toric": (cmd_toric, "minimal generators of the toric ideal of A",
              (_WORK,), (("--degree-bound", str, "also list all ideal "
                          "binomials within this degree"),)),
    "membership": (cmd_membership,
                   "decide whether v lies in the semigroup A", (_WORK,),
                   ()),
    "check-gluing": (cmd_check_gluing, "decide whether k1 A and k2 B glue",
                     (_WORK,), _K12),
    "find-gluing": (cmd_find_gluing,
                    "search scalings that make A and B glue",
                    (_KMAX, _WORK), ()),
    "audit": (cmd_audit, "evaluate the implication chain for A and B",
              (_KMAX, _WORK), _K12),
    "embed-glue": (cmd_embed_glue,
                   "embed two plane semigroups so that they glue", (),
                   (("--i", int, "1-based step index of A used for the "
                     "gluing"),)),
    "betti-glue": (cmd_betti_glue,
                   "Betti numbers of a glued ring from the pieces", (), ()),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """Build the parser of every command, or of the command ``only``."""
    parser = argparse.ArgumentParser(
        prog="semiglue",
        description="decide, certify and construct gluings of affine "
                    "semigroups")
    parser.add_argument("--version", action="version",
                        version=f"semiglue {__version__}")
    # argparse reports stray arguments under the top usage, which must
    # name every command even when only one subparser is built.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{%s}" % ",".join(_COMMANDS))
    for name in _COMMANDS if only is None else (only,):
        func, text, shared, own = _COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        sp.add_argument("input", help="input file, or - for stdin")
        sp.add_argument("--json", action="store_true",
                        help="machine readable output")
        for flag, cast, flag_help in (*shared, *own):
            sp.add_argument(flag, type=cast, default=None, help=flag_help)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(only).parse_args(argv)
    except SystemExit:
        _write("")
        raise
    try:
        return args.func(args)
    except BoundTooLarge as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Python's own exit code, 1, would read as a proven no.
        import traceback
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
