"""End-to-end command-line behavior via cli.main."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import islt
from genlib import cap_search_work, pigeonhole
from islt import calculus, search
from islt.cli import main
from islt.formula import Var, print_formula
from islt.hilbert import AxiomId, ax, dumps as hilbert_dumps
from islt.search import Proved, prove
from islt.semantics import model_from_json, forces, validate_model
from islt.sequent import parse_sequent
from islt.structural import id_general


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def certificate(text):
    r = prove(parse_sequent(text))
    assert isinstance(r, Proved)
    return r.proof


def test_prove_provable_emits_checked_json(capsys):
    code, out, err = run(capsys, "prove", "([]p -> p) -> p")
    assert code == 0
    d = calculus.loads(out)
    assert calculus.check(d) is None
    assert d.root == parse_sequent("=> ([]p -> p) -> p")


def test_prove_unprovable(capsys):
    code, out, err = run(capsys, "prove", "[]p -> p")
    assert code == 1
    assert out == "unprovable\n"


def test_prove_sequent_flag(capsys):
    code, out, _ = run(capsys, "prove", "--sequent", "p, p -> q => q")
    assert code == 0
    assert calculus.loads(out).root == parse_sequent("p, p -> q => q")


def test_prove_emit_text_and_dot(capsys):
    code, out, _ = run(capsys, "prove", "--emit", "text", "p -> p")
    assert code == 0
    assert "[ImpR]" in out
    code, out, _ = run(capsys, "prove", "--emit", "dot", "p -> p")
    assert code == 0
    assert out.startswith("digraph")


def test_prove_byte_identical_across_runs(capsys):
    first = run(capsys, "prove", "--sequent", "p /\\ q => q /\\ p")
    second = run(capsys, "prove", "--sequent", "p /\\ q => q /\\ p")
    assert first == second


def test_prove_naive_seed_reporting(capsys):
    code, out, err = run(capsys, "prove", "--naive", "--seed", "7", "p -> q -> p")
    assert code == 0
    assert err == "seed: 7\n"
    assert calculus.check(calculus.loads(out)) is None
    # no seed given: one is drawn and reported
    code, _, err = run(capsys, "prove", "--naive", "p -> p")
    assert code == 0
    assert err.startswith("seed: ")
    int(err.split(":")[1])


def test_prove_budget_abort_is_distinct(capsys):
    code, out, err = run(capsys, "prove", "--budget", "1",
                         "(p -> q) -> (q -> r) -> p -> r")
    assert code == 2
    assert out == ""
    assert "search budget exhausted after exploring 1 sequents" in err
    assert "unprovable" not in out + err


def test_naive_budget_abort(capsys, monkeypatch):
    cap_search_work(monkeypatch)
    goal = print_formula(pigeonhole(3, 3))
    code, out, err = run(capsys, "prove", "--naive", "--seed", "1", "--budget", "2000", goal)
    assert code == 2
    assert out == ""
    assert err == "seed: 1\nerror: search budget exhausted after exploring 2000 sequents with no verdict\n"


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("ISLT_BUDGET", "1")
    code, _, err = run(capsys, "prove", "(p -> q) -> (q -> r) -> p -> r")
    assert code == 2
    assert "budget exhausted" in err
    # explicit flag wins over the environment
    code, _, _ = run(capsys, "prove", "--budget", "100000",
                     "(p -> q) -> (q -> r) -> p -> r")
    assert code == 0
    monkeypatch.setenv("ISLT_BUDGET", "abc")
    code, _, err = run(capsys, "prove", "p -> p")
    assert code == 2
    assert "must be an integer" in err
    monkeypatch.setenv("ISLT_BUDGET", "-3")
    code, _, err = run(capsys, "prove", "p -> p")
    assert code == 2
    assert "must be positive" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_flag_must_be_positive(capsys, value):
    code, out, err = run(capsys, "prove", "--budget", value, "p -> p")
    assert code == 2
    assert out == ""
    assert err == "error: --budget must be positive\n"


def test_check_roundtrip(capsys, tmp_path):
    d = certificate("p /\\ q => q")
    path = tmp_path / "cert.json"
    path.write_text(calculus.dumps(d), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out == "ok\n"

    obj = json.loads(calculus.dumps(d))
    obj["sequent"]["suc"] = "p -> p"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out.startswith("invalid: at ")


def test_check_missing_and_malformed_files(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "malformed input" in err


def test_cutelim_writes_cut_free_file(capsys, tmp_path):
    base = certificate("p => p \\/ q")
    right = id_general(base.root.suc, base.root.ant)
    cut_node = calculus.node(calculus.RuleId.Cut, base.root, None, base, right)
    src = tmp_path / "with_cut.json"
    dst = tmp_path / "cut_free.json"
    src.write_text(calculus.dumps(cut_node), encoding="utf-8")
    code, out, _ = run(capsys, "cutelim", str(src), "-o", str(dst))
    assert code == 0
    assert str(dst) in out
    out_proof = calculus.loads(dst.read_text(encoding="utf-8"))
    assert calculus.check(out_proof) is None
    assert not calculus.uses_cut(out_proof)
    assert out_proof.root == base.root


# The cut the packaging job eliminates: p /\ q cut in at p, q => q /\ p, where
# eliminating it inverts AndL and weakens.
_CI_CUT = (
    r'{"sequent": {"ant": ["p", "q"], "suc": "q /\\ p"}, "rule": "Cut", "premises": [{"sequent": {"ant": ["p", "q"], '
    r'"suc": "p /\\ q"}, "rule": "AndR", "premises": [{"sequent": {"ant": ["p", "q"], "suc": "p"}, "rule": "IdP"}, '
    r'{"sequent": {"ant": ["p", "q"], "suc": "q"}, "rule": "IdP"}]}, {"sequent": {"ant": ["p", "q", "p /\\ q"], '
    r'"suc": "q /\\ p"}, "rule": "AndL", "principal": "p /\\ q", "premises": [{"sequent": {"ant": ["p", "q", "p", '
    r'"q"], "suc": "q /\\ p"}, "rule": "AndR", "premises": [{"sequent": {"ant": ["p", "q", "p", "q"], "suc": "q"}, '
    r'"rule": "IdP"}, {"sequent": {"ant": ["p", "q", "p", "q"], "suc": "p"}, "rule": "IdP"}]}]}]}'
)


def test_packaging_job_digests(capsys, tmp_path):
    """The certificates the packaging job pins byte for byte: a committed
    proof through AndL, AndR, SLtR, AtomImpL and OrR1, a seeded naive proof,
    whose rule order follows the principals' order, and a cut-free file."""
    code, out, _ = run(capsys, "prove", "--sequent", "[](p -> q), []p, r /\\ s => []q /\\ (r \\/ #)")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef876b340fa9176d00fb466d868757a5347ee01503b178a13d0ee51fd3ea2dd5"
    )
    code, out, _ = run(capsys, "prove", "--naive", "--seed", "7", "p -> []p")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e32fd1c1274dfd379b5223df4510842c3d9cbb7d06202603b5095084fd3e1ea"
    )
    cut, eliminated = tmp_path / "cut.json", tmp_path / "eliminated.json"
    cut.write_text(_CI_CUT + "\n", encoding="utf-8")
    code, _, _ = run(capsys, "cutelim", str(cut), "-o", str(eliminated))
    assert code == 0
    assert hashlib.sha256(eliminated.read_bytes()).hexdigest() == (
        "ebabb6ab5f1f78870c8ec375030da18fb7674cb6f8d7c1a465586145d879422a"
    )


def test_cutelim_rejects_broken_certificate(capsys, tmp_path):
    d = calculus.Derivation(parse_sequent("p => q"), calculus.RuleId.IdP, None, ())
    src = tmp_path / "broken.json"
    src.write_text(calculus.dumps(d), encoding="utf-8")
    code, _, err = run(capsys, "cutelim", str(src), "-o", str(tmp_path / "out.json"))
    assert code == 2
    assert "error:" in err


def test_cutelim_rejects_a_principal_on_cut(capsys, tmp_path):
    s = parse_sequent("q => q")
    leaf = calculus.node(calculus.RuleId.IdP, s, None)
    d = calculus.node(calculus.RuleId.Cut, s, parse_sequent("=> q -> q").suc, leaf,
                      calculus.node(calculus.RuleId.IdP, parse_sequent("q, q => q"), None))
    src = tmp_path / "cut.json"
    src.write_text(calculus.dumps(d), encoding="utf-8")
    code, out, err = run(capsys, "cutelim", str(src), "-o", str(tmp_path / "out.json"))
    assert (code, out) == (2, "")
    assert err == "error: input fails checking: at root: Cut takes no principal formula\n"
    assert not (tmp_path / "out.json").exists()


def test_cutelim_rejects_a_cut_that_changes_the_context(capsys, tmp_path):
    # => q from two q => q leaves: the right premise fits, the left one does not
    leaf = calculus.node(calculus.RuleId.IdP, parse_sequent("q => q"), None)
    d = calculus.node(calculus.RuleId.Cut, parse_sequent("=> q"), None, leaf, leaf)
    src = tmp_path / "cut.json"
    src.write_text(calculus.dumps(d), encoding="utf-8")
    code, out, err = run(capsys, "cutelim", str(src), "-o", str(tmp_path / "out.json"))
    assert (code, out) == (2, "")
    assert err == "error: input fails checking: at root: Cut left premise must keep the conclusion context\n"
    assert not (tmp_path / "out.json").exists()


def test_countermodel_found(capsys):
    code, out, _ = run(capsys, "countermodel", "[]p -> p")
    assert code == 0
    payload = json.loads(out)
    world = payload.pop("refuting_world")
    m = model_from_json(payload)
    assert validate_model(m) == []
    assert not forces(m, world, parse_sequent("=> []p -> p").suc)


def test_countermodel_none(capsys):
    code, out, _ = run(capsys, "countermodel", "p -> p")
    assert code == 1
    assert "no countermodel within" in out


@pytest.mark.parametrize(
    "worlds, message",
    [
        ("9", "max_worlds 9 exceeds the enumeration bound 3"),
        ("0", "max_worlds 0 is not positive"),
        ("-1", "max_worlds -1 is not positive"),
    ],
    ids=["9", "0", "-1"],
)
def test_countermodel_bound_error(capsys, worlds, message):
    # above the enumeration bound, or no world at all: an error, not a
    # verdict, and a well-formed request, not malformed input
    code, out, err = run(capsys, "countermodel", "--max-worlds", worlds, "p")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_theta_output_exact(capsys):
    code, out, _ = run(capsys, "theta", "=> []p")
    assert code == 0
    assert out == "[1,0]\n"
    assert run(capsys, "theta", "=> []p") == (0, "[1,0]\n", "")
    code, out, _ = run(capsys, "theta", "[](p /\\ q), p \\/ q => q -> p")
    assert code == 0
    assert out == "[1,2,0,0]\n"


def test_hilbert_check_cli(capsys, tmp_path):
    d = ax(frozenset(), AxiomId.A11, {"phi": Var("p")})
    path = tmp_path / "hilbert.json"
    path.write_text(hilbert_dumps(d), encoding="utf-8")
    code, out, _ = run(capsys, "hilbert-check", str(path))
    assert code == 0
    assert out == "ok\n"
    obj = json.loads(hilbert_dumps(d))
    obj["conclusion"] = "p -> p"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "hilbert-check", str(path))
    assert code == 1
    assert out.startswith("invalid:")


@pytest.mark.parametrize(
    "obj",
    [
        [json.loads(hilbert_dumps(ax(frozenset(), AxiomId.A11, {"phi": Var("p")})))],
        {"conclusion": 5, "rule": "axiom"},
        {"conclusion": "p", "rule": "MP", "children": "p"},
    ],
    ids=["top-level-list", "conclusion-number", "children-string"],
)
def test_hilbert_derivation_of_the_wrong_shape_exits_2(capsys, tmp_path, obj):
    path = tmp_path / "hilbert.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "hilbert-check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed input: certificate")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "prove", "p ->")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "theta", "p -> q")
    assert code == 2
    assert "=>" in err


DEEP = "(" * 1200 + "p" + ")" * 1200


@pytest.mark.parametrize("argv", [("prove", DEEP), ("theta", f"{DEEP} => p")])
def test_deep_input_exits_2_without_traceback(argv):
    # a fresh interpreter, so that the exit code and stderr are the whole
    # process's, not just what main returns
    src = str(Path(islt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    got = subprocess.run(
        [sys.executable, "-m", "islt.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert got.returncode == 2
    assert "Traceback" not in got.stderr
    assert got.stderr == "error: input nested too deeply\n"
    assert got.stdout == ""


@pytest.mark.parametrize("command", ["check", "cutelim"])
@pytest.mark.parametrize("shape", ["premises-string", "top-level-list"])
def test_certificate_of_the_wrong_shape_exits_2(capsys, tmp_path, command, shape):
    obj = json.loads(calculus.dumps(certificate("p /\\ q => q")))
    if shape == "premises-string":
        obj["premises"] = "p => p"
    else:
        obj = [obj]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    extra = ["-o", str(tmp_path / "out.json")] if command == "cutelim" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed input: certificate")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "hilbert-check", "cutelim"])
def test_unreadable_or_unwritable_path_exits_2(capsys, tmp_path, command):
    # a directory where a file is read or written
    if command == "cutelim":
        cert = tmp_path / "cert.json"
        cert.write_text(calculus.dumps(certificate("p => p \\/ q")), encoding="utf-8")
        argv = ["cutelim", str(cert), "-o", str(tmp_path)]
    else:
        argv = [command, str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(d):
        raise MemoryError

    monkeypatch.setattr(calculus, "dumps", exhausted)
    code, out, err = run(capsys, "prove", "p -> p")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_search_past_the_recursion_limit_exits_2(capsys, monkeypatch):
    # a shallow goal whose search outruns the limit, as valid de Bruijn(20)
    # does after seconds: named as the search's, not as nested input
    def too_deep(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr(search, "prove", too_deep)
    code, out, err = run(capsys, "prove", "p -> p")
    assert (code, out, err) == (2, "", "error: search went deeper than the recursion limit\n")


# Proves valid de Bruijn(9) with the child's address space capped at 100 MB
# above what it has mapped: the proof's JSON does not fit.
_CAPPED = r"""
import resource, sys
from islt.cli import main
def iff(a, b):
    return f"(({a} -> {b}) /\\ ({b} -> {a}))"
ps = [f"p{i}" for i in range(9)]
c = "(" + " /\\ ".join(ps) + ")"
goal = "(" + " /\\ ".join(f"({iff(a, b)} -> {c})" for a, b in zip(ps, ps[1:] + ps[:1])) + f") -> {c}"
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (100 << 20), resource.RLIM_INFINITY))
sys.exit(main(["prove", goal]))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_out_of_memory_in_a_capped_process_exits_2():
    got = _fresh(_CAPPED)
    assert got.returncode == 2
    assert got.stderr == "error: out of memory\n"
    assert got.stdout == ""


def test_usage_error_raises_system_exit():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["prove", "--emit", "pdf", "p"])


# Each README example run in a fresh interpreter, which reports the modules
# it loaded on its last stderr line.
_PROBE = (
    "import sys; from islt.cli import main; code = main(sys.argv[1:]); "
    "print(*sorted(sys.modules), file=sys.stderr); sys.exit(code)"
)
_README = [
    ("prove", "([]p -> p) -> p"),
    ("prove", "--emit", "text", "([]p -> p) -> p"),
    ("prove", "--sequent", "p, p -> q => q"),
    ("prove", "--naive", "--seed", "7", "p -> []p"),
    ("check", "cert.json"),
    ("cutelim", "with_cuts.json", "-o", "cut_free.json"),
    ("countermodel", "[]p -> p"),
    ("theta", "[](p /\\ q), p \\/ q => q -> p"),
    ("hilbert-check", "derivation.json"),
]


def _fresh(code, *argv, cwd=None):
    src = str(Path(islt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


def test_each_command_loads_only_what_it_runs(tmp_path):
    cert = certificate("=> p -> p")
    (tmp_path / "cert.json").write_text(calculus.dumps(cert), encoding="utf-8")
    right = id_general(cert.root.suc, cert.root.ant)
    with_cuts = calculus.node(calculus.RuleId.Cut, cert.root, None, cert, right)
    (tmp_path / "with_cuts.json").write_text(calculus.dumps(with_cuts), encoding="utf-8")
    derivation = hilbert_dumps(ax(frozenset(), AxiomId.A11, {"phi": Var("p")}))
    (tmp_path / "derivation.json").write_text(derivation, encoding="utf-8")
    for argv in _README:
        got = _fresh(_PROBE, *argv, cwd=tmp_path)
        assert got.returncode == 0, (argv, got.stderr)
        loaded = set(got.stderr.splitlines()[-1].split())
        assert "islt.cli" in loaded
        assert "dataclasses" not in loaded, argv
        if argv[0] == "prove":
            assert not loaded & {"islt.cut", "islt.structural", "islt.semantics", "islt.hilbert"}, argv
        if argv[0] == "hilbert-check":
            assert not loaded & {"islt.search", "islt.measure"}, argv


def test_package_is_lazy_and_exports_every_name():
    got = _fresh("import sys, islt; print(*sorted(m for m in sys.modules if m.startswith('islt')))")
    assert got.returncode == 0 and got.stdout.split() == ["islt", "islt.formula", "islt.sequent"]
    listed = dir(islt)
    for name in islt.__all__:
        home = islt._HOME.get(name)
        if home is None:
            assert getattr(islt, name) is sys.modules[f"islt.{name}"], name
        else:
            assert getattr(islt, name) is getattr(sys.modules[f"islt.{home}"], name), name
        assert name in listed
    namespace: dict = {}
    exec("from islt import *", namespace)
    assert set(islt.__all__) <= namespace.keys()
    assert islt.prove is namespace["prove"] is prove
    assert islt.calculus is calculus


def test_the_sequent_function_shadows_its_submodule_whatever_loads_first():
    got = _fresh(
        "import sys, islt.calculus; from islt import *; import islt; "
        "print(sequent is islt.sequent is sys.modules['islt.sequent'].sequent, sequent([], Var('p')))"
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["True", "=>", "p"]


def test_cli_still_binds_the_names_its_commands_import():
    got = _fresh(
        "import sys, islt.cli as cli; before = set(sys.modules); "
        "import islt.cut, islt.hilbert, islt.measure, islt.search, islt.semantics; "
        "print(cli.prove is islt.search.prove, cli.eliminate is islt.cut.eliminate, "
        "cli.theta is islt.measure.theta, cli.semantics is islt.semantics, 'islt.cut' in before)"
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == ["True"] * 4 + ["False"]
