"""Seeded fuzzing of the command line, in process: whatever the input, each
command exits 0, 1 or 2, no exception escapes and stderr holds no
traceback. A certificate that prove prints or cutelim writes on exit 0
passes check."""

import json
import random

import pytest
from genlib import formula, inject_cut, proved_proofs, random_sequent

from islt import calculus
from islt.cli import main
from islt.formula import Imp, print_formula
from islt.hilbert import AxiomId, ax, dumps as hilbert_dumps, el, metavariables, mp, nec
from islt.sequent import print_sequent

TOKENS = ("(", ")", "->", "<->", "/\\", "\\/", "[]", "~", "#", "p", "q1", ",", "=>", " ", '"', "{", "}", "[", "]",
          ":", "0", "-1", "null", "Cut", "IdP", "\\")
JUNK = (None, 5, -1, "", "#", "p ->", [], {}, ["p"], {"ant": 1})


def mutate_text(rng, text):
    """text after zero to three edits (none in two cases of five), each a
    truncation, a deleted slice, an inserted token or two swapped
    characters."""
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i]
        elif op == 1:
            text = text[:i] + text[j:]
        elif op == 2:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        elif j < len(text):
            text = text[:i] + text[j] + text[i + 1 : j] + text[i] + text[j + 1 :]
    return text


def mutate_json(rng, obj):
    """obj as JSON text, after zero to two of its fields (none in two cases
    of four) were dropped, given junk or a random formula, or had a list
    item repeated or dropped, and perhaps then mutated as text."""
    for _ in range(rng.choice((0, 0, 1, 2))):
        nodes, todo = [], [obj]
        while todo:
            n = todo.pop()
            if isinstance(n, dict):
                nodes.append(n)
                todo.extend(v for v in n.values() if isinstance(v, (dict, list)))
            elif isinstance(n, list):
                todo.extend(n)
        if not nodes:
            break
        n = rng.choice(nodes)
        key = rng.choice(sorted(n) or ["rule"])
        op = rng.randrange(4)
        if op == 0:
            n.pop(key, None)
        elif op == 1:
            n[key] = rng.choice(JUNK)
        elif op == 2:
            n[key] = print_formula(formula(rng, 2))
        elif isinstance(n.get(key), list) and n[key]:
            n[key] = n[key] + [rng.choice(n[key])] if rng.randrange(2) else n[key][1:]
    text = json.dumps(obj, indent=2)
    return mutate_text(rng, text) if rng.randrange(3) == 0 else text


def hilbert_derivation(rng):
    """A valid Hilbert derivation: an axiom instance, an element of the
    context, the A1/A2 route to f -> f, or necessitation over one of them."""
    ctx = frozenset(formula(rng, 1) for _ in range(rng.randrange(3)))
    k = rng.randrange(4)
    if k == 0:
        a = rng.choice(list(AxiomId))
        return ax(ctx, a, {m: formula(rng, 1) for m in metavariables(a)})
    if k == 1 and ctx:
        return el(ctx, rng.choice(sorted(ctx, key=print_formula)))
    f = formula(rng, 1)
    ff = Imp(f, f)
    route = mp(
        ax(ctx, AxiomId.A1, {"phi": f, "psi": f}),
        mp(ax(ctx, AxiomId.A1, {"phi": f, "psi": ff}), ax(ctx, AxiomId.A2, {"phi": f, "psi": ff, "chi": f})),
    )
    return nec(ctx, route) if k == 3 else route


def run(capsys, *argv):
    """The exit code and stdout of one command, after asserting the
    contract."""
    argv = list(argv)
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's usage errors
        code = e.code
    except Exception as e:
        pytest.fail(f"{argv!r} raised {e!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, out


def goal_args(rng, proofs):
    """A mutated formula, random sequent or proved sequent as a goal."""
    k = rng.randrange(3)
    if k == 0:
        return [mutate_text(rng, print_formula(formula(rng, 2)))]
    s = random_sequent(rng, 2, max_ant=2, max_weight=10) if k == 1 else rng.choice(proofs).root
    return ["--sequent", mutate_text(rng, print_sequent(s))]


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_every_command_keeps_the_exit_code_contract(capsys, tmp_path, seed):
    rng = random.Random(seed)
    proofs = proved_proofs(rng, 12)
    cert, out_path, proof_path = tmp_path / "cert.json", tmp_path / "out.json", tmp_path / "hilbert.json"
    for _ in range(80):
        argv = ["prove", *goal_args(rng, proofs), "--budget", str(rng.randrange(-1, 400))]
        if rng.randrange(4) == 0:
            argv += ["--naive", "--seed", str(rng.randrange(100))]
        emit = rng.choice(["json", "json", "text", "dot"])
        code, out = run(capsys, *argv, "--emit", emit)
        if code == 0 and emit == "json":
            assert calculus.check(calculus.loads(out)) is None, argv

        run(capsys, "countermodel", *goal_args(rng, proofs), "--max-worlds", str(rng.randrange(-1, 4)))
        run(capsys, "theta", mutate_text(rng, print_sequent(random_sequent(rng, 2, max_ant=2))))

        d = rng.choice(proofs)
        for _ in range(rng.randrange(3)):
            d = inject_cut(rng, d)
        cert.write_text(mutate_json(rng, json.loads(calculus.dumps(d))), encoding="utf-8")
        run(capsys, "check", str(cert))
        out_path.unlink(missing_ok=True)
        code, _ = run(capsys, "cutelim", str(cert), "-o", str(out_path))
        if code == 0:
            written = calculus.loads(out_path.read_text(encoding="utf-8"))
            assert calculus.check(written) is None and not calculus.uses_cut(written)

        proof_path.write_text(mutate_json(rng, json.loads(hilbert_dumps(hilbert_derivation(rng)))), encoding="utf-8")
        run(capsys, "hilbert-check", str(proof_path))
