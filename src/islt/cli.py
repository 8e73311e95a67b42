"""Command-line front end.

Exit codes are uniform across subcommands: 0 for provable, valid, or
found; 1 for unprovable, invalid, or no countermodel within the bound;
2 for usage errors, malformed input (input nested too deeply for the
recursive parser, printer or search included), paths that cannot be read or
written, and budget aborts. Output for a fixed invocation is byte-identical
across runs.

Each command imports the modules it runs inside its own function: a
process runs one command, and importing the rest of the package (cut
elimination, the Hilbert checker, the Kripke semantics) costs more than
deciding a typical goal. Only the parser and sequents, which every
command or its error handling needs, are imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from typing import Optional

from .formula import ParseError, parse_formula
from .sequent import Multiset, Sequent, parse_sequent

_BUDGET_ENV = "ISLT_BUDGET"

# Names this module bound at import time before the commands imported what
# they run. They are looked up on the package, which loads their submodules
# lazily, and bound here on first use, so that ``islt.cli.prove`` and the
# rest still work, for ``inspect.getattr_static`` too.
_MOVED = {
    "calculus", "hilbert", "semantics", "BudgetExceeded", "Proved", "Unprovable", "prove", "CutError", "eliminate",
    "theta",
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(__package__), name)
    return value


def _budget(flag: Optional[int]) -> Optional[int]:
    """--budget wins over ISLT_BUDGET; both must be positive."""
    source = "--budget"
    if flag is None:
        raw = os.environ.get(_BUDGET_ENV)
        if not raw:
            return None
        try:
            flag = int(raw)
        except ValueError:
            raise SystemExit(f"error: {_BUDGET_ENV} must be an integer, got {raw!r}")
        source = _BUDGET_ENV
    if flag <= 0:
        raise SystemExit(f"error: {source} must be positive")
    return flag


def _parse_goal(text: str, as_sequent: bool) -> Sequent:
    if as_sequent:
        return parse_sequent(text)
    return Sequent(Multiset(), parse_formula(text))


def _verdict(bad) -> int:
    """Report a checker's verdict: ok, or what is wrong and where."""
    if bad is None:
        print("ok")
        return 0
    print(f"invalid: {bad}")
    return 1


def _cmd_prove(args: argparse.Namespace) -> int:
    from . import calculus
    from .search import BudgetExceeded, Proved, Unprovable, prove

    goal = _parse_goal(args.goal, args.sequent)
    budget = _budget(args.budget)
    seed = args.seed
    if args.naive and seed is None:
        import random

        seed = random.SystemRandom().randrange(2**31)
    if args.naive:
        print(f"seed: {seed}", file=sys.stderr)
    result = prove(goal, naive=args.naive, seed=seed, budget=budget)
    if isinstance(result, Proved):
        if args.emit == "json":
            print(calculus.dumps(result.proof))
        elif args.emit == "text":
            print(calculus.render_text(result.proof), end="")
        else:
            print(calculus.render_dot(result.proof), end="")
        return 0
    if isinstance(result, Unprovable):
        print("unprovable")
        return 1
    assert isinstance(result, BudgetExceeded)
    print(
        f"error: search budget exhausted after exploring {result.explored} sequents "
        "with no verdict",
        file=sys.stderr,
    )
    return 2


def _cmd_check(args: argparse.Namespace) -> int:
    from . import calculus

    with open(args.certificate, "r", encoding="utf-8") as fh:
        d = calculus.loads(fh.read())
    return _verdict(calculus.check(d))


def _cmd_cutelim(args: argparse.Namespace) -> int:
    from . import calculus
    from .cut import CutError, eliminate

    with open(args.certificate, "r", encoding="utf-8") as fh:
        d = calculus.loads(fh.read())
    try:
        out = eliminate(d)
    except CutError as e:
        raise SystemExit(f"error: {e}")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(calculus.dumps(out))
        fh.write("\n")
    print(f"cut-free certificate written to {args.output}")
    return 0


def _cmd_countermodel(args: argparse.Namespace) -> int:
    from . import semantics

    goal = _parse_goal(args.goal, args.sequent)
    max_worlds = semantics.ENUMERATION_BOUND if args.max_worlds is None else args.max_worlds
    try:
        found = semantics.find_countermodel(goal, max_worlds=max_worlds)
    except ValueError as e:  # a well-formed request past the bound, not malformed input
        raise SystemExit(f"error: {e}")
    if found is None:
        print(f"no countermodel within {max_worlds} worlds")
        return 1
    model, world = found
    payload = semantics.model_to_json(model)
    payload["refuting_world"] = world
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_theta(args: argparse.Namespace) -> int:
    from .measure import theta

    s = parse_sequent(args.sequent_text)
    print(json.dumps(theta(s), separators=(",", ":")))
    return 0


def _cmd_hilbert_check(args: argparse.Namespace) -> int:
    from . import hilbert

    with open(args.proof, "r", encoding="utf-8") as fh:
        d = hilbert.loads(fh.read())
    return _verdict(hilbert.check_hilbert(d))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islt",
        description="Decision procedure and proof workbench for intuitionistic Strong Löb logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a formula or sequent, emitting a certificate")
    p.add_argument("goal", help="formula, or sequent with --sequent")
    p.add_argument("--sequent", action="store_true", help="parse the goal as 'ant => suc'")
    p.add_argument("--emit", choices=("text", "json", "dot"), default="json")
    p.add_argument("--naive", action="store_true", help="no memoization, shuffled rule order")
    p.add_argument("--seed", type=int, default=None, help="shuffle seed for --naive")
    p.add_argument("--budget", type=int, default=None, help="node budget (default: unlimited)")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check", help="validate a proof certificate")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cutelim", help="eliminate Cut nodes from a certificate")
    p.add_argument("certificate", help="certificate JSON file, Cut nodes allowed")
    p.add_argument("-o", "--output", required=True, help="output file for the cut-free certificate")
    p.set_defaults(func=_cmd_cutelim)

    p = sub.add_parser("countermodel", help="search for a refuting Kripke model")
    p.add_argument("goal", help="formula, or sequent with --sequent")
    p.add_argument("--sequent", action="store_true", help="parse the goal as 'ant => suc'")
    p.add_argument("--max-worlds", type=int, default=None)
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("theta", help="print the ordering measure of a sequent")
    p.add_argument("sequent_text", metavar="sequent", help="'ant => suc'")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("hilbert-check", help="validate a Hilbert-style derivation")
    p.add_argument("proof", help="derivation JSON file")
    p.set_defaults(func=_cmd_hilbert_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"error: malformed input: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
