"""The four workloads: seeded set-up, one operation, and its verification.

Every operation runs its calls into the program through ``Timer``, which
adds their duration to the operation's latency and switches tracing on
for exactly that long. Verification runs between those calls, untimed and
untraced. An operation ends as ``ok``, ``failed`` (no verdict: a budget
abort) or ``wrong`` (an output that verification rejects, a verdict that
contradicts a known one, or an exception).

Each workload reaches the program through module attributes (``S.prove``,
``C.check``, ...) so that the tracer's wrappers see its calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from islt import calculus as C
from islt import cli as CLI
from islt import cut as CUT
from islt import hilbert as H
from islt import measure as M
from islt import search as S
from islt import semantics as SEM
from islt import structural as ST
from islt.formula import Box, Imp
from islt.sequent import Sequent, parse_sequent

import corpus
from kripke import Sweeper, variables

DEFAULT_SEED = 7
BUDGET = 20_000  # node budget of the timed prove calls
# node budget of the proofs set-up makes: it skips goals that need more, so
# that one rare hard goal (17,525 sequents, 12 s at seed 507) cannot stall it
SCREEN_BUDGET = 300
CORPUS_DEPTH, CORPUS_MAX_ANT, CORPUS_MAX_WEIGHT = 5, 4, 24
UNREFUTED_FILE = Path(__file__).with_name("unrefuted_seed7.json")
NAIVE_SECONDS = 0.1  # time cap of the naive cross-check of one verdict


class Outcome(NamedTuple):
    status: str  # "ok", "failed" or "wrong"
    note: str = ""


OK = Outcome("ok")


def wrong(note: str) -> Outcome:
    return Outcome("wrong", note)


class Timer:
    """Times calls into the program; the sum is the operation's latency."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    def __call__(self, fn: Callable, *args, **kwargs):
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += perf_counter() - start
            if tracer is not None:
                tracer.active = False


def _height(d: C.Derivation) -> int:
    best, todo = 0, [(d, 1)]
    while todo:
        n, depth = todo.pop()
        best = max(best, depth)
        todo.extend((c, depth + 1) for c in n.children)
    return best


def _uses_cut(d: C.Derivation) -> bool:
    todo = [d]
    while todo:
        n = todo.pop()
        if n.rule is C.RuleId.Cut:
            return True
        todo.extend(n.children)
    return False


def _checked(d: C.Derivation, root: Optional[Sequent] = None) -> Optional[str]:
    """Why a certificate is not a cut-free proof (of root), or None."""
    if _uses_cut(d):
        return "uses Cut"
    bad = C.check(d)
    if bad is not None:
        return f"check rejects it: {bad}"
    if root is not None and d.root != root:
        return f"root {d.root} is not {root}"
    return None


def _refutes(m: SEM.KripkeModel, w: int, s: Sequent) -> Optional[str]:
    """Why (m, w) is not a countermodel to s, or None."""
    problems = SEM.validate_model(m)
    if problems:
        return f"invalid model: {problems[0]}"
    if SEM.valid(m, s):
        return "the sequent is valid in the model"
    if not all(SEM.forces(m, w, f) for f in s.ant.distinct()) or SEM.forces(m, w, s.suc):
        return f"world {w} does not refute the sequent"
    return None


class Workload:
    name = ""
    tail_percentile = 99.0

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.counters: dict[str, int] = {}

    def bump(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def pool_size(self, per_second: float, least: int) -> int:
        return max(least, int(per_second * self.seconds))

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, t: Timer) -> Outcome:
        raise NotImplementedError

    def traced_op(self, i: int, t: Timer) -> Outcome:
        return self.op(i, t)


class _TimeUp(Exception):
    pass


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise _TimeUp in the body once seconds of wall time have passed."""

    def expire(signum, frame):
        raise _TimeUp()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def naive_verdict(s: Sequent):
    """Naive search on s, capped at NAIVE_SECONDS; None when it runs out."""
    try:
        with _time_limit(NAIVE_SECONDS):
            return S.prove(s, naive=True, seed=0, budget=BUDGET)
    except _TimeUp:
        return None


def random_goals(seed: int, n: int) -> list[Sequent]:
    """The first n random goals of the prove-corpus pool for seed."""
    rng = random.Random(seed)
    return [
        corpus.random_sequent(rng, CORPUS_DEPTH, max_ant=CORPUS_MAX_ANT, max_weight=CORPUS_MAX_WEIGHT)
        for _ in range(n)
    ]


def unrefuted_list() -> tuple[int, frozenset]:
    """The default seed's list: how many random goals of the pool it covers,
    and those of them that the prover finds unprovable but that have no
    countermodel within three worlds. unrefuted.py writes it."""
    data = json.loads(UNREFUTED_FILE.read_text(encoding="utf-8"))
    return data["random_goals"], frozenset(parse_sequent(x) for x in data["sequents"])


class ProveCorpus(Workload):
    """Memoized prove on the README and criterion-04 goals, then on a seeded
    stream of random sequents. One operation is one prove call.

    An Unprovable verdict is confirmed by a countermodel within three
    worlds. One that has none is matched against the committed list where
    the list covers the goal (the default seed, up to its pool prefix), and
    elsewhere cross-checked with naive search, which finds a proof of any
    provable corpus goal in milliseconds: a proof makes the verdict wrong."""

    name = "prove-corpus"
    # the steadiest high percentile across seeds: p99 rests on the few
    # heaviest goals a seed draws
    tail_percentile = 95.0

    def setup(self) -> None:
        goals: list[tuple[Sequent, Optional[bool]]] = list(corpus.regression_goals())
        first_random = len(goals)
        # about half as many goals as a run proves: set-up and verification
        # scale with the number drawn, the timed work does not
        goals += [(s, None) for s in random_goals(self.seed, self.pool_size(600, 200))]
        self.goals = goals
        self.sweeper = Sweeper(3)
        # goals[:listed_until] are covered by the committed list
        self.listed_until, self.listed = 0, frozenset()
        if self.seed == DEFAULT_SEED:
            covered, self.listed = unrefuted_list()
            self.listed_until = first_random + covered
        self.verified: dict[tuple[Sequent, str], Outcome] = {}

    def op(self, i: int, t: Timer) -> Outcome:
        j = i % len(self.goals)
        s, expected = self.goals[j]
        result = t(S.prove, s, budget=BUDGET)
        # each distinct goal and verdict is verified once
        key = (s, type(result).__name__)
        out = self.verified.get(key)
        if out is None:
            out = self.verified[key] = self._verify(j, s, expected, result)
        return out

    def _verify(self, j: int, s: Sequent, expected: Optional[bool], result) -> Outcome:
        self.bump(f"goals_{type(result).__name__}")
        if isinstance(result, S.BudgetExceeded):
            return Outcome("failed", f"budget exhausted on {s}")
        if isinstance(result, S.Proved):
            if expected is False:
                return wrong(f"proved a known non-theorem {s}")
            why = _checked(result.proof, s)
            return wrong(f"certificate for {s}: {why}") if why else OK
        if not isinstance(result, S.Unprovable):
            return wrong(f"unexpected result {result!r}")
        if expected is True:
            return wrong(f"known theorem reported unprovable: {s}")
        found = self.sweeper.countermodel(s)
        if found is not None:
            why = _refutes(found[0], found[1], s)
            return wrong(f"countermodel for {s}: {why}") if why else OK
        if expected is False:
            return OK
        if j < self.listed_until:
            if s not in self.listed:
                return wrong(f"{s} reported unprovable, has no 3-world countermodel and is not on the list")
            self.bump("unprovable_by_list")
            return OK
        return self._cross_check(s)

    def _cross_check(self, s: Sequent) -> Outcome:
        r = naive_verdict(s)
        if isinstance(r, S.Proved):
            why = _checked(r.proof, s)
            return wrong(f"{s} reported unprovable, but naive search proves it" + (f" ({why})" if why else ""))
        self.bump("unprovable_by_naive" if isinstance(r, S.Unprovable) else "unprovable_unconfirmed")
        return OK


class _Certificate(NamedTuple):
    proof: C.Derivation
    right: C.Derivation  # proves proof's root context plus its succedent => chi
    transforms: tuple  # (structural function name, its arguments, expected premise roots or None)
    hilbert: H.HilbertNode
    bridge: tuple  # (axiom, substitution)


_HEIGHT_PRESERVING = {"weaken", "unbox_left", "invert", "box_imp_lir", "imp_imp_lir"}
_INVERTIBLE = {C.RuleId.AndR, C.RuleId.AndL, C.RuleId.OrL, C.RuleId.ImpR,
               C.RuleId.AtomImpL, C.RuleId.AndImpL, C.RuleId.OrImpL}


class Certify(Workload):
    """Prover certificates of random provable sequents, built in set-up, each
    taken through the codec, check, the criterion-08 transforms, injected
    cuts and eliminate, cut_admissible with a descent log, and the Hilbert
    checker. One operation is one certificate through that chain."""

    name = "certify"
    # p95 rests on the twenty heaviest of a seed's 400 certificates, and
    # moved twice as far between seeds
    tail_percentile = 90.0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        certs = []
        while len(certs) < self.pool_size(20, 20):
            s = corpus.random_sequent(rng, CORPUS_DEPTH, max_ant=CORPUS_MAX_ANT, max_weight=CORPUS_MAX_WEIGHT)
            r = S.prove(s, budget=SCREEN_BUDGET)
            if isinstance(r, S.Proved):
                certs.append(self._prepare(rng, r.proof))
        self.certs = certs

    def _prepare(self, rng: random.Random, d: C.Derivation) -> _Certificate:
        ant, suc = d.root.ant, d.root.suc
        # a prover-made right premise as in criterion 09, else the identity
        right = ST.id_general(suc, ant)
        for _ in range(3):
            r = S.prove(Sequent(ant.add(suc), corpus.formula(rng, rng.randrange(1, 3))), budget=SCREEN_BUDGET)
            if isinstance(r, S.Proved):
                right = r.proof
                break
        transforms: list = [("weaken", (d, corpus.formula(rng, rng.randrange(3))), None)]
        boxed = [f for f in ant if isinstance(f, Box)]
        if boxed:
            transforms.append(("unbox_left", (d, boxed[:1]), None))
        for inst in C.expand(d.root):
            if inst.rule in _INVERTIBLE:
                transforms.append(("invert", (inst.rule, d, inst.principal), inst.premises))
        for f in ant.distinct():
            if isinstance(f, Imp) and isinstance(f.left, Box):
                transforms.append(("box_imp_lir", (d, f), None))
            if isinstance(f, Imp) and isinstance(f.left, Imp):
                transforms.append(("imp_imp_lir", (d, f), None))
                transforms.append(("imp_imp_lil", (d, f), None))
            if ant.count(f) >= 2:
                transforms.append(("contract", (d, f), None))
        axiom = rng.choice(list(H.AxiomId))
        subst = {v: corpus.formula(rng, rng.randrange(2)) for v in H.metavariables(axiom)}
        return _Certificate(d, right, tuple(transforms), corpus.hilbert_identity(suc), (axiom, subst))

    def op(self, i: int, t: Timer) -> Outcome:
        c = self.certs[i % len(self.certs)]
        d = c.proof
        rng = random.Random(self.seed * 1_000_003 + i)

        text = t(C.dumps, d)
        back = t(C.loads, text)
        if back != d:
            return wrong(f"dumps/loads round trip changed the certificate of {d.root}")
        bad = t(C.check, back)
        if bad is not None:
            return wrong(f"check rejects the certificate of {d.root}: {bad}")

        h = _height(d)
        for name, args, premises in c.transforms:
            got = t(getattr(ST, name), *args)
            outs = got if name == "invert" else [got]
            if premises is not None and tuple(g.root for g in outs) != premises:
                return wrong(f"{name} on {d.root} gave the wrong premises")
            for g in outs:
                bad = C.check(g)
                if bad is not None:
                    return wrong(f"{name} on {d.root}: check rejects the result: {bad}")
                if name in _HEIGHT_PRESERVING and _height(g) > h:
                    return wrong(f"{name} on {d.root} raised the height")

        with_cuts = d
        for _ in range(rng.randrange(1, 4)):
            with_cuts = corpus.inject_cut(rng, with_cuts, lambda f, ctx: t(ST.id_general, f, ctx))
        out = t(CUT.eliminate, with_cuts)
        why = _checked(out, d.root)
        if why:
            return wrong(f"eliminate on {d.root}: {why}")

        log: list = []
        inst = CUT.CutInstance(d, c.right)
        out = t(CUT.cut_admissible, inst, debug=True, log=log)
        why = _checked(out, inst.conclusion)
        if why:
            return wrong(f"cut_admissible on {inst.conclusion}: {why}")
        if not log or any(p is not None and not _measure_less(own, p) for p, own in log):
            return wrong(f"cut log for {inst.conclusion} does not descend")

        bad = t(H.check_hilbert, c.hilbert)
        if bad is not None:
            return wrong(f"check_hilbert rejects |- [](f -> f) for f = {d.root.suc}: {bad}")
        if not t(H.bridge_check, *c.bridge):
            return wrong(f"bridge_check fails on {c.bridge[0].value}")
        return OK


def _measure_less(a, b) -> bool:
    if a[0] != b[0]:
        return a[0] < b[0]
    return M.shortlex_less(a[1], b[1])


# valid sweeps on proved sequents, with countermodel searches in between:
# one that finds a model and one that sweeps every model and finds none
_SEMANTICS_PATTERN = ("valid", "valid", "refutable", "valid", "valid", "unrefuted")


class Semantics(Workload):
    """Proved two-variable sequents checked with valid against every model
    of up to three worlds over their variables (the criterion-05 pattern),
    and find_countermodel on unprovable ones: some refutable within three
    worlds, some not, which sweep every model. One operation is one
    sequent against the models of its variables."""

    name = "semantics"
    tail_percentile = 95.0  # about 20 samples beyond in a 20-second run

    def setup(self) -> None:
        rng = random.Random(self.seed)
        sweeper = Sweeper(3)
        rounds = self.pool_size(2.5, 4)
        need = {k: rounds * _SEMANTICS_PATTERN.count(k) for k in set(_SEMANTICS_PATTERN)}
        groups: dict[str, list[Sequent]] = {k: [] for k in need}
        while any(len(groups[k]) < need[k] for k in need):
            s = corpus.random_sequent(rng, 3, max_ant=2, variables=corpus.VARS3)
            if len(variables(s)) != 2:
                continue
            if len(groups["unrefuted"]) < need["unrefuted"]:
                # a triple box needs an r-chain of three steps to fail
                deep = Sequent(s.ant, Box(Box(Box(s.suc))))
                if isinstance(S.prove(deep, budget=SCREEN_BUDGET), S.Unprovable) and sweeper.countermodel(deep) is None:
                    groups["unrefuted"].append(deep)
            r = S.prove(s, budget=SCREEN_BUDGET)
            if isinstance(r, S.Proved):
                kind = "valid"
            elif isinstance(r, S.Unprovable) and sweeper.countermodel(s) is not None:
                kind = "refutable"
            else:
                continue
            if len(groups[kind]) < need[kind]:
                groups[kind].append(s)
        taken = {k: iter(v) for k, v in groups.items()}
        self.ops = [
            (kind, s, sorted(variables(s)))
            for _ in range(rounds)
            for kind, s in ((k, next(taken[k])) for k in _SEMANTICS_PATTERN)
        ]
        self.sweeper = sweeper

    @staticmethod
    def _sweep(s: Sequent, names: list[str]) -> int:
        """Models over the variables names in which s is not valid."""
        return sum(1 for m in SEM.enumerate_models(3, names) if not SEM.valid(m, s))

    def op(self, i: int, t: Timer) -> Outcome:
        kind, s, names = self.ops[i % len(self.ops)]
        if kind == "valid":
            failing = t(self._sweep, s, names)
            return wrong(f"proved {s} fails in {failing} models") if failing else OK
        found = t(SEM.find_countermodel, s, 3)
        if found is None:
            if self.sweeper.countermodel(s) is not None:
                return wrong(f"find_countermodel missed a countermodel to {s}")
            return OK
        why = _refutes(found[0], found[1], s)
        return wrong(f"find_countermodel on {s}: {why}") if why else OK


class _Command(NamedTuple):
    argv: tuple[str, ...]
    setup_code: int  # exit code of the in-process run in set-up
    stdout: str


_CLI_ENTRY = "import sys; from islt.cli import main; sys.exit(main())"


class Cli(Workload):
    """The README command list, plus check, cutelim, countermodel, theta and
    hilbert-check on seeded inputs that set-up writes, each run as its own
    islt process. One operation is one command."""

    name = "cli"
    tail_percentile = 75.0
    variants = 2

    def setup(self) -> None:
        rng = random.Random(self.seed)
        wd = self.workdir
        sweeper = Sweeper(3)
        proofs, unprovable = [], []
        while len(proofs) < self.variants or len(unprovable) < self.variants:
            s = corpus.random_sequent(rng, 3, max_ant=3, max_weight=16)
            r = S.prove(s, budget=SCREEN_BUDGET)
            if isinstance(r, S.Proved) and len(proofs) < self.variants:
                proofs.append(r.proof)
            elif isinstance(r, S.Unprovable) and len(unprovable) < self.variants:
                if sweeper.countermodel(s) is not None:
                    unprovable.append(s)
        commands = [
            ("prove", "([]p -> p) -> p"),
            ("prove", "--emit", "text", "([]p -> p) -> p"),
            ("prove", "--sequent", "p, p -> q => q"),
            ("prove", "--naive", "--seed", "7", "p -> []p"),
        ]
        for k, d in enumerate(proofs):
            cert, cuts, hil = wd / f"cert{k}.json", wd / f"cuts{k}.json", wd / f"hilbert{k}.json"
            cert.write_text(C.dumps(d) + "\n", encoding="utf-8")
            with_cuts = d
            for _ in range(rng.randrange(1, 4)):
                with_cuts = corpus.inject_cut(rng, with_cuts, ST.id_general)
            cuts.write_text(C.dumps(with_cuts) + "\n", encoding="utf-8")
            hil.write_text(H.dumps(corpus.hilbert_identity(d.root.suc)) + "\n", encoding="utf-8")
            commands += [
                ("check", str(cert)),
                ("cutelim", str(cuts), "-o", str(wd / f"cutfree{k}.json")),
                ("countermodel", "--sequent", str(unprovable[k])),
                ("theta", str(d.root)),
                ("hilbert-check", str(hil)),
                ("prove", "--sequent", str(d.root)),
            ]
        self.commands = [self._expect(argv) for argv in commands]
        self.env = dict(os.environ, PYTHONPATH=str(Path(CLI.__file__).resolve().parent.parent))

    def _expect(self, argv: tuple[str, ...]) -> _Command:
        """The stdout of an in-process run, which a process run must match
        byte for byte."""
        code, out = self._in_process(argv)
        return _Command(argv, code, out)

    @staticmethod
    def _verify(argv: tuple[str, ...], out: str) -> Optional[str]:
        """An independent check of what a command printed or wrote."""
        if argv[0] == "prove" and "--emit" not in argv:
            goal = parse_sequent(argv[-1] if "--sequent" in argv else f"=> {argv[-1]}")
            return _checked(C.loads(out), goal)
        if argv[0] == "cutelim":
            source = C.loads(Path(argv[1]).read_text(encoding="utf-8"))
            return _checked(C.loads(Path(argv[3]).read_text(encoding="utf-8")), source.root)
        if argv[0] == "countermodel":
            data = json.loads(out)
            return _refutes(SEM.model_from_json(data), data["refuting_world"], parse_sequent(argv[-1]))
        return None

    @staticmethod
    def _in_process(argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(list(argv))
        return code, out.getvalue()

    def op(self, i: int, t: Timer) -> Outcome:
        cmd = self.commands[i % len(self.commands)]
        proc = t(
            subprocess.run,
            [sys.executable, "-c", _CLI_ENTRY, *cmd.argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return self._judge(cmd, proc.returncode, proc.stdout)

    def traced_op(self, i: int, t: Timer) -> Outcome:
        cmd = self.commands[i % len(self.commands)]
        code, out = t(self._in_process, cmd.argv)
        return self._judge(cmd, code, out)

    def main_seconds(self, i: int) -> float:
        """Untraced in-process time of command i."""
        argv = self.commands[i % len(self.commands)].argv
        start = perf_counter()
        self._in_process(argv)
        return perf_counter() - start

    @staticmethod
    def _judge(cmd: _Command, code: int, out: str) -> Outcome:
        """Every command has a known verdict: exit 0, a proof, a valid
        certificate, a countermodel."""
        shown = "islt " + " ".join(cmd.argv)
        if cmd.setup_code != 0:
            return wrong(f"{shown}: exit {cmd.setup_code} in set-up, expected 0")
        if code != 0:
            return wrong(f"{shown}: exit {code}, expected 0")
        if out != cmd.stdout:
            return wrong(f"{shown}: output differs from the in-process run")
        why = Cli._verify(cmd.argv, out)
        return wrong(f"{shown}: {why}") if why else OK


WORKLOADS = {w.name: w for w in (ProveCorpus, Certify, Semantics, Cli)}
