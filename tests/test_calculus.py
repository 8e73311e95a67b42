import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from genlib import chain_proof, formula, proved_proofs, random_sequent
from islt.calculus import (
    Derivation,
    RuleId,
    SchemaError,
    check,
    dumps,
    expand,
    height,
    loads,
    node,
    premises_of,
    render_dot,
    replacements,
    render_text,
    uses_cut,
)
from islt.formula import And, Bot, Box, Imp, Or, Var, parse_formula
from islt.search import Proved, prove
from islt.sequent import Multiset, Sequent, parse_sequent, sequent

p, q, r = Var("p"), Var("q"), Var("r")


def seq(text):
    return parse_sequent(text)


# premise schemas, hand-computed


def test_zero_premise_rules():
    assert premises_of(RuleId.IdP, seq("p, q => p"), None) == ()
    assert premises_of(RuleId.BotL, seq("#, q => r"), None) == ()
    with pytest.raises(SchemaError):
        premises_of(RuleId.IdP, seq("q => p"), None)
    with pytest.raises(SchemaError):
        premises_of(RuleId.BotL, seq("q => p"), None)
    with pytest.raises(SchemaError):
        premises_of(RuleId.IdP, seq("p => p -> p"), None)


def test_and_rules():
    assert premises_of(RuleId.AndL, seq("p /\\ q => r"), And(p, q)) == (seq("p, q => r"),)
    assert premises_of(RuleId.AndR, seq("r => p /\\ q"), None) == (
        seq("r => p"),
        seq("r => q"),
    )


def test_or_rules():
    assert premises_of(RuleId.OrL, seq("p \\/ q, r => p"), Or(p, q)) == (
        seq("p, r => p"),
        seq("q, r => p"),
    )
    assert premises_of(RuleId.OrR1, seq("r => p \\/ q"), None) == (seq("r => p"),)
    assert premises_of(RuleId.OrR2, seq("r => p \\/ q"), None) == (seq("r => q"),)


def test_imp_left_family():
    # the atom stays in the premise
    assert premises_of(RuleId.AtomImpL, seq("p, p -> q => r"), Imp(p, q)) == (
        seq("p, q => r"),
    )
    with pytest.raises(SchemaError):
        premises_of(RuleId.AtomImpL, seq("p -> q => r"), Imp(p, q))
    assert premises_of(
        RuleId.AndImpL, seq("(p /\\ q) -> r => p"), Imp(And(p, q), r)
    ) == (seq("p -> q -> r => p"),)
    assert premises_of(
        RuleId.OrImpL, seq("(p \\/ q) -> r => p"), Imp(Or(p, q), r)
    ) == (seq("p -> r, q -> r => p"),)
    assert premises_of(
        RuleId.ImpImpL, seq("(p -> q) -> r => p"), Imp(Imp(p, q), r)
    ) == (
        seq("q -> r => p -> q"),
        seq("r => p"),
    )


def test_imp_r():
    assert premises_of(RuleId.ImpR, seq("r => p -> q"), None) == (seq("r, p => q"),)


def test_box_imp_l_uses_the_maximal_split():
    s = parse_sequent("[]p -> q, [](p /\\ r), r => r")
    got = premises_of(RuleId.BoxImpL, s, Imp(Box(p), q))
    want_left = parse_sequent("p /\\ r, r, q, []p => p")
    want_right = parse_sequent("[](p /\\ r), r, q => r")
    assert got == (want_left, want_right)


def test_sltr_premise():
    s = parse_sequent("[]p, q => []q")
    got = premises_of(RuleId.SLtR, s, None)
    assert got == (parse_sequent("p, q, []q => q"),)


def test_falsum_headed_implications_are_inert():
    s = parse_sequent("# -> p => q")
    for inst in expand(s):
        assert inst.principal != Imp(Bot(), p)
    # and no rule consumes them anywhere
    s2 = parse_sequent("# -> p, q => q")
    rules = {(i.rule, i.principal) for i in expand(s2)}
    assert (RuleId.IdP, None) in rules
    assert all(pr != Imp(Bot(), p) for _, pr in rules)


def _accepted(s):
    """Every (rule, principal) pair premises_of accepts at s: each rule but
    Cut, with no principal and with each distinct antecedent formula."""
    out = set()
    for rule in set(RuleId) - {RuleId.Cut}:
        for principal in [None, *s.ant.distinct()]:
            try:
                premises_of(rule, s, principal)
            except SchemaError:
                continue
            out.add((rule, principal))
    return out


def test_expand_is_deterministic_and_duplicate_free():
    rng = random.Random(23)
    # an inert # -> p, AtomImpL without its atom, BoxImpL beside a boxed atom
    hand = [seq("# -> p, q => q"), seq("p -> q => q"), seq("[]p -> q, []r, # => p \\/ q")]
    for s in hand + [random_sequent(rng, 4) for _ in range(300)]:
        a = expand(s)
        # expand lists exactly the instances premises_of accepts
        assert {(i.rule, i.principal) for i in a} == _accepted(s)
        b = expand(s)
        assert [(i.rule, i.principal, i.premises) for i in a] == [
            (i.rule, i.principal, i.premises) for i in b
        ]
        seen = set()
        for inst in a:
            key = (inst.rule, inst.principal)
            assert key not in seen
            seen.add(key)
            assert inst.conclusion == s
            assert inst.premises == premises_of(inst.rule, s, inst.principal)


# sha256 of expand's (rule, principal) pairs over the prove-corpus goals
# of the benchmark's default seed, recorded while expand sorted its output
EXPAND_SHA256 = "128344c13de5b96d28d27f0075a796c3ccfe7c01674a7518776ccbb9f017fc62"


def test_expand_output_is_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import corpus
    import workloads

    goals = [s for s, _ in corpus.regression_goals()] + workloads.random_goals(7, 12000)
    h = hashlib.sha256()
    for s in goals:
        h.update(repr([(i.rule.value, str(i.principal)) for i in expand(s)]).encode())
    assert h.hexdigest() == EXPAND_SHA256


def test_check_accepts_prover_output():
    rng = random.Random(31)
    for d in proved_proofs(rng, 40):
        assert check(d) is None
        assert not uses_cut(d)


def test_check_flags_wrong_premises_with_path():
    d = prove(seq("=> ([]p -> p) -> p")).proof
    # graft a wrong subtree: swap the premise of the root for a leaf of itself
    def first_leaf(n):
        while n.children:
            n = n.children[0]
        return n

    bad = node(d.rule, d.root, d.principal, first_leaf(d))
    v = check(bad)
    assert v is not None
    assert v.path == ()
    assert "premises do not match" in v.reason

    # deeper violation carries a deeper path
    inner = d.children[0]
    tampered_inner = node(inner.rule, inner.root, inner.principal, first_leaf(d))
    bad2 = node(d.rule, d.root, d.principal, tampered_inner)
    v2 = check(bad2)
    assert v2 is not None and v2.path == (0,)


def test_check_reports_the_last_bad_premise():
    # both IdP leaves are bad; the walk visits premises last to first
    leaves = (node(RuleId.IdP, seq("=> p"), None), node(RuleId.IdP, seq("=> q"), None))
    d = node(RuleId.AndR, seq("=> p /\\ q"), None, *leaves)
    assert str(check(d)) == "at 1: IdP needs an atomic succedent present in the antecedent"


def test_tall_proofs_need_no_recursion():
    # 5,000 ImpR nodes over an IdP leaf, far past the default recursion limit
    n = 5000
    ant, suc = Multiset.from_iterable([p] * n), p
    d = node(RuleId.IdP, Sequent(ant, suc), None)
    for _ in range(n):
        ant, suc = ant.remove(p), Imp(p, suc)
        d = node(RuleId.ImpR, Sequent(ant, suc), None, d)
    assert check(d) is None
    assert height(d) == n + 1
    assert uses_cut(d) is False


def test_check_rejects_a_principal_on_rules_that_take_none():
    # BotL on "#, q => p" with principal q
    bad = node(RuleId.BotL, seq("#, q => p"), q)
    v = check(bad)
    assert v is not None and v.path == ()
    assert v.reason == "BotL takes no principal formula"
    # a prover ImpR node given principal q
    d = prove(seq("q => p -> p")).proof
    assert d.rule is RuleId.ImpR and check(d) is None
    v = check(node(d.rule, d.root, q, *d.children))
    assert v is not None and v.reason == "ImpR takes no principal formula"
    # every such rule, at a conclusion its schema accepts
    for rule, text in (
        (RuleId.BotL, "#, q => p"),
        (RuleId.IdP, "p, q => p"),
        (RuleId.AndR, "q => p /\\ p"),
        (RuleId.OrR1, "q => p \\/ r"),
        (RuleId.OrR2, "q => p \\/ r"),
        (RuleId.ImpR, "q => p -> p"),
        (RuleId.SLtR, "q => []p"),
    ):
        premises_of(rule, seq(text), None)
        with pytest.raises(SchemaError, match="takes no principal"):
            premises_of(rule, seq(text), q)
    # a Cut node, which check matches itself rather than through premises_of
    cut = node(RuleId.Cut, seq("q => q"), Imp(q, q), node(RuleId.IdP, seq("q => q"), None),
               node(RuleId.IdP, seq("q, q => q"), None))
    v = check(cut, allow_cut=True)
    assert v is not None and v.path == () and v.reason == "Cut takes no principal formula"
    assert check(node(RuleId.Cut, cut.root, None, *cut.children), allow_cut=True) is None


def test_check_cut_shape():
    base = prove(seq("=> p -> p")).proof
    left = prove(seq("=> p -> p")).proof
    from islt.structural import weaken

    right = weaken(base, Imp(p, p))
    cut = node(RuleId.Cut, base.root, None, left, right)
    assert check(cut) is not None
    assert check(cut, allow_cut=True) is None
    assert uses_cut(cut)
    # context mismatch is rejected even with cuts allowed
    bad = node(RuleId.Cut, seq("q => p -> p"), None, left, right)
    assert check(bad, allow_cut=True) is not None


def _bad(rule, text, principal=None, *children, allow_cut=False):
    """check's verdict on one node; principal is formula text."""
    f = None if principal is None else parse_formula(principal)
    return check(node(rule, seq(text), f, *children), allow_cut=allow_cut)


def _raised(run, *args):
    with pytest.raises(ValueError) as e:  # SchemaError is a ValueError
        run(*args)
    return e.value


_IDP = node(RuleId.IdP, seq("p => p"), None)
_IDQ = node(RuleId.IdP, seq("q => q"), None)


# (run, message): every rejection of check, its codec and its schemas that
# the rest of the suite does not reach
@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: _bad(RuleId.AndL, "p \\/ q => p", "p \\/ q"), "at root: AndL principal must be a conjunction"),
        (lambda: _bad(RuleId.OrL, "p /\\ q => p", "p /\\ q"), "at root: OrL principal must be a disjunction"),
        (
            lambda: _bad(RuleId.AtomImpL, "p /\\ q -> r => r", "p /\\ q -> r"),
            "at root: AtomImpL principal must be an implication with atomic antecedent",
        ),
        (
            lambda: _bad(RuleId.AndImpL, "p -> q => q", "p -> q"),
            "at root: AndImpL principal must have a conjunction antecedent",
        ),
        (
            lambda: _bad(RuleId.OrImpL, "p -> q => q", "p -> q"),
            "at root: OrImpL principal must have a disjunction antecedent",
        ),
        (
            lambda: _bad(RuleId.ImpImpL, "p -> q => q", "p -> q"),
            "at root: ImpImpL principal must have an implication antecedent",
        ),
        (
            lambda: _bad(RuleId.BoxImpL, "p -> q => q", "p -> q"),
            "at root: BoxImpL principal must have a boxed antecedent",
        ),
        (lambda: _bad(RuleId.AndL, "p /\\ q => p"), "at root: AndL needs a principal formula"),
        (lambda: _bad(RuleId.AndL, "q => p", "p /\\ q"), "at root: principal p /\\ q not in the antecedent"),
        (lambda: _bad(RuleId.AndR, "=> p"), "at root: AndR needs a conjunction succedent"),
        (lambda: _bad(RuleId.OrR1, "=> p"), "at root: OrR1 needs a disjunction succedent"),
        (lambda: _bad(RuleId.OrR2, "=> p"), "at root: OrR2 needs a disjunction succedent"),
        (lambda: _bad(RuleId.ImpR, "=> p"), "at root: ImpR needs an implication succedent"),
        (lambda: _bad(RuleId.SLtR, "=> p"), "at root: SLtR needs a boxed succedent"),
        (lambda: _bad(RuleId.Cut, "p => p", None, _IDP, allow_cut=True), "at root: Cut needs exactly two premises"),
        # the right premise should be "p, p => p"
        (
            lambda: _bad(RuleId.Cut, "p => p", None, _IDP, _IDP, allow_cut=True),
            "at root: Cut right premise must be context plus the cut formula",
        ),
        # the right premise fits, but the left one adds q to the context
        (
            lambda: _bad(RuleId.Cut, "=> q", None, _IDQ, _IDQ, allow_cut=True),
            "at root: Cut left premise must keep the conclusion context",
        ),
        (lambda: _raised(loads, '{"rule": "IdP", "premises": []}'), "certificate lacks 'sequent'"),
        (
            lambda: _raised(loads, '{"sequent": {"ant": [1], "suc": "p"}, "rule": "IdP"}'),
            "certificate 'ant' must hold only strings",
        ),
        (lambda: _raised(premises_of, RuleId.Cut, seq("p => p"), None), "no schema for rule Cut"),
        (
            lambda: _raised(replacements, RuleId.ImpImpL, parse_formula("(p -> q) -> r")),
            "ImpImpL does not replace its principal in place",
        ),
    ],
)
def test_rejection_messages(run, message):
    assert str(run()) == message


def test_json_roundtrip_preserves_everything():
    rng = random.Random(37)
    for d in proved_proofs(rng, 30):
        text = dumps(d)
        back = loads(text)
        assert back == d
        assert dumps(back) == text
    # multiset repeats survive the trip
    s = seq("p -> q, p -> q, p => q")
    d = prove(s).proof
    assert loads(dumps(d)).root.ant.count(Imp(p, q)) == 2


def test_json_is_valid_and_stable():
    d = prove(seq("=> ([]p -> p) -> p")).proof
    blob = json.loads(dumps(d))
    assert blob["rule"] == "ImpR"
    assert blob["sequent"]["suc"] == "([]p -> p) -> p"
    assert dumps(d) == dumps(loads(dumps(d)))


def test_height():
    d = prove(seq("=> ([]p -> p) -> p")).proof
    assert height(d) == 3


def test_render_text_mentions_rules_and_sequents():
    d = prove(seq("=> ([]p -> p) -> p")).proof
    text = render_text(d)
    assert "[ImpR]" in text
    assert "[BoxImpL on []p -> p]" in text
    assert "=> ([]p -> p) -> p" in text


def test_render_dot_is_a_digraph():
    d = prove(seq("=> p -> p")).proof
    dot = render_dot(d)
    assert dot.startswith("digraph proof {")
    assert dot.rstrip().endswith("}")
    assert "IdP" in dot


def _rendered_proofs():
    """Seeded prover proofs, and naive-search proofs of the same kind of
    goals, whose rule order is shuffled."""
    proofs = proved_proofs(random.Random(43), 60)
    rng = random.Random(47)
    while len(proofs) < 120:
        r = prove(random_sequent(rng, 3, max_ant=2, max_weight=12), naive=True, seed=len(proofs))
        if isinstance(r, Proved):
            proofs.append(r.proof)
    return proofs


# sha256 of both renderings of the proofs above, recorded while both
# renderers recursed once per proof level
RENDER_SHA256 = "3d179be9b60c0a943908f980af54efa7eb269295e6fc79fd0bae0c3d033d457f"


def test_renderer_output_is_pinned():
    h = hashlib.sha256()
    for d in _rendered_proofs():
        h.update(render_text(d).encode())
        h.update(render_dot(d).encode())
    assert h.hexdigest() == RENDER_SHA256


def test_a_proof_taller_than_the_recursion_limit_renders():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        d = chain_proof(limit + 100)
    finally:
        sys.setrecursionlimit(limit)
    text = render_text(d).splitlines()
    assert len(text) == height(d) and text[-1].endswith("[IdP]")
    assert text[-1].startswith("  " * (height(d) - 1) + "p, ")
    dot = render_dot(d).splitlines()
    assert dot[-2:] == ["  n0 -> n1;", "}"]
    assert len(dot) == 3 + 2 * height(d) - 1
