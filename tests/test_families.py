"""The search families of genlib at small sizes: the verdict each
construction fixes, checked certificates, and independent refutations."""

import pytest
from genlib import invalid_family_goals, valid_family_goals

from islt.calculus import check
from islt.search import Proved, Unprovable, prove
from islt.semantics import find_countermodel, forces, validate_model
from islt.sequent import Multiset, Sequent

# naive search keeps no memo and re-explores shared sequents, so it is run
# only on the invalid goals it decides in well under a second; it runs for
# minutes on de Bruijn(4) and on three pigeons in three holes
NAIVE_SMALL = {"de_bruijn(2)", "pigeonhole(1,1)", "pigeonhole(2,2)"}


@pytest.mark.parametrize("name", valid_family_goals())
def test_valid_family_goal_is_proved_and_checks(name):
    s = Sequent(Multiset(), valid_family_goals()[name])
    r = prove(s)
    assert isinstance(r, Proved)
    assert r.proof.root == s and check(r.proof) is None


@pytest.mark.parametrize("name", invalid_family_goals())
def test_invalid_family_goal_is_unprovable_and_refuted(name):
    goal = invalid_family_goals()[name]
    s = Sequent(Multiset(), goal)
    assert isinstance(prove(s), Unprovable)
    if name in NAIVE_SMALL:
        for seed in range(3):
            assert isinstance(prove(s, naive=True, seed=seed), Unprovable)
    # each invalid goal is classically false too, so a one-world model refutes it
    found = find_countermodel(s, max_worlds=1)
    assert found is not None
    model, world = found
    assert validate_model(model) == []
    assert not forces(model, world, goal)
