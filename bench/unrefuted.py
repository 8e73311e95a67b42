"""Write unrefuted_seed7.json, the list the prove-corpus workload checks
its default seed against: the random goals, among the first RANDOM_GOALS
of that seed's pool, that the prover finds unprovable and that have no
countermodel within three worlds. RANDOM_GOALS is what a 60-second run
draws, the longest run the benchmark contract allows. Run it from the
repository root at a commit whose prover is trusted:

    python3 bench/unrefuted.py

It cross-checks every entry with naive search, stops if that search
proves one, and prints how many it confirms within its time cap.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from islt import search  # noqa: E402
from kripke import Sweeper  # noqa: E402

RANDOM_GOALS = 36_000


def main() -> None:
    sweeper = Sweeper(3)
    found = sorted(
        {
            s
            for s in W.random_goals(W.DEFAULT_SEED, RANDOM_GOALS)
            if isinstance(search.prove(s, budget=W.BUDGET), search.Unprovable) and sweeper.countermodel(s) is None
        },
        key=str,
    )
    verdicts = [type(W.naive_verdict(s)).__name__ for s in found]
    if "Proved" in verdicts:
        sys.exit(f"error: naive search proves {found[verdicts.index('Proved')]}")
    data = {"seed": W.DEFAULT_SEED, "random_goals": RANDOM_GOALS, "sequents": [str(s) for s in found]}
    W.UNREFUTED_FILE.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
    print(f"{len(found)} of {RANDOM_GOALS} goals listed; naive search confirms "
          f"{verdicts.count('Unprovable')}, leaves {verdicts.count('NoneType')} open")


if __name__ == "__main__":
    main()
