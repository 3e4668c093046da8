"""Print criteria 5 and 6's figures for the acceptance desk models at
training seeds 0 to 5: seed 0 is the CLI's default, seed 1 the pinned one.

    python3 tools/seed_sweep.py

Run from the root of a source checkout; the package is imported from
``src/`` and the acceptance suite's desk set-up from ``tests/``. For each
seed it trains ``DESK_CFG`` variants C (correlated world, identity
reference) and B (database reference) with only the training seed changed.
It scores C as criterion 5 does, at evaluation base 100: the autoencoder's
well-edited rate, the held-out max off-diagonal slot correlation, the
variation off-diagonal against the linear baseline's, and the identity
cosine. It scores B as criterion 6 does: the largest gap between its
held-out slot correlation and the database's (bound 0.15). One Markdown
table row per seed. The sweep gates nothing; each seed takes about 60 s.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from latentaxes import training  # noqa: E402
from test_acceptance import (criterion_5_figures, criterion_6_match,  # noqa: E402
                             train_desk)

SEEDS = (0, 1, 2, 3, 4, 5)


def main() -> int:
    print("| seed | rate | held-out max off-diag | variation off-diag "
          "| linear | identity | variant B corr match |")
    print("|---|---|---|---|---|---|---|")
    for seed in SEEDS:
        rate, max_off, ae_off, lin_off, identity = criterion_5_figures(
            train_desk(True, training.CORR_IDENTITY, seed))
        match = criterion_6_match(train_desk(True, training.CORR_DATABASE, seed))
        print(f"| {seed} | {rate:.3f} | {max_off:.3f} | {ae_off:.4f} "
              f"| {lin_off:.4f} | {identity:.4f} | {match:.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
