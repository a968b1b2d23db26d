"""The paper's claims, re-measured at evaluation scale.

Each module regenerates one table or figure of the paper (or an
ablation of a design choice behind it) and asserts its headline *shape*:
who wins, and by roughly what factor.  ``pytest tests/paper -s`` prints
the paper-style rows as well; the ablation and resilience tables have no
``repro experiment`` subcommand, so this is where they are printed.
"""

import sys

#: Graph scale of the evaluation-scale claims.  0.01 of the paper-scale
#: vertex counts keeps every sweep tractable on one core while staying
#: above the noise floor of the smallest graphs.
PAPER_SCALE = 0.01


def emit(text: str) -> None:
    """Print a result block (visible with ``pytest -s``)."""
    sys.stdout.write("\n" + text + "\n")
