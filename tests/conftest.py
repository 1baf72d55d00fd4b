"""Hypothesis profiles of the test suite.

``explicit`` runs each property test on its ``@example`` cases only, with
no random draws:

    python -m pytest --hypothesis-profile=explicit

tools/mutants.py runs each mutant's killers under it first, so a mutant
that only a draw kills is reported as such.
"""

from hypothesis import Phase, settings

settings.register_profile("explicit", phases=[Phase.explicit])
