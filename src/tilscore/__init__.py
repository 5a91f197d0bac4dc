"""Slide-level TIL scoring from precomputed tile features.

Subpackages cover the full desk-scale pipeline: tissue foreground masking
and tile grids (``foreground``), feature-bag and clinical-table I/O plus a
synthetic cohort generator (``bagio``), the gated attention-MIL regressor
with hand-written gradients (``milnet``), grouped cross-validation and
ensembling (``folds``), the concordance/calibration metric panel
(``concord``), and survival statistics (``survstats``).  ``cli`` ties the
stages together into one command-line tool.
"""

__version__ = "0.1.0"


class TilscoreError(ValueError):
    """Bad input, named in the message; `tilscore` exits 2 on it, as on an OSError."""


def check_rules(obj, rules) -> None:
    """Raise TilscoreError naming the first (field of obj, rule, ok) of `rules` not ok."""
    for name, rule, ok in rules:
        if not ok:
            raise TilscoreError(f"{name} must be {rule}, got {getattr(obj, name)!r}")
