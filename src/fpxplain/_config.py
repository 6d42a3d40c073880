"""Runtime caps and knobs, read lazily from the environment.

Every exhaustive routine checks a cap before enumerating so that a stray
query on a large model fails fast instead of hanging. The defaults keep
brute-force work around 2^20 evaluations.
"""

import os

from .errors import ResourceCapError

# feature-count cap for brute-force enumeration (completions, truth tables)
ORACLE_CAP_VAR = "FPXPLAIN_ORACLE_CAP"
ORACLE_CAP_DEFAULT = 20

# tighter cap for the brute-force Shapley oracle, which enumerates subsets
# on top of completions
SHAP_ORACLE_CAP_VAR = "FPXPLAIN_SHAP_ORACLE_CAP"
SHAP_ORACLE_CAP_DEFAULT = 14

# budget for the perceptron subset-sum table, counted in (weight span) x
# (features) cells, times n + 1 for the H table and Shapley values
PSEUDO_BUDGET_VAR = "FPXPLAIN_PSEUDO_BUDGET"
PSEUDO_BUDGET_DEFAULT = 5_000_000


def _read_int(var: str, default: int) -> int:
    raw = os.environ.get(var)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ResourceCapError(f"{var} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ResourceCapError(f"{var} must be non-negative, got {value}")
    return value


def oracle_cap() -> int:
    return _read_int(ORACLE_CAP_VAR, ORACLE_CAP_DEFAULT)


def shap_oracle_cap() -> int:
    return _read_int(SHAP_ORACLE_CAP_VAR, SHAP_ORACLE_CAP_DEFAULT)


def pseudo_budget() -> int:
    return _read_int(PSEUDO_BUDGET_VAR, PSEUDO_BUDGET_DEFAULT)
