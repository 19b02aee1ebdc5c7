"""``repro.harness`` — experiment runner and table builders.

``run_trials``/``measure`` implement the paper's 100-run protocol;
``build_table1``/``build_table2``/``build_section5``/``build_section62``/
``build_section63`` regenerate each published table with our
measurements next to the paper's numbers; ``render`` pretty-prints them.
"""

from .exploration import (
    AppExploration,
    ExplorationSummary,
    explore_app,
    explore_summary,
    outcome_hit,
)
from .paperdata import SECTION5, SECTION62, TABLE1, TABLE2
from .parallel import ParallelExecutionError, default_workers
from .report import generate_report
from .runner import OverheadRow, measure, run_trials
from .stats import (
    TrialAggregator,
    TrialFailure,
    TrialStats,
    wilson_interval,
)
from .tables import (
    ParamRow,
    Section5Row,
    Table1Row,
    Table2Row,
    build_section5,
    build_section62,
    build_section63,
    build_table1,
    build_table2,
    render,
)

__all__ = [
    "AppExploration",
    "ExplorationSummary",
    "explore_app",
    "explore_summary",
    "outcome_hit",
    "SECTION5",
    "SECTION62",
    "TABLE1",
    "TABLE2",
    "OverheadRow",
    "ParallelExecutionError",
    "default_workers",
    "generate_report",
    "measure",
    "run_trials",
    "TrialAggregator",
    "TrialFailure",
    "TrialStats",
    "wilson_interval",
    "ParamRow",
    "Section5Row",
    "Table1Row",
    "Table2Row",
    "build_section5",
    "build_section62",
    "build_section63",
    "build_table1",
    "build_table2",
    "render",
]
