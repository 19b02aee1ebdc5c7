"""``workers`` argument normalisation, including the negative-int guard."""

import pytest

from repro.apps import get_app
from repro.harness import explore_app, run_trials
from repro.harness.parallel import default_workers
from repro.harness.runner import _resolve_workers


class TestResolveWorkers:
    @pytest.mark.parametrize("value,expected", [(None, 0), (0, 0), (1, 1), (4, 4)])
    def test_plain_values(self, value, expected):
        assert _resolve_workers(value) == expected

    def test_auto_sizes_to_the_machine(self):
        assert _resolve_workers("auto") == default_workers()
        assert _resolve_workers("auto") >= 1

    def test_numeric_strings_coerce(self):
        assert _resolve_workers("3") == 3

    @pytest.mark.parametrize("value", [-1, -8, "-2"])
    def test_negative_counts_are_rejected(self, value):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            _resolve_workers(value)

    def test_non_numeric_strings_are_rejected(self):
        with pytest.raises(ValueError):
            _resolve_workers("many")


def test_run_trials_rejects_negative_workers():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        run_trials(get_app("figure4"), n=2, bug="error1", workers=-2)


def test_explore_app_rejects_negative_workers():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        explore_app("bank", "lost_update", dpor=True, workers=-2)


def test_explore_app_auto_workers_shard_like_two_workers():
    def sharded(workers):
        res = explore_app("bank", "lost_update", dpor=True, sleep_sets=True,
                          workers=workers, max_schedules=2000)
        outcomes = [(tuple(o.choices), o.observed) for o in res.exploration.outcomes]
        return outcomes, res.dpor_stats

    assert sharded("auto") == sharded(2)
