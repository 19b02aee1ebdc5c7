"""Fingerprint canonicalization: permutation-invariant, mutation-sensitive.

The cache key must be a *pure* function of the result-relevant
configuration: any two spellings of the same configuration hash
identically (key order, tuple vs list, set iteration order), and
mutating any single fingerprint-relevant field — pause time ``T``,
predicate selection, exploration seed, app version tag — changes the
key.  The keys are the ones the cache and the router use:
:func:`trials_key` and :func:`explore_key`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.cache import (
    CACHE_SCHEMA,
    canonical_json,
    explore_key,
    trial_config_doc,
    trials_key,
)

Figure4 = get_app("figure4")


def _trial_key(app_cls=Figure4, **overrides):
    """The key of a baseline ``run_trials`` keyword set, with overrides."""
    kwargs = dict(
        bug="error1",
        timeout=0.1,
        flip_order=False,
        use_policies=True,
        params={"a": 1, "b": 2},
        collect_metrics=False,
        trial_timeout=None,
    )
    kwargs.update(overrides)
    return trials_key(app_cls, **kwargs)[0]


def _explore_key(**overrides):
    """The key of a baseline ``explore_summary`` keyword set, with overrides."""
    kwargs = dict(
        bug="error1",
        dpor=False,
        sleep_sets=False,
        shard_depth=2,
        max_schedules=500,
        max_steps=None,
        seed=0,
        timeout=0.1,
        use_policies=True,
        params={},
        witness_limit=3,
    )
    kwargs.update(overrides)
    return explore_key("figure4", **kwargs)[0]


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_tuples_and_lists_are_identified(self):
        assert canonical_json({"x": (1, 2, 3)}) == canonical_json({"x": [1, 2, 3]})

    def test_sets_are_sorted(self):
        assert canonical_json({"s": {3, 1, 2}}) == canonical_json({"s": [1, 2, 3]})

    def test_output_is_compact_sorted_json(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text == '{"a":{"c":3,"d":2},"b":1}'
        assert json.loads(text) == {"a": {"c": 3, "d": 2}, "b": 1}

    def test_non_string_keys_are_stringified(self):
        assert canonical_json({1: "x"}) == canonical_json({"1": "x"})

    def test_unsupported_objects_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"f": object()})


# Scalar leaves that round-trip through JSON unambiguously.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_docs = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=8), _docs, max_size=6), data=st.data())
def test_permuted_insertion_order_hashes_identically(doc, data):
    """Any insertion order of the same mapping renders identically."""
    items = list(doc.items())
    order = data.draw(st.permutations(items))
    assert canonical_json(dict(items)) == canonical_json(dict(order))


@settings(max_examples=100, deadline=None)
@given(
    params=st.dictionaries(
        st.text(min_size=1, max_size=8), st.integers(-100, 100), max_size=5
    ),
    data=st.data(),
)
def test_trial_params_permutation_invariant(params, data):
    order = data.draw(st.permutations(list(params.items())))
    a = _trial_key(params=dict(params.items()))
    b = _trial_key(params=dict(order))
    assert a == b


class TestTrialMutationSensitivity:
    BASE = None  # filled in setup_class

    @classmethod
    def setup_class(cls):
        cls.BASE = _trial_key()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("timeout", 0.2),  # the pause time T
            ("bug", None),  # predicate selection
            ("flip_order", True),
            ("use_policies", False),
            ("params", {"a": 1, "b": 3}),
            ("collect_metrics", True),
            ("trial_timeout", 5.0),
        ],
    )
    def test_single_field_mutation_changes_key(self, field, value):
        assert _trial_key(**{field: value}) != self.BASE

    def test_app_version_tag_changes_key(self):
        class Bumped(Figure4):
            cache_version = "test-bump"

        assert _trial_key(Bumped) != self.BASE

    def test_workers_never_reaches_the_fingerprint(self):
        # Worker count is result-invariant by the parallel-runner
        # contract; the doc must not mention it at all.
        doc = trial_config_doc(
            Figure4,
            bug="error1",
            timeout=0.1,
            flip_order=False,
            use_policies=True,
            params={},
            collect_metrics=False,
            trial_timeout=None,
        )
        assert "workers" not in canonical_json(doc)
        assert doc["schema"] == CACHE_SCHEMA

    def test_identical_inputs_identical_key(self):
        assert _trial_key() == self.BASE


class TestExploreMutationSensitivity:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("bug", None),
            ("dpor", True),
            ("max_schedules", 501),
            ("seed", 1),
            ("timeout", 0.2),
            ("use_policies", False),
            ("params", {"k": 1}),
            ("witness_limit", 4),
            ("max_steps", 10_000),
        ],
    )
    def test_single_field_mutation_changes_key(self, field, value):
        assert _explore_key(**{field: value}) != _explore_key()

    def test_shard_depth_irrelevant_unless_sharded(self):
        assert _explore_key(shard_depth=2) == _explore_key(shard_depth=5)
        # A DPOR walk is sharded when it has workers.
        c = _explore_key(dpor=True, workers=2, shard_depth=2)
        d = _explore_key(dpor=True, workers=2, shard_depth=5)
        assert c != d
