"""The per-kind key functions: one canonical rendering, strict keywords.

``trials_key``, ``explore_key`` and ``infer_key`` take the keyword
arguments of their library call and return ``(key, config)``.  Both
halves come from one canonical rendering of the config document: the
key is its SHA-256 and the config its JSON parse, so a stored entry's
config and its key can never describe two different documents.
"""

import inspect
import json

import pytest

from repro.apps import get_app
from repro.cache import (
    ResultCache,
    explore_config_doc,
    explore_key,
    infer_config_doc,
    infer_key,
    trial_config_doc,
    trials_key,
)
from repro.cache import fingerprint as fp
from repro.harness import explore_app, explore_summary, run_trials
from repro.infer import infer_app
from repro.sim import Bound

#: One call per kind, ignored keywords included.
CALLS = {
    "trials": (
        trials_key,
        (get_app("figure4"),),
        dict(n=10, bug="error1", base_seed=5, timeout=0.2, params={"b": 2, "a": 1},
             workers=2, max_retries=0, trial_hook=None),
    ),
    "explore": (
        explore_key,
        ("bank", "lost_update"),
        dict(dpor=True, sleep_sets=True, workers=2, shard_depth=3,
             bound=Bound(preemptions=1), witness_limit=2, obs=None),
    ),
    "infer": (
        infer_key,
        ("bank",),
        dict(seed=1, trials=4, timeout=0.2, workers=2, obs=None),
    ),
}


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_key_and_config_share_one_rendering(kind, monkeypatch):
    fn, args, kwargs = CALLS[kind]
    render = fp.canonical_json
    renderings = []

    def counting(doc):
        renderings.append(render(doc))
        return renderings[-1]

    monkeypatch.setattr(fp, "canonical_json", counting)
    key, config = fn(*args, **kwargs)
    monkeypatch.undo()
    assert len(renderings) == 1
    assert config == json.loads(renderings[0])
    assert fp._keyed(config) == (key, config)


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_a_misspelled_keyword_is_refused(kind):
    fn, args, kwargs = CALLS[kind]
    with pytest.raises(TypeError):
        fn(*args, **kwargs, use_policy=False)


def test_an_inactive_bound_is_no_bound():
    _fn, args, kwargs = CALLS["explore"]
    unbounded = dict(kwargs, bound=None)
    assert explore_key(*args, **dict(kwargs, bound=Bound())) == explore_key(*args, **unbounded)


def _defaults(fn):
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


@pytest.mark.parametrize("key_side,library", [
    ((trials_key, trial_config_doc, ResultCache.run_trials, ResultCache.fetch_trials),
     (run_trials,)),
    ((explore_key, explore_config_doc, ResultCache.explore, ResultCache.fetch_explore),
     (explore_app, explore_summary)),
    ((infer_key, infer_config_doc), (infer_app,)),
], ids=["trials", "explore", "infer"])
def test_key_defaults_are_the_library_defaults(key_side, library):
    """A keyword a caller leaves out must key the value the call runs
    with: ``explore_summary`` forwards only the keywords it was given."""
    expected = {}
    for fn in library:
        expected.update(_defaults(fn))
    for fn in key_side:
        for name, default in _defaults(fn).items():
            if name in expected:
                assert default == expected[name], (fn.__qualname__, name)
