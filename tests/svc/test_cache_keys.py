"""Pinned cache keys: which fields of a job name its cache entry.

A job's routing fingerprint is its cache storage key.  The fleet router
places a job on the shard whose cache may hold its entry, the daemon's
fast path looks the entry up, and the pool worker stores it, all under
that one key.  :data:`KEYS` pins it byte for byte for a base spec of
each kind, the base with each key field changed once, and the fields
that never reach the key (they map to the base key).  A changed key
orphans every stored entry and moves every ring placement, so an entry
of this table changes only with ``CACHE_SCHEMA`` or an app's
``cache_version``.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.apps import get_app
from repro.cache import ResultCache
from repro.svc import JobSpec, routing_fingerprint
from repro.svc.jobs import execute_job, try_cached_result

TRIALS = JobSpec(kind="trials", app="figure4", bug="error1", trials=4, timeout=0.2)
EXPLORE = JobSpec(kind="explore", app="bank", bug="lost_update", max_schedules=40)
INFER = JobSpec(kind="infer", app="bank", trials=4, timeout=0.2)

#: Field changes that move the key, per kind.
KEY_FIELDS = {
    "trials": {
        "bug": dict(bug=None),
        "timeout": dict(timeout=0.3),
        "flip_order": dict(flip_order=True),
        "use_policies": dict(use_policies=False),
        "params": dict(params={"wait": 2}),
        "collect_metrics": dict(collect_metrics=True),
        "trial_timeout": dict(workers=2, trial_timeout=5.0),
        "app": dict(app="stringbuffer", bug="atomicity1"),
    },
    "explore": {
        "bug": dict(bug=None),
        "dpor": dict(dpor=True),
        "sleep_sets": dict(dpor=True, sleep_sets=True),
        "sharded_depth2": dict(dpor=True, workers=2, shard_depth=2),
        "sharded_depth3": dict(dpor=True, workers=2, shard_depth=3),
        "max_schedules": dict(max_schedules=41),
        "max_steps": dict(max_steps=1000),
        "seed": dict(seed=1),
        "timeout": dict(timeout=0.2),
        "use_policies": dict(use_policies=False),
        "params": dict(params={"k": 1}),
        "witness_limit": dict(witness_limit=4),
        "bound_preemptions": dict(bound_preemptions=1),
        "bound_variables": dict(bound_variables=1),
        "bound_both": dict(bound_preemptions=1, bound_variables=2),
    },
    "infer": {
        "seed": dict(seed=1),
        "trials": dict(trials=5),
        "base_seed": dict(base_seed=3),
        "timeout": dict(timeout=0.3),
        "steer_attempts": dict(steer_attempts=2),
        "use_policies": dict(use_policies=False),
        "params": dict(params={"k": 1}),
        "trial_timeout": dict(workers=2, trial_timeout=5.0),
    },
}

#: Field changes that must leave the key alone, per kind.
NON_KEY_FIELDS = {
    "trials": {
        "base_seed": dict(base_seed=50),
        "trials": dict(trials=200),
        "workers": dict(workers=3),
        "max_retries": dict(max_retries=0),
        "job_timeout": dict(job_timeout=9.0),
        "no_cache": dict(no_cache=True),
        "tenant": dict(tenant="team-a"),
        "explore_fields": dict(dpor=True, seed=5, max_schedules=7),
    },
    "explore": {
        "workers": dict(workers=3),
        "shard_depth": dict(shard_depth=5),
        "max_steps_default": dict(max_steps=get_app("bank").max_steps),
        "max_retries": dict(max_retries=0),
        "job_timeout": dict(job_timeout=9.0),
        "no_cache": dict(no_cache=True),
        "tenant": dict(tenant="team-a"),
        "trials_fields": dict(trials=7, base_seed=9, flip_order=True),
    },
    "infer": {
        "workers": dict(workers=3),
        "max_retries": dict(max_retries=0),
        "job_timeout": dict(job_timeout=9.0),
        "no_cache": dict(no_cache=True),
        "tenant": dict(tenant="team-a"),
        "explore_fields": dict(dpor=True, max_schedules=7, witness_limit=9),
    },
}

_BASES = {"trials": TRIALS, "explore": EXPLORE, "infer": INFER}

#: ``routing_fingerprint`` of every case (``<kind>`` is the base spec).
KEYS = {
    "explore": "33d37dc668ebbe4ccd46443576c902fc618765043e1f26b37a0a2cef3a0803bf",
    "explore.bound_both": "91431999ddb2477c495662949758b4c1c5d5f37dd25b98745c97064f550ccb54",
    "explore.bound_preemptions": "1682c32a1346974a9ae27b91670802fe5f5f4b1da244d97e413d4a963e9f9775",
    "explore.bound_variables": "6b9e2666773fceb1e4b6dc661d3d9000b8106a7e5ef8ceee1f130f8f393190ad",
    "explore.bug": "2453b181fdffcc14bf528f61e9a46abb4131a54112b53ab8921d78df2b464e73",
    "explore.dpor": "1c3d21017fab3866a3710965ff34ac87d40054be933d8a843ef660261612f095",
    "explore.max_schedules": "85a7767d6a392f4f1f347698fb03098d598fb87a85d52605f2da537e25f622ea",
    "explore.max_steps": "f09cdaaa9ef082adbada93e24161af6a36dd02446eda61562d5c8ca82eeeaeb3",
    "explore.params": "43f6f96ac26fd2f046f4533666cb3f0471b281993e27e4096e2b382488fd710e",
    "explore.seed": "6fa8b6ce5c7416d8294938a9bcddf518b986aa597570ed080fdd12ebf9819556",
    "explore.sharded_depth2": "eca3068052dd183200cb226df4466ee08d94e588277cfadd92887b733d4833d4",
    "explore.sharded_depth3": "d533e5a542da4737872626db899b85c38a34a7413998a28356683c99e9784d0e",
    "explore.sleep_sets": "f553f0ad9935437c38e002030d2394d01df057cf9122c927f1b1fbc3be61499d",
    "explore.timeout": "17661753092d823bc7c91ec1e3bed02eea1fb26b79fc7fc7801adc68dd387f9c",
    "explore.use_policies": "d2122ef89c12bab42c04a281291b2b643088ec59dd25db44fa97e1474db2f188",
    "explore.witness_limit": "055c0bef83e45936fef027a765e51aafedbf444e69cb370bc630ab5bd08a05cb",
    "infer": "376b039b965947b67f3ae37a3d98f66617257b8a6e29428e86b7ab25a77c1b23",
    "infer.base_seed": "550f48cb4988cce62eb990881cb29a56fa0099e835701a2c05ae884ec7c96562",
    "infer.params": "05966295ff915d3cfbaf99b7b9d277aac41cc2061255c63fff53b3b0a22a855f",
    "infer.seed": "76fc45713129f8c91b198c7d6452edcb8040bb0d7311a7b29c9c40b1bd4117ef",
    "infer.steer_attempts": "cb159f26f650f972d0f5132ef5ff3f8c157a2f13f4cf3f4b2dd9163280aa4e06",
    "infer.timeout": "69545916b65a4c57ffd60e76a12ec64a4a790057c5de2991bb4a3da295a50419",
    "infer.trial_timeout": "55fd1d1c4db6688f7e35c6566e32caec8c50bbac32916c9c7a82bd8ffcf73b6a",
    "infer.trials": "1cc7aa6489030e92bcf397d461abe2c25e831fabfa304bad802d316ba04d86ab",
    "infer.use_policies": "2675a68586725c2a7a344f248e73ba93b3afc3c687da73c288d5be716d7e5c04",
    "trials": "92b03d245cc069a1b8ee6fa1ca6657511b185155666a2bf639dd501861bf1054",
    "trials.app": "e2a00ddfb2971561df9ebdba8506c9ffe60e34a878646c6e191d845485abc2dd",
    "trials.bug": "d20664555ac29cb5391625b68fc8508ba6bc715455cd09485eaae73382b41435",
    "trials.collect_metrics": "6b8655ebc9a7e5232f32ad70e1816f3165a9545c13d2921542abefc8a1af9850",
    "trials.flip_order": "08d657975fce2bcc39b70e79615498ea04752b42c46f0e472400014a96c69aa7",
    "trials.params": "ee01394eac10d24d6a6e7eba1db491458bb5a5f5583b3f602a3d1f5027355e89",
    "trials.timeout": "9738042a2d7b37d6060fb503bb86999f7777011619d0e1fb122a4d10815db7b0",
    "trials.trial_timeout": "171ad0b60c21001742e6c82f0e7b19a96ec6165597e5d4b2efd6aa9126864b09",
    "trials.use_policies": "fbf3575e3ddc9d0c58b07e569c0c464eef369a2ed3aa4e66a7f357a04f30fa3a",
}


def _cases():
    for kind, base in _BASES.items():
        yield kind, base
        for table in (KEY_FIELDS, NON_KEY_FIELDS):
            for name, change in table[kind].items():
                yield f"{kind}.{name}", dataclasses.replace(base, **change)


CASES = dict(_cases())


def _expected(name):
    kind, _, field = name.partition(".")
    if field in NON_KEY_FIELDS[kind]:
        return KEYS[kind]
    return KEYS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_routing_key_is_pinned(name):
    assert routing_fingerprint(CASES[name]) == _expected(name)


def test_every_key_field_moves_the_key():
    keys = [KEYS[name] for name in CASES if name in KEYS]
    assert len(set(keys)) == len(keys)


def _stored_files(root):
    return sorted(
        str(p.relative_to(root)) for p in Path(root).rglob("*.json")
    )


@pytest.mark.parametrize("kind", sorted(_BASES))
def test_job_stores_under_its_routing_key(kind, tmp_path):
    spec = _BASES[kind]
    cache = ResultCache(tmp_path)
    assert try_cached_result(cache, spec) is None
    payload = execute_job(spec, cache)
    key = routing_fingerprint(spec)
    files = _stored_files(tmp_path)
    if kind == "trials":
        assert files == [f"{key[:2]}/{key}/0+{spec.trials}.json"]
    elif kind == "explore":
        assert files == [f"{key[:2]}/{key}.json"]
    else:
        assert f"{key[:2]}/{key}.json" in files
    assert try_cached_result(cache, spec) == payload
    assert try_cached_result(cache, dataclasses.replace(spec, no_cache=True)) is None
