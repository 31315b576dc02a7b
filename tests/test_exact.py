"""Exact mode: block chunking, outcome reuse and byte identity of reports.

`tests/data/exact_regression.json` holds `to_json_dict()` of the reports
below as produced by the per-block bincount masks that preceded the bitset
kernel; the paths it covers (backward exact and MC, forward exact with a
weak tap, where err_L is computable) are not run by the benchmark.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import skregion.sim as sim
from skregion.pmf import Channel
from skregion.sim import (
    EpsParams,
    SimConfig,
    _Instance,
    broadcast_backward_preset,
    broadcast_forward_preset,
    exact_report,
    run_trials,
)
from skregion.sources import broadcast_source

REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "exact_regression.json").read_text(encoding="utf-8"))


def _two_key_config(n):
    # both users hold a nontrivial codebook
    base = broadcast_source("X3", 0.25, 0.25)
    channels = (Channel.identity("X1", 2, "S"), Channel.identity("X2", 2, "T"),
                Channel.constant("U", "S", 2), Channel.constant("V", "T", 2))
    return SimConfig(base, "forward", channels, n, 0.07, 0.07, 0.5,
                     EpsParams(enc=0.75, dec=1.0), 1, (1,), "exact")


@pytest.mark.parametrize("config", [
    broadcast_forward_preset(6, seeds=(1,), mode="exact"),
    _two_key_config(6),
], ids=["one-key", "two-key"])
def test_encoder_outcomes_independent_of_block_chunks(monkeypatch, config):
    reference = {}
    for user in (1, 2):
        reference[user] = sim._encoder_outcomes_forward(_Instance(config, 1), user)
    inst = _Instance(config, 1)
    size = {user: inst.coders()[user - 1].codebook.size for user in (1, 2)}
    # 1 block per chunk, and 5 or 7 blocks, which do not divide the 64 blocks
    for blocks_per_chunk in (1, 5, 7):
        for user in (1, 2):
            monkeypatch.setattr(sim, "_CHUNK_PAIRS", blocks_per_chunk * size[user])
            outcomes, fail = sim._encoder_outcomes_forward(_Instance(config, 1), user)
            ref_outcomes, ref_fail = reference[user]
            assert outcomes == ref_outcomes
            assert np.array_equal(fail, ref_fail)
    assert any(reference[2][0]), "user 2's encoder never succeeds: a vacuous comparison"


def test_exact_report_computes_each_users_outcomes_once(monkeypatch):
    calls = []
    original = sim._encoder_outcomes_forward

    def counting(inst, user):
        calls.append((inst.seed, user))
        return original(inst, user)

    monkeypatch.setattr(sim, "_encoder_outcomes_forward", counting)
    config = broadcast_forward_preset(6, flip_tap=0.1, seeds=(1, 2), mode="exact")
    report = exact_report(config)
    assert report.err_L is not None  # the error path needs both users' outcomes
    assert sorted(calls) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def _report(name):
    kind, _, n = name.rpartition("-n")
    n = int(n)
    if kind == "backward-exact":
        return exact_report(broadcast_backward_preset(n, seeds=(1, 2), mode="exact"))
    if kind == "backward-mc":
        return run_trials(broadcast_backward_preset(n, trials=200, seeds=(1, 2)))
    assert kind == "forward-exact-tap0.1"
    return exact_report(broadcast_forward_preset(n, flip_tap=0.1, seeds=(1, 2), mode="exact"))


@pytest.mark.parametrize("name", sorted(REGRESSION))
def test_report_byte_identical_to_recorded(name):
    got = json.dumps(_report(name).to_json_dict(), sort_keys=True)
    assert got == json.dumps(REGRESSION[name], sort_keys=True)
