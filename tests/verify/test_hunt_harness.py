"""The hunt backtracks one journaled harness per hunted method.

Both halves of the hunt loop reuse the harness the method's hunt builds
once: the bandit probe extends the victim prefix through the undo
journal instead of resetting the harness per split, and every candidate
check marks the harness on entry and restores it on exit.  These tests
hold both to the rebuild-per-use behaviour they replace:

* the journaled probe credits exactly the bandit arms the old
  reset-per-split probe credited, and leaves the harness in its built
  state;
* checking a hunt's candidates in sequence on one harness gives the
  same result and the same work counters as a fresh harness per
  candidate;
* a harness built for another method, other keys or other setup ops,
  or given another key or setup op after its build, is refused.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import observe_harness

from repro.errors import VerificationError
from repro.verify.incremental import CheckStats, check_scenario_incremental
from repro.verify.interleave import ProtocolHarness
from repro.verify.model_check import make_harness
from repro.verify.synth import search
from repro.verify.synth.generator import access_vocabulary

#: Hunted methods expected to survive any budget.
HARDENED = ("shrimp1", "keyed", "extshadow", "repeated5", "iommu", "capio")


def reset_per_split_probe(harness, victim, accesses, indices, bandit):
    """The probe before journaling: rebuild the harness for every split."""
    for split in range(len(victim) + 1):
        harness.reset()
        for access in victim[:split]:
            harness.deliver(access)
        for access, index in zip(accesses, indices):
            before = search._state_label(harness)
            harness.deliver(access)
            bandit.credit(before, index,
                          advanced=search._state_label(harness) != before)


def method_parts(method):
    """(victim, keys, profile, vocabulary) of a method's hunt."""
    victim, keys = search._victim_setup(method)
    profile = search.adversary_profile_for(method)
    return victim, keys, profile, access_vocabulary(profile)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(method=st.sampled_from(search.HUNT_METHODS), data=st.data())
def test_journaled_probe_matches_reset_per_split(method, data):
    victim, keys, profile, vocab = method_parts(method)
    scenario = search.compose_scenario(method, victim, keys, profile, [],
                                       "probe")
    journaled, reference = make_harness(scenario), make_harness(scenario)
    new_bandit, old_bandit = search._Bandit(), search._Bandit()
    max_len = search.HuntConfig().max_stream_len
    candidates = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=len(vocab) - 1),
                 min_size=1, max_size=max_len),
        min_size=1, max_size=3))
    for indices in candidates:
        accesses = [vocab[i] for i in indices]
        search._probe(journaled, victim, accesses, indices, new_bandit)
        reset_per_split_probe(reference, victim, accesses, indices,
                              old_bandit)
        assert new_bandit.arms == old_bandit.arms
        assert observe_harness(journaled) == observe_harness(
            make_harness(scenario))


def first_candidates(method, count=40):
    """The scenarios a seed-7 hunt of *method* checks, in order."""
    seen = []
    check = search.check_scenario_incremental

    def recording(scenario, *args, **kwargs):
        seen.append(scenario)
        return check(scenario, *args, **kwargs)

    search.check_scenario_incremental = recording
    try:
        search.hunt_method(method, search.HuntConfig(
            seed=7, max_candidates=count, shrink=False))
    finally:
        search.check_scenario_incremental = check
    return seen


@pytest.mark.parametrize("method", HARDENED + ("iommu_noshootdown",))
def test_reused_harness_matches_fresh_harness(method):
    scenarios = first_candidates(method)
    harness = make_harness(scenarios[0])
    for scenario in scenarios:
        fresh_stats, reused_stats = CheckStats(), CheckStats()
        fresh = check_scenario_incremental(scenario, stats=fresh_stats)
        reused = check_scenario_incremental(scenario, stats=reused_stats,
                                            harness=harness)
        assert reused == fresh, scenario.name
        assert (dataclasses.asdict(reused_stats)
                == dataclasses.asdict(fresh_stats)), scenario.name
    # The broken variant's last candidate is the attack itself.
    assert fresh.attack_found == (method == "iommu_noshootdown")
    assert observe_harness(harness) == observe_harness(
        make_harness(scenarios[0]))


def test_harness_built_for_other_scenario_is_refused():
    keyed = first_candidates("keyed", count=1)[0]
    capio = first_candidates("capio", count=1)[0]
    rekeyed = make_harness(keyed)
    rekeyed.install_key(1, 0x2)
    resetup = make_harness(capio)
    resetup.install_setup(capio.setup[0])
    direct = make_harness(keyed)
    direct_harness = ProtocolHarness(lambda: direct.protocol_factory(),
                                     n_contexts=keyed.n_contexts)
    for ctx_id, key in keyed.keys.items():
        direct_harness.install_key(ctx_id, key)
    others = [
        make_harness(first_candidates("shrimp1", count=1)[0]),
        make_harness(dataclasses.replace(keyed, keys={0: 0x1})),
        make_harness(dataclasses.replace(capio, setup=capio.setup[:-1])),
        make_harness(dataclasses.replace(keyed, n_contexts=8)),
        make_harness(dataclasses.replace(keyed, page_bounded=True)),
        rekeyed, resetup, direct_harness,
    ]
    scenarios = [keyed, keyed, capio, keyed, keyed, keyed, capio, keyed]
    for scenario, harness in zip(scenarios, others, strict=True):
        with pytest.raises(VerificationError, match="harness was built"):
            check_scenario_incremental(scenario, harness=harness)
    # The same scenarios fit their own builds.
    for scenario in (keyed, capio):
        check_scenario_incremental(scenario, harness=make_harness(scenario))
