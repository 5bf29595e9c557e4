"""The static cost bounds of every example pool, pinned.

``costbound_pin.json`` was written by :mod:`tests.analyze.costbound_pin`
when the bound still re-derived each device formula by hand.  The bound
now runs the device's own pricing at interval endpoints; this test holds
it to the old numbers: compute, bandwidth and fixed endpoints, widening
notes and every dominance verdict exactly, exposed endpoints and the
cold-start prior to within ``1e-15`` relative (the device's own
operation order may round the last place differently).
"""

from __future__ import annotations

import json
import math
import os

import pytest

from .costbound_pin import snapshot

_PIN = os.path.join(os.path.dirname(__file__), "costbound_pin.json")

#: Relative tolerance of the endpoints the device may round differently.
ULP_TOLERANCE = 1e-15


@pytest.fixture(scope="module")
def pinned():
    with open(_PIN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def live():
    return snapshot()


def test_pin_covers_every_example_variant_on_both_kinds(pinned, live):
    assert len(pinned["bounds"]) == 84
    assert set(live["bounds"]) == set(pinned["bounds"])
    assert set(live["pools"]) == set(pinned["pools"])


def test_exact_components_match(pinned, live):
    for key, old in pinned["bounds"].items():
        new = live["bounds"][key]
        for field in ("compute", "bandwidth", "fixed_cycles", "widened"):
            assert new[field] == old[field], (key, field)


def test_exposed_within_last_place(pinned, live):
    for key, old in pinned["bounds"].items():
        for was, now in zip(old["exposed"], live["bounds"][key]["exposed"]):
            assert math.isclose(now, was, rel_tol=ULP_TOLERANCE, abs_tol=0.0), key


def test_dominance_verdicts_match(pinned, live):
    for key, old in pinned["pools"].items():
        new = live["pools"][key]
        assert new["per_unit"] == old["per_unit"], key
        assert new["at_workload"] == old["at_workload"], key


def test_cold_start_prior_within_last_place(pinned, live):
    for key, old in pinned["pools"].items():
        was, now = old["cold_start_estimate"], live["pools"][key]["cold_start_estimate"]
        if was is None:
            assert now is None, key
        else:
            assert math.isclose(now, was, rel_tol=ULP_TOLERANCE, abs_tol=0.0), key
