"""The serve path, pinned: a seeded one-client replay, field for field.

``serve_pin.json`` was written by :mod:`tests.serve.serve_pin` before
the launch interface moved its serving inputs into
:class:`~repro.core.LaunchContext`.  Every request's selection, profiled
flag, reason, cycles, store hit, lease and latency, the final
``ServeStats`` and the store contents must stay exactly equal; the
scenario reaches every branch of the serve path (``BRANCHES``).
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from .serve_pin import BRANCHES, record

_PIN = os.path.join(os.path.dirname(__file__), "serve_pin.json")


@pytest.fixture(scope="module")
def pinned():
    with open(_PIN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def live():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        doc = record()
    # Tuples become lists, exactly as in the written snapshot.
    return json.loads(json.dumps(doc))


def test_scenario_reaches_every_branch(pinned, live):
    assert {r["branch"] for r in pinned["requests"]} == set(BRANCHES)
    assert {r["branch"] for r in live["requests"]} == set(BRANCHES)


def test_requests_match(pinned, live):
    assert len(live["requests"]) == len(pinned["requests"])
    for index, (now, was) in enumerate(
        zip(live["requests"], pinned["requests"])
    ):
        assert now == was, index


def test_stats_match(pinned, live):
    assert live["stats"] == pinned["stats"]


def test_store_and_quarantine_match(pinned, live):
    assert live["store"] == pinned["store"]
    assert live["quarantined"] == pinned["quarantined"]
