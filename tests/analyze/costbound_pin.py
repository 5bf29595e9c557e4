"""Snapshot of the static cost bounds of every example pool.

``test_costbound_pin`` compares the live analysis against
``costbound_pin.json``, a snapshot written by this module.  Regenerate it
(only when a change to the bounds is intended) with::

    PYTHONPATH=src python -m tests.analyze.costbound_pin > tests/analyze/costbound_pin.json
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from repro.analyze.catalog import example_entries
from repro.analyze.costbound import clear_cache, variant_cost_bound
from repro.analyze.dominance import cold_start_estimate, pool_cost_bounds

#: Device kinds every example variant is bounded on.
KINDS = ("cpu", "gpu")


def _verdict(pool, kind, workload_units=None) -> Dict[str, object]:
    verdict = pool_cost_bounds(pool, kind, workload_units=workload_units)
    return {
        "survivors": list(verdict.survivors),
        "pruned": list(verdict.pruned),
        "best": verdict.best_name,
    }


def snapshot() -> Dict[str, Dict[str, object]]:
    """Bounds, verdicts and cold-start priors keyed by pool and kind."""
    clear_cache()
    bounds: Dict[str, object] = {}
    pools: Dict[str, object] = {}
    for label, entry in example_entries():
        pool = entry.case.pool
        for kind in KINDS:
            for variant in pool.variants:
                bound = variant_cost_bound(variant, kind)
                bounds[f"{label}/{variant.name}/{kind}"] = {
                    "compute": [bound.compute.lo, bound.compute.hi],
                    "bandwidth": [bound.bandwidth.lo, bound.bandwidth.hi],
                    "exposed": [bound.exposed.lo, bound.exposed.hi],
                    "fixed_cycles": bound.fixed_cycles,
                    "widened": list(bound.widened),
                }
            pools[f"{label}/{kind}"] = {
                "per_unit": _verdict(pool, kind),
                "at_workload": _verdict(
                    pool, kind, workload_units=entry.case.workload_units
                ),
                "cold_start_estimate": cold_start_estimate(pool, kind),
            }
    return {"bounds": bounds, "pools": pools}


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
