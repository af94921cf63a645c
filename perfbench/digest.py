"""Digest of the deterministic part of a FedAT run's history.

Covers every eval record (virtual time, round, accuracy, loss, accuracy
variance, cumulative uplink/downlink bytes) and the deterministic meta:
per-tier update counts, final tier sizes and the network meter. Wall-clock
meta (``phase_seconds``, fault counters) is left out, so two runs with the
same inputs must give the same digest on any executor.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["DETERMINISTIC_META", "history_digest"]

DETERMINISTIC_META = ("tier_update_counts", "tier_sizes", "network")


def history_digest(history: dict) -> str:
    """SHA-256 over ``RunHistory.to_dict()``'s deterministic fields.

    Floats go through ``json``'s shortest round-trip repr, so any change
    in any bit of a recorded value changes the digest.
    """
    payload = {
        "method": history["method"],
        "dataset": history["dataset"],
        "records": history["records"],
        "meta": {k: history["meta"].get(k) for k in DETERMINISTIC_META},
    }
    blob = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()
