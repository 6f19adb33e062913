"""Ablation — cloud latency vs client decrypt cost (paper §VI-A).

The paper argues that IBBE-SGX's slower client decryption "is overshadowed
by the slow cloud response time necessary for clients to update the group
metadata that always precedes a decryption operation".  This bench
quantifies that claim with the latency model: the end-to-end client update
path (long-poll + record fetch + decrypt) under a public-cloud latency
profile vs a zero-latency store.

The sync is routed through the signed descriptor: a member that stays in
its partition makes two round trips (poll, then one ``get_many`` for the
descriptor and its own record); a cold or moved member makes a third —
one ``get`` for the record the descriptor points it at — for O(1)
objects, where the event-replay sync made two round trips but fetched
O(changed) objects.
"""

from __future__ import annotations

import pytest

from repro.bench import format_seconds, time_call
from repro.cloud import CloudStore, LatencyModel
from repro.crypto.rng import DeterministicRng

from conftest import scaled
from repro import quickstart_system


def _client_update_costs(latency, seed: str, capacity: int):
    """Returns (decrypt_seconds, simulated_cloud_ms, cold_requests,
    cold_cloud_ms): one client update after a re-key, then the first
    sync of a member that has never synced."""
    system = quickstart_system(
        partition_capacity=capacity, params="std160",
        rng=DeterministicRng(seed), cloud=CloudStore(latency=latency),
    )
    members = [f"u{i}" for i in range(capacity)]
    system.admin.create_group("g", members)
    client = system.make_client("g", "u0")
    client.sync()
    client.current_group_key()
    system.admin.rekey("g")

    cloud_ms_before = system.cloud.metrics.simulated_latency_ms
    client.sync()
    _, decrypt_seconds = time_call(client.current_group_key)
    metrics = system.cloud.metrics
    cloud_ms = metrics.simulated_latency_ms - cloud_ms_before

    cold = system.make_client("g", "u1")
    requests, cold_ms = metrics.requests, metrics.simulated_latency_ms
    cold.sync()
    return (decrypt_seconds, cloud_ms, metrics.requests - requests,
            metrics.simulated_latency_ms - cold_ms)


def test_cloud_latency_overshadows_decrypt(sink, benchmark):
    capacity = scaled(64)
    decrypt_s, cloud_ms, cold_requests, cold_ms = _client_update_costs(
        LatencyModel.public_cloud(seed="ablation"), "lat", capacity
    )
    sink.line(
        f"client update @ partition {capacity}: decrypt "
        f"{format_seconds(decrypt_s)} vs simulated cloud round trips "
        f"{cloud_ms:.0f} ms"
    )
    sink.line(
        f"  cold member's first sync: {cold_requests} round trips, "
        f"{cold_ms:.0f} ms simulated"
    )
    # Poll, descriptor, own record — whatever the history or group size.
    assert cold_requests == 3
    # §VI-A: the metadata round trip dominates the (hint-cached) decrypt.
    assert cloud_ms > decrypt_s * 1000, (
        "cloud response time must overshadow the decrypt cost"
    )

    zero_decrypt_s, zero_cloud_ms, _, _ = _client_update_costs(
        LatencyModel.disabled(), "nolat", capacity
    )
    sink.line(
        f"  (zero-latency control: decrypt "
        f"{format_seconds(zero_decrypt_s)}, cloud {zero_cloud_ms:.0f} ms)"
    )
    assert zero_cloud_ms == 0.0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
