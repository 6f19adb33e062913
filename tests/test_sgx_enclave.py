"""Enclave boundary tests: typed dispatch, batching, leak scanning,
isolation enforcement, lifecycle."""

import hashlib
import inspect
import types

import pytest

from repro.crypto.rng import DeterministicRng
from repro.enclave_app import IbbeEnclave
from repro.errors import EnclaveError
from repro.sgx import measurement
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import (
    ECALL_CROSSING_CYCLES,
    Enclave,
    EnclaveHandle,
    ecall,
    trusted_view,
)


class ToyEnclave(Enclave):
    VERSION = "toy-1"

    def on_load(self):
        self.secret = self.track_secret(b"SUPER-SECRET-VALUE-0123456789ab")

    @ecall
    def add(self, a, b):
        return a + b

    @ecall(batchable=True)
    def double(self, x):
        return 2 * x

    @ecall(batchable=True)
    def box(self, x):
        return {"value": x}

    @ecall(batchable=True)
    def leaky_batchable(self):
        return b"prefix" + self.secret

    @ecall
    def leaky(self):
        return {"oops": [b"prefix" + self.secret]}

    @ecall
    def sealed_secret(self):
        return self.seal_data(self.secret)

    def hidden(self):
        return self.secret


@pytest.fixture()
def device():
    return SgxDevice(rng=DeterministicRng("enclave-tests"))


@pytest.fixture()
def enclave(device):
    return ToyEnclave.load(device)


class TestBoundary:
    def test_ecall_dispatch(self, enclave):
        assert enclave.call("add", 2, 3) == 5
        assert enclave.meter.registry.snapshot()["sgx.ecalls"] == 1

    def test_non_ecall_rejected(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.call("hidden")

    def test_unknown_ecall_rejected(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.call("nope")

    def test_internal_helpers_not_callable(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.call("seal_data", b"x")

    def test_leak_scanner_blocks_secret(self, enclave):
        with pytest.raises(EnclaveError, match="leak"):
            enclave.call("leaky")

    def test_sealed_output_allowed(self, enclave):
        blob = enclave.call("sealed_secret")
        inner = trusted_view(enclave)
        assert inner.secret not in blob
        assert inner.unseal_data(blob) == inner.secret

    def test_destroyed_enclave_rejects_calls(self, enclave):
        enclave.destroy()
        with pytest.raises(EnclaveError):
            enclave.call("add", 1, 2)


class TestRegistry:
    def test_lists_every_ecall(self, enclave):
        names = enclave.registry.names()
        assert {"add", "double", "leaky", "sealed_secret"} <= set(names)
        assert "hidden" not in names
        assert "seal_data" not in names

    def test_batchable_flag_in_descriptor(self, enclave):
        assert enclave.registry.resolve("double").batchable
        assert not enclave.registry.resolve("add").batchable

    def test_registry_cached_per_class(self, device):
        a = trusted_view(ToyEnclave.load(device))
        b = trusted_view(ToyEnclave.load(device))
        assert a.registry is b.registry


class TestBatching:
    def test_batch_executes_in_order(self, enclave):
        results = enclave.call_batch([
            ("double", (3,)),
            ("double", (5,)),
            ("box", ("x",)),
        ])
        assert results == [6, 10, {"value": "x"}]

    def test_batch_counts_one_crossing(self, enclave):
        enclave.call_batch([("double", (i,)) for i in range(10)])
        assert enclave.meter.crossings == 1
        assert enclave.meter.ecalls == 10
        assert enclave.meter.batches == 1
        assert enclave.meter.estimated_cycles == ECALL_CROSSING_CYCLES

    def test_single_calls_count_per_call(self, enclave):
        for i in range(10):
            enclave.call("double", i)
        assert enclave.meter.crossings == 10
        assert enclave.meter.ecalls == 10

    def test_non_batchable_rejected_up_front(self, enclave):
        with pytest.raises(EnclaveError, match="not batchable"):
            enclave.call_batch([("double", (1,)), ("add", (1, 2))])
        # Validation happens before execution: nothing ran.
        assert enclave.meter.ecalls == 0

    def test_unknown_name_rejected_up_front(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.call_batch([("double", (1,)), ("nope", ())])
        assert enclave.meter.ecalls == 0

    @pytest.mark.parametrize("request_", [
        ("double", (), {"x": 4}),
        ("double",),
        ("double", 4),
        (7, ()),
    ])
    def test_malformed_request_rejected_up_front(self, enclave, request_):
        """An entry is exactly ``(name, args)``: anything else is refused
        before the well-formed entry ahead of it runs."""
        with pytest.raises(EnclaveError, match="malformed batch request"):
            enclave.call_batch([("double", (1,)), request_])
        assert enclave.meter.ecalls == 0

    def test_empty_batch_is_free(self, enclave):
        assert enclave.call_batch([]) == []
        assert enclave.meter.crossings == 0

    def test_leak_scanner_runs_per_call_inside_batch(self, enclave):
        with pytest.raises(EnclaveError, match="leak"):
            enclave.call_batch([("double", (1,)), ("leaky_batchable", ())])


class TestIsolation:
    """Satellite: `load` hands untrusted code a proxy, not the enclave."""

    def test_load_returns_handle(self, enclave):
        assert isinstance(enclave, EnclaveHandle)

    def test_secret_attributes_unreachable(self, enclave):
        for name in ("secret", "_secret_values", "seal_data", "unseal_data",
                     "track_secret", "epc_allocate", "rng", "hidden"):
            with pytest.raises(EnclaveError, match="boundary"):
                getattr(enclave, name)

    def test_enclave_memory_not_writable(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.secret = b"overwritten"
        with pytest.raises(EnclaveError):
            enclave.measurement = b"forged"

    def test_public_surface_reachable(self, enclave, device):
        assert enclave.measurement == trusted_view(enclave).measurement
        assert enclave.device is device
        assert enclave.meter.registry.snapshot()["sgx.ecalls"] == 0
        assert enclave.meter.crossings == 0
        assert "add" in enclave.registry

    def test_trusted_view_unwraps(self, enclave):
        inner = trusted_view(enclave)
        assert isinstance(inner, ToyEnclave)
        assert trusted_view(inner) is inner
        with pytest.raises(EnclaveError):
            trusted_view(object())


class TestMeasurement:
    def test_stable_for_same_class(self, device):
        a = ToyEnclave.load(device)
        b = ToyEnclave.load(device)
        assert a.measurement == b.measurement

    def test_differs_per_class(self, device):
        class OtherEnclave(ToyEnclave):
            VERSION = "toy-1"

        assert (ToyEnclave.load(device).measurement
                != OtherEnclave.load(device).measurement)

    def test_differs_per_version(self, device):
        class V2(ToyEnclave):
            VERSION = "toy-2"

        assert ToyEnclave.load(device).measurement != V2.load(device).measurement

    def test_differs_per_config(self, device):
        a = ToyEnclave.load(device, {"x": 1})
        b = ToyEnclave.load(device, {"x": 2})
        assert a.measurement != b.measurement

    def test_memoised_source_hashes_the_same_bytes(self):
        expected = hashlib.sha256(b"repro:mrenclave:v1\x00")
        for part in (IbbeEnclave.__module__, IbbeEnclave.__qualname__,
                     IbbeEnclave.VERSION):
            expected.update(part.encode("utf-8") + b"\x00")
        expected.update(inspect.getsource(IbbeEnclave).encode("utf-8"))
        expected.update(b"x=1\x00")
        for _ in range(2):
            assert (measurement.measure_enclave(
                IbbeEnclave, IbbeEnclave.VERSION, {"x": 1})
                == expected.digest())

    def test_source_is_read_once_per_class(self, device, monkeypatch):
        class Fresh(ToyEnclave):
            VERSION = "toy-1"

        reads = []

        def getsource(obj):
            reads.append(obj)
            return inspect.getsource(obj)

        monkeypatch.setattr(measurement, "inspect",
                            types.SimpleNamespace(getsource=getsource))
        first, second = Fresh.load(device), Fresh.load(device)
        assert first.measurement == second.measurement
        assert reads == [Fresh]


class TestSealingIntegration:
    def test_cross_enclave_sealing_isolated(self, device):
        class OtherSealEnclave(ToyEnclave):
            VERSION = "other"

        a = trusted_view(ToyEnclave.load(device))
        b = trusted_view(OtherSealEnclave.load(device))
        blob = a.seal_data(b"private")
        from repro.errors import SealingError
        with pytest.raises(SealingError):
            b.unseal_data(blob)

    def test_cross_device_sealing_isolated(self):
        d1 = SgxDevice(rng=DeterministicRng("d1"))
        d2 = SgxDevice(rng=DeterministicRng("d2"))
        a = trusted_view(ToyEnclave.load(d1))
        b = trusted_view(ToyEnclave.load(d2))
        assert a.measurement == b.measurement  # same code
        blob = a.seal_data(b"private")
        from repro.errors import SealingError
        with pytest.raises(SealingError):
            b.unseal_data(blob)


class TestEpcIntegration:
    def test_enclave_allocations_tracked_and_freed(self, device, enclave):
        inner = trusted_view(enclave)
        handle = inner.epc_allocate(10_000)
        inner.epc_touch(handle, 5_000)
        assert device.epc.stats.allocated_bytes >= 10_000
        enclave.destroy()
        assert device.epc.stats.allocated_bytes == 0

    def test_secret_window_capped(self, enclave):
        inner = trusted_view(enclave)
        for i in range(100):
            inner.track_secret(f"secret-{i}".encode() * 4)
        assert len(inner._secret_values) <= Enclave.MAX_TRACKED_SECRETS
