"""Pinned canonical digests: every call site of the shared SHA-256 helper.

Each literal below was computed before the call sites were folded onto
``repro.simkernel.digest``; a change to the canonical form (key order,
separators, the ``default`` hook, the text encoding) fails here loudly
instead of silently re-pinning the chaos, fleet, service or ledger
fixtures downstream.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

from repro.context.broker import ContextBroker
from repro.context.history import ShortTermHistory
from repro.core.security_profile import SecurityConfig, SecurityStack
from repro.faults.chaos import _fingerprint
from repro.faults.plan import FaultPlan
from repro.fleet.runner import FleetReport, fleet_fingerprint
from repro.security.ledger.blockchain import Blockchain, LifecycleEvent
from repro.service import NgsiService, Request, ServiceConfig, TenantSpec
from repro.simkernel.simulator import Simulator


@dataclass
class _Report:
    name: str = "pin"
    yield_t: float = 4.25
    alerts: int = 3
    zones: List[str] = field(default_factory=lambda: ["0-0", "0-1"])
    extra: Dict[str, float] = field(default_factory=lambda: {"b": 2.0, "a": 1.5})


def chaos_digest() -> str:
    plan = FaultPlan("pin").add("fog_crash", "fog", 3600.0, 600.0)
    runner = SimpleNamespace(
        fault_injector=SimpleNamespace(injected=2, recovered=1),
        # frozenset is not JSON-serializable: exercises default=repr.
        scheduler=SimpleNamespace(decision_log=[{"zone": "0-0", "ids": frozenset({7})}]),
        supervisor=None,
        uplink_breaker=SimpleNamespace(opens=4),
        degraded_mode=None,
    )
    return _fingerprint(runner, plan, _Report())


def fleet_digest() -> str:
    report = FleetReport(
        farms=[{"name": "a", "relative_yield": 0.91}, {"name": "b", "relative_yield": 0.88}],
        totals={"farms": 2, "relative_yield": 0.895, "irrigation_m3": 1234.5},
        cloud_epochs=[{"epoch": 0, "updates_synced": 12}],
        batches=[{"epoch": 0, "shard": 1, "updates_synced": 12}],
    )
    return fleet_fingerprint(report)


def service_digest() -> str:
    sim = Simulator(seed=3)
    broker = ContextBroker(sim)
    service = NgsiService(sim, broker, ShortTermHistory(broker),
                          SecurityStack(sim, "pin", SecurityConfig()),
                          ServiceConfig(queued=False))
    service.register_tenant(TenantSpec("dash", "s", read_prefixes=("urn:AgriParcel:pin:",)))
    broker.create_entity("urn:AgriParcel:pin:0-0", "AgriParcel", {"soilMoisture": 0.25})
    token = service.tenant_token("dash")
    service.handle(Request("GET", "/version"))
    service.handle(Request("GET", "/v2/entities/urn:AgriParcel:pin:0-0", token=token))
    service.handle(Request("GET", "/v2/entities", params={"type": "AgriParcel"}, token=token))
    service.handle(Request("GET", "/v2/entities/urn:AgriParcel:pin:0-0", token="junk"))
    return service.response_log_digest()


def ledger_hashes() -> List[str]:
    chain = Blockchain(["coop", "platform"])
    chain.submit(LifecycleEvent("valve-1", "provisioned", "coop", 12.5, {"key": "k1"}))
    chain.submit(LifecycleEvent("valve-1", "activated", "platform", 13.0))
    chain.seal_block(20.0)
    return [block.block_hash for block in chain.blocks]


class TestPinnedDigests:
    def test_chaos_fingerprint(self):
        assert chaos_digest() == "5db39d3f285fe0cfeb546a98d289d26c2f59805a5701cfa3af3f8dcb7ec8849d"

    def test_fleet_fingerprint(self):
        assert fleet_digest() == "88f938cbec43ecb0122d9791c460d74a071b6e8ec28ba7226f008b379f10f086"

    def test_service_response_log_digest(self):
        assert service_digest() == "7fa9fe36d3d3116c23ce6a085ab3cae00e89fd92c7565dff415106054a761739"

    def test_ledger_block_hashes(self):
        assert ledger_hashes() == [
            "7c87e49480ba55eab04dda9dd399d9a6b47f9180b3814f15b01b8bb48d7b31a5",
            "62823186ef832f41ca1c3161a1dbd2ed01c96fe773d72fe4fe12f542c4edd355",
        ]
