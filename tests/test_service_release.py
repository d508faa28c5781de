"""A shared cloud tier on the service layer: farm isolation + the regional release.

Two farms replicate into one cloud broker; an :class:`NgsiService` in
front of it gives every farm a tenant scoped to its own
``urn:AgriParcel:<farm>:`` namespace.  Cross-farm reads fail closed and
are audited; the only sanctioned cross-farm path is the k-anonymized
``GET /v2/op/release`` route, open to tenants whose namespace covers
``urn:Region:``.
"""

import pytest

from repro.context import ContextBroker, ShortTermHistory
from repro.core.security_profile import SecurityConfig, SecurityStack
from repro.fog.replication import CloudSyncTarget, Replicator
from repro.network import Network, RadioModel
from repro.service import NgsiService, Request, ServiceConfig, TenantSpec
from repro.service.app import RELEASE_PATH, farm_of_entity
from repro.simkernel import Simulator

FARMS = ("farma", "farmb")


def wan():
    return RadioModel("wan", latency_s=0.05, bandwidth_bps=8e6, loss_rate=0.0)


class TestFarmOfEntity:
    def test_standard_urns(self):
        assert farm_of_entity("urn:AgriParcel:guaspari:0-1") == "guaspari"
        assert farm_of_entity("urn:Valve:matopiba-valve-1") == "matopiba-valve-1"

    def test_non_urn(self):
        assert farm_of_entity("plain-id") is None


class CloudRig:
    """Two farms replicating into one cloud broker, one service in front."""

    def __init__(self, seed=5):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self.cloud = ContextBroker(self.sim, name="cloud:context")
        self.security = SecurityStack(self.sim, "cloud", SecurityConfig())
        self.service = NgsiService(
            self.sim, self.cloud, ShortTermHistory(self.cloud), self.security,
            ServiceConfig(queued=False),
        )
        self.farm_contexts = {}
        for farm in FARMS:
            context = ContextBroker(self.sim, name=f"{farm}:context")
            self.farm_contexts[farm] = context
            CloudSyncTarget(self.sim, self.net, f"cloud:sync:{farm}", self.cloud)
            Replicator(
                self.sim, self.net, f"{farm}:sync", context,
                f"cloud:sync:{farm}", sync_interval_s=10.0,
            )
            self.net.connect(f"{farm}:sync", f"cloud:sync:{farm}", wan())
            self.register(farm, f"urn:AgriParcel:{farm}:")

    def register(self, name, prefix):
        self.service.register_tenant(TenantSpec(name, f"{name}-secret", read_prefixes=(prefix,)))
        return self.service.tenant_token(name)

    def seed_data(self, same_cell=False):
        """One parcel per farm; ``same_cell`` puts both in one
        quasi-identifier cell (grid square, area bucket, crop)."""
        places = {"farma": (-12.1, -45.2, 350.0), "farmb": (-12.3, -45.4, 420.0)}
        if same_cell:
            places = {"farma": (-12.15, -45.25, 350.0), "farmb": (-12.12, -45.22, 420.0)}
        for farm, moisture, yield_t in (("farma", 0.25, 3.9), ("farmb", 0.31, 4.1)):
            lat, lon, area = places[farm]
            self.farm_contexts[farm].ensure_entity(
                f"urn:AgriParcel:{farm}:0-0", "AgriParcel",
                {"soilMoisture": moisture, "crop": "soybean", "area_ha": area,
                 "lat": lat, "lon": lon, "yield_t_ha": yield_t},
            )
        self.sim.run(until=120.0)

    def get(self, path, token, **params):
        return self.service.handle(Request("GET", path, params=params, token=token))

    def release(self, token, type_="AgriParcel", attrs="yield_t_ha"):
        return self.get(RELEASE_PATH, token, type=type_, attrs=attrs)


class TestCloudReplication:
    def test_both_farms_replicate_to_one_cloud(self):
        rig = CloudRig()
        rig.seed_data()
        assert rig.cloud.has_entity("urn:AgriParcel:farma:0-0")
        assert rig.cloud.has_entity("urn:AgriParcel:farmb:0-0")

    def test_duplicate_tenant_registration_rejected(self):
        rig = CloudRig()
        with pytest.raises(ValueError, match="already registered"):
            rig.register("farma", "urn:AgriParcel:farma:")


class TestTenantIsolation:
    def test_own_farm_readable(self):
        rig = CloudRig()
        rig.seed_data()
        token = rig.service.tenant_token("farma")
        response = rig.get("/v2/entities/urn:AgriParcel:farma:0-0", token)
        assert response.status == 200
        assert response.body["soilMoisture"]["value"] == 0.25

    def test_cross_farm_read_denied_and_audited(self):
        rig = CloudRig()
        rig.seed_data()
        token = rig.service.tenant_token("farma")
        assert rig.get("/v2/entities/urn:AgriParcel:farmb:0-0", token).status == 403
        assert rig.service.tenant("farma").rejected_auth == 1
        denied = rig.security.pep.denied_records()
        assert [r.resource for r in denied] == ["urn:AgriParcel:farmb:0-0"]

    def test_query_omits_other_farms(self):
        rig = CloudRig()
        rig.seed_data()
        token = rig.service.tenant_token("farma")
        response = rig.get("/v2/entities", token, type="AgriParcel")
        assert [e["id"] for e in response.body] == ["urn:AgriParcel:farma:0-0"]

    def test_admin_sees_everything(self):
        rig = CloudRig()
        rig.seed_data()
        token = rig.register("root", "urn:")
        response = rig.get("/v2/entities", token, type="AgriParcel")
        assert len(response.body) == 2

    def test_bogus_token_denied(self):
        rig = CloudRig()
        rig.seed_data()
        assert rig.get("/v2/entities/urn:AgriParcel:farma:0-0", "garbage").status == 401

    def test_missing_entity_authorized_read_is_404(self):
        rig = CloudRig()
        token = rig.service.tenant_token("farma")
        assert rig.get("/v2/entities/urn:AgriParcel:farma:9-9", token).status == 404


class TestRegionalRelease:
    def test_analyst_gets_anonymized_release(self):
        rig = CloudRig()
        rig.seed_data(same_cell=True)
        token = rig.register("ana", "urn:Region:")
        response = rig.release(token)
        assert response.status == 200 and len(response.body) == 2
        for record in response.body:
            # Pseudonymized farm ids; no raw farm names.
            assert "farma" not in str(record["farm"])
            assert "farmb" not in str(record["farm"])
            # Coordinates generalized to grid cells (float-safe check).
            remainder = record["lat"] % 0.1
            assert min(remainder, 0.1 - remainder) < 1e-9
            # Payload preserved.
            assert record["yield_t_ha"] in (3.9, 4.1)

    def test_k2_suppresses_unique_combinations(self):
        rig = CloudRig()
        rig.seed_data()
        token = rig.register("ana", "urn:Region:")
        response = rig.release(token)
        # The two farms sit in different grid cells/area buckets -> both
        # quasi-identifier combinations are unique -> suppressed.
        assert response.status == 200 and response.body == []
        assert rig.service.release_anonymizer.suppressed_count == 2

    def test_farmer_cannot_pull_release(self):
        rig = CloudRig()
        rig.seed_data()
        token = rig.service.tenant_token("farma")
        assert rig.release(token).status == 403
        assert rig.security.pep.denied_records()[-1].resource == "urn:Region:AgriParcel"
        # Refused before the handler: no anonymizer, no salt drawn.
        assert rig.service.release_anonymizer is None

    def test_invalid_token_rejected(self):
        rig = CloudRig()
        rig.seed_data()
        assert rig.release("junk").status == 401

    def test_release_requires_a_type(self):
        rig = CloudRig()
        token = rig.register("ana", "urn:Region:")
        assert rig.release(token, type_="").status == 400

    def test_release_route_scans_last(self):
        # Appended after the existing routes: the hot NGSI/STH matches
        # never walk past it.
        rig = CloudRig()
        assert rig.service.router.routes()[-1].template == RELEASE_PATH
