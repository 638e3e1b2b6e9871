"""TenantProfile/TenantRegistry: the control-plane roster."""

import pytest

from repro.errors import TenancyError
from repro.serve import Tenant
from repro.tenancy import TenantProfile, TenantRegistry

from tests.tenancy.conftest import profile, registry


class TestProfileValidation:
    def test_rejects_bad_slo_floor_quota_priority(self):
        with pytest.raises(TenancyError):
            profile(slo=0.0)
        with pytest.raises(TenancyError):
            profile(floor=1.5)
        with pytest.raises(TenancyError):
            profile(quota=-1.0)
        with pytest.raises(TenancyError):
            profile(burst=0.0)
        with pytest.raises(TenancyError):
            profile(priority="platinum")

    def test_group_name_falls_back_to_tenant_name(self):
        assert profile(name="solo").group_name == "solo"
        assert profile(name="t", group="g").group_name == "g"


class TestRegistry:
    def test_rejects_empty_and_duplicate_rosters(self):
        with pytest.raises(TenancyError):
            TenantRegistry(())
        with pytest.raises(TenancyError):
            registry(profile(name="a"), profile(name="a"))

    def test_lookup_and_index_follow_roster_order(self):
        reg = registry(profile(name="a"), profile(name="b", floor=0.5))
        assert reg.profile("b").recall_floor == 0.5
        assert (reg.index("a"), reg.index("b")) == (0, 1)
        assert len(reg) == 2
        with pytest.raises(TenancyError):
            reg.profile("zzz")
        with pytest.raises(TenancyError):
            reg.index("zzz")

    def test_serve_tenants_bridges_identity_and_slo(self):
        reg = registry(profile(name="a", weight=2.0, slo=0.07))
        (load,) = reg.serve_tenants()
        assert (load.name, load.weight) == ("a", 2.0)
        assert load.slo_deadline_s == 0.07
        assert load.identity == Tenant("a", 2.0)

    def test_groups_in_first_appearance_order(self):
        reg = registry(profile(name="a", group="g1"),
                       profile(name="b", group="g0"),
                       profile(name="c", group="g1"),
                       profile(name="d"))
        assert reg.groups == ("g1", "g0", "d")
        assert reg.group_members("g1") == (0, 2)
        assert reg.group_members("d") == (3,)
