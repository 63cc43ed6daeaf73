"""Money arithmetic, tariffs, request lifecycle and direct-trip values."""
import pytest

from ridemarket.errors import ValidationError
from ridemarket.model import (
    ASSIGNED,
    EXPIRED,
    FP_PER_DOLLAR,
    METERS_PER_MILE,
    ONBOARD,
    SERVED,
    WAITING,
    PricingScheme,
    Request,
    Vehicle,
    dollars,
    driver_pay,
    fill_direct,
    miles,
    minutes,
    rider_fare,
    to_dollars,
)
from ridemarket.network import make_grid


def test_fixed_point_helpers():
    assert FP_PER_DOLLAR == 1000
    assert dollars(2.55) == 2550
    assert dollars(0.0005) == 0 or dollars(0.0005) == 1  # banker's rounding boundary
    assert to_dollars(9550) == pytest.approx(9.55)
    assert miles(METERS_PER_MILE) == pytest.approx(1.0)
    assert minutes(90.0) == pytest.approx(1.5)


def test_dedicated_fare_two_miles_ten_minutes():
    # 2.55 base + 1.75*2 + 0.35*10 = 9.55, above the 8.00 minimum
    scheme = PricingScheme()
    assert rider_fare(scheme, False, 2 * METERS_PER_MILE, 600.0) == 9550


def test_dedicated_fare_minimum_binds():
    scheme = PricingScheme()
    assert rider_fare(scheme, False, 100.0, 30.0) == 8000


def test_shared_fare_minimum_binds():
    # 1.22 + 0.81*2 + 0.26*10 = 5.44, lifted to the 7.84 minimum
    scheme = PricingScheme()
    assert rider_fare(scheme, True, 2 * METERS_PER_MILE, 600.0) == 7840


def test_shared_fare_above_minimum():
    # 1.22 + 0.81*6 + 0.26*20 = 11.28
    scheme = PricingScheme()
    assert rider_fare(scheme, True, 6 * METERS_PER_MILE, 1200.0) == 11280


def test_driver_pay():
    # 1.429*2 + 0.502*10 = 7.878, no minimum
    scheme = PricingScheme()
    assert driver_pay(scheme, 2 * METERS_PER_MILE, 600.0) == 7878
    assert driver_pay(scheme, 0.0, 0.0) == 0


def test_pricing_scheme_from_dollars():
    scheme = PricingScheme.from_dollars(
        ded_base=2.55, ded_per_mile=1.75, ded_per_min=0.35, ded_min_fare=8.00,
        shr_base=1.22, shr_per_mile=0.81, shr_per_min=0.26, shr_min_fare=7.84,
        pay_per_mile=1.429, pay_per_min=0.502,
    )
    assert scheme == PricingScheme()
    for amount in (1e306, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="ded_base must be a finite amount"):
            PricingScheme.from_dollars(ded_base=amount)


def test_request_lifecycle_valid_path():
    r = Request(id="r0", origin="0", destination="1", request_time=0.0, platform="A")
    assert r.state == WAITING
    r.set_state(ASSIGNED)
    r.set_state(ONBOARD)
    r.set_state(SERVED)
    assert r.state == SERVED


def test_request_lifecycle_rejects_bad_transitions():
    r = Request(id="r0", origin="0", destination="1", request_time=0.0, platform="A")
    with pytest.raises(ValueError):
        r.set_state(SERVED)
    r.set_state(EXPIRED)
    with pytest.raises(ValueError):
        r.set_state(ASSIGNED)


def test_vehicle_idle_and_committed():
    from ridemarket.model import DROPOFF, PICKUP, Stop

    v = Vehicle(id="v0", platform="A", position="0")
    assert v.idle
    assert v.schedule == []
    # r1 is assigned (its pickup is scheduled), r2 onboard (only its dropoff)
    v.schedule += [Stop(node="2", request="r1", kind=PICKUP),
                   Stop(node="1", request="r2", kind=DROPOFF),
                   Stop(node="3", request="r1", kind=DROPOFF)]
    assert not v.idle  # idle means no scheduled stops
    assert {s.request for s in v.schedule} == {"r1", "r2"}
    assert not hasattr(v, "onboard") and not hasattr(v, "assigned")


def test_fill_direct_populates_copies():
    net = make_grid(3, 3, edge_len=200.0, speed=10.0)
    orig = Request(id="r0", origin="0", destination="2", request_time=0.0, platform="A")
    filled = fill_direct(net, [orig])
    assert orig.direct_distance == 0.0  # source object untouched
    assert filled[0].direct_distance == pytest.approx(400.0)
    assert filled[0].direct_duration == pytest.approx(40.0)
    assert filled[0].id == "r0"
