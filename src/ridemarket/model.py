"""Domain entities and tariff arithmetic.

Money is held in fixed-point units of a tenth of a cent (1000 units per
dollar) so that episode-level accounting identities hold exactly.  Rates
are applied to unrounded miles and minutes; each fare or pay amount is
rounded to fixed point once, at the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

from .errors import ValidationError
from .network import RoadNetwork

FP_PER_DOLLAR = 1000
METERS_PER_MILE = 1609.344
SECONDS_PER_MINUTE = 60.0

# request lifecycle
WAITING = "waiting"
ASSIGNED = "assigned"
ONBOARD = "onboard"
SERVED = "served"
EXPIRED = "expired"

_TRANSITIONS = {
    WAITING: {ASSIGNED, EXPIRED},
    ASSIGNED: {ONBOARD},
    ONBOARD: {SERVED},
    SERVED: set(),
    EXPIRED: set(),
}

PICKUP = "pickup"
DROPOFF = "dropoff"


def dollars(amount: float) -> int:
    """Convert a dollar amount to fixed-point units."""
    return round(amount * FP_PER_DOLLAR)


def to_dollars(fp: int) -> float:
    """Convert fixed-point units back to dollars."""
    return fp / FP_PER_DOLLAR


def miles(distance_m: float) -> float:
    return distance_m / METERS_PER_MILE


def minutes(duration_s: float) -> float:
    return duration_s / SECONDS_PER_MINUTE


@dataclass(frozen=True)
class PricingScheme:
    """Tariff table, all money fields in fixed-point units.

    Defaults: dedicated rides 2.55 base + 1.75/mile + 0.35/min with an
    8.00 minimum; shared rides 1.22 + 0.81/mile + 0.26/min with a 7.84
    minimum; driver pay 1.429/mile + 0.502/min with no minimum.
    """

    ded_base: int = 2550
    ded_per_mile: int = 1750
    ded_per_min: int = 350
    ded_min_fare: int = 8000
    shr_base: int = 1220
    shr_per_mile: int = 810
    shr_per_min: int = 260
    shr_min_fare: int = 7840
    pay_per_mile: int = 1429
    pay_per_min: int = 502

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(
                    f"pricing field {name} must be an integer of fixed-point units, "
                    f"got {value!r}")
            if value < 0:
                raise ValidationError(f"pricing field {name} must be non-negative")

    @classmethod
    def from_dollars(cls, **overrides: float) -> "PricingScheme":
        """Build a scheme from dollar-valued overrides of the defaults."""
        for name, amount in overrides.items():
            if not abs(amount) * FP_PER_DOLLAR < math.inf:
                raise ValidationError(f"pricing field {name} must be a finite amount")
        return cls(**{k: dollars(v) for k, v in overrides.items()})


def _check_leg(distance_m: float, duration_s: float) -> None:
    if distance_m < 0 or duration_s < 0:
        raise ValidationError("distance and duration must be non-negative")


def driver_pay(scheme: PricingScheme, distance_m: float, duration_s: float) -> int:
    """Driver salary for driven distance and time; covers empty repositioning."""
    _check_leg(distance_m, duration_s)
    return round(
        scheme.pay_per_mile * miles(distance_m) + scheme.pay_per_min * minutes(duration_s)
    )


def rider_fare(scheme: PricingScheme, shared: bool, distance_m: float, duration_s: float) -> int:
    """Fare for one rider, billed on their direct distance and time.

    A rider on a pooled ride pays the shared tariff, a rider travelling
    alone the dedicated one; either is floored at its minimum fare.
    """
    _check_leg(distance_m, duration_s)
    if shared:
        base, per_mile, per_min, floor = (
            scheme.shr_base, scheme.shr_per_mile, scheme.shr_per_min, scheme.shr_min_fare)
    else:
        base, per_mile, per_min, floor = (
            scheme.ded_base, scheme.ded_per_mile, scheme.ded_per_min, scheme.ded_min_fare)
    raw = base + round(per_mile * miles(distance_m) + per_min * minutes(duration_s))
    return max(floor, raw)


class Stop(NamedTuple):
    """One scheduled service point on a vehicle route."""

    node: str
    request: str
    kind: str  # PICKUP or DROPOFF


@dataclass
class Request:
    """A ride request and its lifecycle state."""

    id: str
    origin: str
    destination: str
    request_time: float
    platform: str
    direct_distance: float = 0.0
    direct_duration: float = 0.0
    state: str = WAITING
    pickup_time: float | None = None
    # lifecycle bookkeeping filled in by the engine
    origin_platform: str = ""
    assigned_vehicle: str | None = None
    pickup_deadline: float | None = None
    served_time: float | None = None
    fare_paid: int | None = None
    traded: bool = False

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValidationError(f"request {self.id}: origin equals destination")
        if not 0 <= self.request_time < math.inf:
            raise ValidationError(
                f"request {self.id}: request time must be finite and non-negative"
            )
        if not self.origin_platform:
            self.origin_platform = self.platform

    def set_state(self, new: str) -> None:
        if new not in _TRANSITIONS[self.state]:
            raise ValueError(f"request {self.id}: illegal transition {self.state} -> {new}")
        self.state = new


def fill_direct(net: RoadNetwork, requests) -> list[Request]:
    """Return copies with direct-trip distance and duration set from the net.

    Route feasibility checks compare against these values, so they must be
    populated before any graph building; the episode engine does this on
    its own copies.
    """
    return [
        replace(
            r,
            direct_distance=net.distance(r.origin, r.destination),
            direct_duration=net.travel_time(r.origin, r.destination),
        )
        for r in requests
    ]


@dataclass
class Vehicle:
    """A vehicle and its committed schedule, the one record of its riders.

    A rider whose pickup stop is still in the schedule is assigned to the
    vehicle; a rider with only its dropoff stop left is onboard.
    """

    id: str
    platform: str
    position: str
    capacity: int = 4
    schedule: list[Stop] = field(default_factory=list)
    odometer: float = 0.0

    @property
    def idle(self) -> bool:
        return not self.schedule


@dataclass
class Trip:
    """A feasible (request set, vehicle) pairing with its witness route.

    requests is sorted by id.  incremental_distance is the extra distance
    versus the route the vehicle had already committed to.  total_delay sums
    each rider's dropoff time less request time and direct duration.
    """

    requests: tuple[str, ...]
    vehicle: str
    route: tuple[Stop, ...]
    incremental_distance: float
    total_delay: float
    group_size: int

    @property
    def edge_key(self) -> tuple[tuple[str, ...], str]:
        return (self.requests, self.vehicle)


def trip_marginal_profit(
    scheme: PricingScheme, trip: Trip, net: RoadNetwork, registry: Mapping[str, Request]
) -> int:
    """Extra profit from adding the trip to the vehicle's current plan.

    New riders are billed shared when the resulting onboard group has at
    least two riders, each on the direct trip the registry holds; the driver
    is paid only for the added distance and the corresponding driving time.
    """
    shared = trip.group_size >= 2
    fares = 0
    for rid in trip.requests:
        r = registry[rid]
        fares += rider_fare(scheme, shared, r.direct_distance, r.direct_duration)
    duration = trip.incremental_distance / net.speed
    return fares - driver_pay(scheme, trip.incremental_distance, duration)
