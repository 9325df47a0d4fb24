"""Rotary-wing propulsion power and straight-line deployment flight energy."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import groupby

import numpy as np

from .scenario import EnergyParams


class EnergyError(ValueError):
    """Raised on invalid flight parameters (non-positive or non-finite speed,
    non-finite destination, empty plan)."""


@dataclass(eq=False)
class FlightPlan:
    """Straight-line deployment: one destination and speed per UAV.

    The per-UAV ``distances``, flight ``times`` and flight ``energies``
    under ``ep`` are computed at construction; :meth:`take` gathers them
    with the plans it cuts.  Build a new plan rather than moving the
    destinations or changing the speeds of an existing one.  A batch of B
    plans has the same fields with a leading axis of B, padded to its
    widest plan: ``counts`` (B,) gives each row's UAV count, and the slots
    beyond it repeat the row's last UAV.  A lone plan's ``counts`` is its
    own count, 0-d.

    The energy of a constant-speed straight-line flight is the propulsion
    power times the flight time plus the potential term, the mass-gravity
    product times the altitude gain; constant speed means the kinetic term
    vanishes.
    """

    dest_xyz: np.ndarray  # (N, 3) m, (B, N, 3) in a batch
    speed_m_s: np.ndarray  # (N,) m/s, (B, N) in a batch
    origin_xyz: tuple[float, float, float]
    ep: InitVar[EnergyParams]
    distances: np.ndarray = field(init=False, repr=False)  # m from the origin
    times: np.ndarray = field(init=False, repr=False)  # s
    energies: np.ndarray = field(init=False, repr=False)  # J
    counts: np.ndarray = field(init=False, repr=False)  # UAVs per row

    def __post_init__(self, ep: EnergyParams) -> None:
        speeds = self.speed_m_s
        if not (np.isfinite(speeds).all() and np.isfinite(self.dest_xyz).all()):
            raise EnergyError("speeds and destinations must be finite")
        if (speeds <= 0.0).any():
            raise EnergyError("speed must be > 0")
        offset = self.dest_xyz - np.asarray(self.origin_xyz)
        # the sum np.linalg.norm(offset, axis=1) computes, without its glue
        self.distances = np.sqrt(np.add.reduce(offset * offset, axis=-1))
        self.times = self.distances / speeds
        potential = ep.uav_mass_kg * ep.gravity_m_s2 * (self.dest_xyz[..., 2] - self.origin_xyz[2])
        self.energies = propulsion_power(speeds, ep) * self.times + potential
        self.counts = np.full(speeds.shape[:-1], self.n_uavs)

    @property
    def n_uavs(self) -> int:
        return self.dest_xyz.shape[-2]

    def take(self, uavs: np.ndarray, counts=None) -> "FlightPlan":
        """The plan of the UAVs ``uavs`` indexes, gathered from this lone
        plan's arrays; a (B, N) index gives a batch of B plans, whose rows
        hold ``counts`` (B,) UAVs each (all N when None)."""
        part = object.__new__(FlightPlan)
        part.dest_xyz = self.dest_xyz[uavs]
        part.speed_m_s = self.speed_m_s[uavs]
        part.origin_xyz = self.origin_xyz
        part.distances = self.distances[uavs]
        part.times = self.times[uavs]
        part.energies = self.energies[uavs]
        part.counts = np.full(uavs.shape[:-1], uavs.shape[-1]) if counts is None else counts
        return part


def propulsion_power(v, ep: EnergyParams):
    """Propulsion power (W) of a rotary-wing craft at horizontal speed ``v``.

    Blade-profile, induced, and parasite terms.  The induced-term bracket
    subtracts v^2/(2 v0^2) by default; ``ep.induced_v4`` switches the
    denominator to v0^4 (for rotor-induced speeds below 1 m/s that reading
    turns the bracket negative, so it raises once the root is undefined).
    ``v`` may be an array of speeds; a scalar speed gives a ``float``.
    """
    blade = ep.p_blade_w * (1.0 + 3.0 * v * v / ep.tip_speed_m_s**2)
    v0 = ep.rotor_induced_v_m_s
    sub_denom = 2.0 * v0**4 if ep.induced_v4 else 2.0 * v0**2
    bracket = np.sqrt(1.0 + v**4 / (4.0 * v0**4)) - v * v / sub_denom
    if (bracket < 0.0).any():
        raise EnergyError("induced-power bracket negative (v0^4 reading)")
    induced = ep.p_induced_w * np.sqrt(bracket)
    parasite = (
        0.5 * ep.drag_ratio * ep.air_density_kg_m3 * ep.rotor_solidity * ep.disk_area_m2 * v**3
    )
    power = blade + induced + parasite
    return float(power) if np.ndim(power) == 0 else power


def count_sums(values: np.ndarray, counts) -> np.ndarray:
    """Sums of ``values`` (B, ..., W) along the last axis, each row over
    its first ``counts`` (B,) entries only; a lone row has 0-d ``counts``.

    Each run of rows with one count is summed over its own entries: numpy's
    pairwise sum along a contiguous axis regroups its terms in blocks of 8,
    so summing the trailing entries of a padded row, even zeros, could
    change its bits.  Each row gets the bits of the same sum over its lone
    array.  Rows sorted by count make one run per count.
    """
    width = values.shape[-1]
    if (counts == width).all():
        return values.sum(axis=-1)
    sums = np.empty(values.shape[:-1])
    lo = 0
    for n, run in groupby(counts.tolist()):
        hi = lo + len(list(run))
        np.add.reduce(values[lo:hi, ..., :n], axis=-1, out=sums[lo:hi])
        lo = hi
    return sums


def average_flight_energy(plan: FlightPlan):
    """Mean deployment flight energy (J) over the plan's UAVs: a float for
    a lone plan, (B,) for a batch, each row the bits of its lone plan's."""
    if plan.n_uavs == 0:
        raise EnergyError("flight plan has no UAVs")
    mean = count_sums(plan.energies, plan.counts) / plan.counts
    return float(mean) if mean.ndim == 0 else mean


def flight_time_spread(plan: FlightPlan):
    """Latest minus earliest UAV arrival time (s): a float for a lone plan,
    (B,) for a batch.  A padded row's repeated slots leave both unchanged."""
    if plan.n_uavs == 0:
        raise EnergyError("flight plan has no UAVs")
    spread = plan.times.max(axis=-1) - plan.times.min(axis=-1)
    return float(spread) if spread.ndim == 0 else spread
