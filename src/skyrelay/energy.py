"""Rotary-wing propulsion power and straight-line deployment flight energy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .scenario import EnergyParams


class EnergyError(ValueError):
    """Raised on invalid flight parameters (non-positive speed, empty plan)."""


@dataclass(eq=False)
class FlightPlan:
    """Straight-line deployment: one destination and speed per UAV.

    ``distances`` is computed from the destinations at construction, the
    per-UAV flight times and energies on first use; :meth:`take` gathers
    all three with the plans it cuts.  Build a new plan rather than moving
    the destinations or changing the speeds of an existing one.  A batch
    of B plans with one UAV count has the same fields with a leading axis
    of B.
    """

    dest_xyz: np.ndarray  # (N, 3) m, (B, N, 3) in a batch
    speed_m_s: np.ndarray  # (N,) m/s, (B, N) in a batch
    origin_xyz: tuple[float, float, float]
    distances: np.ndarray = field(init=False, repr=False)  # (N,) or (B, N) m from the origin
    _times: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    _energies: Optional[tuple[EnergyParams, np.ndarray]] = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        offset = self.dest_xyz - np.asarray(self.origin_xyz)
        # the sum np.linalg.norm(offset, axis=1) computes, without its glue
        self.distances = np.sqrt(np.add.reduce(offset * offset, axis=-1))

    @property
    def n_uavs(self) -> int:
        return self.dest_xyz.shape[-2]

    def flight_times(self) -> np.ndarray:
        if self._times is None:
            self._times = self.distances / self.speed_m_s
        return self._times

    def flight_energies(self, ep: EnergyParams) -> np.ndarray:
        """Energy (J) of each UAV's flight under ``ep``, as :func:`flight_energy`."""
        if self._energies is None or self._energies[0] is not ep:
            speeds = self.speed_m_s
            if (speeds <= 0.0).any():
                raise EnergyError("speed must be > 0")
            potential = (
                ep.uav_mass_kg * ep.gravity_m_s2 * (self.dest_xyz[..., 2] - self.origin_xyz[2])
            )
            energies = propulsion_power(speeds, ep) * (self.distances / speeds) + potential
            self._energies = (ep, energies)
        return self._energies[1]

    def take(self, uavs: np.ndarray) -> "FlightPlan":
        """The plan of the UAVs ``uavs`` indexes, gathered from this lone
        plan's arrays; a (B, N) index gives a batch of B plans."""
        part = object.__new__(FlightPlan)
        part.dest_xyz = self.dest_xyz[uavs]
        part.speed_m_s = self.speed_m_s[uavs]
        part.origin_xyz = self.origin_xyz
        part.distances = self.distances[uavs]
        part._times = None if self._times is None else self._times[uavs]
        part._energies = (
            None if self._energies is None else (self._energies[0], self._energies[1][uavs])
        )
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


def flight_energy(dest_xyz, speed: float, origin_xyz, ep: EnergyParams) -> float:
    """Energy (J) of a constant-speed straight-line flight plus altitude gain.

    Constant speed means the kinetic term vanishes; the potential term is
    the mass-gravity product times the altitude change.
    """
    if speed <= 0.0:
        raise EnergyError("speed must be > 0")
    dest = np.asarray(dest_xyz, dtype=float)
    origin = np.asarray(origin_xyz, dtype=float)
    distance = float(np.linalg.norm(dest - origin))
    potential = ep.uav_mass_kg * ep.gravity_m_s2 * (dest[2] - origin[2])
    return propulsion_power(speed, ep) * (distance / speed) + potential


def average_flight_energy(plan: FlightPlan, ep: EnergyParams):
    """Mean deployment flight energy (J) over the plan's UAVs: a float for
    a lone plan, (B,) for a batch, each row the bits of its lone plan's."""
    if plan.n_uavs == 0:
        raise EnergyError("flight plan has no UAVs")
    mean = plan.flight_energies(ep).sum(axis=-1) / plan.n_uavs
    return float(mean) if mean.ndim == 0 else mean


def flight_time_spread(plan: FlightPlan):
    """Latest minus earliest UAV arrival time (s): a float for a lone plan,
    (B,) for a batch."""
    if plan.n_uavs == 0:
        raise EnergyError("flight plan has no UAVs")
    times = plan.flight_times()
    spread = times.max(axis=-1) - times.min(axis=-1)
    return float(spread) if spread.ndim == 0 else spread
