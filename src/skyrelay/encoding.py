"""Mixed-integer padded solution representation and objective evaluation.

A :class:`Solution` always stores arrays padded to ``n_max`` slots; only
the first ``n_active`` slots describe deployed UAVs, the rest are
auxiliary genes that keep crossover and mutation well-defined across
solutions with different UAV counts.  Auxiliary slots are randomized, not
zeroed, so they explore meaningfully when the UAV count later grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energy as energy_mod
from . import radio as radio_mod
from .scenario import ScenarioConfig

# Penalty added per objective when the deployment-time-spread constraint fails.
PENALTY_NEG_F1 = 1.0e7
PENALTY_F2 = 8.0
PENALTY_F3 = 1.0e6


@dataclass(frozen=True)
class ObjectiveVector:
    """Minimization target (-capacity, UAV count, mean flight energy).

    ``violation`` is how far the deployment breaks the time-spread limit,
    spread - ``t_th_s`` in seconds, and exactly 0.0 when ``feasible``.
    Selection ranks by it first (constrained domination, see
    :func:`skyrelay.moea.fast_non_dominated_sort`); it defaults to 0.0 so
    vectors built without it count as feasible there.
    """

    neg_f1: float
    f2: float
    f3: float
    feasible: bool
    violation: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.neg_f1, self.f2, self.f3)

    @property
    def f1(self) -> float:
        """Capacity with the reporting sign convention (negative if penalized)."""
        return -self.neg_f1


@dataclass(eq=False)
class Solution:
    """One candidate schedule, padded to ``n_max`` UAV slots."""

    x: np.ndarray  # (n_max,) m
    y: np.ndarray  # (n_max,) m
    z: np.ndarray  # (n_max,) m
    p: np.ndarray  # (n_max,) W
    v: np.ndarray  # (n_max,) m/s
    assign: np.ndarray  # (M,) int, UAV slot per relayed pair, < n_active
    uav_chan: np.ndarray  # (n_max,) int channel per UAV slot
    direct_chan: np.ndarray  # (K,) int channel per direct pair
    n_active: int

    def copy(self) -> "Solution":
        return Solution(
            x=self.x.copy(),
            y=self.y.copy(),
            z=self.z.copy(),
            p=self.p.copy(),
            v=self.v.copy(),
            assign=self.assign.copy(),
            uav_chan=self.uav_chan.copy(),
            direct_chan=self.direct_chan.copy(),
            n_active=self.n_active,
        )

    def continuous_vector(self) -> np.ndarray:
        """Concatenated continuous genes (all padded slots) for variation."""
        return np.concatenate([self.x, self.y, self.z, self.p, self.v])

    def set_continuous_vector(self, vec: np.ndarray) -> None:
        n = len(self.x)
        self.x, self.y, self.z, self.p, self.v = (
            vec[0:n].copy(),
            vec[n : 2 * n].copy(),
            vec[2 * n : 3 * n].copy(),
            vec[3 * n : 4 * n].copy(),
            vec[4 * n : 5 * n].copy(),
        )


def continuous_bounds(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bound vectors matching ``Solution.continuous_vector``."""
    n = cfg.n_max
    lower = np.concatenate(
        [
            np.full(n, cfg.l_min_m),
            np.full(n, cfg.l_min_m),
            np.full(n, cfg.z_min_m),
            np.full(n, cfg.p_min_w),
            np.full(n, cfg.v_min_m_s),
        ]
    )
    upper = np.concatenate(
        [
            np.full(n, cfg.l_max_m),
            np.full(n, cfg.l_max_m),
            np.full(n, cfg.z_max_m),
            np.full(n, cfg.p_max_w),
            np.full(n, cfg.v_max_m_s),
        ]
    )
    return lower, upper


def random_discrete(cfg: ScenarioConfig, rng: np.random.Generator):
    """Draw a full discrete part: UAV count, assignment, channels (padded)."""
    n_active = int(rng.integers(cfg.n_min, cfg.n_max + 1))
    assign = rng.integers(0, n_active, size=cfg.m_pairs)
    uav_chan = rng.integers(0, cfg.u_channels, size=cfg.n_max)
    direct_chan = rng.integers(0, cfg.u_channels, size=cfg.k_pairs)
    return n_active, assign, uav_chan, direct_chan


def random_solution(cfg: ScenarioConfig, rng: np.random.Generator) -> Solution:
    """Uniform random solution: continuous within bounds, discrete in domain."""
    lower, upper = cfg.gene_bounds
    vec = rng.uniform(lower, upper)
    n_active, assign, uav_chan, direct_chan = random_discrete(cfg, rng)
    n = cfg.n_max
    return Solution(
        x=vec[0:n],
        y=vec[n : 2 * n],
        z=vec[2 * n : 3 * n],
        p=vec[3 * n : 4 * n],
        v=vec[4 * n : 5 * n],
        assign=assign,
        uav_chan=uav_chan,
        direct_chan=direct_chan,
        n_active=n_active,
    )


def repair_continuous(sol: Solution, cfg: ScenarioConfig, rng: np.random.Generator) -> Solution:
    """Resample any out-of-bounds continuous gene uniformly within its bounds.

    Returns ``sol`` itself when every gene is in bounds (variation clips, so
    that is the usual case), else a repaired copy.
    """
    lower, upper = cfg.gene_bounds
    vec = sol.continuous_vector()
    if ((vec >= lower) & (vec <= upper)).all():  # NaN fails both tests
        return sol
    out = sol.copy()
    for arr, lo, hi in (
        (out.x, cfg.l_min_m, cfg.l_max_m),
        (out.y, cfg.l_min_m, cfg.l_max_m),
        (out.z, cfg.z_min_m, cfg.z_max_m),
        (out.p, cfg.p_min_w, cfg.p_max_w),
        (out.v, cfg.v_min_m_s, cfg.v_max_m_s),
    ):
        bad = (arr < lo) | (arr > hi) | ~np.isfinite(arr)
        if bad.any():
            arr[bad] = lo + rng.random(int(bad.sum())) * (hi - lo)
    return out


def pad_solution(sol: Solution, cfg: ScenarioConfig, rng: np.random.Generator) -> Solution:
    """Extend all per-UAV arrays to ``n_max`` slots with random in-bounds genes."""
    out = sol.copy()
    n = cfg.n_max
    missing = n - len(out.x)
    if missing <= 0:
        return out
    out.x = np.concatenate([out.x, rng.uniform(cfg.l_min_m, cfg.l_max_m, missing)])
    out.y = np.concatenate([out.y, rng.uniform(cfg.l_min_m, cfg.l_max_m, missing)])
    out.z = np.concatenate([out.z, rng.uniform(cfg.z_min_m, cfg.z_max_m, missing)])
    out.p = np.concatenate([out.p, rng.uniform(cfg.p_min_w, cfg.p_max_w, missing)])
    out.v = np.concatenate([out.v, rng.uniform(cfg.v_min_m_s, cfg.v_max_m_s, missing)])
    out.uav_chan = np.concatenate(
        [out.uav_chan, rng.integers(0, cfg.u_channels, n - len(out.uav_chan))]
    )
    return out


def check_discrete(sol: Solution, cfg: ScenarioConfig) -> None:
    """Assert the discrete-domain constraints; violations are programming bugs."""
    if not cfg.n_min <= sol.n_active <= cfg.n_max:
        raise ValueError(f"n_active={sol.n_active} outside [{cfg.n_min}, {cfg.n_max}]")
    if len(sol.assign) != cfg.m_pairs:
        raise ValueError("assignment length != number of relayed pairs")
    if sol.assign.min() < 0 or sol.assign.max() >= sol.n_active:
        raise ValueError("assignment references an inactive UAV slot")
    for name, arr in (("uav_chan", sol.uav_chan), ("direct_chan", sol.direct_chan)):
        if len(arr) and (arr.min() < 0 or arr.max() >= cfg.u_channels):
            raise ValueError(f"{name} references a non-existent channel")


def _deployment(sol: Solution, cfg: ScenarioConfig):
    """Radio placement and flight plan of the active slots, sharing ``sol``'s
    arrays and one array of UAV positions; radio and energy only read them."""
    n = sol.n_active
    xyz = np.column_stack([sol.x[:n], sol.y[:n], sol.z[:n]])
    placement = radio_mod.Placement(
        uav_xyz=xyz,
        uav_tx_w=sol.p[:n],
        assignment=sol.assign,
        uav_channel=sol.uav_chan[:n],
        direct_channel=sol.direct_chan,
    )
    return placement, energy_mod.FlightPlan(
        dest_xyz=xyz, speed_m_s=sol.v[:n], origin_xyz=cfg.origin_xyz
    )


def to_placement(sol: Solution, cfg: ScenarioConfig) -> radio_mod.Placement:
    """Radio-model view of the active slots only."""
    return _deployment(sol, cfg)[0]


def to_flight_plan(sol: Solution, cfg: ScenarioConfig) -> energy_mod.FlightPlan:
    """Deployment flight plan of the active slots only."""
    return _deployment(sol, cfg)[1]


def evaluate(sol: Solution, cfg: ScenarioConfig) -> ObjectiveVector:
    """Objective vector of a repaired solution; padding never contributes.

    The time-spread constraint is penalized, not repaired: an infeasible
    deployment gets all three components shifted by the fixed penalties,
    and its ``violation`` records spread - ``t_th_s`` so that selection can
    rank infeasible deployments by how far they are from feasible.
    """
    check_discrete(sol, cfg)
    placement, plan = _deployment(sol, cfg)
    neg_f1 = -radio_mod.network_capacity(placement, cfg)
    f2 = float(sol.n_active)
    f3 = energy_mod.average_flight_energy(plan, cfg.energy)
    spread = energy_mod.flight_time_spread(plan)
    feasible = spread <= cfg.t_th_s
    violation = 0.0
    if not feasible:
        neg_f1 += PENALTY_NEG_F1
        f2 += PENALTY_F2
        f3 += PENALTY_F3
        violation = spread - cfg.t_th_s
    return ObjectiveVector(
        neg_f1=neg_f1, f2=f2, f3=f3, feasible=feasible, violation=violation
    )


def solution_record(sol: Solution, cfg: ScenarioConfig) -> dict:
    """JSON-friendly export of the active deployment (0-based indices)."""
    n = sol.n_active
    return {
        "n_uavs": n,
        "uav_xyz": np.column_stack([sol.x[:n], sol.y[:n], sol.z[:n]]).tolist(),
        "uav_tx_w": sol.p[:n].tolist(),
        "uav_speed_m_s": sol.v[:n].tolist(),
        "uav_channel": sol.uav_chan[:n].tolist(),
        "assignment": sol.assign.tolist(),
        "direct_channel": sol.direct_chan.tolist(),
    }
