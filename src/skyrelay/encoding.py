"""Mixed-integer padded solution representation and objective evaluation.

A :class:`Solution` always stores arrays padded to ``n_max`` slots; only
the first ``n_active`` slots describe deployed UAVs, the rest are
auxiliary genes that keep crossover and mutation well-defined across
solutions with different UAV counts.  Auxiliary slots are randomized, not
zeroed, so they explore meaningfully when the UAV count later grows.

Evaluation has two stages.  :func:`geometries` computes, for a whole batch
of solutions in one numpy pass, everything the continuous genes alone
decide: the air-to-ground gain products and each UAV's flight distance,
energy and time.  Stage two scores the discrete schedules:
:func:`schedule_rates` rates a batch of solutions with one UAV count in
one :func:`radio.link_rates` call, and :func:`evaluate` scores each
solution from its share of both batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
    """One candidate schedule, padded to ``n_max`` UAV slots.

    Solutions may share arrays (a Q' sibling shares its Q child's
    continuous genes), so code that writes into a solution's arrays works
    on a :meth:`copy`.
    """

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

    @staticmethod
    def from_parts(vec: np.ndarray, n_active: int, assign, uav_chan, direct_chan) -> "Solution":
        """A solution whose continuous genes are views of ``vec``, laid out as
        :meth:`continuous_vector`, with the given discrete part."""
        n = len(vec) // 5
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

    def with_discrete(self, n_active: int, assign, uav_chan, direct_chan) -> "Solution":
        """A solution sharing this one's continuous arrays, with the given discrete part."""
        return Solution(
            self.x, self.y, self.z, self.p, self.v, assign, uav_chan, direct_chan, n_active
        )

    def continuous_vector(self) -> np.ndarray:
        """Concatenated continuous genes (all padded slots) for variation."""
        return np.concatenate([self.x, self.y, self.z, self.p, self.v])


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
    return Solution.from_parts(rng.uniform(lower, upper), *random_discrete(cfg, rng))


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


def _check_counts_and_channels(sol: Solution, cfg: ScenarioConfig) -> None:
    if not cfg.n_min <= sol.n_active <= cfg.n_max:
        raise ValueError(f"n_active={sol.n_active} outside [{cfg.n_min}, {cfg.n_max}]")
    if len(sol.assign) != cfg.m_pairs:
        raise ValueError("assignment length != number of relayed pairs")
    for name, arr in (("uav_chan", sol.uav_chan), ("direct_chan", sol.direct_chan)):
        # builtin min/max over a list: numpy's reductions cost more on a dozen values
        values = arr.tolist()
        if values and (min(values) < 0 or max(values) >= cfg.u_channels):
            raise ValueError(f"{name} references a non-existent channel")


def check_discrete(sol: Solution, cfg: ScenarioConfig) -> None:
    """Assert the discrete-domain constraints; violations are programming bugs."""
    _check_counts_and_channels(sol, cfg)
    if sol.assign.min() < 0 or sol.assign.max() >= sol.n_active:
        raise ValueError("assignment references an inactive UAV slot")


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


# Stage one computes at most this many air-to-ground gains (2M + K ground
# points times UAV columns) in one pass, plus a few arrays of that size
# for the intermediate terms.  A larger batch runs in chunks of whole
# blocks: beyond a few hundred columns batching saves no more call
# overhead, and an unbounded block raised peak memory by ~18 % at scale 2.
# Stage two's rate batches (:func:`schedule_rates`) keep to the same bound
# in B placements x N UAVs x M pairs.
STAGE_ONE_GAINS = 4096


def block_key(sol: Solution) -> tuple[int, ...]:
    """Identity of a solution's five continuous arrays, equal for solutions
    that share them (see :meth:`Solution.with_discrete`) while they live."""
    return (id(sol.x), id(sol.y), id(sol.z), id(sol.p), id(sol.v))


@dataclass(eq=False)
class Geometry:
    """What a solution's continuous genes decide, for its active slots:
    stage one's output and stage two's input."""

    gains: radio_mod.UavGains
    plan: energy_mod.FlightPlan  # flight energies and times already computed


def geometries(sols: list[Solution], cfg: ScenarioConfig) -> Iterator[tuple[int, Geometry]]:
    """Stage one of evaluation for every solution in ``sols``, batched.

    Yields ``(index into sols, geometry)`` once per solution.  Solutions
    whose five continuous arrays are the same objects form one block,
    computed over the largest of their UAV counts.  Each chunk of blocks
    is one numpy pass over their concatenated active slots: gain products
    (:meth:`radio.RadioConstants.uav_gains`) and flight energies and times
    (:class:`energy.FlightPlan`); each solution gets views at its block's
    offset.  A chunk is computed when the caller asks for its first
    geometry, so a caller that scores each geometry before taking the next
    holds one chunk's arrays at a time.  Every value is computed
    elementwise from the same operands as for a lone solution, so batching
    does not change a bit.
    """
    rc = cfg.radio_constants
    ep = cfg.energy
    blocks: dict[tuple[int, ...], list[int]] = {}  # block_key -> solution indices
    for i, sol in enumerate(sols):
        blocks.setdefault(block_key(sol), []).append(i)
    members = list(blocks.values())
    widths = [max(sols[i].n_active for i in block) for block in members]

    max_cols = max(STAGE_ONE_GAINS // rc.n_ground, 1)
    start = 0
    while start < len(members):
        stop, cols = start + 1, widths[start]
        while stop < len(members) and cols + widths[stop] <= max_cols:
            cols += widths[stop]
            stop += 1
        chunk = [(sols[members[b][0]], widths[b]) for b in range(start, stop)]
        xyz = np.column_stack(
            [np.concatenate([getattr(s, axis)[:n] for s, n in chunk]) for axis in "xyz"]
        )
        plan = energy_mod.FlightPlan(
            dest_xyz=xyz,
            speed_m_s=np.concatenate([s.v[:n] for s, n in chunk]),
            origin_xyz=cfg.origin_xyz,
        )
        plan.flight_energies(ep)
        plan.flight_times()
        gains = rc.uav_gains(xyz, np.concatenate([s.p[:n] for s, n in chunk]))
        offset = 0
        for b in range(start, stop):
            for i in members[b]:
                end = offset + sols[i].n_active
                yield i, Geometry(gains.slots(offset, end), plan.slots(offset, end))
            offset += widths[b]
        start = stop


def schedule_rates(sols: list[Solution], geoms: list[Geometry], cfg: ScenarioConfig) -> np.ndarray:
    """Link rates (B, M) of solutions with one UAV count, from their
    geometries, in one :func:`radio.link_rates` call: the radio step of
    stage two.  Row b is what the lone solution ``sols[b]`` gets, bit for bit.
    """
    n = sols[0].n_active
    gains = [geometry.gains for geometry in geoms]
    batch = radio_mod.Placement(
        uav_xyz=np.array([geometry.plan.dest_xyz for geometry in geoms]),
        uav_tx_w=np.array([sol.p for sol in sols])[:, :n],
        assignment=np.array([sol.assign for sol in sols]),
        uav_channel=np.array([sol.uav_chan for sol in sols])[:, :n],
        direct_channel=np.array([sol.direct_chan for sol in sols]),
        gains=radio_mod.UavGains(
            np.array([g.phu for g in gains]),
            np.array([g.txhd for g in gains]),
            np.array([g.pphk for g in gains]),
        ),
    )
    return radio_mod.link_rates(batch, cfg)


def evaluate(
    sol: Solution,
    cfg: ScenarioConfig,
    geometry: Optional[Geometry] = None,
    rates: Optional[np.ndarray] = None,
) -> ObjectiveVector:
    """Objective vector of a repaired solution; padding never contributes.

    Stage two of evaluation: scores the discrete schedule from
    ``geometry``, the solution's entry in :func:`geometries`, and
    ``rates``, its row of :func:`schedule_rates`.  Without a geometry,
    stage one runs on ``[sol]`` first; without rates, the rate step does.

    The time-spread constraint is penalized, not repaired: an infeasible
    deployment gets all three components shifted by the fixed penalties,
    and its ``violation`` records spread - ``t_th_s`` so that selection can
    rank infeasible deployments by how far they are from feasible.
    """
    # the assignment range is checked once, by radio.link_rates
    _check_counts_and_channels(sol, cfg)
    n = sol.n_active
    if geometry is None:
        ((_, geometry),) = geometries([sol], cfg)
    plan = geometry.plan
    if plan.n_uavs != n:
        raise ValueError(f"geometry covers {plan.n_uavs} UAV slots, solution has {n}")
    if rates is None:
        (rates,) = schedule_rates([sol], [geometry], cfg)
    neg_f1 = -float(rates.sum())
    f2 = float(n)
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
