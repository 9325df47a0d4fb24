"""Mixed-integer padded solution representation and objective evaluation.

A :class:`Solution` always stores arrays padded to ``n_max`` slots; only
the first ``n_active`` slots describe deployed UAVs, the rest are
auxiliary genes that keep crossover and mutation well-defined across
solutions with different UAV counts.  Auxiliary slots are randomized, not
zeroed, so they explore meaningfully when the UAV count later grows.

Evaluation has two stages, both in :func:`raw_objectives`.  Stage one
computes, for a whole batch of solutions in one numpy pass, everything the
continuous genes alone decide: the air-to-ground gain products and each
UAV's flight distance, energy and time.  Stage two scores the discrete
schedules one UAV-count group at a time: one :func:`radio.link_rates`
call per group and row reductions give each solution's capacity, mean
flight energy and time spread, and :func:`evaluate` turns a solution's
row into its objective vector.
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
    return (n_active, assign, *random_channels(cfg, rng))


def random_channels(cfg: ScenarioConfig, rng: np.random.Generator):
    """Uniform channels of the ``n_max`` UAV slots and of the direct pairs.

    One draw, split into two views: numpy fills a bounded draw value by
    value from the generator's stream, so this reads the generator exactly
    as a draw for the UAV slots followed by one for the direct pairs.
    """
    channels = rng.integers(0, cfg.u_channels, size=cfg.n_max + cfg.k_pairs)
    return channels[: cfg.n_max], channels[cfg.n_max :]


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


def _check_counts(sol: Solution, cfg: ScenarioConfig) -> None:
    if not cfg.n_min <= sol.n_active <= cfg.n_max:
        raise ValueError(f"n_active={sol.n_active} outside [{cfg.n_min}, {cfg.n_max}]")
    if len(sol.assign) != cfg.m_pairs:
        raise ValueError("assignment length != number of relayed pairs")


def _check_channels(uav_chan: np.ndarray, direct_chan: np.ndarray, cfg: ScenarioConfig) -> None:
    """Channels of one solution, or the stacked rows of a group."""
    for name, channels in (("uav_chan", uav_chan), ("direct_chan", direct_chan)):
        if channels.size and (channels.min() < 0 or channels.max() >= cfg.u_channels):
            raise ValueError(f"{name} references a non-existent channel")


def check_discrete(sol: Solution, cfg: ScenarioConfig) -> None:
    """Assert the discrete-domain constraints; violations are programming bugs."""
    _check_counts(sol, cfg)
    _check_channels(sol.uav_chan, sol.direct_chan, cfg)
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
# points times UAV columns) in one pass; a larger batch runs in several
# passes of whole blocks.  Stage two's rate groups keep to the same bound
# in B placements x N UAVs x M pairs.  A pass holds 2849 columns at scale 1
# and 318 at scale 2, so one pass, and one rate group per UAV count, takes
# each generation of the benchmark's pop-20 and pop-100 runs (at scale 2
# the widest pass measured 56k gains; 4096 took about 13 passes per
# generation there).  The in-place gain kernel works in about two arrays
# of a pass's size.
STAGE_ONE_GAINS = 65536


def block_key(sol: Solution) -> tuple[int, ...]:
    """Identity of a solution's five continuous arrays, equal for solutions
    that share them (see :meth:`Solution.with_discrete`) while they live."""
    return (id(sol.x), id(sol.y), id(sol.z), id(sol.p), id(sol.v))


def _stage_one(sols: list[Solution], cfg: ScenarioConfig):
    """Stage one of evaluation for every solution in ``sols``, in passes.

    Solutions whose five continuous arrays are the same objects form one
    block, computed over the largest of their UAV counts.  Each pass is one
    numpy pass over the concatenated active slots of a run of blocks:
    gain products (:meth:`radio.RadioConstants.uav_gains`) and flight
    energies and times (:class:`energy.FlightPlan`).  Yields per pass its
    gains, plan and transmit powers, lone arrays over its UAV columns,
    and ``(index into sols, first column)`` of each of its solutions.
    Every value is computed elementwise from the same operands as for a
    lone solution, so batching does not change a bit.
    """
    rc = cfg.radio_constants
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
        plan.flight_energies(cfg.energy)
        plan.flight_times()
        tx_w = np.concatenate([s.p[:n] for s, n in chunk])
        placed = []
        offset = 0
        for b in range(start, stop):
            placed += [(i, offset) for i in members[b]]
            offset += widths[b]
        yield rc.uav_gains(xyz, tx_w), plan, tx_w, placed
        start = stop


def raw_objectives(
    sols: list[Solution], cfg: ScenarioConfig
) -> Iterator[tuple[list[int], list[tuple[float, float, float]]]]:
    """Capacity, mean flight energy and time spread of every solution in
    ``sols``: stage one, then stage two one UAV-count group at a time.

    Yields ``(indices into sols, rows)``, one ``(capacity, energy, spread)``
    row per index.  Each pass's solutions are grouped by UAV count, at most
    ``STAGE_ONE_GAINS`` B x N x M per group, and scored before the next
    pass: one :func:`radio.link_rates` call and row reductions, which give
    each row the bits a lone solution gets.  The checks of
    :func:`check_discrete` run first, the channel checks over a group's
    stacked rows; :func:`radio.link_rates` checks the assignment range.
    """
    for sol in sols:
        _check_counts(sol, cfg)
    for gains, plan, tx_w, placed in _stage_one(sols, cfg):
        # Each group as two lists: tuples as long as a group, from
        # zip(*pairs), kept a 1 MiB allocator arena more resident.
        groups: dict[int, tuple[list[int], list[int]]] = {}  # count -> indices, columns
        for i, column in placed:
            indices, columns = groups.setdefault(sols[i].n_active, ([], []))
            indices.append(i)
            columns.append(column)
        for n, (group, columns) in groups.items():
            size = max(STAGE_ONE_GAINS // (n * cfg.m_pairs), 1)
            for lo in range(0, len(group), size):
                indices = group[lo : lo + size]
                members = [sols[i] for i in indices]
                uav_chan = np.array([sol.uav_chan for sol in members])
                direct_chan = np.array([sol.direct_chan for sol in members])
                _check_channels(uav_chan, direct_chan, cfg)
                uavs = np.array(columns[lo : lo + size])[:, None] + np.arange(n)  # (B, n) pass columns
                batch_plan = plan.take(uavs)
                batch = radio_mod.Placement(
                    uav_xyz=batch_plan.dest_xyz,
                    uav_tx_w=tx_w[uavs],
                    assignment=np.array([sol.assign for sol in members]),
                    uav_channel=uav_chan[:, :n],
                    direct_channel=direct_chan,
                    gains=gains.take(uavs),
                )
                capacity = radio_mod.link_rates(batch, cfg).sum(axis=1)
                energy = energy_mod.average_flight_energy(batch_plan, cfg.energy)
                spread = energy_mod.flight_time_spread(batch_plan)
                yield indices, list(zip(capacity.tolist(), energy.tolist(), spread.tolist()))


def evaluate(
    sol: Solution,
    cfg: ScenarioConfig,
    raw: Optional[tuple[float, float, float]] = None,
) -> ObjectiveVector:
    """Objective vector of a repaired solution; padding never contributes.

    The per-solution step of stage two: ``raw`` is the solution's row of
    :func:`raw_objectives`, which has checked its domain.  Without it,
    :func:`raw_objectives` runs on ``[sol]`` first, so a lone solution is
    scored as a group of one.

    The time-spread constraint is penalized, not repaired: an infeasible
    deployment gets all three components shifted by the fixed penalties,
    and its ``violation`` records spread - ``t_th_s`` so that selection can
    rank infeasible deployments by how far they are from feasible.
    """
    if raw is None:
        ((_, (raw,)),) = raw_objectives([sol], cfg)
    capacity, f3, spread = raw
    neg_f1 = -capacity
    f2 = float(sol.n_active)
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
