"""Mixed-integer padded solution representation and objective evaluation.

A :class:`Solution` always stores arrays padded to ``n_max`` slots; only
the first ``n_active`` slots describe deployed UAVs, the rest are
auxiliary genes that keep crossover and mutation well-defined across
solutions with different UAV counts.  Auxiliary slots are drawn at random
and bred like active ones, but no objective reads them, so selection never
shapes them: a slot that a larger UAV count later activates carries
whatever genes variation left in it.

Evaluation has two stages, both in :func:`raw_objectives`.  Stage one
computes, for a whole batch of solutions in one numpy pass, everything the
continuous genes alone decide: the air-to-ground gain products and each
UAV's flight distance, energy and time.  Stage two scores the discrete
schedules in batches that merge UAV-count groups, each row padded to its
batch's widest count: one :func:`radio.link_rates` call per batch and row
reductions give each solution's capacity, mean flight energy and time
spread, and :func:`evaluate` turns a solution's row into its objective
vector.
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


def _axis(k: int) -> property:
    """Read/write view of segment ``k`` of :attr:`Solution.genes`."""

    def view(self: "Solution") -> np.ndarray:
        n = len(self.genes) // 5
        return self.genes[k * n : (k + 1) * n]

    return property(view)


@dataclass(eq=False)
class Solution:
    """One candidate schedule, padded to ``n_max`` UAV slots.

    ``genes`` is the only store of the continuous genes: one x|y|z|p|v
    vector laid out as :func:`continuous_bounds` describes, which variation
    and repair work on whole.  ``x``, ``y``, ``z``, ``p`` and ``v`` are
    read/write views of its segments.  Solutions may share arrays (a Q'
    sibling shares its Q child's ``genes``), so code that writes into a
    solution's arrays works on a :meth:`copy`.
    """

    genes: np.ndarray  # (5 n_max,) m, m, m, W, m/s
    n_active: int
    assign: np.ndarray  # (M,) int, UAV slot per relayed pair, < n_active
    uav_chan: np.ndarray  # (n_max,) int channel per UAV slot
    direct_chan: np.ndarray  # (K,) int channel per direct pair

    x = _axis(0)
    y = _axis(1)
    z = _axis(2)
    p = _axis(3)
    v = _axis(4)

    def copy(self) -> "Solution":
        return Solution(
            self.genes.copy(),
            self.n_active,
            self.assign.copy(),
            self.uav_chan.copy(),
            self.direct_chan.copy(),
        )

    def with_discrete(self, n_active: int, assign, uav_chan, direct_chan) -> "Solution":
        """A solution sharing this one's ``genes``, with the given discrete part."""
        return Solution(self.genes, n_active, assign, uav_chan, direct_chan)


def continuous_bounds(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bound vectors matching ``Solution.genes``."""
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
    return Solution(rng.uniform(lower, upper), *random_discrete(cfg, rng))


def repair_continuous(
    genes: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """``genes`` (rows laid out as ``Solution.genes``) with every out-of-bounds
    or NaN gene resampled uniformly within its bounds.

    ``rng`` is read as one block of uniforms the shape of ``genes``, whatever
    their values; a bad gene takes the uniform at its own position.
    """
    lower, upper = cfg.gene_bounds
    u = rng.random(genes.shape)
    ok = (genes >= lower) & (genes <= upper)  # NaN fails both tests
    return np.where(ok, genes, lower + u * (upper - lower))


def _check_counts(sols: list[Solution], counts: list[int], cfg: ScenarioConfig) -> None:
    """UAV count range and assignment length of ``sols``, whose counts are
    ``counts`` in increasing order: only the ends need the range test."""
    for n in (counts[0], counts[-1]):
        if not cfg.n_min <= n <= cfg.n_max:
            raise ValueError(f"n_active={n} outside [{cfg.n_min}, {cfg.n_max}]")
    if any(len(sol.assign) != cfg.m_pairs for sol in sols):
        raise ValueError("assignment length != number of relayed pairs")


def _check_channels(uav_chan: np.ndarray, direct_chan: np.ndarray, cfg: ScenarioConfig) -> None:
    """Channels of one solution, or the stacked rows of a rate batch."""
    for name, channels in (("uav_chan", uav_chan), ("direct_chan", direct_chan)):
        if channels.size and (channels.min() < 0 or channels.max() >= cfg.u_channels):
            raise ValueError(f"{name} references a non-existent channel")


def check_discrete(sol: Solution, cfg: ScenarioConfig) -> None:
    """Assert the discrete-domain constraints; violations are programming bugs."""
    _check_counts([sol], [sol.n_active], cfg)
    _check_channels(sol.uav_chan, sol.direct_chan, cfg)
    if sol.assign.min() < 0 or sol.assign.max() >= sol.n_active:
        raise ValueError("assignment references an inactive UAV slot")


def to_placement(sol: Solution, cfg: ScenarioConfig) -> radio_mod.Placement:
    """Radio-model view of the active slots only; it shares ``sol``'s
    arrays, which radio only reads."""
    n = sol.n_active
    return radio_mod.Placement(
        uav_xyz=np.column_stack([sol.x[:n], sol.y[:n], sol.z[:n]]),
        uav_tx_w=sol.p[:n],
        assignment=sol.assign,
        uav_channel=sol.uav_chan[:n],
        direct_channel=sol.direct_chan,
    )


def to_flight_plan(sol: Solution, cfg: ScenarioConfig) -> energy_mod.FlightPlan:
    """Deployment flight plan of the active slots only."""
    n = sol.n_active
    return energy_mod.FlightPlan(
        np.column_stack([sol.x[:n], sol.y[:n], sol.z[:n]]), sol.v[:n], cfg.origin_xyz, cfg.energy
    )


# Stage one computes at most this many air-to-ground gains (2M + K ground
# points times UAV columns) in one pass; a larger batch runs in several
# passes of whole blocks.  A pass holds 2849 columns at scale 1 and 318 at
# scale 2, so one pass takes each generation of the benchmark's pop-20 and
# pop-100 runs (at scale 2 the widest pass measured 56k gains; 4096 took
# about 13 passes per generation there).  The in-place gain kernel works
# in about two arrays of a pass's size.
STAGE_ONE_GAINS = 65536

# A stage-two rate batch holds at most this many B placements x N UAVs x M
# pairs, N its widest UAV count.  A batch's fixed numpy cost outweighs its
# arithmetic on small arrays, and padding costs arithmetic on large ones:
# 16384 rates a pop-20 or pop-100 generation at scale 1 (up to 200 rows of
# at most 8 UAVs and 10 pairs) in one batch, and at scale 2 (100 pairs)
# holds 10 to 20 rows per batch.
RATE_BATCH = 16384


def _stage_one(sols: list[Solution], cfg: ScenarioConfig):
    """Stage one of evaluation for every solution in ``sols``, in passes.

    Solutions sharing one ``genes`` array form one block, computed over the
    largest of their UAV counts.  Each pass is one numpy pass over the
    active slots of a run of blocks, gathered from their ``genes`` in one
    concatenation: gain products (:meth:`radio.RadioConstants.uav_gains`)
    and flight energies and times (:class:`energy.FlightPlan`).  Yields per
    pass its gains, plan and transmit powers, lone arrays over its UAV
    columns, and ``(index into sols, first column)`` of each of its
    solutions.  Every value is computed elementwise from the same operands
    as for a lone solution, so batching does not change a bit.
    """
    rc = cfg.radio_constants
    blocks: dict[int, list[int]] = {}  # id of the shared genes -> solution indices
    for i, sol in enumerate(sols):
        blocks.setdefault(id(sol.genes), []).append(i)
    members = list(blocks.values())
    widths = [max(sols[i].n_active for i in block) for block in members]

    max_cols = max(STAGE_ONE_GAINS // rc.n_ground, 1)
    start = 0
    while start < len(members):
        stop, cols = start + 1, widths[start]
        while stop < len(members) and cols + widths[stop] <= max_cols:
            cols += widths[stop]
            stop += 1
        chunk = list(zip(members[start:stop], widths[start:stop]))
        # (5, cols): the x, y, z, p and v of every column
        axes = np.concatenate(
            [sols[block[0]].genes.reshape(5, -1)[:, :n] for block, n in chunk], axis=1
        )
        xyz = axes[:3].T.copy()  # C-ordered (cols, 3), as a lone solution's positions
        tx_w = axes[3]
        plan = energy_mod.FlightPlan(xyz, axes[4], cfg.origin_xyz, cfg.energy)
        placed = []
        offset = 0
        for block, n in chunk:
            placed += [(i, offset) for i in block]
            offset += n
        yield rc.uav_gains(xyz, tx_w), plan, tx_w, placed
        start = stop


def raw_objectives(
    sols: list[Solution], cfg: ScenarioConfig
) -> Iterator[tuple[list[int], list[tuple[float, float, float]]]]:
    """Capacity, mean flight energy and time spread of every solution in
    ``sols``: stage one, then stage two one rate batch at a time.

    Yields ``(indices into sols, rows)``, one ``(capacity, energy, spread)``
    row per index.  Each pass's solutions are taken in increasing UAV count
    and cut into batches of at most ``RATE_BATCH`` B x N x M, N the batch's
    widest count, and scored before the next pass: one
    :func:`radio.link_rates` call and row reductions, which give each row
    the bits a lone solution gets.  A batch row's slots beyond its own count
    repeat its last UAV.  The checks of :func:`check_discrete` run before a
    pass is scored: the count and assignment-length checks over the pass,
    the channel checks over a batch's stacked rows; :func:`radio.link_rates`
    checks the assignment range.
    """
    m = cfg.m_pairs
    for gains, plan, tx_w, placed in _stage_one(sols, cfg):
        placed.sort(key=lambda member: sols[member[0]].n_active)
        passed = [sols[i] for i, _ in placed]
        counts = [sol.n_active for sol in passed]
        _check_counts(passed, counts, cfg)
        start = 0
        while start < len(placed):
            stop = start + 1
            while stop < len(placed) and (stop + 1 - start) * counts[stop] * m <= RATE_BATCH:
                stop += 1
            indices = [i for i, _ in placed[start:stop]]
            members = passed[start:stop]
            row_counts = np.array(counts[start:stop])
            # (B, width): each row's own slots, then its last one repeated
            slots = np.minimum(np.arange(counts[stop - 1]), row_counts[:, None] - 1)
            uav_chan = np.array([sol.uav_chan for sol in members])
            direct_chan = np.array([sol.direct_chan for sol in members])
            _check_channels(uav_chan, direct_chan, cfg)
            uavs = np.array([column for _, column in placed[start:stop]])[:, None] + slots
            batch_plan = plan.take(uavs, row_counts)
            batch = radio_mod.Placement(
                uav_xyz=batch_plan.dest_xyz,
                uav_tx_w=tx_w[uavs],
                assignment=np.array([sol.assign for sol in members]),
                uav_channel=np.take_along_axis(uav_chan, slots, axis=1),
                direct_channel=direct_chan,
                gains=gains.take(uavs),
                counts=row_counts,
            )
            capacity = radio_mod.link_rates(batch, cfg).sum(axis=1)
            energy = energy_mod.average_flight_energy(batch_plan)
            spread = energy_mod.flight_time_spread(batch_plan)
            yield indices, list(zip(capacity.tolist(), energy.tolist(), spread.tolist()))
            start = stop


def evaluate(
    sol: Solution,
    cfg: ScenarioConfig,
    raw: Optional[tuple[float, float, float]] = None,
) -> ObjectiveVector:
    """Objective vector of a repaired solution; padding never contributes.

    The per-solution step of stage two: ``raw`` is the solution's row of
    :func:`raw_objectives`, which has checked its domain.  Without it,
    :func:`raw_objectives` runs on ``[sol]`` first, so a lone solution is
    scored as a batch of one.

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
