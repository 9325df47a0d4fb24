"""Problem-agnostic many-objective machinery.

Pareto dominance, fast non-dominated sorting, simplex-lattice reference
points, the reference-point environmental selection, crowding-distance
selection, simulated binary crossover and polynomial mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .encoding import ObjectiveVector, Solution


@dataclass(eq=False)
class Individual:
    """A genome with its evaluated objectives and non-domination rank."""

    genome: Solution
    objectives: ObjectiveVector
    rank: Optional[int] = None

    def key(self) -> tuple[float, float, float]:
        return self.objectives.as_tuple()


@dataclass(frozen=True)
class ReferencePointSet:
    points: np.ndarray  # (R, n_obj), rows on the unit simplex
    divisions: int


def _as_tuple(obj) -> Sequence[float]:
    return obj.as_tuple() if hasattr(obj, "as_tuple") else tuple(obj)


def dominates(a, b) -> bool:
    """True iff ``a`` is no worse in every objective and better in one.

    Plain Pareto dominance on the objective tuples; constraint violation
    is ignored here and weighed only by :func:`fast_non_dominated_sort`.
    """
    ta, tb = _as_tuple(a), _as_tuple(b)
    return all(x <= y for x, y in zip(ta, tb)) and any(x < y for x, y in zip(ta, tb))


def fast_non_dominated_sort(pop: list[Individual]) -> list[list[Individual]]:
    """Partition into fronts; also stamps 1-based ranks on the individuals.

    Uses constrained domination (Deb et al., IEEE TEVC 2002): ``a``
    dominates ``b`` when its ``objectives.violation`` is smaller, or when
    the violations are equal and ``a`` Pareto-dominates ``b``.  A feasible
    member (violation 0.0) therefore outranks every infeasible one, and an
    all-feasible population sorts by plain Pareto dominance.
    """
    keys = np.array([ind.key() for ind in pop])
    viol = np.array([ind.objectives.violation for ind in pop])
    # a dominates b <=> viol(a) < viol(b), or equal violations and
    # all(a <= b) and any(a < b); pairwise, one objective at a time
    n = len(pop)
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in keys.T:
        le &= col[:, None] <= col
        lt |= col[:, None] < col
    dom = (viol[:, None] < viol) | ((viol[:, None] == viol) & le & lt)
    # Peel the fronts.  A member joins the next front once the current one
    # holds its last dominators.  It is listed by the position of its last
    # dominator in the current front, then by index: the order of the
    # classic per-member peel, which the next generation's pairing sees.
    remaining = dom.sum(axis=0)  # dominators of each member not yet peeled
    current = np.flatnonzero(remaining == 0)
    fronts: list[list[Individual]] = []
    rank = 1
    while current.size:
        front = [pop[i] for i in current.tolist()]
        for ind in front:
            ind.rank = rank
        fronts.append(front)
        remaining[current] = -1  # peeled; no later front dominates them
        beaten = dom[current]
        remaining -= beaten.sum(axis=0)
        nxt = np.flatnonzero(remaining == 0)
        if len(current) > 1 and len(nxt) > 1:
            last = len(current) - 1 - beaten[::-1, nxt].argmax(axis=0)
            nxt = nxt[np.argsort(last, kind="stable")]
        current = nxt
        rank += 1
    return fronts


def das_dennis_points(n_obj: int, divisions: int) -> ReferencePointSet:
    """Uniform simplex lattice with the given number of divisions per axis."""
    if divisions < 1:
        raise ValueError("divisions must be >= 1")

    points: list[list[float]] = []

    def recurse(prefix: list[int], remaining: int, depth: int) -> None:
        if depth == n_obj - 1:
            points.append([c / divisions for c in prefix + [remaining]])
            return
        for c in range(remaining + 1):
            recurse(prefix + [c], remaining - c, depth + 1)

    recurse([], divisions, 0)
    return ReferencePointSet(points=np.array(points), divisions=divisions)


def _normalize(keys: np.ndarray) -> np.ndarray:
    """Translate by the ideal point and scale by hyperplane intercepts."""
    ideal = keys.min(axis=0)
    shifted = keys - ideal
    n_obj = keys.shape[1]
    # Extreme points via the achievement scalarizing function per axis.
    extremes = np.empty((n_obj, n_obj))
    for j in range(n_obj):
        weights = np.full(n_obj, 1e-6)
        weights[j] = 1.0
        asf = (shifted / weights).max(axis=1)
        extremes[j] = shifted[int(asf.argmin())]
    intercepts = None
    try:
        plane = np.linalg.solve(extremes, np.ones(n_obj))
        with np.errstate(divide="ignore", over="ignore"):
            candidate = 1.0 / plane
        if np.all(np.isfinite(candidate)) and np.all(candidate > 1e-12):
            intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    if intercepts is None:
        intercepts = shifted.max(axis=0)
    intercepts = np.where(intercepts > 1e-12, intercepts, 1.0)
    return shifted / intercepts


def _associate(normalized: np.ndarray, refs: np.ndarray):
    """Closest reference direction and perpendicular distance per point."""
    norms = np.linalg.norm(refs, axis=1)
    unit = refs / norms[:, None]
    proj = normalized @ unit.T  # (P, R)
    sq = (normalized**2).sum(axis=1)[:, None]
    dist_sq = np.maximum(sq - proj**2, 0.0)
    nearest = dist_sq.argmin(axis=1)
    return nearest, np.sqrt(dist_sq[np.arange(len(normalized)), nearest])


def nsga3_select(
    merged: list[Individual],
    target: int,
    refs: ReferencePointSet,
    rng: np.random.Generator,
) -> list[Individual]:
    """Environmental selection: whole fronts, then reference-point niching.

    Fronts come from the constrained-domination sort, so feasible members
    are admitted before infeasible ones and infeasible ones by increasing
    violation (Jain & Deb, IEEE TEVC 2014, Part II).  Fronts are admitted
    in rank order while they fit; the splitting front is filled by
    associating candidates to reference directions and repeatedly serving
    the least-crowded niche, random ties broken by ``rng``.
    """
    if len(merged) < target:
        raise ValueError("merged population smaller than the selection target")
    fronts = fast_non_dominated_sort(merged)
    chosen: list[Individual] = []
    split: list[Individual] = []
    for front in fronts:
        if len(chosen) + len(front) <= target:
            chosen.extend(front)
            if len(chosen) == target:
                return chosen
        else:
            split = front
            break
    pool = chosen + split
    keys = np.array([ind.key() for ind in pool])
    normalized = _normalize(keys)
    niche_of, distance = _associate(normalized, refs.points)

    niche_list = niche_of.tolist()
    niche_count = [0] * len(refs.points)
    for j in niche_list[: len(chosen)]:
        niche_count[j] += 1
    # Each niche's candidates, listed once in the iteration order of a set
    # of their indices (ascending modulo the set's table size, not plain
    # ascending): the rng draws below pick by position in these lists.
    members: dict[int, list[int]] = {}
    for i in set(range(len(chosen), len(pool))):
        members.setdefault(niche_list[i], []).append(i)
    live = sorted(members)
    while len(chosen) < target:
        fewest = min(niche_count[j] for j in live)
        least = [j for j in live if niche_count[j] == fewest]
        niche = least[int(rng.integers(len(least)))]
        group = members[niche]
        if niche_count[niche] == 0:
            pick = min(group, key=lambda i: distance[i])
        else:
            pick = group[int(rng.integers(len(group)))]
        chosen.append(pool[pick])
        group.remove(pick)
        if not group:
            live.remove(niche)
        niche_count[niche] += 1
    return chosen


def crowding_distance(front: list[Individual]) -> np.ndarray:
    """Per-objective normalized gap sum; boundary points get infinity."""
    n = len(front)
    keys = np.array([ind.key() for ind in front])
    dist = np.zeros(n)
    for j in range(keys.shape[1]):
        order = np.argsort(keys[:, j], kind="stable")
        lo, hi = keys[order[0], j], keys[order[-1], j]
        dist[order[0]] = dist[order[-1]] = math.inf
        if hi > lo:
            gaps = (keys[order[2:], j] - keys[order[:-2], j]) / (hi - lo)
            dist[order[1:-1]] += gaps
    return dist


def crowding_select(merged: list[Individual], target: int) -> list[Individual]:
    """NSGA-II environmental selection: rank, then descending crowding.

    Ranks come from the constrained-domination sort: feasible members
    first, infeasible ones by increasing violation.
    """
    if len(merged) < target:
        raise ValueError("merged population smaller than the selection target")
    fronts = fast_non_dominated_sort(merged)
    chosen: list[Individual] = []
    for front in fronts:
        if len(chosen) + len(front) <= target:
            chosen.extend(front)
            continue
        need = target - len(chosen)
        dist = crowding_distance(front)
        order = np.argsort(-dist, kind="stable")
        chosen.extend(front[i] for i in order[:need])
        break
    return chosen


def sbx(
    p1: np.ndarray,
    p2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    eta_c: float,
    pc: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with per-gene bounds; children are clipped."""
    if rng.random() >= pc:
        return p1.copy(), p2.copy()
    # Per-gene loop on Python floats: the same IEEE results as numpy scalars
    # at a fraction of the call overhead; rng draws stay in the same order.
    x1s, x2s, lows, highs = p1.tolist(), p2.tolist(), lower.tolist(), upper.tolist()
    c1, c2 = list(x1s), list(x2s)
    exponent = 1.0 / (eta_c + 1.0)
    draw = rng.random
    for i in range(len(x1s)):
        if draw() >= 0.5:
            continue
        x1, x2 = x1s[i], x2s[i]
        if abs(x1 - x2) < 1e-14:
            continue
        lo, hi = min(x1, x2), max(x1, x2)
        u = draw()
        beta = 1.0 + 2.0 * (lo - lows[i]) / (hi - lo)
        alpha = 2.0 - beta ** -(eta_c + 1.0)
        betaq = (
            (u * alpha) ** exponent if u <= 1.0 / alpha else (1.0 / (2.0 - u * alpha)) ** exponent
        )
        child_lo = 0.5 * ((lo + hi) - betaq * (hi - lo))
        beta = 1.0 + 2.0 * (highs[i] - hi) / (hi - lo)
        alpha = 2.0 - beta ** -(eta_c + 1.0)
        betaq = (
            (u * alpha) ** exponent if u <= 1.0 / alpha else (1.0 / (2.0 - u * alpha)) ** exponent
        )
        child_hi = 0.5 * ((lo + hi) + betaq * (hi - lo))
        if draw() < 0.5:
            child_lo, child_hi = child_hi, child_lo
        c1[i] = min(max(child_lo, lows[i]), highs[i])
        c2[i] = min(max(child_hi, lows[i]), highs[i])
    return np.array(c1, dtype=float), np.array(c2, dtype=float)


def poly_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    eta_m: float,
    pm: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bounded polynomial mutation applied per gene with probability ``pm``."""
    out = x.copy()
    mut_pow = 1.0 / (eta_m + 1.0)
    draw = rng.random
    for i in range(len(out)):
        if draw() >= pm:
            continue
        # Python floats, as in sbx; most genes are skipped before this point
        lo, hi = float(lower[i]), float(upper[i])
        span = hi - lo
        if span <= 0.0:
            continue
        u = draw()
        gene = float(out[i])
        delta1 = (gene - lo) / span
        delta2 = (hi - gene) / span
        if u < 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta1) ** (eta_m + 1.0)
            deltaq = val**mut_pow - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta2) ** (eta_m + 1.0)
            deltaq = 1.0 - val**mut_pow
        out[i] = min(max(gene + deltaq * span, lo), hi)
    return out
