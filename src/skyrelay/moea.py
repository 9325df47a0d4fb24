"""Problem-agnostic many-objective machinery.

Pareto dominance, fast non-dominated sorting, simplex-lattice reference
points, the reference-point environmental selection, crowding-distance
selection, simulated binary crossover and polynomial mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .encoding import ObjectiveVector, Solution


@dataclass(eq=False)
class Individual:
    """A genome with its evaluated objectives."""

    genome: Solution
    objectives: ObjectiveVector

    def key(self) -> tuple[float, float, float]:
        return self.objectives.as_tuple()


@dataclass(frozen=True)
class ReferencePointSet:
    points: np.ndarray  # (R, n_obj), rows on the unit simplex


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """True iff objective tuple ``a`` is no worse in every objective and
    better in one.

    Plain Pareto dominance; constraint violation is ignored here and
    weighed only by :func:`fast_non_dominated_sort`.
    """
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def fast_non_dominated_sort(
    pop: list[Individual], limit: Optional[int] = None
) -> list[list[Individual]]:
    """Partition into fronts, best first.

    With a ``limit``, peeling stops once the fronts hold at least ``limit``
    members: the fronts returned are the first ones of the full sort.

    Uses constrained domination (Deb et al., IEEE TEVC 2002): ``a``
    dominates ``b`` when its ``objectives.violation`` is smaller, or when
    the violations are equal and ``a`` Pareto-dominates ``b``.  A feasible
    member (violation 0.0) therefore outranks every infeasible one, and an
    all-feasible population sorts by plain Pareto dominance.  A NaN
    violation raises ``ValueError``: it would compare as neither smaller,
    larger nor equal.

    The sort runs one violation run at a time.  A stable argsort of the
    violations cuts the population into runs of equal violation (-0.0
    equals 0.0), each in index order.  Every member of a run dominates
    every member of a later run, so the fronts are those of the first run,
    then those of the second, and so on.  A run of one member is one front.
    A longer run is peeled by Pareto dominance among its own members only.
    Its fronts are the classic per-member peel's (Deb et al.), members in
    the same order: the peel lists a member by the position of its last
    dominator in the front before, then by index, and a run's first front
    has every member of the front before as a dominator, so it comes in
    index order.  The next generation's pairing sees this order.
    """
    rows = [(o.neg_f1, o.f2, o.f3, o.violation) for o in (ind.objectives for ind in pop)]
    table = np.fromiter(chain.from_iterable(rows), float, 4 * len(pop)).reshape(-1, 4)
    viol = table[:, 3]
    if np.isnan(viol).any():
        raise ValueError("constraint violation is NaN")
    order = np.argsort(viol, kind="stable")
    ranked = viol[order]
    cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    members = order.tolist()
    fronts: list[list[Individual]] = []
    placed = 0
    for start, stop in zip([0, *cuts], [*cuts, len(pop)]):
        if stop - start == 1:
            peel = [[start]]
        else:
            peel = ((f + start).tolist() for f in _pareto_fronts(table[order[start:stop], :3]))
        for front in peel:
            fronts.append([pop[members[k]] for k in front])
            placed += len(front)
            if limit is not None and placed >= limit:
                return fronts
    return fronts


def _pareto_fronts(keys: np.ndarray):
    """Yield the Pareto fronts of the rows of ``keys`` (m, 3), best first,
    each an array of row positions in the classic per-member peel's order.

    A member joins the next front once the current one holds its last
    dominators.  It is listed by the position of its last dominator in the
    current front, then by position.
    """
    # le[a, b]: a is no worse than b in every objective; a dominates b when
    # that holds and b is not also no worse than a
    le = keys[:, 0, None] <= keys[:, 0]
    for col in keys.T[1:]:
        le &= col[:, None] <= col
    dom = le & ~le.T
    remaining = dom.sum(axis=0)  # dominators of each member not yet peeled
    current = np.flatnonzero(remaining == 0)
    while current.size:
        yield current
        remaining[current] = -1  # peeled; no later front dominates them
        beaten = dom[current]
        remaining -= beaten.sum(axis=0)
        nxt = np.flatnonzero(remaining == 0)
        if len(current) > 1 and len(nxt) > 1:
            last = len(current) - 1 - beaten[::-1, nxt].argmax(axis=0)
            nxt = nxt[np.argsort(last, kind="stable")]
        current = nxt


def hypervolume(points: np.ndarray, ref) -> float:
    """Exact volume that the minimised 3-objective ``points`` dominate below ``ref``.

    A dimension sweep over the third objective (Fonseca, Paquete &
    López-Ibáñez, CEC 2006): between one point's level and the next, the
    dominated slab is the 2-D staircase area of the points up to that level
    times the gap.  Points not strictly below ``ref`` in every objective
    add nothing.
    """
    ref = np.asarray(ref, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = pts[(pts < ref).all(axis=1)]
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    levels = np.append(pts[:, 2], ref[2])
    volume = 0.0
    for k in np.flatnonzero(np.diff(levels) > 0.0):
        xy = pts[: k + 1, :2]
        xy = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
        low = np.minimum.accumulate(xy[:, 1])  # the staircase, by increasing x
        steps = np.append(ref[1], low[:-1]) - low
        volume += float(((ref[0] - xy[:, 0]) * steps).sum()) * (levels[k + 1] - levels[k])
    return volume


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
    return ReferencePointSet(points=np.array(points))


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
    fronts = fast_non_dominated_sort(merged, target)
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
    fronts = fast_non_dominated_sort(merged, target)
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


def variation(
    P1: np.ndarray,
    P2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    eta_c: float,
    pc: float,
    eta_m: float,
    pm: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """SBX, then polynomial mutation of both children, for each parent pair.

    Row h of the (H, D) arrays ``P1`` and ``P2`` is a pair; row h of each
    result is its child.  ``rng`` is read once, as an (H, 1 + 7 D) block of
    uniforms whose columns are, per pair: a pair gate, D gene gates, D
    spreads and D swaps for crossover, then D gates of each child and D
    spreads of each child for mutation.  Every uniform is drawn whether or
    not it is read.  A gene crosses if its pair gate is below ``pc``, its
    gene gate below 0.5 and its parents differ by at least 1e-14; a child's
    gene mutates if its gate is below ``pm`` and its span is nonzero.
    :func:`sbx` and :func:`poly_mutation` then run once each over every
    crossing or mutated gene.
    """
    H, D = P1.shape
    u = rng.random((H, 1 + 7 * D))
    gate, spread, swap = (u[:, 1 + k * D : 1 + (k + 1) * D] for k in range(3))
    cross = (u[:, :1] < pc) & (gate < 0.5) & ~(np.abs(P1 - P2) < 1e-14)  # a NaN gene crosses
    gene = np.nonzero(cross)[1]
    children = np.stack((P1, P2))
    children[0][cross], children[1][cross] = sbx(
        P1[cross], P2[cross], lower[gene], upper[gene], spread[cross], swap[cross] < 0.5, eta_c
    )
    # (2, H, D): child c reads the c-th run of D of its pair's gates and spreads
    gates, spreads = (
        u[:, 1 + k * D : 1 + (k + 2) * D].reshape(H, 2, D).swapaxes(0, 1) for k in (3, 5)
    )
    mutate = (gates < pm) & ~(upper - lower <= 0.0)
    gene = np.nonzero(mutate)[2]
    children[mutate] = poly_mutation(
        children[mutate], lower[gene], upper[gene], spreads[mutate], eta_m
    )
    return children[0], children[1]


# The two kernels reproduce the per-gene formulas with the same IEEE
# operations in the same order.  Powers go through np.float_power, which
# calls the C library's pow as Python's ** does; np.power may take a SIMD
# path that differs in the last bit.


def sbx(
    x1: np.ndarray,
    x2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    u: np.ndarray,
    swap: np.ndarray,
    eta_c: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of crossing genes; children are clipped.

    Each argument array runs over the genes: the parents' values, the gene
    bounds, the spread uniform and whether the children change places.
    """
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    gap = hi - lo
    exponent = 1.0 / (eta_c + 1.0)

    def betaq(beta: np.ndarray) -> np.ndarray:
        alpha = 2.0 - np.float_power(beta, -(eta_c + 1.0))
        ua = u * alpha
        inner = u <= 1.0 / alpha
        # the outer branch's divisor only in its own lanes, so that no
        # inner-branch lane can divide by zero
        base = np.where(inner, ua, 1.0 / (2.0 - np.where(inner, 0.0, ua)))
        return np.float_power(base, exponent)

    child_lo = 0.5 * ((lo + hi) - betaq(1.0 + 2.0 * (lo - lower) / gap) * gap)
    child_hi = 0.5 * ((lo + hi) + betaq(1.0 + 2.0 * (upper - hi) / gap) * gap)
    c1 = np.where(swap, child_hi, child_lo)
    c2 = np.where(swap, child_lo, child_hi)
    return np.minimum(np.maximum(c1, lower), upper), np.minimum(np.maximum(c2, lower), upper)


def poly_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    u: np.ndarray,
    eta_m: float,
) -> np.ndarray:
    """Bounded polynomial mutation of mutated genes; results are clipped.

    Each argument array runs over the genes: their values, their bounds
    (with a nonzero span) and their spread uniforms.
    """
    span = upper - lower
    left = u < 0.5
    delta = np.where(left, (x - lower) / span, (upper - x) / span)
    val = np.where(left, 2.0 * u, 2.0 * (1.0 - u)) + np.where(
        left, 1.0 - 2.0 * u, 2.0 * (u - 0.5)
    ) * np.float_power(1.0 - delta, eta_m + 1.0)
    root = np.float_power(val, 1.0 / (eta_m + 1.0))
    deltaq = np.where(left, root - 1.0, 1.0 - root)
    return np.minimum(np.maximum(x + deltaq * span, lower), upper)
