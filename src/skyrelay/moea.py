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


def fast_non_dominated_sort(
    pop: list[Individual], limit: Optional[int] = None
) -> list[list[Individual]]:
    """Partition into fronts; also stamps 1-based ranks on the individuals.

    With a ``limit``, peeling stops once the fronts hold at least ``limit``
    members: the fronts returned are the first ones of the full sort, and
    members left unpeeled get rank None.

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
    rank, peeled = 1, 0
    while current.size:
        front = [pop[i] for i in current.tolist()]
        for ind in front:
            ind.rank = rank
        fronts.append(front)
        remaining[current] = -1  # peeled; no later front dominates them
        peeled += len(front)
        if limit is not None and peeled >= limit:
            for i in np.flatnonzero(remaining >= 0).tolist():
                pop[i].rank = None
            break
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
    result is its child.  ``rng`` is read in the order of a per-gene loop
    over the pairs.  A pair reads one gate and crosses if it is below ``pc``.
    A crossing pair reads a gate per gene; a gene crosses if its gate is
    below 0.5 and its parents differ by at least 1e-14, and then reads a
    spread and a swap uniform.  Then each child reads a gate per gene; a
    gene mutates if its gate is below ``pm`` and its span is nonzero, and
    then reads a spread uniform.

    A scan over the gates finds the uniform each crossing or mutated gene
    reads; :func:`sbx` and :func:`poly_mutation` then run once each over
    all of them.  The uniforms come in ``rng.random`` blocks no longer than
    the reads still certain to come, so none is drawn that the loop would
    not read, and ``rng`` ends in the loop's state, a pending 32-bit half
    included.
    """
    H, D = P1.shape
    crossable = (~(np.abs(P1 - P2) < 1e-14)).tolist()  # a NaN gene crosses
    movable = (~(upper - lower <= 0.0)).tolist()
    # The uniforms, and per uniform a byte that is 1 where it is below a gene
    # gate's threshold; sized for the most the loop can read, with every
    # gene crossing and mutating.
    most = H * (1 + 7 * D)
    stream = np.empty(most)
    below_half, below_pm = bytearray(most), bytearray(most)
    flags = [(np.frombuffer(b, dtype=bool), t) for b, t in ((below_half, 0.5), (below_pm, pm))]
    due = H * (1 + 2 * D)  # reads certain to come, counted from the start
    drawn = pos = 0
    crossed: list[int] = []  # h * D + i of each crossing gene
    mutated: list[int] = []  # (c * H + h) * D + i of each mutated gene of child c
    cross_at: list[int] = []  # stream position of each one's spread uniform
    mutate_at: list[int] = []

    def fill() -> None:
        nonlocal drawn
        block = rng.random(out=stream[drawn:due])
        for below, threshold in flags:
            np.less(block, threshold, out=below[drawn:due])
        drawn = due

    def gates(
        below: bytearray, eligible: list[bool], extra: int, base: int, hits: list[int], at: list[int]
    ) -> None:
        """Read D gates; an eligible gene whose gate is below reads ``extra`` more."""
        nonlocal pos, due
        i = 0
        while i < D:
            end = pos + D - i
            if end > drawn:
                fill()
            k = below.find(1, pos, end)
            if k < 0:
                pos = end
                return
            i += k - pos
            pos = k + 1
            if eligible[i]:
                due += extra
                if pos + extra > drawn:
                    fill()
                hits.append(base + i)
                at.append(pos)
                pos += extra
            i += 1

    for h in range(H):
        if pos == drawn:
            fill()
        pos += 1
        if stream[pos - 1] < pc:
            due += D
            gates(below_half, crossable[h], 2, h * D, crossed, cross_at)
        gates(below_pm, movable, 1, h * D, mutated, mutate_at)
        gates(below_pm, movable, 1, (H + h) * D, mutated, mutate_at)

    children = np.stack((P1, P2))
    pairs = children.reshape(2, H * D)
    genes = children.reshape(-1)
    at = np.array(crossed, dtype=np.intp)
    u = np.array(cross_at, dtype=np.intp)
    gene = at % D
    pairs[0, at], pairs[1, at] = sbx(
        pairs[0, at], pairs[1, at], lower[gene], upper[gene], stream[u], stream[u + 1] < 0.5, eta_c
    )
    at = np.array(mutated, dtype=np.intp)
    gene = at % D
    genes[at] = poly_mutation(
        genes[at], lower[gene], upper[gene], stream[np.array(mutate_at, dtype=np.intp)], eta_m
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
