import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from skyrelay.encoding import ObjectiveVector
from skyrelay.moea import (
    Individual,
    crowding_distance,
    crowding_select,
    das_dennis_points,
    dominates,
    fast_non_dominated_sort,
    hypervolume,
    nsga3_select,
    variation,
)

obj = st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)
vec3 = st.tuples(obj, obj, obj)


def ind(t, violation=0.0):
    return Individual(
        genome=None,
        objectives=ObjectiveVector(t[0], t[1], t[2], violation == 0.0, violation),
    )


def test_dominates_examples():
    assert dominates((-2125000.0, 4.0, 1550.0), (-2067000.0, 4.0, 1808.0))
    assert not dominates((-2067000.0, 4.0, 1808.0), (-2125000.0, 4.0, 1550.0))
    assert not dominates((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    # trade-off: neither side dominates
    assert not dominates((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    assert not dominates((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_dominates_accepts_objective_vectors():
    a = ObjectiveVector(-5.0, 4.0, 10.0, True).as_tuple()
    b = ObjectiveVector(-4.0, 4.0, 10.0, True).as_tuple()
    assert dominates(a, b) and not dominates(b, a)


@given(vec3)
def test_dominance_irreflexive(a):
    assert not dominates(a, a)


@given(vec3, vec3)
def test_dominance_antisymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(vec3, vec3, vec3)
def test_dominance_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_fast_sort_matches_slow_classifier():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        keys = rng.integers(0, 5, (n, 3)).astype(float)  # ints force duplicates
        pop = [ind(tuple(k)) for k in keys]  # all feasible: plain Pareto fronts
        fronts = fast_non_dominated_sort(pop)
        expected = oracle.slow_fronts(keys)
        got = [sorted(pop.index(i) for i in front) for front in fronts]
        assert got == [sorted(f) for f in expected]


def test_fast_sort_matches_classic_peel():
    # same fronts and same order inside each front as the per-member peel;
    # survivor order feeds the next generation's pairing
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 201))
        levels = int(rng.choice([3, 6, 1000]))  # few levels force duplicate rows
        keys = rng.integers(0, levels, (n, 3)).astype(float)
        viol = rng.choice([0.0, 0.0, 0.5, 1.5, 2.0], n) * (rng.random(n) < rng.random())
        pop = [ind(tuple(k), float(v)) for k, v in zip(keys, viol)]
        position = {id(member): i for i, member in enumerate(pop)}
        got = [[position[id(member)] for member in front] for front in fast_non_dominated_sort(pop)]
        assert got == oracle.classic_fronts(pop)


def test_limited_sort_is_a_prefix_of_the_full_sort():
    # a limited sort stops after the front that reaches the limit; its
    # fronts are the full sort's first ones, member for member
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 201))
        levels = int(rng.choice([3, 6, 1000]))  # few levels force duplicate rows
        keys = rng.integers(0, levels, (n, 3)).astype(float)
        viol = rng.choice([0.0, 0.0, 0.5, 1.5, 2.0], n) * (rng.random(n) < rng.random())
        pop = [ind(tuple(k), float(v)) for k, v in zip(keys, viol)]
        full = fast_non_dominated_sort(pop)
        for limit in sorted({1, int(rng.integers(1, n + 1)), n}):
            fronts = fast_non_dominated_sort(pop, limit)
            k = len(fronts)
            assert [[id(m) for m in f] for f in fronts] == [[id(m) for m in f] for f in full[:k]]
            assert sum(map(len, fronts)) >= limit > sum(map(len, full[: k - 1]))


def _positions(pop, fronts):
    position = {id(member): i for i, member in enumerate(pop)}
    return [[position[id(member)] for member in front] for front in fronts]


# few levels, -0.0 among them, force duplicate keys and equal violations
tie_level = st.sampled_from([-0.0, 0.0, 1.0, 2.0])
tied_member = st.tuples(
    st.tuples(tie_level, tie_level, tie_level), st.sampled_from([-0.0, 0.0, 0.5, 2.0])
)


@given(
    st.lists(
        st.tuples(vec3, st.floats(1e-9, 1e3)), min_size=1, max_size=60, unique_by=lambda m: m[1]
    )
)
def test_sort_of_distinct_violations_matches_classic_peel(members):
    # every member infeasible, each its own violation run and so its own front
    pop = [ind(k, v) for k, v in members]
    assert _positions(pop, fast_non_dominated_sort(pop)) == oracle.classic_fronts(pop)


@given(st.lists(tied_member, min_size=1, max_size=60))
def test_sort_of_tied_violations_matches_classic_peel(members):
    # -0.0 and 0.0 violations form one run, as they compare equal
    pop = [ind(k, v) for k, v in members]
    assert _positions(pop, fast_non_dominated_sort(pop)) == oracle.classic_fronts(pop)


@given(st.lists(tied_member, min_size=2, max_size=60), st.data())
def test_limit_inside_a_violation_run(members, data):
    pop = [ind(k, v) for k, v in members]
    sizes = [len(list(run)) for _, run in groupby(sorted(v for _, v in members))]
    runs = [r for r, size in enumerate(sizes) if size > 1]
    assume(runs)
    r = data.draw(st.sampled_from(runs))
    limit = sum(sizes[:r]) + data.draw(st.integers(1, sizes[r] - 1))
    got = _positions(pop, fast_non_dominated_sort(pop, limit))
    full = oracle.classic_fronts(pop)
    assert got == full[: len(got)]
    assert sum(map(len, got)) >= limit > sum(map(len, got[:-1]))


def test_sort_rejects_nan_violation():
    pop = [ind((0.0, 0.0, 0.0), 1.0), ind((1.0, 1.0, 1.0), math.nan)]
    with pytest.raises(ValueError, match="violation is NaN"):
        fast_non_dominated_sort(pop)


def test_fast_sort_partitions_without_side_effects():
    pop = [ind((0.0, 0.0, 0.0)), ind((1.0, 1.0, 1.0)), ind((2.0, 0.0, 0.0))]
    before = [vars(member).copy() for member in pop]
    fronts = fast_non_dominated_sort(pop)
    assert [[pop.index(m) for m in f] for f in fronts] == [[0], [1, 2]]
    assert [vars(member) for member in pop] == before


def _index_fronts(pop, fronts):
    return [sorted(pop.index(i) for i in front) for front in fronts]


def test_constrained_sort_feasible_outranks_infeasible():
    # the infeasible member is far better in every objective
    pop = [ind((1e7, 1e7, 1e7)), ind((-1e7, 0.0, 0.0), violation=0.5)]
    assert _index_fronts(pop, fast_non_dominated_sort(pop)) == [[0], [1]]


def test_constrained_sort_smaller_violation_first():
    pop = [
        ind((-1e7, 0.0, 0.0), violation=9.0),
        ind((1e7, 1e7, 1e7), violation=2.0),
        ind((0.0, 5.0, 0.0), violation=4.5),
    ]
    assert _index_fronts(pop, fast_non_dominated_sort(pop)) == [[1], [2], [0]]


def test_constrained_sort_equal_violation_uses_pareto():
    pop = [
        ind((1.0, 1.0, 1.0), violation=3.0),
        ind((0.0, 0.0, 0.0), violation=3.0),  # dominates member 0
        ind((-1.0, 2.0, 0.0), violation=3.0),  # trades off against member 1
    ]
    assert _index_fronts(pop, fast_non_dominated_sort(pop)) == [[1, 2], [0]]


def test_constrained_sort_matches_peeling_classifier():
    def constrained_dominates(a, b):
        va, vb = a.objectives.violation, b.objectives.violation
        return va < vb or (va == vb and dominates(a.key(), b.key()))

    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        keys = rng.integers(0, 4, (n, 3)).astype(float)
        # half feasible, the rest sharing a few violation levels
        viol = np.where(rng.random(n) < 0.5, 0.0, rng.integers(1, 4, n) * 0.5)
        pop = [ind(tuple(k), violation=float(v)) for k, v in zip(keys, viol)]
        expected, remaining = [], list(range(n))
        while remaining:
            level = [
                i for i in remaining
                if not any(constrained_dominates(pop[j], pop[i]) for j in remaining)
            ]
            expected.append(level)
            remaining = [i for i in remaining if i not in level]
        assert _index_fronts(pop, fast_non_dominated_sort(pop)) == expected


def test_selection_prefers_feasible_then_smaller_violation():
    # 10 feasible members, then 50 infeasible ones with distinct violations
    # and far better objectives
    rng = np.random.default_rng(12)
    feasible = [ind(tuple(k)) for k in rng.normal(size=(10, 3)) * [1e6, 2.0, 1e3] + 1e7]
    viol = rng.permutation(np.arange(1, 51) * 0.25)
    infeasible = [
        ind(tuple(k), violation=float(v))
        for k, v in zip(rng.normal(size=(50, 3)) * [1e6, 2.0, 1e3], viol)
    ]
    merged = feasible + infeasible
    refs = das_dennis_points(3, 5)
    for chosen in (
        nsga3_select(list(merged), 20, refs, np.random.default_rng(13)),
        crowding_select(list(merged), 20),
    ):
        assert all(m in chosen for m in merged[:10])
        picked = sorted(m.objectives.violation for m in chosen if not m.objectives.feasible)
        assert picked == [0.25 * k for k in range(1, 11)]


def test_hypervolume_examples():
    ref = (4.0, 4.0, 4.0)
    assert hypervolume(np.empty((0, 3)), ref) == 0.0
    assert hypervolume([[1.0, 2.0, 3.0]], ref) == 3.0 * 2.0 * 1.0
    # a dominated point and a point not below ref add nothing
    assert hypervolume([[1.0, 2.0, 3.0], [2.0, 3.0, 3.5], [0.0, 0.0, 4.0]], ref) == 6.0
    # two boxes overlapping in [2, 4] x [2, 4] x [1, 4]
    assert hypervolume([[1.0, 2.0, 1.0], [2.0, 1.0, 0.0]], ref) == 18.0 + 24.0 - 12.0


def test_hypervolume_matches_grid_count():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(1, 15))
        if trial % 2:  # integer coordinates force ties and repeated levels
            points = rng.integers(0, 6, (n, 3)).astype(float)
            ref = (6.0, 6.0, 6.0)
        else:
            points = rng.uniform(-1e7, 0.0, (n, 3)) * (1.0, -1e-6, -1e-4)
            ref = (0.0, 11.0, 1500.0)
        want = oracle.hypervolume(points, ref)
        assert hypervolume(points, ref) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_das_dennis_counts_and_simplex():
    for p in range(1, 11):
        refs = das_dennis_points(3, p)
        assert len(refs.points) == math.comb(p + 2, 2)
        sums = refs.points.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert np.all(refs.points >= -1e-12)
        # no duplicate rows
        assert len({tuple(r) for r in refs.points}) == len(refs.points)
    with pytest.raises(ValueError):
        das_dennis_points(3, 0)


def _ranks(pop):
    """1-based front index of each member, by ``id``."""
    return {id(m): r for r, f in enumerate(fast_non_dominated_sort(pop), 1) for m in f}


def _random_pop(rng, n):
    return [ind(tuple(rng.normal(size=3) * [1e6, 2.0, 1e3])) for _ in range(n)]


def test_nsga3_select_size_and_front_preservation():
    rng = np.random.default_rng(1)
    refs = das_dennis_points(3, 5)
    for _ in range(10):
        merged = _random_pop(rng, 60)
        chosen = nsga3_select(merged, 20, refs, np.random.default_rng(5))
        assert len(chosen) == 20
        rank = _ranks(merged)
        worst = max(rank[id(i)] for i in chosen)
        # every individual strictly better-ranked than the split front is kept
        better = [i for i in merged if rank[id(i)] < worst]
        assert all(i in chosen for i in better)


def test_nsga3_select_deterministic():
    rng = np.random.default_rng(2)
    merged = _random_pop(rng, 60)
    a = nsga3_select(list(merged), 20, das_dennis_points(3, 5), np.random.default_rng(9))
    b = nsga3_select(list(merged), 20, das_dennis_points(3, 5), np.random.default_rng(9))
    assert [i.key() for i in a] == [i.key() for i in b]


def _plane_pop(rng, n):
    # mutually non-dominated points: one front larger than any target
    w = rng.dirichlet(np.ones(3), size=n)
    return [ind(tuple(row * [1e6, 2.0, 1e3])) for row in w]


@pytest.mark.parametrize(
    ("make_pop", "size", "target"),
    [(_random_pop, 60, 20), (_random_pop, 200, 100), (_plane_pop, 40, 20), (_plane_pop, 200, 100)],
)
def test_nsga3_select_matches_reference_niching(make_pop, size, target):
    # the per-pick loop it replaced; same picks and the same rng draws
    from skyrelay import moea

    refs = das_dennis_points(3, 5)
    rng = np.random.default_rng(size + target)
    for trial in range(20):
        merged = make_pop(rng, size)
        got_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        got = nsga3_select(list(merged), target, refs, got_rng)
        chosen, split = [], []
        for front in fast_non_dominated_sort(merged):
            if len(chosen) + len(front) > target:
                split = front
                break
            chosen.extend(front)
        pool = chosen + split
        niche_of, distance = moea._associate(
            moea._normalize(np.array([i.key() for i in pool])), refs.points
        )
        picks = oracle.nsga3_niching(
            len(chosen), niche_of, distance, len(refs.points), target, ref_rng
        )
        expected = chosen + [pool[i] for i in picks]
        assert [id(i) for i in got] == [id(i) for i in expected]
        assert got_rng.random() == ref_rng.random()


def test_nsga3_select_rejects_small_pool():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        nsga3_select(_random_pop(rng, 5), 20, das_dennis_points(3, 5), rng)


def test_crowding_distance_boundaries():
    front = [ind((0.0, 10.0, 0.0)), ind((5.0, 5.0, 0.0)), ind((10.0, 0.0, 0.0))]
    d = crowding_distance(front)
    assert d[0] == math.inf and d[2] == math.inf
    assert d[1] == pytest.approx(2.0)


def test_crowding_select_size_and_rank_order():
    rng = np.random.default_rng(4)
    merged = _random_pop(rng, 60)
    chosen = crowding_select(merged, 20)
    assert len(chosen) == 20
    rank = _ranks(merged)
    worst = max(rank[id(i)] for i in chosen)
    assert all(i in chosen for i in merged if rank[id(i)] < worst)


BOUNDS = (np.zeros(6), np.array([400.0, 400.0, 500.0, 1.0, 16.0, 3.0]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_sbx_children_within_bounds(seed):
    rng = np.random.default_rng(seed)
    lower, upper = BOUNDS
    p1 = rng.uniform(lower, upper, size=(3, 6))
    p2 = rng.uniform(lower, upper, size=(3, 6))
    c1, c2 = variation(p1, p2, lower, upper, eta_c=20.0, pc=1.0, eta_m=20.0, pm=0.0, rng=rng)
    for c in (c1, c2):
        assert np.all(c >= lower) and np.all(c <= upper)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_poly_mutation_within_bounds(seed):
    rng = np.random.default_rng(seed)
    lower, upper = BOUNDS
    x = rng.uniform(lower, upper, size=(3, 6))
    y, _ = variation(x, x, lower, upper, eta_c=20.0, pc=0.0, eta_m=20.0, pm=1.0, rng=rng)
    assert np.all(y >= lower) and np.all(y <= upper)


def test_sbx_skip_leaves_parents():
    rng = np.random.default_rng(6)
    lower, upper = BOUNDS
    p1 = rng.uniform(lower, upper, size=(2, 6))
    p2 = rng.uniform(lower, upper, size=(2, 6))
    c1, c2 = variation(p1, p2, lower, upper, eta_c=20.0, pc=0.0, eta_m=20.0, pm=0.0, rng=rng)
    assert np.array_equal(c1, p1) and np.array_equal(c2, p2)


def test_poly_mutation_pm_zero_identity():
    # with pm = 0 the children are the crossover's, whatever the gates read
    lower, upper = BOUNDS
    x, y = _reference_parents(7)
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    got = variation(x[None], y[None], lower, upper, 20.0, 1.0, 20.0, 0.0, rng)
    block = twin.random(1 + 7 * len(x))
    reads = Replay(_loop_reads(block, x, y, lower, upper, 1.0, 0.0))
    want = oracle.sbx(x, y, lower, upper, 20.0, 1.0, reads)
    assert [c[0].tobytes() for c in got] == [c.tobytes() for c in want]


def _reference_parents(seed):
    """Parents with an identical gene and genes on both bounds."""
    rng = np.random.default_rng(seed)
    lower, upper = BOUNDS
    p1 = rng.uniform(lower, upper)
    p2 = rng.uniform(lower, upper)
    p2[0] = p1[0]
    p1[1], p2[1] = lower[1], upper[1]
    p1[2] = p2[2] = upper[2]
    p1[3] = lower[3]
    return p1, p2


# BOUNDS with an extra gene whose bounds are equal: it never mutates
ZERO_SPAN = (np.append(BOUNDS[0], 5.0), np.append(BOUNDS[1], 5.0))


def _reference_pairs(seed, n_pairs, same):
    """(H, 7) parent rows from ``_reference_parents``, the last gene on its
    zero span; with ``same`` the second parent equals the first."""
    rows = [_reference_parents(seed * 10 + h) for h in range(n_pairs)]
    p1 = np.array([np.append(a, 5.0) for a, _ in rows])
    p2 = p1.copy() if same else np.array([np.append(b, 5.0) for _, b in rows])
    return p1, p2


BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937)


class Replay:
    """Stand-in generator whose ``random()`` returns the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)
        self.read = 0

    def random(self):
        self.read += 1
        return self.values[self.read - 1]


def _loop_reads(row, x1, x2, lower, upper, pc, pm):
    """Row ``row`` of ``variation``'s block in the order the per-gene loops
    of one pair (``oracle.sbx``, then ``oracle.poly_mutation`` of each child)
    read uniforms."""
    D = len(x1)
    gate, spread, swap = (row[1 + k * D : 1 + (k + 1) * D] for k in range(3))
    mutation_gates, mutation_spreads = row[1 + 3 * D : 1 + 5 * D], row[1 + 5 * D :]
    reads = [row[0]]
    if row[0] < pc:
        for i in range(D):
            reads.append(gate[i])
            if gate[i] < 0.5 and not abs(x1[i] - x2[i]) < 1e-14:
                reads += [spread[i], swap[i]]
    for j in range(2 * D):
        reads.append(mutation_gates[j])
        if mutation_gates[j] < pm and upper[j % D] - lower[j % D] > 0.0:
            reads.append(mutation_spreads[j])
    return reads


def _check_against_per_pair_loop(p1, p2, eta, pc, pm, seed):
    """``variation`` against the per-gene loop, pair by pair: oracle SBX,
    then oracle mutation of each child, fed the pair's row of the block a
    twin generator draws, under each numpy bit generator.  Equal bytes,
    every replayed uniform read, and the draw contract: the generator ends
    where the twin's draw of H (1 + 7 D) uniforms leaves it, whatever the
    gates read (equal state by ``repr``, as Philox's holds arrays, and
    equal next draws).  Odd seeds first leave a pending 32-bit half in the
    generators whose state keeps one."""
    lower, upper = ZERO_SPAN
    H, D = p1.shape
    for bit_generator in BIT_GENERATORS:
        rng, twin = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if seed % 2:
            rng.integers(5)
            twin.integers(5)
            assert rng.bit_generator.state.get("has_uint32", 1) == 1
        got = variation(p1, p2, lower, upper, eta, pc, eta, pm, rng)
        block = twin.random(H * (1 + 7 * D)).reshape(H, -1)
        want = ([], [])
        for x1, x2, row in zip(p1, p2, block):
            reads = Replay(_loop_reads(row, x1, x2, lower, upper, pc, pm))
            for out, child in zip(want, oracle.sbx(x1, x2, lower, upper, eta, pc, reads)):
                out.append(oracle.poly_mutation(child, lower, upper, eta, pm, reads))
            assert reads.read == len(reads.values)
        assert [c.tobytes() for c in got] == [np.array(c).tobytes() for c in want]
        assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)
        assert rng.integers(1 << 30, size=3).tolist() == twin.integers(1 << 30, size=3).tolist()


@pytest.mark.parametrize("pc", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("eta_c", [2.0, 20.0])
def test_sbx_matches_per_gene_reference(pc, eta_c):
    # distinct parents with an identical gene, so most crossing genes read
    # a spread and a swap uniform
    for n_pairs in (1, 2, 7):
        for pm in (0.0, 0.25, 1.0):
            for seed in range(10):
                p1, p2 = _reference_pairs(seed, n_pairs, same=False)
                _check_against_per_pair_loop(p1, p2, eta_c, pc, pm, seed)


@pytest.mark.parametrize("pm", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("eta_m", [2.0, 20.0])
def test_poly_mutation_matches_per_gene_reference(pm, eta_m):
    # identical parents: crossing pairs read every gene gate, no gene crosses
    for n_pairs in (1, 2, 7):
        for pc in (0.0, 0.7, 1.0):
            for seed in range(10):
                p1, p2 = _reference_pairs(seed, n_pairs, same=True)
                _check_against_per_pair_loop(p1, p2, eta_m, pc, pm, seed)


@pytest.mark.parametrize("eta", [2.0, 20.0])
def test_float_power_matches_python_pow(eta):
    rng = np.random.default_rng(int(eta))
    n = 100_000
    cases = (
        (10.0 ** rng.uniform(0.0, 6.0, n), -(eta + 1.0)),  # SBX: beta ** -(eta + 1)
        (rng.uniform(0.0, 2.0, n), 1.0 / (eta + 1.0)),  # SBX betaq, mutation root
        (rng.uniform(0.0, 1.0, n), eta + 1.0),  # mutation: (1 - delta) ** (eta + 1)
    )
    for base, exponent in cases:
        got = np.float_power(base, exponent)
        want = np.array([b**exponent for b in base.tolist()])
        assert got.tobytes() == want.tobytes(), (
            f"np.float_power(x, {exponent}) differs from Python ** in "
            f"{int((got != want).sum())} of {n} samples; moea.sbx and moea.poly_mutation "
            "depend on it to match the per-gene reference loops bit for bit"
        )
