import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_config
from skyrelay import encoding, energy, radio, solvers
from skyrelay.encoding import (
    PENALTY_F2,
    PENALTY_F3,
    PENALTY_NEG_F1,
    ObjectiveVector,
    Solution,
    continuous_bounds,
    evaluate,
    random_discrete,
    random_solution,
    repair_continuous,
    solution_record,
)


def test_penalty_constants():
    assert (PENALTY_NEG_F1, PENALTY_F2, PENALTY_F3) == (1.0e7, 8.0, 1.0e6)


def test_objective_vector_sign():
    ov = ObjectiveVector(neg_f1=-2.5e6, f2=4.0, f3=1500.0, feasible=True)
    assert ov.f1 == 2.5e6
    assert ov.as_tuple() == (-2.5e6, 4.0, 1500.0)
    assert ov.violation == 0.0  # default keeps older constructions feasible


def test_bounds_layout(scale_one):
    lower, upper = continuous_bounds(scale_one)
    n = scale_one.n_max
    assert len(lower) == len(upper) == 5 * n
    assert lower[0] == 0.0 and upper[0] == 400.0
    assert lower[2 * n] == 200.0 and upper[2 * n] == 500.0
    assert lower[3 * n] == 0.1 and upper[3 * n] == 1.0
    assert lower[4 * n] == 6.0 and upper[4 * n] == 16.0
    assert np.all(lower < upper)


def test_random_solution_in_domain(scale_one):
    rng = np.random.default_rng(0)
    lower, upper = continuous_bounds(scale_one)
    for _ in range(50):
        sol = random_solution(scale_one, rng)
        vec = sol.continuous_vector()
        assert np.all(vec >= lower) and np.all(vec <= upper)
        encoding.check_discrete(sol, scale_one)
        assert scale_one.n_min <= sol.n_active <= scale_one.n_max
        assert len(sol.x) == scale_one.n_max
        assert len(sol.direct_chan) == scale_one.k_pairs


def test_random_discrete_full_range(scale_one):
    rng = np.random.default_rng(1)
    counts = {random_discrete(scale_one, rng)[0] for _ in range(500)}
    assert counts == set(range(scale_one.n_min, scale_one.n_max + 1))


@pytest.mark.parametrize(("n_max", "k"), [(8, 3), (5, 3), (5, 0)])
@pytest.mark.parametrize("pending_half", [False, True])
def test_random_channels_read_the_generator_as_two_draws(n_max, k, pending_half):
    # the one draw of random_channels must leave the stream where a draw
    # for the UAV slots followed by one for the direct pairs leaves it, with
    # or without a 32-bit half pending in the generator beforehand
    cfg = make_config(np.random.default_rng(0), m=4, k=k, n_min=2, n_max=n_max, u=3)
    for seed in range(50):
        merged, split = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending_half:
            merged.integers(0, 7), split.integers(0, 7)
        assert merged.bit_generator.state["has_uint32"] == pending_half
        uav_chan, direct_chan = encoding.random_channels(cfg, merged)
        for got, want in (
            (uav_chan, split.integers(0, cfg.u_channels, size=n_max)),
            (direct_chan, split.integers(0, cfg.u_channels, size=k)),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert merged.bit_generator.state == split.bit_generator.state


def test_continuous_vector_roundtrip(scale_one):
    rng = np.random.default_rng(2)
    sol = random_solution(scale_one, rng)
    vec = sol.continuous_vector()
    other = random_solution(scale_one, rng)
    other = Solution.from_parts(vec, other.n_active, other.assign, other.uav_chan, other.direct_chan)
    assert np.array_equal(other.continuous_vector(), vec)


def test_check_discrete_rejects(scale_one):
    rng = np.random.default_rng(3)
    sol = random_solution(scale_one, rng)
    bad = sol.copy()
    bad.n_active = scale_one.n_max + 1
    with pytest.raises(ValueError):
        encoding.check_discrete(bad, scale_one)
    bad = sol.copy()
    bad.assign[0] = bad.n_active  # points past the active slots
    with pytest.raises(ValueError):
        encoding.check_discrete(bad, scale_one)
    bad = sol.copy()
    bad.uav_chan[0] = scale_one.u_channels
    with pytest.raises(ValueError):
        encoding.check_discrete(bad, scale_one)


@pytest.mark.parametrize(
    ("field", "bad_value", "message"),
    [
        ("n_active", 9, "n_active=9 outside [4, 8]"),
        ("n_active", 3, "n_active=3 outside [4, 8]"),
        ("assign", np.zeros(9, dtype=int), "assignment length != number of relayed pairs"),
        ("uav_chan", (0, -1), "uav_chan references a non-existent channel"),
        ("uav_chan", (7, 3), "uav_chan references a non-existent channel"),  # a padding slot
        ("direct_chan", (2, 3), "direct_chan references a non-existent channel"),
        ("direct_chan", (0, -2), "direct_chan references a non-existent channel"),
    ],
)
def test_domain_error_messages(field, bad_value, message, scale_one):
    # scale one: 4..8 UAVs, 10 relayed pairs, 3 direct pairs, 3 channels
    sol = random_solution(scale_one, np.random.default_rng(14))
    sol.n_active = scale_one.n_max
    if isinstance(bad_value, tuple):
        index, value = bad_value
        getattr(sol, field)[index] = value
    else:
        setattr(sol, field, bad_value)
    others = [random_solution(scale_one, np.random.default_rng(seed)) for seed in range(12)]

    def among_others(sol, cfg):  # one bad member among valid ones
        solvers._evaluate(others[:6] + [sol] + others[6:], cfg)

    for check in (encoding.check_discrete, evaluate, among_others):
        with pytest.raises(ValueError) as err:
            check(sol, scale_one)
        assert str(err.value) == message


def test_repair_continuous(scale_one):
    rng = np.random.default_rng(4)
    sol = random_solution(scale_one, rng)
    sol.x[0] = -50.0
    sol.z[1] = 9999.0
    sol.p[2] = np.nan
    fixed = repair_continuous(sol, scale_one, rng)
    lower, upper = continuous_bounds(scale_one)
    vec = fixed.continuous_vector()
    assert np.all(vec >= lower) and np.all(vec <= upper)
    # untouched genes are preserved exactly
    assert fixed.y[0] == sol.y[0]
    assert fixed.v[3] == sol.v[3]


def test_evaluate_components(scale_one):
    rng = np.random.default_rng(6)
    for _ in range(10):
        sol = random_solution(scale_one, rng)
        ov = evaluate(sol, scale_one)
        pl = encoding.to_placement(sol, scale_one)
        plan = encoding.to_flight_plan(sol, scale_one)
        spread_ok = energy.flight_time_spread(plan) <= scale_one.t_th_s
        cap = radio.network_capacity(pl, scale_one)
        e = energy.average_flight_energy(plan, scale_one.energy)
        assert ov.feasible == spread_ok
        if spread_ok:
            assert ov.neg_f1 == -cap
            assert ov.f2 == sol.n_active
            assert ov.f3 == e
        else:
            assert ov.neg_f1 == -cap + PENALTY_NEG_F1
            assert ov.f2 == sol.n_active + PENALTY_F2
            assert ov.f3 == e + PENALTY_F3


def test_penalty_exact(scale_one):
    rng = np.random.default_rng(7)
    sol = random_solution(scale_one, rng)
    n = sol.n_active
    # same destination, extreme speeds: spread way past the threshold
    sol.x[:n] = 300.0
    sol.y[:n] = 300.0
    sol.z[:n] = 400.0
    sol.v[:n] = 16.0
    sol.v[0] = 6.0
    ov = evaluate(sol, scale_one)
    assert not ov.feasible
    cap = radio.network_capacity(encoding.to_placement(sol, scale_one), scale_one)
    e = energy.average_flight_energy(encoding.to_flight_plan(sol, scale_one), scale_one.energy)
    assert ov.neg_f1 == -cap + PENALTY_NEG_F1
    assert ov.f2 == sol.n_active + PENALTY_F2
    assert ov.f3 == e + PENALTY_F3
    base = sol.copy()
    base.v[0] = 16.0
    assert evaluate(base, scale_one).feasible


def test_evaluate_violation(scale_one):
    rng = np.random.default_rng(10)
    seen = set()
    for _ in range(60):
        sol = random_solution(scale_one, rng)
        if rng.random() < 0.5:
            # shared destination and speed: zero spread, always feasible
            sol.x[:], sol.y[:], sol.z[:], sol.v[:] = 300.0, 300.0, 400.0, 16.0
        ov = evaluate(sol, scale_one)
        plan = encoding.to_flight_plan(sol, scale_one)
        spread = energy.flight_time_spread(plan)
        cap = radio.network_capacity(encoding.to_placement(sol, scale_one), scale_one)
        e = energy.average_flight_energy(plan, scale_one.energy)
        seen.add(ov.feasible)
        if ov.feasible:
            assert ov.violation == 0.0
            assert ov.as_tuple() == (-cap, float(sol.n_active), e)
        else:
            assert ov.violation == spread - scale_one.t_th_s > 0.0
            assert ov.as_tuple() == (
                -cap + PENALTY_NEG_F1,
                sol.n_active + PENALTY_F2,
                e + PENALTY_F3,
            )
    assert seen == {True, False}


def test_padding_invariance(scale_one):
    rng = np.random.default_rng(8)
    for _ in range(50):
        sol = random_solution(scale_one, rng)
        ov = evaluate(sol, scale_one)
        mutant = sol.copy()
        n = mutant.n_active
        mutant.x[n:] = rng.uniform(0.0, 400.0, scale_one.n_max - n)
        mutant.z[n:] = rng.uniform(200.0, 500.0, scale_one.n_max - n)
        mutant.p[n:] = rng.uniform(0.1, 1.0, scale_one.n_max - n)
        mutant.v[n:] = rng.uniform(6.0, 16.0, scale_one.n_max - n)
        mutant.uav_chan[n:] = rng.integers(0, scale_one.u_channels, scale_one.n_max - n)
        ov2 = evaluate(mutant, scale_one)
        assert ov2 == ov  # bit-identical, padding must never leak in


def test_solution_record(scale_one):
    rng = np.random.default_rng(9)
    sol = random_solution(scale_one, rng)
    rec = solution_record(sol, scale_one)
    n = sol.n_active
    assert rec["n_uavs"] == n
    assert len(rec["uav_xyz"]) == n and len(rec["uav_xyz"][0]) == 3
    assert len(rec["uav_tx_w"]) == n
    assert len(rec["uav_channel"]) == n
    assert rec["assignment"] == sol.assign.tolist()
    assert len(rec["direct_channel"]) == scale_one.k_pairs


def test_evaluate_rejects_assignment_outside_active_slots(scale_one):
    # evaluate leaves the assignment range to radio.link_rates (a RadioError)
    rng = np.random.default_rng(11)
    sol = random_solution(scale_one, rng)
    for bad_slot in (sol.n_active, -1):
        bad = sol.copy()
        bad.assign[0] = bad_slot
        with pytest.raises(ValueError):
            evaluate(bad, scale_one)


def _mixed_batch(cfg, rng):
    """Every UAV count, Q/Q' pairs sharing continuous arrays (each order of
    their counts, apart in the batch) and more columns than one chunk."""

    def walked(sol, n):
        return sol.with_discrete(
            n,
            rng.integers(0, n, cfg.m_pairs),
            rng.integers(0, cfg.u_channels, cfg.n_max),
            rng.integers(0, cfg.u_channels, cfg.k_pairs),
        )

    batch = [walked(random_solution(cfg, rng), n) for n in range(cfg.n_min, cfg.n_max + 1)]
    pairs = []
    for low_first in (True, False):
        q = walked(random_solution(cfg, rng), cfg.n_min + 1)
        qp = walked(q, cfg.n_max if low_first else cfg.n_min)
        batch.insert(1, q)
        batch.append(qp)
        pairs.append((q, qp))
    while sum(s.n_active for s in batch) <= 2 * encoding.STAGE_ONE_GAINS // (
        cfg.radio_constants.n_ground
    ):
        batch.append(random_solution(cfg, rng))
    return batch, pairs


def _scored_groups(batch, cfg, monkeypatch):
    """Each group of ``encoding.raw_objectives(batch, cfg)`` with the
    placement batch it rated and that batch's rates."""
    rated = []
    link_rates = radio.link_rates

    def recording(pl, cfg):
        rated.append((pl, link_rates(pl, cfg)))
        return rated[-1][1]

    monkeypatch.setattr(radio, "link_rates", recording)
    groups = list(encoding.raw_objectives(batch, cfg))
    monkeypatch.undo()
    assert len(rated) == len(groups)
    return [(indices, rows, pl, rates) for (indices, rows), (pl, rates) in zip(groups, rated)]


@pytest.mark.parametrize("scale", ["one", "two"])
def test_stage_one_batch_matches_lone_evaluation(scale, scale_one, scale_two, monkeypatch):
    # perfbench/verify.py re-evaluates front members alone and expects
    # exactly the objectives the batched loop stored
    cfg = scale_one if scale == "one" else scale_two
    batch, pairs = _mixed_batch(cfg, np.random.default_rng(12))
    placed = {}  # index -> (pass number, first column)
    for p, (_, _, _, members) in enumerate(encoding._stage_one(batch, cfg)):
        placed.update((i, (p, column)) for i, column in members)
    assert sorted(placed) == list(range(len(batch)))
    for q, qp in pairs:  # a Q/Q' block is computed once
        i_q, i_qp = (next(i for i, s in enumerate(batch) if s is t) for t in (q, qp))
        assert placed[i_q] == placed[i_qp]
    raws = {}
    for indices, rows, _, _ in _scored_groups(batch, cfg, monkeypatch):
        raws.update(zip(indices, rows))
    assert sorted(raws) == list(range(len(batch)))
    for i, sol in enumerate(batch):
        assert evaluate(sol, cfg, raws[i]) == evaluate(sol, cfg)


# SHA-256 of the link-rate doubles of fixed random deployments of
# gen_scenario(scale, 1), each rated from its stage-one gains and from
# gains of its own.  It pins the order of every sum in radio.link_rates,
# which the short golden-front runs can miss; computed with numpy 2.4 on
# x86-64, with the caveat of GOLDEN_FRONTS in test_solvers.py.
GOLDEN_RATES = {
    "one": "836fdd6bff8d331f24880e9e4e18413bdd91458bd318af712c604264464ba216",
    "two": "3a8281c9b0db04409f9219794a753cd7091fb5eb48b2fa957e465671925d2505",
}


@pytest.mark.parametrize("scale", ["one", "two"])
def test_link_rate_bits_unchanged(scale, scale_one, scale_two):
    cfg = scale_one if scale == "one" else scale_two
    rng = np.random.default_rng(17)
    digest = hashlib.sha256()
    for _ in range(20 if scale == "one" else 5):
        sols = [random_solution(cfg, rng) for _ in range(12)]
        for gains, _, _, members in encoding._stage_one(sols, cfg):
            for i, column in members:
                own = encoding.to_placement(sols[i], cfg)
                uavs = column + np.arange(sols[i].n_active)[None]
                staged = radio.Placement(
                    own.uav_xyz[None], own.uav_tx_w[None], own.assignment[None],
                    own.uav_channel[None], own.direct_channel[None], gains.take(uavs),
                )
                for pl in (staged, own):
                    digest.update(radio.link_rates(pl, cfg).tobytes())
    assert digest.hexdigest() == GOLDEN_RATES[scale]


@pytest.mark.parametrize("scale", ["one", "two"])
def test_rate_batches_match_lone_rates_bytewise(scale, scale_one, scale_two, monkeypatch):
    # one batch per UAV count and pass, every member's row against its lone rates
    cfg = scale_one if scale == "one" else scale_two
    batch, _ = _mixed_batch(cfg, np.random.default_rng(15))
    assert {sol.n_active for sol in batch} == set(range(cfg.n_min, cfg.n_max + 1))
    for indices, rows, pl, rates in _scored_groups(batch, cfg, monkeypatch):
        assert {batch[i].n_active for i in indices} == {pl.n_uavs}
        assert rates.shape == (len(indices), cfg.m_pairs)
        for i, row, raw in zip(indices, rates, rows):
            lone = radio.link_rates(encoding.to_placement(batch[i], cfg), cfg)
            assert row.tobytes() == lone.tobytes()
            ((_, _, _, alone),) = _scored_groups([batch[i]], cfg, monkeypatch)
            assert row.tobytes() == alone[0].tobytes()
            assert evaluate(batch[i], cfg, raw) == evaluate(batch[i], cfg)


def _objective_bytes(ov):
    neg_f1, f2, f3, feasible, violation = ov
    return struct.pack("<3d?d", neg_f1, f2, f3, feasible, violation)


@pytest.mark.parametrize("scale", ["one", "two"])
def test_grouped_scoring_matches_lone_reference_bytewise(scale, scale_one, scale_two):
    # every count, Q/Q' siblings with different counts, several passes,
    # feasible and infeasible members: each objective vector has the bits
    # of the per-solution scoring
    cfg = scale_one if scale == "one" else scale_two
    rng = np.random.default_rng(19)
    feasible = set()
    for _ in range(3):
        batch, _ = _mixed_batch(cfg, rng)
        for sol in batch[::3]:  # nearby destinations at one speed: feasible
            for axis, centre in zip("xyz", (300.0, 300.0, 400.0)):
                getattr(sol, axis)[:] = centre + rng.uniform(-10.0, 10.0, cfg.n_max)
            sol.v[:] = cfg.v_max_m_s
        for ind, sol in zip(solvers._evaluate(batch, cfg), batch):
            ov = ind.objectives
            got = (ov.neg_f1, ov.f2, ov.f3, ov.feasible, ov.violation)
            assert _objective_bytes(got) == _objective_bytes(oracle.lone_objectives(sol, cfg))
            feasible.add(ov.feasible)
    assert feasible == {True, False}


def test_scale_two_rate_groups_split_at_the_budget(scale_two, monkeypatch):
    # siblings sharing one block's columns, all with one UAV count: a pass
    # group larger than one rate batch
    cfg = scale_two
    rng = np.random.default_rng(16)
    n = cfg.n_min
    per_batch = encoding.STAGE_ONE_GAINS // (n * cfg.m_pairs)
    base = random_solution(cfg, rng)
    sols = [
        base.with_discrete(n, rng.integers(0, n, cfg.m_pairs), *encoding.random_channels(cfg, rng))
        for _ in range(2 * per_batch + 1)
    ]
    sols += [random_solution(cfg, rng) for _ in range(6)]
    batches = []
    original = radio.link_rates

    def recording(pl, cfg):
        batches.append(pl.assignment.shape[0] * pl.n_uavs * cfg.m_pairs)
        return original(pl, cfg)

    monkeypatch.setattr(radio, "link_rates", recording)
    scored = solvers._evaluate(sols, cfg)
    monkeypatch.undo()
    assert max(batches) <= encoding.STAGE_ONE_GAINS
    assert batches.count(per_batch * n * cfg.m_pairs) >= 2  # the big group split
    for ind, sol in zip(scored, sols):
        assert ind.genome is sol and ind.objectives == evaluate(sol, cfg)


def test_scale_two_generation_is_one_pass_and_one_rate_batch_per_count(scale_two, monkeypatch):
    # a pop-20 nsga3fdu generation: 20 Q children, each with a Q' sibling
    # sharing its continuous arrays, one UAV count away
    cfg = scale_two
    rng = np.random.default_rng(18)
    q_set = [random_solution(cfg, rng) for _ in range(20)]
    qp_set = []
    for q in q_set:
        n = solvers.uav_number_adjust(q.n_active, cfg, 0.5, rng)
        qp_set.append(
            q.with_discrete(n, rng.integers(0, n, cfg.m_pairs), *encoding.random_channels(cfg, rng))
        )
    sols = q_set + qp_set
    passes, batches = [], []
    a2g_gains, link_rates = radio.RadioConstants.a2g_gains, radio.link_rates

    def counting(rc, uav_xyz):
        passes.append(len(uav_xyz))
        return a2g_gains(rc, uav_xyz)

    def recording(pl, cfg):
        batches.append(pl)
        return link_rates(pl, cfg)

    monkeypatch.setattr(radio.RadioConstants, "a2g_gains", counting)
    monkeypatch.setattr(radio, "link_rates", recording)
    scored = solvers._evaluate(sols, cfg)
    monkeypatch.undo()
    assert passes == [sum(max(q.n_active, qp.n_active) for q, qp in zip(q_set, qp_set))]
    assert sorted(pl.n_uavs for pl in batches) == sorted({sol.n_active for sol in sols})
    for pl in batches:  # the layouts of stacked lone placements
        assert all(a.flags.c_contiguous for a in (pl.gains.phu, pl.gains.txhd, pl.gains.pphk))
    for ind, sol in zip(scored, sols):
        assert ind.genome is sol and ind.objectives == evaluate(sol, cfg)


def _slot_permuted(sol, rng):
    n = sol.n_active
    perm = rng.permutation(n)
    order = np.concatenate([perm, np.arange(n, len(sol.x))])
    return Solution(
        x=sol.x[order],
        y=sol.y[order],
        z=sol.z[order],
        p=sol.p[order],
        v=sol.v[order],
        assign=np.argsort(perm)[sol.assign],
        uav_chan=sol.uav_chan[order],
        direct_chan=sol.direct_chan.copy(),
        n_active=n,
    )


def _channel_permuted(sol, cfg, rng):
    perm = rng.permutation(cfg.u_channels)
    return sol.with_discrete(sol.n_active, sol.assign, perm[sol.uav_chan], perm[sol.direct_chan])


def _assert_same_objectives(a, b):
    assert (a.f2, a.feasible) == (b.f2, b.feasible)
    assert a.neg_f1 == pytest.approx(b.neg_f1, rel=1e-12)
    assert a.f3 == pytest.approx(b.f3, rel=1e-12)
    assert a.violation == pytest.approx(b.violation, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), two=st.booleans())
def test_relabelling_invariance_in_a_batch(seed, two, scale_one, scale_two):
    # relabelling UAV slots (assign remapped) or channels changes no
    # objective; the relabelled copies sit at other offsets of one batch
    cfg = scale_two if two else scale_one
    rng = np.random.default_rng(seed)
    base = [random_solution(cfg, rng) for _ in range(3)]
    slots = [_slot_permuted(sol, rng) for sol in base]
    channels = [_channel_permuted(sol, cfg, rng) for sol in base]
    batch = slots + base + channels
    scores = [ind.objectives for ind in solvers._evaluate(batch, cfg)]
    k = len(base)
    for i in range(k):
        _assert_same_objectives(scores[k + i], scores[i])
        _assert_same_objectives(scores[k + i], scores[2 * k + i])
