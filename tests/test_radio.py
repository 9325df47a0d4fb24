import dataclasses
import math

import numpy as np
import pytest

import oracle
from conftest import make_config, make_placement
from skyrelay import radio
from skyrelay.scenario import ChannelParams

CH = ChannelParams()

# Frozen reference values for the vertical 200 m link (theta = 90 deg).
PL_200M_DB = 85.48923812053579
GAIN_200M = 2.825375584904659e-09


def _gains_from(ground_xy, uav_xyz):
    """Air-to-ground gains from ground points (G, 2), taken as the relayed
    SWDs of a small scenario, to UAVs (N, 3): (G, N), through
    ``RadioConstants.a2g_gains``."""
    cfg = make_config(np.random.default_rng(0), m=len(ground_xy), k=0)
    pairs = tuple(
        dataclasses.replace(p, swd_xy=tuple(xy)) for p, xy in zip(cfg.relayed_pairs, ground_xy)
    )
    rc = dataclasses.replace(cfg, relayed_pairs=pairs).radio_constants
    return rc.a2g_gains(np.array(uav_xyz, dtype=float))[: len(ground_xy)]


def test_path_loss_anchor():
    gain = _gains_from([(0.0, 0.0)], [(0.0, 0.0, 200.0)])[0, 0]
    pl = -10.0 * math.log10(gain)
    assert pl == pytest.approx(PL_200M_DB, abs=1e-12)
    assert pl == pytest.approx(oracle.path_loss_db((0, 0, 0), (0, 0, 200.0), CH), abs=1e-12)


def test_path_loss_monotone_overhead():
    low, high = _gains_from([(0.0, 0.0)], [(0.0, 0.0, 200.0), (0.0, 0.0, 400.0)])[0]
    assert high < low


def test_path_loss_symmetry():
    a, b = _gains_from([(0.0, 50.0), (100.0, 50.0)], [(50.0, 50.0, 300.0)])[:, 0]
    assert a == pytest.approx(b, rel=1e-15)


def test_gain_a2g_anchor():
    # straight above a random ground point, not the origin
    cfg = make_config(np.random.default_rng(1), m=2, k=1)
    rc = cfg.radio_constants
    above = np.array([[rc.ground_x[2, 0], rc.ground_y[2, 0], 200.0]])
    assert rc.a2g_gains(above)[2, 0] == pytest.approx(GAIN_200M, rel=1e-12)


def test_gain_g2g_values():
    src = np.array([[0.0, 0.0]])
    dst = np.array([[1.0, 0.0], [100.0, 0.0], [80.0, 0.0], [160.0, 0.0]])
    g = radio._g2g_gain_matrix(src, dst, CH)[0]
    assert g[0] == pytest.approx(1e-6, rel=1e-12)
    assert g[1] == pytest.approx(1e-10, rel=1e-12)
    assert g[2] == pytest.approx(4 * g[3], rel=1e-12)


def _single_uav_setup(k=0):
    rng = np.random.default_rng(0)
    cfg = make_config(rng, m=3, k=k, n_min=1, n_max=1, u=1)
    pl = make_placement(rng, cfg, n=1)
    return cfg, pl


def _air_gain(xy, uav_xyz):
    return oracle.gain_air((xy[0], xy[1], 0.0), uav_xyz, CH)


def test_interference_single_uav_zero():
    cfg, pl = _single_uav_setup()
    i_up, *_ = radio.link_terms(pl, cfg)
    assert np.array_equal(i_up, np.zeros(3))


def test_interference_two_uav_single_pairs():
    rng = np.random.default_rng(1)
    cfg = make_config(rng, m=2, k=0, n_min=2, n_max=2, u=1)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 1])
    pl.uav_channel = np.array([0, 0])
    # |W| = 1 collapses the duty factor: plain received power of the peer SWD
    other = cfg.relayed_pairs[1]
    expected = other.tx_power_w * _air_gain(other.swd_xy, pl.uav_xyz[0])
    i_up, *_ = radio.link_terms(pl, cfg)
    assert i_up[0] == pytest.approx(expected, rel=1e-12)


def test_sinr_uplink_no_interference():
    cfg, pl = _single_uav_setup()
    pair = cfg.relayed_pairs[0]
    signal = pair.tx_power_w * _air_gain(pair.swd_xy, pl.uav_xyz[0])
    _, gamma_up, *_ = radio.link_terms(pl, cfg)
    assert gamma_up[0] == pytest.approx(signal / CH.noise_w, rel=1e-12)


def test_sinr_uplink_interferer_decreases():
    rng = np.random.default_rng(3)
    cfg = make_config(rng, m=2, k=1, n_min=1, n_max=1, u=2)
    pl = make_placement(rng, cfg, n=1)
    pl.assignment = np.array([0, 0])
    pl.uav_channel = np.array([0])
    pl.direct_channel = np.array([0])
    _, with_dir, *_ = radio.link_terms(pl, cfg)
    pl.direct_channel = np.array([1])
    _, without, *_ = radio.link_terms(pl, cfg)
    assert with_dir[0] < without[0]


def test_sinr_downlink_single_uav():
    cfg, pl = _single_uav_setup()
    pair = cfg.relayed_pairs[0]
    signal = pl.uav_tx_w[0] * _air_gain(pair.dwd_xy, pl.uav_xyz[0])
    _, _, gamma_dn, *_ = radio.link_terms(pl, cfg)
    assert gamma_dn[0] == pytest.approx(signal / CH.noise_w, rel=1e-12)


def test_idle_uav_does_not_interfere():
    rng = np.random.default_rng(4)
    cfg = make_config(rng, m=2, k=0, n_min=2, n_max=2, u=1)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 0])  # UAV 1 serves nothing
    pl.uav_channel = np.array([0, 0])
    pair = cfg.relayed_pairs[0]
    i_up, gamma_up, gamma_dn, _, mu = radio.link_terms(pl, cfg)
    assert np.array_equal(i_up, np.zeros(2)) and np.array_equal(mu, [2, 2])
    signal = pair.tx_power_w * _air_gain(pair.swd_xy, pl.uav_xyz[0])
    assert gamma_up[0] == pytest.approx(signal / CH.noise_w, rel=1e-12)
    # the idle co-channel UAV transmits nothing on the downlink either
    signal = pl.uav_tx_w[0] * _air_gain(pair.dwd_xy, pl.uav_xyz[0])
    assert gamma_dn[0] == pytest.approx(signal / CH.noise_w, rel=1e-12)


def test_disjoint_channel_changes_nothing():
    rng = np.random.default_rng(5)
    cfg = make_config(rng, m=4, k=2, n_min=2, n_max=2, u=2)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 0, 1, 1])
    pl.uav_channel = np.array([0, 1])
    pl.direct_channel = np.array([1, 1])
    before = radio.link_rates(pl, cfg)[0]
    # co-channel set of UAV 0 is unchanged by anything on channel 1
    pl2 = make_placement(rng, cfg, n=2)
    pl2.uav_xyz = pl.uav_xyz.copy()
    pl2.uav_tx_w = pl.uav_tx_w.copy()
    pl2.assignment = pl.assignment.copy()
    pl2.uav_channel = pl.uav_channel.copy()
    pl2.direct_channel = np.array([1, 1])
    pl2.uav_tx_w[1] *= 0.5
    assert radio.link_rates(pl2, cfg)[0] == pytest.approx(before, rel=1e-12)


def test_link_rate_halves_when_shared():
    rng = np.random.default_rng(7)
    cfg1 = make_config(rng, m=1, k=0, n_min=1, n_max=1, u=1)
    pl1 = make_placement(rng, cfg1, n=1)
    alone = radio.link_rates(pl1, cfg1)[0]
    # duplicate the pair; both share the single UAV without adding
    # co-channel interference (same group), so only mu changes
    cfg2 = dataclasses.replace(cfg1, relayed_pairs=cfg1.relayed_pairs * 2)
    pl2 = radio.Placement(
        uav_xyz=pl1.uav_xyz.copy(),
        uav_tx_w=pl1.uav_tx_w.copy(),
        assignment=np.array([0, 0]),
        uav_channel=pl1.uav_channel.copy(),
        direct_channel=np.empty(0, dtype=int),
    )
    assert np.array_equal(radio.link_terms(pl2, cfg2)[4], [2, 2])
    assert radio.link_rates(pl2, cfg2)[0] == pytest.approx(alone / 2.0, rel=1e-12)


def test_capacity_equals_sum_and_relabel_invariant():
    rng = np.random.default_rng(8)
    cfg = make_config(rng, m=5, k=2, n_min=3, n_max=3, u=2)
    pl = make_placement(rng, cfg, n=3)
    cap = radio.network_capacity(pl, cfg)
    assert cap == float(radio.link_rates(pl, cfg).sum())
    # relabel UAVs 0 <-> 2 consistently
    perm = np.array([2, 1, 0])
    inv = np.argsort(perm)
    pl2 = radio.Placement(
        uav_xyz=pl.uav_xyz[perm],
        uav_tx_w=pl.uav_tx_w[perm],
        assignment=inv[pl.assignment],
        uav_channel=pl.uav_channel[perm],
        direct_channel=pl.direct_channel.copy(),
    )
    assert radio.network_capacity(pl2, cfg) == pytest.approx(cap, rel=1e-12)
    for got, want in zip(radio.link_terms(pl2, cfg), radio.link_terms(pl, cfg)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_scalar_ops_match_oracle():
    """Each pair's terms and rate match the oracle's per-link scalar functions."""
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(0, 4))
        n = int(rng.integers(1, 4))
        u = int(rng.integers(1, 4))
        cfg = make_config(rng, m=m, k=k, n_min=n, n_max=n, u=u)
        pl = make_placement(rng, cfg, n=n)
        i_up, gamma_up, gamma_dn, gamma_direct, mu = radio.link_terms(pl, cfg)
        rates = radio.link_rates(pl, cfg)
        for i in range(m):
            ni = int(pl.assignment[i])
            assert i_up[i] == pytest.approx(oracle.interference_up(i, ni, pl, cfg), rel=1e-12, abs=0)
            assert gamma_up[i] == pytest.approx(oracle.sinr_up(i, ni, pl, cfg), rel=1e-12)
            assert gamma_dn[i] == pytest.approx(oracle.sinr_down(ni, i, pl, cfg), rel=1e-12)
            assert gamma_direct[i] == pytest.approx(oracle.sinr_direct_leg(i, pl, cfg), rel=1e-12)
            assert mu[i] == np.count_nonzero(pl.assignment == ni)
            assert rates[i] == pytest.approx(oracle.rate(i, ni, pl, cfg), rel=1e-12)
        assert radio.network_capacity(pl, cfg) == pytest.approx(
            oracle.capacity(pl, cfg), rel=1e-12
        )


def test_vectorized_matches_scalar():
    """Batched rates match the oracle's scalar per-link rates."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        cfg = make_config(rng, m=int(rng.integers(1, 8)), k=int(rng.integers(0, 4)), n_min=n, n_max=n)
        placements = [make_placement(rng, cfg, n=n) for _ in range(3)]
        rates = radio.link_rates(_batch(placements, cfg), cfg)
        scal = np.array(
            [[oracle.rate(m, int(pl.assignment[m]), pl, cfg) for m in range(cfg.m_pairs)] for pl in placements]
        )
        np.testing.assert_allclose(rates, scal, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", ["one", "two"])
def test_a2g_gains_match_reference_bytewise(scale, scale_one, scale_two):
    cfg = scale_one if scale == "one" else scale_two
    rc = cfg.radio_constants
    rng = np.random.default_rng(40)
    n = 50
    xyz = np.column_stack(
        [rng.uniform(cfg.l_min_m, cfg.l_max_m, (n, 2)), rng.uniform(cfg.z_min_m, cfg.z_max_m, n)]
    )
    # straight above a relayed SWD, a relayed DWD and the last direct SWD,
    # at each altitude bound
    for col, (row, z) in enumerate(
        [(0, cfg.z_min_m), (cfg.m_pairs, cfg.z_max_m), (rc.n_ground - 1, cfg.z_min_m)]
    ):
        xyz[col] = (rc.ground_x[row, 0], rc.ground_y[row, 0], z)
    xyz[3:6, 2] = (cfg.z_min_m, cfg.z_max_m, cfg.z_max_m)
    want = oracle.a2g_gains(rc.ground_x, rc.ground_y, xyz, cfg.channel)
    assert rc.a2g_gains(xyz).tobytes() == want.tobytes()

    tx = rng.uniform(cfg.p_min_w, cfg.p_max_w, n)
    m = cfg.m_pairs
    gains = rc.uav_gains(xyz, tx)
    pp_dir = np.array([p.activity * p.tx_power_w for p in cfg.direct_pairs])
    for got, ref, c_order in (
        (gains.phu, rc.p_rel[:, None] * want[:m], True),
        (gains.txhd, tx[:, None] * want[m : 2 * m].T, False),
        (gains.pphk, pp_dir[:, None] * want[2 * m :], True),
    ):
        assert got.shape == ref.shape and np.array_equal(got, ref)
        assert got.tobytes(order="A") == ref.tobytes(order="A")
        assert got.flags.c_contiguous == c_order and got.flags.f_contiguous != c_order


def _batch(placements, cfg):
    """Stack lone placements of one UAV count into a batch with its gains."""
    rc = cfg.radio_constants
    gains = [rc.uav_gains(pl.uav_xyz, pl.uav_tx_w) for pl in placements]

    def stacked(parts, field):
        return np.array([getattr(part, field) for part in parts])

    fields = ("uav_xyz", "uav_tx_w", "assignment", "uav_channel", "direct_channel")
    return radio.Placement(
        *(stacked(placements, f) for f in fields),
        gains=radio.UavGains(*(stacked(gains, f) for f in ("phu", "txhd", "pphk"))),
    )


@pytest.mark.parametrize(("k", "n"), [(0, 1), (0, 4), (3, 1), (2, 5)])
def test_batched_rows_match_lone_calls_bytewise(k, n):
    rng = np.random.default_rng(20 + 10 * k + n)
    cfg = make_config(rng, m=7, k=k, n_min=n, n_max=n, u=2)
    placements = [make_placement(rng, cfg, n=n) for _ in range(6)]
    batch = _batch(placements, cfg)
    outputs = (radio.link_rates(batch, cfg), *radio.link_terms(batch, cfg))
    assert len(outputs) == 6 and all(out.shape == (6, cfg.m_pairs) for out in outputs)
    for b, pl in enumerate(placements):
        lone = (radio.link_rates(pl, cfg), *radio.link_terms(pl, cfg))
        for out, want in zip(outputs, lone):
            assert out[b].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad_slot", [-1, 3])
def test_bad_assignment_inside_a_batch_raises(bad_slot):
    rng = np.random.default_rng(30)
    cfg = make_config(rng, m=5, k=2, n_min=3, n_max=3)
    placements = [make_placement(rng, cfg, n=3) for _ in range(5)]
    placements[2].assignment[4] = bad_slot
    with pytest.raises(radio.RadioError, match="non-existent UAV"):
        radio.link_rates(_batch(placements, cfg), cfg)


def _padded_batch(placements, cfg):
    """Lone placements of several UAV counts as one batch padded to the
    widest, its gains gathered from one pass over every row's UAVs: a
    row's slots beyond its count repeat its last UAV."""
    counts = np.array([pl.n_uavs for pl in placements])
    slots = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    uavs = np.cumsum(counts)[:, None] - counts[:, None] + slots
    xyz = np.concatenate([pl.uav_xyz for pl in placements])
    tx_w = np.concatenate([pl.uav_tx_w for pl in placements])
    return radio.Placement(
        uav_xyz=xyz[uavs],
        uav_tx_w=tx_w[uavs],
        assignment=np.array([pl.assignment for pl in placements]),
        uav_channel=np.array([pl.uav_channel[row] for pl, row in zip(placements, slots)]),
        direct_channel=np.array([pl.direct_channel for pl in placements]),
        gains=cfg.radio_constants.uav_gains(xyz, tx_w).take(uavs),
        counts=counts,
    )


@pytest.mark.parametrize("scale", ["one", "two"])
def test_padded_rows_match_lone_calls_bytewise(scale, scale_one, scale_two):
    # counts across the 8-element block of numpy's pairwise sum, unsorted
    # and repeated; row 1 leaves its UAV 0 idle inside its own count, and
    # rows 2 to 4 put every UAV on one channel, so each downlink sum adds
    # several terms
    cfg = scale_one if scale == "one" else scale_two
    rng = np.random.default_rng(32)
    counts = [8, 5, 4, 6, 5, 8, 7, 4] if scale == "one" else [16, 8, 12, 9, 15, 8, 16, 11, 10, 13]
    placements = [make_placement(rng, cfg, n=n) for n in counts]
    placements[1].assignment = rng.integers(1, counts[1], cfg.m_pairs)
    for pl in placements[2:5]:
        pl.uav_channel[:] = 0
    batch = _padded_batch(placements, cfg)
    assert batch.n_uavs == max(counts)
    outputs = (radio.link_rates(batch, cfg), *radio.link_terms(batch, cfg))
    assert all(out.shape == (len(counts), cfg.m_pairs) for out in outputs)
    for b, pl in enumerate(placements):
        lone = (radio.link_rates(pl, cfg), *radio.link_terms(pl, cfg))
        for out, want in zip(outputs, lone):
            assert out[b].tobytes() == want.tobytes()


@pytest.mark.parametrize("pad_slot", [4, 7])
def test_assignment_to_a_padded_slot_raises(pad_slot):
    rng = np.random.default_rng(33)
    cfg = make_config(rng, m=5, k=2)
    batch = _padded_batch([make_placement(rng, cfg, n=n) for n in (8, 4, 6)], cfg)
    radio.link_rates(batch, cfg)
    batch.assignment[1, 3] = pad_slot  # row 1 holds 4 UAVs in 8 slots
    with pytest.raises(radio.RadioError, match="non-existent UAV"):
        radio.link_rates(batch, cfg)


@pytest.mark.parametrize("counts", [[8, 4, 9], [8, 0, 6], [8, 4]])
def test_counts_outside_the_batch_raise(counts):
    rng = np.random.default_rng(34)
    cfg = make_config(rng, m=5, k=2)
    batch = _padded_batch([make_placement(rng, cfg, n=n) for n in (8, 4, 6)], cfg)
    batch.counts = np.array(counts)
    with pytest.raises(radio.RadioError, match="counts must give"):
        radio.link_rates(batch, cfg)


@pytest.mark.parametrize(
    ("uav_channel", "direct_channel", "name"),
    [([5], [0], "uav_channel"), ([-1], [0], "uav_channel"), ([0], [7], "direct_channel")],
    ids=["uav-above", "uav-below", "direct-above"],
)
def test_out_of_range_channel_raises(uav_channel, direct_channel, name):
    # at U = 1 an out-of-range channel would otherwise match no other link
    rng = np.random.default_rng(31)
    cfg = make_config(rng, m=2, k=1, n_min=1, n_max=1, u=1)
    pl = make_placement(rng, cfg, n=1)
    radio.link_rates(pl, cfg)
    pl.uav_channel = np.array(uav_channel)
    pl.direct_channel = np.array(direct_channel)
    with pytest.raises(radio.RadioError, match=f"{name} references a non-existent channel"):
        radio.link_rates(pl, cfg)


def test_all_quantities_finite_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cfg = make_config(rng, m=4, k=2, n_min=n, n_max=n)
        pl = make_placement(rng, cfg, n=n)
        rates = radio.link_rates(pl, cfg)
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0)


def test_direct_only_capacity_isolated():
    rng = np.random.default_rng(12)
    cfg = make_config(rng, m=3, k=0, n_min=3, n_max=3, u=3)
    channels = [0, 1, 2]
    cap = radio.direct_only_capacity(cfg, channel_assignment=channels)
    expected = sum(
        CH.bandwidth_hz
        * math.log2(1.0 + p.tx_power_w * oracle.gain_ground(p.swd_xy, p.dwd_xy, CH) / CH.noise_w)
        for p in cfg.relayed_pairs
    )
    assert cap == pytest.approx(expected, rel=1e-12)


def test_direct_only_capacity_matches_oracle():
    rng = np.random.default_rng(13)
    cfg = make_config(rng, m=5, k=3, n_min=3, n_max=3, u=3)
    channels = rng.integers(0, 3, 5)
    dchan = rng.integers(0, 3, 3)
    cap = radio.direct_only_capacity(cfg, channel_assignment=channels, direct_channels=dchan)
    assert cap == pytest.approx(oracle.direct_only_capacity(cfg, channels, dchan), rel=1e-12)


@pytest.mark.parametrize(
    ("relayed", "direct", "match"),
    [
        ([0] * 9, [0, 0, 0], "channel_assignment must hold 10 channels"),
        ([0] * 10, [0], "direct_channels must hold 3 channels"),  # zip would truncate
        ([0] * 10, [0, 0, 0, 0], "direct_channels must hold 3 channels"),
        ([0] * 9 + [3], [0, 0, 0], "channel_assignment references a non-existent channel"),
        ([0] * 10, [9, 9, 9], "direct_channels references a non-existent channel"),
        ([0] * 10, [0, -1, 0], "direct_channels references a non-existent channel"),
    ],
)
def test_direct_only_capacity_checks_both_channel_arrays(scale_one, relayed, direct, match):
    radio.direct_only_capacity(scale_one, channel_assignment=[0] * 10, direct_channels=[0, 0, 0])
    with pytest.raises(radio.RadioError, match=match):
        radio.direct_only_capacity(scale_one, channel_assignment=relayed, direct_channels=direct)


def test_direct_only_capacity_seed_deterministic(scale_one):
    a = radio.direct_only_capacity(scale_one, seed=5)
    b = radio.direct_only_capacity(scale_one, seed=5)
    assert a == b


def test_comm_energy_efficiency():
    rng = np.random.default_rng(14)
    cfg = make_config(rng, m=2, k=0, n_min=1, n_max=1, u=1)
    without = radio.comm_energy_efficiency(1e6, [], cfg)
    assert without == pytest.approx(1e6 / 0.02, rel=1e-12)
    with_uav = radio.comm_energy_efficiency(1e6, np.array([0.98]), cfg)
    assert with_uav == pytest.approx(1e6 / 1.0, rel=1e-12)
