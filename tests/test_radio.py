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


def test_path_loss_anchor():
    pl = radio.path_loss_a2g((0, 0, 0), (0, 0, 200.0), CH)
    assert pl == pytest.approx(PL_200M_DB, abs=1e-12)
    assert pl == pytest.approx(oracle.path_loss_db((0, 0, 0), (0, 0, 200.0), CH), abs=1e-12)


def test_path_loss_monotone_overhead():
    low = radio.path_loss_a2g((0, 0, 0), (0, 0, 200.0), CH)
    high = radio.path_loss_a2g((0, 0, 0), (0, 0, 400.0), CH)
    assert high > low


def test_path_loss_symmetry():
    uav = (50.0, 50.0, 300.0)
    a = radio.path_loss_a2g((0.0, 50.0, 0.0), uav, CH)
    b = radio.path_loss_a2g((100.0, 50.0, 0.0), uav, CH)
    assert a == pytest.approx(b, rel=1e-15)


def test_path_loss_coincident_raises():
    with pytest.raises(radio.RadioError):
        radio.path_loss_a2g((0, 0, 200.0), (0, 0, 200.0), CH)


def test_gain_a2g_anchor():
    assert radio.gain_a2g((0, 0, 0), (0, 0, 200.0), CH) == pytest.approx(GAIN_200M, rel=1e-12)


def test_gain_g2g_values():
    assert radio.gain_g2g((0, 0), (1, 0), CH) == pytest.approx(1e-6, rel=1e-12)
    assert radio.gain_g2g((0, 0), (100, 0), CH) == pytest.approx(1e-10, rel=1e-12)
    g1 = radio.gain_g2g((0, 0), (80, 0), CH)
    g2 = radio.gain_g2g((0, 0), (160, 0), CH)
    assert g1 == pytest.approx(4 * g2, rel=1e-12)
    with pytest.raises(radio.RadioError):
        radio.gain_g2g((5, 5), (5, 5), CH)


def _single_uav_setup(k=0):
    rng = np.random.default_rng(0)
    cfg = make_config(rng, m=3, k=k, n_min=1, n_max=1, u=1)
    pl = make_placement(rng, cfg, n=1)
    return cfg, pl


def test_interference_single_uav_zero():
    cfg, pl = _single_uav_setup()
    assert radio.exp_interference_at_uav(0, 0, pl, cfg) == 0.0


def test_interference_two_uav_single_pairs():
    rng = np.random.default_rng(1)
    cfg = make_config(rng, m=2, k=0, n_min=2, n_max=2, u=1)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 1])
    pl.uav_channel = np.array([0, 0])
    # |W| = 1 collapses the duty factor: plain received power of the peer SWD
    other = cfg.relayed_pairs[1]
    expected = other.tx_power_w * radio.gain_a2g(
        (other.swd_xy[0], other.swd_xy[1], 0.0), pl.uav_xyz[0], CH
    )
    assert radio.exp_interference_at_uav(0, 0, pl, cfg) == pytest.approx(expected, rel=1e-12)


def test_interference_requires_assignment():
    rng = np.random.default_rng(2)
    cfg = make_config(rng, m=3, k=0, n_min=2, n_max=2, u=2)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 0, 0])
    with pytest.raises(radio.RadioError):
        radio.exp_interference_at_uav(0, 1, pl, cfg)


def test_sinr_uplink_no_interference():
    cfg, pl = _single_uav_setup()
    pair = cfg.relayed_pairs[0]
    signal = pair.tx_power_w * radio.gain_a2g(
        (pair.swd_xy[0], pair.swd_xy[1], 0.0), pl.uav_xyz[0], CH
    )
    assert radio.exp_sinr_uplink(0, 0, pl, cfg) == pytest.approx(signal / CH.noise_w, rel=1e-12)


def test_sinr_uplink_interferer_decreases():
    rng = np.random.default_rng(3)
    cfg = make_config(rng, m=2, k=1, n_min=1, n_max=1, u=1)
    pl = make_placement(rng, cfg, n=1)
    pl.assignment = np.array([0, 0])
    pl.direct_channel = np.array([0])
    with_dir = radio.exp_sinr_uplink(0, 0, pl, cfg)
    pl.direct_channel = np.array([1])
    without = radio.exp_sinr_uplink(0, 0, pl, cfg)
    assert with_dir < without


def test_sinr_downlink_single_uav():
    cfg, pl = _single_uav_setup()
    pair = cfg.relayed_pairs[0]
    signal = pl.uav_tx_w[0] * radio.gain_a2g(
        (pair.dwd_xy[0], pair.dwd_xy[1], 0.0), pl.uav_xyz[0], CH
    )
    assert radio.exp_sinr_downlink(0, 0, pl, cfg) == pytest.approx(signal / CH.noise_w, rel=1e-12)


def test_idle_uav_does_not_interfere():
    rng = np.random.default_rng(4)
    cfg = make_config(rng, m=2, k=0, n_min=2, n_max=2, u=1)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 0])  # UAV 1 serves nothing
    pl.uav_channel = np.array([0, 0])
    pair = cfg.relayed_pairs[0]
    signal = pair.tx_power_w * radio.gain_a2g(
        (pair.swd_xy[0], pair.swd_xy[1], 0.0), pl.uav_xyz[0], CH
    )
    assert radio.exp_sinr_uplink(0, 0, pl, cfg) == pytest.approx(signal / CH.noise_w, rel=1e-12)
    # the idle co-channel UAV transmits nothing on the downlink either
    assert radio.exp_sinr_downlink(0, 0, pl, cfg) == radio.exp_sinr_downlink(0, 0, pl, cfg)
    dn = radio.exp_sinr_downlink(0, 0, pl, cfg)
    expected = pl.uav_tx_w[0] * radio.gain_a2g(
        (pair.dwd_xy[0], pair.dwd_xy[1], 0.0), pl.uav_xyz[0], CH
    )
    assert dn == pytest.approx(expected / CH.noise_w, rel=1e-12)


def test_disjoint_channel_changes_nothing():
    rng = np.random.default_rng(5)
    cfg = make_config(rng, m=4, k=2, n_min=2, n_max=2, u=2)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 0, 1, 1])
    pl.uav_channel = np.array([0, 1])
    pl.direct_channel = np.array([1, 1])
    before = radio.link_rate(0, 0, pl, cfg)
    # co-channel set of UAV 0 is unchanged by anything on channel 1
    pl2 = make_placement(rng, cfg, n=2)
    pl2.uav_xyz = pl.uav_xyz.copy()
    pl2.uav_tx_w = pl.uav_tx_w.copy()
    pl2.assignment = pl.assignment.copy()
    pl2.uav_channel = pl.uav_channel.copy()
    pl2.direct_channel = np.array([1, 1])
    pl2.uav_tx_w[1] *= 0.5
    assert radio.link_rate(0, 0, pl2, cfg) == pytest.approx(before, rel=1e-12)


def test_link_rate_zero_when_unassigned():
    rng = np.random.default_rng(6)
    cfg = make_config(rng, m=3, k=0, n_min=2, n_max=2, u=2)
    pl = make_placement(rng, cfg, n=2)
    pl.assignment = np.array([0, 0, 0])
    assert radio.link_rate(0, 1, pl, cfg) == 0.0


def test_link_rate_halves_when_shared():
    rng = np.random.default_rng(7)
    cfg1 = make_config(rng, m=1, k=0, n_min=1, n_max=1, u=1)
    pl1 = make_placement(rng, cfg1, n=1)
    alone = radio.link_rate(0, 0, pl1, cfg1)
    # duplicate the pair; both share the single UAV without adding
    # co-channel interference (same group), so only mu changes
    cfg2 = make_config(np.random.default_rng(7), m=2, k=0, n_min=1, n_max=1, u=1)
    cfg2 = type(cfg2)(
        **{
            **{f: getattr(cfg2, f) for f in (
                "n_min", "n_max", "u_channels", "l_min_m", "l_max_m", "z_min_m",
                "z_max_m", "v_min_m_s", "v_max_m_s", "p_min_w", "p_max_w", "t_th_s",
                "channel", "energy",
            )},
            "relayed_pairs": (cfg1.relayed_pairs[0], cfg1.relayed_pairs[0]),
            "direct_pairs": (),
        }
    )
    pl2 = radio.Placement(
        uav_xyz=pl1.uav_xyz.copy(),
        uav_tx_w=pl1.uav_tx_w.copy(),
        assignment=np.array([0, 0]),
        uav_channel=pl1.uav_channel.copy(),
        direct_channel=np.empty(0, dtype=int),
    )
    assert radio.link_rate(0, 0, pl2, cfg2) == pytest.approx(alone / 2.0, rel=1e-12)


def test_capacity_equals_sum_and_relabel_invariant():
    rng = np.random.default_rng(8)
    cfg = make_config(rng, m=5, k=2, n_min=3, n_max=3, u=2)
    pl = make_placement(rng, cfg, n=3)
    cap = radio.network_capacity(pl, cfg)
    total = sum(radio.link_rate(m, int(pl.assignment[m]), pl, cfg) for m in range(5))
    assert cap == pytest.approx(total, rel=1e-12)
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


def test_scalar_ops_match_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(0, 4))
        n = int(rng.integers(1, 4))
        u = int(rng.integers(1, 4))
        cfg = make_config(rng, m=m, k=k, n_min=n, n_max=n, u=u)
        pl = make_placement(rng, cfg, n=n)
        for i in range(m):
            ni = int(pl.assignment[i])
            assert radio.exp_interference_at_uav(i, ni, pl, cfg) == pytest.approx(
                oracle.interference_up(i, ni, pl, cfg), rel=1e-12, abs=0
            )
            assert radio.exp_sinr_uplink(i, ni, pl, cfg) == pytest.approx(
                oracle.sinr_up(i, ni, pl, cfg), rel=1e-12
            )
            assert radio.exp_sinr_downlink(ni, i, pl, cfg) == pytest.approx(
                oracle.sinr_down(ni, i, pl, cfg), rel=1e-12
            )
            assert radio.exp_sinr_direct_leg(i, pl, cfg) == pytest.approx(
                oracle.sinr_direct_leg(i, pl, cfg), rel=1e-12
            )
            assert radio.link_rate(i, ni, pl, cfg) == pytest.approx(
                oracle.rate(i, ni, pl, cfg), rel=1e-12
            )
        assert radio.network_capacity(pl, cfg) == pytest.approx(
            oracle.capacity(pl, cfg), rel=1e-12
        )


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        cfg = make_config(rng, m=int(rng.integers(1, 8)), k=int(rng.integers(0, 4)), n_min=n, n_max=n)
        pl = make_placement(rng, cfg, n=n)
        vec = radio.link_rates(pl, cfg)
        scal = np.array(
            [radio.link_rate(m, int(pl.assignment[m]), pl, cfg) for m in range(cfg.m_pairs)]
        )
        np.testing.assert_allclose(vec, scal, rtol=1e-12, atol=0)


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
    rates = radio.link_rates(_batch(placements, cfg), cfg)
    assert rates.shape == (6, cfg.m_pairs)
    for pl, row in zip(placements, rates):
        assert row.tobytes() == radio.link_rates(pl, cfg).tobytes()


@pytest.mark.parametrize("bad_slot", [-1, 3])
def test_bad_assignment_inside_a_batch_raises(bad_slot):
    rng = np.random.default_rng(30)
    cfg = make_config(rng, m=5, k=2, n_min=3, n_max=3)
    placements = [make_placement(rng, cfg, n=3) for _ in range(5)]
    placements[2].assignment[4] = bad_slot
    with pytest.raises(radio.RadioError, match="non-existent UAV"):
        radio.link_rates(_batch(placements, cfg), cfg)


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
        * math.log2(1.0 + p.tx_power_w * radio.gain_g2g(p.swd_xy, p.dwd_xy, CH) / CH.noise_w)
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
