"""Analytic channel, interference, SINR, rate and capacity evaluation.

All functions are pure.  Indices are 0-based throughout: ``assignment[m]``
is the UAV index serving relayed pair ``m``, ``uav_channel[n]`` and
``direct_channel[k]`` are channel indices in ``0..U-1``.

The per-link scalar operations spell out each formula term by term and are
the reference surface; :func:`link_rates` is a vectorized equivalent used
on the hot path (solver objective evaluation).  It rates a batch of B
placements with one UAV count N in one call, as arrays with a leading
batch axis; a lone placement is a batch of one.  Each batch slice adds in
the order a lone placement's arrays do, so a placement's rates do not
depend on its batch.  A batch holds a few (B, N, M) arrays, so callers
bound B x N x M (``encoding.STAGE_ONE_GAINS``).

:meth:`RadioConstants.a2g_gains` evaluates the air-to-ground model
(Al-Hourani et al. 2014) from every ground point to a whole stage-one
pass of UAVs.  It works in place in two arrays of the pass's size, with
the ufuncs of the term-by-term expression in the same order, so a wide
pass costs little memory and gives the same bits as a narrow one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import ChannelParams, ScenarioConfig


class RadioError(ValueError):
    """Raised on degenerate geometry (coincident points) or bad indices."""


@dataclass(eq=False)
class UavGains:
    """Gain products of a run of UAVs that involve no discrete gene.

    Columns (rows of ``txhd``) follow the UAVs.  In a batch of placements
    each array carries a leading batch axis; :meth:`take` gathers one from
    the products of a stage-one pass.
    """

    phu: np.ndarray  # (M, N) relayed-SWD power x SWD -> UAV gain
    txhd: np.ndarray  # (N, M) UAV transmit power x UAV -> relayed-DWD gain
    pphk: np.ndarray  # (K, N) direct-SWD weighted power x direct SWD -> UAV gain

    def take(self, uavs: np.ndarray) -> "UavGains":
        """The batch of placements whose UAVs the (B, N) index ``uavs``
        picks from these lone products, each array C-ordered: the layouts
        of lone placements' products stacked, which :func:`link_rates`
        adds in the lone order."""
        return UavGains(
            np.ascontiguousarray(self.phu[:, uavs].transpose(1, 0, 2)),
            np.ascontiguousarray(self.txhd[uavs]),
            np.ascontiguousarray(self.pphk[:, uavs].transpose(1, 0, 2)),
        )


@dataclass(eq=False)
class Placement:
    """One concrete deployment: UAV states plus assignment and channels.

    ``gains`` holds the placement's :class:`UavGains` when they were
    computed beforehand (in a stage-one pass, see
    :func:`skyrelay.encoding.raw_objectives`) and must then match
    ``uav_xyz`` and ``uav_tx_w``; left None, :func:`link_rates` computes
    them.  A batch of B placements with one UAV
    count has the same fields with a leading axis of B, and its gains.
    """

    uav_xyz: np.ndarray  # (N, 3) m
    uav_tx_w: np.ndarray  # (N,) W
    assignment: np.ndarray  # (M,) int, UAV index per relayed pair
    uav_channel: np.ndarray  # (N,) int
    direct_channel: np.ndarray  # (K,) int
    gains: Optional[UavGains] = None

    @property
    def n_uavs(self) -> int:
        return self.uav_channel.shape[-1]


def path_loss_a2g(wd_xyz, uav_xyz, ch: ChannelParams) -> float:
    """Air-to-ground path loss in dB (elevation-angle LoS/NLoS blend)."""
    dx = wd_xyz[0] - uav_xyz[0]
    dy = wd_xyz[1] - uav_xyz[1]
    dz = wd_xyz[2] - uav_xyz[2]
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d == 0.0:
        raise RadioError("coincident WD and UAV positions")
    theta_deg = math.degrees(math.asin(uav_xyz[2] / d))
    los_term = (ch.eta_los - ch.eta_nlos) / (
        1.0 + ch.a * math.exp(-ch.b * (theta_deg - ch.a))
    )
    fspl = 20.0 * math.log10(4.0 * math.pi * ch.carrier_hz * d / ch.light_speed_m_s)
    return los_term + fspl + ch.eta_nlos


def gain_a2g(wd_xyz, uav_xyz, ch: ChannelParams) -> float:
    """Linear air-to-ground power gain."""
    return 10.0 ** (-path_loss_a2g(wd_xyz, uav_xyz, ch) / 10.0)


def gain_g2g(xy1, xy2, ch: ChannelParams) -> float:
    """Linear ground-to-ground power gain (reference-distance LoS model)."""
    d = math.hypot(xy1[0] - xy2[0], xy1[1] - xy2[1])
    if d == 0.0:
        raise RadioError("coincident ground positions")
    return ch.beta0 * d ** (-ch.alpha)


def _check_indices(pl: Placement, cfg: ScenarioConfig) -> np.ndarray:
    """Validate the index arrays of a placement or a batch; returns the
    number of relayed pairs each UAV serves, (N,) or (B, N)."""
    assign = pl.assignment
    if assign.shape[-1] != cfg.m_pairs:
        raise RadioError("assignment length != number of relayed pairs")
    if pl.direct_channel.shape[-1] != cfg.k_pairs:
        raise RadioError("direct_channel length != number of direct pairs")
    n = pl.n_uavs
    if assign.size and (assign.min() < 0 or assign.max() >= n):
        raise RadioError("assignment references a non-existent UAV")
    rows = assign.reshape(-1, cfg.m_pairs)
    offsets = n * np.arange(len(rows))[:, None]
    mu = np.bincount((rows + offsets).ravel(), minlength=len(rows) * n)
    return mu.reshape(assign.shape[:-1] + (n,))


def _swd3(pair) -> tuple[float, float, float]:
    return (pair.swd_xy[0], pair.swd_xy[1], 0.0)


def _dwd3(pair) -> tuple[float, float, float]:
    return (pair.dwd_xy[0], pair.dwd_xy[1], 0.0)


def exp_interference_at_uav(m: int, n: int, pl: Placement, cfg: ScenarioConfig) -> float:
    """Expected co-channel interference at UAV ``n`` while receiving pair ``m``.

    Co-channel served UAV groups contribute their SWDs' powers diluted by
    the round-robin duty factor; co-channel direct pairs contribute at
    their activity probability.
    """
    mu = _check_indices(pl, cfg)
    if pl.assignment[m] != n:
        raise RadioError(f"pair {m} is not assigned to UAV {n}")
    ch = cfg.channel
    c_n = pl.uav_channel[n]
    uav_n = pl.uav_xyz[n]
    total = 0.0
    for n_star in range(pl.n_uavs):
        if n_star == n or pl.uav_channel[n_star] != c_n or mu[n_star] == 0:
            continue
        for w in np.flatnonzero(pl.assignment == n_star):
            pair = cfg.relayed_pairs[w]
            total += pair.tx_power_w * gain_a2g(_swd3(pair), uav_n, ch) / mu[n_star]
    for k, pair in enumerate(cfg.direct_pairs):
        if pl.direct_channel[k] == c_n:
            total += pair.activity * pair.tx_power_w * gain_a2g(_swd3(pair), uav_n, ch)
    return total


def exp_sinr_uplink(m: int, n: int, pl: Placement, cfg: ScenarioConfig) -> float:
    """Expected SINR of the SWD-to-UAV leg of relayed pair ``m``."""
    pair = cfg.relayed_pairs[m]
    signal = pair.tx_power_w * gain_a2g(_swd3(pair), pl.uav_xyz[n], cfg.channel)
    return signal / (cfg.channel.noise_w + exp_interference_at_uav(m, n, pl, cfg))


def exp_sinr_downlink(n: int, m: int, pl: Placement, cfg: ScenarioConfig) -> float:
    """Expected SINR of the UAV-to-DWD leg of relayed pair ``m``.

    Cross-UAV interference carries each interfering UAV's own transmit
    power (idle UAVs transmit nothing); direct pairs interfere over the
    ground-to-ground channel.
    """
    mu = _check_indices(pl, cfg)
    if pl.assignment[m] != n:
        raise RadioError(f"pair {m} is not assigned to UAV {n}")
    ch = cfg.channel
    c_n = pl.uav_channel[n]
    dwd = _dwd3(cfg.relayed_pairs[m])
    interference = 0.0
    for n_star in range(pl.n_uavs):
        if n_star == n or pl.uav_channel[n_star] != c_n or mu[n_star] == 0:
            continue
        interference += pl.uav_tx_w[n_star] * gain_a2g(dwd, pl.uav_xyz[n_star], ch)
    for k, pair in enumerate(cfg.direct_pairs):
        if pl.direct_channel[k] == c_n:
            interference += pair.activity * pair.tx_power_w * gain_g2g(
                pair.swd_xy, dwd[:2], ch
            )
    signal = pl.uav_tx_w[n] * gain_a2g(dwd, pl.uav_xyz[n], ch)
    return signal / (ch.noise_w + interference)


def exp_sinr_direct_leg(m: int, pl: Placement, cfg: ScenarioConfig) -> float:
    """Expected SINR of the direct SWD-to-DWD leg of relayed pair ``m``.

    The leg shares the channel of the pair's assigned UAV; interfering
    SWDs of other co-channel UAV groups count with the round-robin duty
    factor, all over the ground-to-ground channel.
    """
    mu = _check_indices(pl, cfg)
    ch = cfg.channel
    n = pl.assignment[m]
    c_n = pl.uav_channel[n]
    pair_m = cfg.relayed_pairs[m]
    dwd = pair_m.dwd_xy
    interference = 0.0
    for n_star in range(pl.n_uavs):
        if n_star == n or pl.uav_channel[n_star] != c_n or mu[n_star] == 0:
            continue
        for w in np.flatnonzero(pl.assignment == n_star):
            pair_w = cfg.relayed_pairs[w]
            interference += (
                pair_w.tx_power_w * gain_g2g(pair_w.swd_xy, dwd, ch) / mu[n_star]
            )
    for k, pair in enumerate(cfg.direct_pairs):
        if pl.direct_channel[k] == c_n:
            interference += pair.activity * pair.tx_power_w * gain_g2g(
                pair.swd_xy, dwd, ch
            )
    signal = pair_m.tx_power_w * gain_g2g(pair_m.swd_xy, dwd, ch)
    return signal / (ch.noise_w + interference)


def link_rate(m: int, n: int, pl: Placement, cfg: ScenarioConfig) -> float:
    """Expected amplify-and-forward rate of pair ``m`` through UAV ``n`` (bps).

    Zero whenever the pair is not assigned to ``n``; the bandwidth is split
    by the half-duplex factor and the UAV's round-robin share.
    """
    mu = _check_indices(pl, cfg)
    if pl.assignment[m] != n:
        return 0.0
    mu_n = int(mu[n])
    g_direct = exp_sinr_direct_leg(m, pl, cfg)
    g_up = exp_sinr_uplink(m, n, pl, cfg)
    g_down = exp_sinr_downlink(n, m, pl, cfg)
    combined = 1.0 + g_direct + g_up * g_down / (1.0 + g_up + g_down)
    return cfg.channel.bandwidth_hz / (2.0 * mu_n) * math.log2(combined)


def _g2g_gain_matrix(src_xy: np.ndarray, dst_xy: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Ground gains from sources (q, 2) to destinations (r, 2); result (q, r).

    Scenario validation rejects a relayed DWD that coincides with a source
    device, the only entries that would divide by zero.
    """
    d = np.hypot(
        src_xy[:, 0][:, None] - dst_xy[None, :, 0],
        src_xy[:, 1][:, None] - dst_xy[None, :, 1],
    )
    return ch.beta0 * d ** (-ch.alpha)


class RadioConstants:
    """Arrays of one scenario that no placement changes.

    Built once per scenario and kept as ``cfg.radio_constants``.  Ground
    points are stacked as relayed SWDs, relayed DWDs, then direct SWDs, so
    one air-to-ground call covers every ground-to-UAV link.
    """

    def __init__(self, cfg: ScenarioConfig) -> None:
        ch = cfg.channel
        swd_rel = np.array([p.swd_xy for p in cfg.relayed_pairs])
        dwd_rel = np.array([p.dwd_xy for p in cfg.relayed_pairs])
        p_rel = np.array([p.tx_power_w for p in cfg.relayed_pairs])
        if cfg.k_pairs:
            swd_dir = np.array([p.swd_xy for p in cfg.direct_pairs])
            pp_dir = np.array([p.activity * p.tx_power_w for p in cfg.direct_pairs])
            gkr = _g2g_gain_matrix(swd_dir, dwd_rel, ch)
        else:
            swd_dir = np.empty((0, 2))
            pp_dir = np.empty(0)
            gkr = np.empty((0, cfg.m_pairs))
        grr = _g2g_gain_matrix(swd_rel, dwd_rel, ch)
        ground = np.vstack([swd_rel, dwd_rel, swd_dir])
        self.ground_x = ground[:, 0][:, None]
        self.ground_y = ground[:, 1][:, None]
        self.p_rel = p_rel
        self.pp_dir = pp_dir
        self.pp_gkr = pp_dir[:, None] * gkr  # direct SWD -> relayed DWD, weighted
        self.p_grr = p_rel[:, None] * grr  # relayed SWD -> relayed DWD, weighted
        self.p_grr_own = p_rel * np.diag(grr)  # each pair's own direct leg
        self.m_pairs = cfg.m_pairs
        self.n_ground = len(ground)
        self.pairs = np.arange(cfg.m_pairs)
        self.noise_w = ch.noise_w
        self.four_pi_fc = 4.0 * np.pi * ch.carrier_hz
        self.eta_gap = ch.eta_los - ch.eta_nlos
        self.ch = ch
        self._eye: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def eye(self, n_uavs: int) -> tuple[np.ndarray, np.ndarray]:
        """Identity of ``n_uavs`` UAVs, whose rows one-hot encode an
        assignment, and its off-diagonal mask; built once per count."""
        if n_uavs not in self._eye:
            eye = np.eye(n_uavs)
            self._eye[n_uavs] = (eye, eye == 0.0)
        return self._eye[n_uavs]

    def a2g_gains(self, uav_xyz: np.ndarray) -> np.ndarray:
        """Gains from every ground point to UAVs (N, 3); result (2M + K, N).

        The elevation-angle LoS/NLoS model of :func:`path_loss_a2g`, worked
        in place in two (2M + K, N) arrays: the ufuncs and their order are
        those of the expression with a temporary per step, so the result
        is the same to the bit, with a peak of about two arrays where that
        expression reached eight.
        """
        ch = self.ch
        z = uav_xyz[:, 2]
        d = np.subtract(self.ground_x, uav_xyz[:, 0])
        t = np.subtract(self.ground_y, uav_xyz[:, 1])
        np.multiply(d, d, out=d)
        np.multiply(t, t, out=t)
        np.add(d, t, out=d)
        np.add(d, z * z, out=d)
        np.sqrt(d, out=d)  # distance
        np.divide(z, d, out=t)
        np.arcsin(t, out=t)
        np.degrees(t, out=t)  # elevation angle
        np.subtract(t, ch.a, out=t)
        np.multiply(-ch.b, t, out=t)
        np.exp(t, out=t)
        np.multiply(ch.a, t, out=t)
        np.add(1.0, t, out=t)
        np.divide(self.eta_gap, t, out=t)  # LoS term
        np.multiply(self.four_pi_fc, d, out=d)
        np.divide(d, ch.light_speed_m_s, out=d)
        np.log10(d, out=d)
        np.multiply(20.0, d, out=d)  # free-space loss
        np.add(t, d, out=t)
        np.add(t, ch.eta_nlos, out=t)
        np.negative(t, out=t)
        np.divide(t, 10.0, out=t)
        return np.power(10.0, t, out=t)

    def uav_gains(self, uav_xyz: np.ndarray, uav_tx_w: np.ndarray) -> UavGains:
        """:class:`UavGains` of UAVs at ``uav_xyz`` (N, 3) transmitting ``uav_tx_w``.

        The products are weighted in place in row blocks of one gain array,
        so ``phu`` and ``pphk`` are C-ordered and ``txhd`` F-ordered.
        """
        m = self.m_pairs
        h = self.a2g_gains(uav_xyz)
        phu, txhd, pphk = h[:m], h[m : 2 * m].T, h[2 * m :]
        np.multiply(self.p_rel[:, None], phu, out=phu)
        np.multiply(uav_tx_w[:, None], txhd, out=txhd)
        np.multiply(self.pp_dir[:, None], pphk, out=pphk)
        return UavGains(phu, txhd, pphk)


def link_rates(pl: Placement, cfg: ScenarioConfig) -> np.ndarray:
    """Expected rate of every relayed pair through its assigned UAV (bps).

    Vectorized equivalent of ``link_rate(m, assignment[m])`` for all m:
    (M,) rates for a lone placement, (B, M) for a batch.
    """
    rc = cfg.radio_constants
    lone = pl.assignment.ndim == 1
    if lone:  # a batch of one, as views
        g = pl.gains if pl.gains is not None else rc.uav_gains(pl.uav_xyz, pl.uav_tx_w)
        fields = (pl.uav_xyz, pl.uav_tx_w, pl.assignment, pl.uav_channel, pl.direct_channel)
        pl = Placement(*(a[None] for a in fields), UavGains(g.phu[None], g.txhd[None], g.pphk[None]))
    mu = _check_indices(pl, cfg)  # (B, N)
    g = pl.gains
    sigma2 = rc.noise_w
    pairs = rc.pairs
    rows = np.arange(len(mu))[:, None]
    assign = pl.assignment
    uav_channel = pl.uav_channel
    tx_col = (mu > 0)[:, :, None]
    mu_col = np.maximum(mu, 1)[:, :, None]
    eye, off_diagonal = rc.eye(pl.n_uavs)

    # Each batch slice repeats the arithmetic of a lone placement in the
    # same order.  Each matmul slice gets the operand layouts BLAS gets for
    # a lone placement: the one-hot transposed (F-ordered), the gains
    # C-ordered.  The uplink and direct-leg sums run over a non-innermost
    # axis, the downlink sum along a contiguous one.
    one_hot_t = eye[assign].transpose(0, 2, 1)  # (B, N, M)
    pair_channel = uav_channel[rows, assign]  # (B, M)

    # Expected uplink interference is a property of the receiving UAV; the
    # direct legs see each UAV group's SWDs over the ground.  Rows of idle
    # UAVs are zero here, and up_mask and dn_mask drop them.
    group_up = one_hot_t @ np.ascontiguousarray(g.phu) / mu_col  # (B, N_tx_group, N_rx)
    group_g = one_hot_t @ rc.p_grr / mu_col  # (B, N, M)
    up_mask = (uav_channel[:, :, None] == uav_channel[:, None, :]) & off_diagonal & tx_col
    i_up_uav = (group_up * up_mask).sum(axis=1)  # (B, N)

    if cfg.k_pairs:
        direct_channel = pl.direct_channel[:, :, None]
        dir_on_uav = direct_channel == uav_channel[:, None, :]  # (B, K, N)
        i_up_uav = i_up_uav + (g.pphk * dir_on_uav).sum(axis=1)
        dir_on_pair = direct_channel == pair_channel[:, None, :]  # (B, K, M)
        i_dir_ground = (rc.pp_gkr * dir_on_pair).sum(axis=1)  # (B, M)
    else:
        i_dir_ground = np.zeros(assign.shape)

    gamma_up = g.phu[rows, pairs, assign] / (sigma2 + i_up_uav[rows, assign])

    # Downlink interference at each DWD from co-channel transmitting UAVs.
    # The mask is pair-major (B, M, N), so the product is too and its sum
    # over UAVs runs along the contiguous axis, as with the F-ordered txhd
    # of a lone placement.
    dn_mask = (pair_channel[:, :, None] == uav_channel[:, None, :]) & (mu > 0)[:, None, :]
    dn_mask[rows, pairs, assign] = False  # (B, M, N)
    i_dn = (g.txhd.transpose(0, 2, 1) * dn_mask).sum(axis=2) + i_dir_ground
    gamma_dn = g.txhd[rows, assign, pairs] / (sigma2 + i_dn)

    i_leg = (group_g * dn_mask.transpose(0, 2, 1)).sum(axis=1) + i_dir_ground
    gamma_direct = rc.p_grr_own / (sigma2 + i_leg)

    combined = 1.0 + gamma_direct + gamma_up * gamma_dn / (1.0 + gamma_up + gamma_dn)
    rates = cfg.channel.bandwidth_hz / (2.0 * mu[rows, assign]) * np.log2(combined)
    return rates[0] if lone else rates


def network_capacity(pl: Placement, cfg: ScenarioConfig) -> float:
    """Expected total network capacity (bps): sum of all relayed-link rates."""
    return float(link_rates(pl, cfg).sum())


def direct_only_capacity(
    cfg: ScenarioConfig,
    channel_assignment=None,
    seed: int = 0,
    direct_channels=None,
) -> float:
    """Capacity if every relayed pair transmits SWD-to-DWD with no UAVs (bps).

    Each relayed pair transmits at full duty on its assigned channel,
    interfered by co-channel relayed SWDs (full duty) and co-channel
    direct pairs (at their activity probability).  Channel assignments not
    given explicitly are drawn uniformly from ``seed``.
    """
    ch = cfg.channel
    rng = np.random.default_rng(seed)
    if channel_assignment is None:
        channel_assignment = rng.integers(0, cfg.u_channels, size=cfg.m_pairs)
    if direct_channels is None:
        direct_channels = rng.integers(0, cfg.u_channels, size=cfg.k_pairs)
    channels = np.asarray(channel_assignment)
    direct_channels = np.asarray(direct_channels)
    if len(channels) != cfg.m_pairs:
        raise RadioError("channel_assignment length != number of relayed pairs")
    if cfg.m_pairs and (channels.min() < 0 or channels.max() >= cfg.u_channels):
        raise RadioError("channel_assignment references a non-existent channel")
    total = 0.0
    for m, pair in enumerate(cfg.relayed_pairs):
        interference = 0.0
        for m2, other in enumerate(cfg.relayed_pairs):
            if m2 != m and channels[m2] == channels[m]:
                interference += other.tx_power_w * gain_g2g(other.swd_xy, pair.dwd_xy, ch)
        for dpair, dchan in zip(cfg.direct_pairs, direct_channels):
            if dchan == channels[m]:
                interference += dpair.activity * dpair.tx_power_w * gain_g2g(
                    dpair.swd_xy, pair.dwd_xy, ch
                )
        sinr = (
            pair.tx_power_w
            * gain_g2g(pair.swd_xy, pair.dwd_xy, ch)
            / (ch.noise_w + interference)
        )
        total += ch.bandwidth_hz * math.log2(1.0 + sinr)
    return total


def comm_energy_efficiency(capacity: float, uav_tx_w, cfg: ScenarioConfig) -> float:
    """Communication energy efficiency in bit/J.

    The denominator is the UAV transmit power ``uav_tx_w`` (empty when no
    UAVs relay) plus the relayed-SWD transmit power.
    """
    power = float(np.sum(uav_tx_w)) + sum(p.tx_power_w for p in cfg.relayed_pairs)
    if power <= 0.0:
        raise RadioError("total transmit power must be > 0")
    return capacity / power
