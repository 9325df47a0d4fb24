"""Analytic channel, interference, SINR, rate and capacity evaluation.

All functions are pure.  Indices are 0-based throughout: ``assignment[m]``
is the UAV index serving relayed pair ``m``, ``uav_channel[n]`` and
``direct_channel[k]`` are channel indices in ``0..U-1``.

The model is implemented once: :func:`link_terms` gives every relayed
pair's uplink interference, SINRs and round-robin share, and
:func:`link_rates` reduces them to rates.  ``tests/oracle.py`` spells out
each formula term by term with plain loops and is the reference they are
checked against.  Both take a batch of B placements as arrays with a
leading batch axis, padded to the batch's widest UAV count N; a lone
placement is a batch of one.  Each batch slice adds in the order a lone
placement's arrays do, and a padded slot serves no pair, so it only adds
zeros after a row's own terms; the one sum that padding would regroup,
the downlink interference along the UAV axis, is taken per UAV count.  A
placement's terms therefore do not depend on its batch.  A batch holds a
few (B, N, M) arrays, so callers bound B x N x M (``encoding.RATE_BATCH``).

:meth:`RadioConstants.a2g_gains` evaluates the air-to-ground model
(Al-Hourani et al. 2014) from every ground point to a whole stage-one
pass of UAVs.  It works in place in two arrays of the pass's size, with
the ufuncs of the term-by-term expression in the same order, so a wide
pass costs little memory and gives the same bits as a narrow one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import count_sums
from .scenario import ChannelParams, ScenarioConfig


class RadioError(ValueError):
    """Raised on bad index or channel arrays, or a non-positive power total."""


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
    them.  A batch of B placements has the same fields with a leading
    axis of B, and its gains, padded to its widest placement: ``counts``
    (B,) gives each row's UAV count (all N when None).  No pair is assigned
    to a slot at or beyond its row's count; such slots repeat the row's
    last UAV, so their gains are finite.
    """

    uav_xyz: np.ndarray  # (N, 3) m
    uav_tx_w: np.ndarray  # (N,) W
    assignment: np.ndarray  # (M,) int, UAV index per relayed pair
    uav_channel: np.ndarray  # (N,) int
    direct_channel: np.ndarray  # (K,) int
    gains: Optional[UavGains] = None
    counts: Optional[np.ndarray] = None  # (B,) int, UAVs per batch row

    @property
    def n_uavs(self) -> int:
        return self.uav_channel.shape[-1]


def _check_indices(pl: Placement, cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Validate the index arrays of a batch; returns each row's UAV count,
    (B,), and the number of relayed pairs each UAV serves, (B, N)."""
    assign = pl.assignment
    if assign.shape[-1] != cfg.m_pairs:
        raise RadioError("assignment length != number of relayed pairs")
    if pl.direct_channel.shape[-1] != cfg.k_pairs:
        raise RadioError("direct_channel length != number of direct pairs")
    n = pl.n_uavs
    counts = pl.counts
    if counts is None:
        counts = np.full(len(assign), n)
    elif counts.shape != (len(assign),) or counts.min() < 1 or counts.max() > n:
        raise RadioError("counts must give each batch row a UAV count in 1..N")
    if assign.size and (assign.min() < 0 or (assign >= counts[:, None]).any()):
        raise RadioError("assignment references a non-existent UAV")
    for name, channels in (("uav_channel", pl.uav_channel), ("direct_channel", pl.direct_channel)):
        if channels.size and (channels.min() < 0 or channels.max() >= cfg.u_channels):
            raise RadioError(f"{name} references a non-existent channel")
    offsets = n * np.arange(len(assign))[:, None]
    mu = np.bincount((assign + offsets).ravel(), minlength=len(assign) * n)
    return counts, mu.reshape(len(assign), n)


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

        The elevation-angle LoS/NLoS path loss plus free-space loss,
        worked in place in two (2M + K, N) arrays: the ufuncs and their
        order are those of the expression with a temporary per step, so
        the result is the same to the bit, with a peak of about two arrays
        where that expression reached eight.
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


def link_terms(pl: Placement, cfg: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """Per-pair terms of every relayed pair through its assigned UAV.

    Returns ``(i_up, gamma_up, gamma_dn, gamma_direct, mu)``, each (M,) for
    a lone placement and (B, M) for a batch: the expected co-channel
    interference at the serving UAV (W), the expected uplink, downlink and
    direct-leg SINRs, and the number of pairs the serving UAV serves.
    """
    rc = cfg.radio_constants
    lone = pl.assignment.ndim == 1
    if lone:  # a batch of one, as views
        g = pl.gains if pl.gains is not None else rc.uav_gains(pl.uav_xyz, pl.uav_tx_w)
        fields = (pl.uav_xyz, pl.uav_tx_w, pl.assignment, pl.uav_channel, pl.direct_channel)
        pl = Placement(*(a[None] for a in fields), UavGains(g.phu[None], g.txhd[None], g.pphk[None]))
    counts, mu = _check_indices(pl, cfg)  # (B,), (B, N)
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
    # C-ordered; a padded slot adds an idle one-hot row and a gain column,
    # which leave the other entries' bits as they are.  The uplink and
    # direct-leg sums run over a non-innermost axis, so a padded slot only
    # adds a trailing +0.0; the downlink sum runs along a contiguous one,
    # over each row's own slots.
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

    i_up = i_up_uav[rows, assign]
    gamma_up = g.phu[rows, pairs, assign] / (sigma2 + i_up)

    # Downlink interference at each DWD from co-channel transmitting UAVs.
    # The mask is pair-major (B, M, N), so the product is too and its sum
    # over UAVs runs along the contiguous axis, as with the F-ordered txhd
    # of a lone placement.
    dn_mask = (pair_channel[:, :, None] == uav_channel[:, None, :]) & (mu > 0)[:, None, :]
    dn_mask[rows, pairs, assign] = False  # (B, M, N)
    i_dn = count_sums(g.txhd.transpose(0, 2, 1) * dn_mask, counts) + i_dir_ground
    gamma_dn = g.txhd[rows, assign, pairs] / (sigma2 + i_dn)

    i_leg = (group_g * dn_mask.transpose(0, 2, 1)).sum(axis=1) + i_dir_ground
    gamma_direct = rc.p_grr_own / (sigma2 + i_leg)

    terms = (i_up, gamma_up, gamma_dn, gamma_direct, mu[rows, assign])
    return tuple(t[0] for t in terms) if lone else terms


def link_rates(pl: Placement, cfg: ScenarioConfig) -> np.ndarray:
    """Expected amplify-and-forward rate of every relayed pair through its
    assigned UAV (bps): (M,) rates for a lone placement, (B, M) for a batch.

    The bandwidth is split by the half-duplex factor and the UAV's
    round-robin share.
    """
    _, gamma_up, gamma_dn, gamma_direct, mu = link_terms(pl, cfg)
    combined = 1.0 + gamma_direct + gamma_up * gamma_dn / (1.0 + gamma_up + gamma_dn)
    return cfg.channel.bandwidth_hz / (2.0 * mu) * np.log2(combined)


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
    rng = np.random.default_rng(seed)
    if channel_assignment is None:
        channel_assignment = rng.integers(0, cfg.u_channels, size=cfg.m_pairs)
    if direct_channels is None:
        direct_channels = rng.integers(0, cfg.u_channels, size=cfg.k_pairs)
    channels = np.asarray(channel_assignment)
    direct_channels = np.asarray(direct_channels)
    for name, chans, size in (
        ("channel_assignment", channels, cfg.m_pairs),
        ("direct_channels", direct_channels, cfg.k_pairs),
    ):
        if chans.shape != (size,):
            raise RadioError(f"{name} must hold {size} channels, got shape {chans.shape}")
        if size and (chans.min() < 0 or chans.max() >= cfg.u_channels):
            raise RadioError(f"{name} references a non-existent channel")
    rc = cfg.radio_constants
    # [source, relayed pair]: relayed SWDs other than the pair's own, and
    # direct SWDs, on the pair's channel
    co_channel = channels[:, None] == channels
    np.fill_diagonal(co_channel, False)
    interference = (rc.p_grr * co_channel).sum(axis=0)
    interference += (rc.pp_gkr * (direct_channels[:, None] == channels)).sum(axis=0)
    sinr = rc.p_grr_own / (rc.noise_w + interference)
    return float(cfg.channel.bandwidth_hz * np.log2(1.0 + sinr).sum())


def comm_energy_efficiency(capacity: float, uav_tx_w, cfg: ScenarioConfig) -> float:
    """Communication energy efficiency in bit/J.

    The denominator is the UAV transmit power ``uav_tx_w`` (empty when no
    UAVs relay) plus the relayed-SWD transmit power.
    """
    power = float(np.sum(uav_tx_w)) + sum(p.tx_power_w for p in cfg.relayed_pairs)
    if power <= 0.0:
        raise RadioError("total transmit power must be > 0")
    return capacity / power
