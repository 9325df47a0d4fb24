"""Independent reference implementations used to cross-check the package.

Everything here but :func:`lone_objectives` is written directly from the
model definitions with plain loops over explicit interferer sets, favoring
obviousness over speed, and shares no code with ``skyrelay``.
:func:`a2g_gains`, :func:`classic_fronts`, :func:`sbx`,
:func:`poly_mutation`, :func:`nsga3_niching` and :func:`repair_continuous`
are earlier versions of ``skyrelay`` kernels, kept as bit-for-bit
references for the faster ones.
:func:`lone_objectives` is the earlier per-solution scoring, built from
``skyrelay``'s lone-placement entry points.  :func:`hypervolume` counts
grid cells, the slow check of the dimension sweep.
"""

from __future__ import annotations

import math

import numpy as np


def path_loss_db(wd_xyz, uav_xyz, ch) -> float:
    dx, dy, dz = (wd_xyz[i] - uav_xyz[i] for i in range(3))
    d = math.sqrt(dx**2 + dy**2 + dz**2)
    theta = math.degrees(math.asin(uav_xyz[2] / d))
    sig = (ch.eta_los - ch.eta_nlos) / (1.0 + ch.a * math.exp(-ch.b * (theta - ch.a)))
    return sig + 20.0 * math.log10(4.0 * math.pi * ch.carrier_hz * d / ch.light_speed_m_s) + ch.eta_nlos


def gain_air(wd_xyz, uav_xyz, ch) -> float:
    return 10.0 ** (-path_loss_db(wd_xyz, uav_xyz, ch) / 10.0)


def a2g_gains(ground_x, ground_y, uav_xyz, ch) -> np.ndarray:
    """Air-to-ground gains from ground points (columns (G, 1) of x and y) to
    UAVs (N, 3), one temporary per step: the earlier
    ``RadioConstants.a2g_gains``."""
    dx = ground_x - uav_xyz[None, :, 0]
    dy = ground_y - uav_xyz[None, :, 1]
    z = uav_xyz[None, :, 2]
    d = np.sqrt(dx * dx + dy * dy + z * z)
    theta_deg = np.degrees(np.arcsin(z / d))
    los_term = (ch.eta_los - ch.eta_nlos) / (1.0 + ch.a * np.exp(-ch.b * (theta_deg - ch.a)))
    fspl = 20.0 * np.log10(4.0 * np.pi * ch.carrier_hz * d / ch.light_speed_m_s)
    return 10.0 ** (-(los_term + fspl + ch.eta_nlos) / 10.0)


def gain_ground(xy1, xy2, ch) -> float:
    d = math.sqrt((xy1[0] - xy2[0]) ** 2 + (xy1[1] - xy2[1]) ** 2)
    return ch.beta0 * d ** (-ch.alpha)


def _swd3(pair):
    return (pair.swd_xy[0], pair.swd_xy[1], 0.0)


def _dwd3(pair):
    return (pair.dwd_xy[0], pair.dwd_xy[1], 0.0)


def _groups(pl):
    """UAV index -> list of relayed-pair indices it serves."""
    groups = {n: [] for n in range(len(pl.uav_xyz))}
    for m, n in enumerate(pl.assignment):
        groups[int(n)].append(m)
    return groups


def _cochannel_uavs(pl, n):
    c = pl.uav_channel[n]
    return [n2 for n2 in range(len(pl.uav_xyz)) if n2 != n and pl.uav_channel[n2] == c]


def _cochannel_directs(pl, cfg, n):
    c = pl.uav_channel[n]
    return [k for k in range(cfg.k_pairs) if pl.direct_channel[k] == c]


def interference_up(m, n, pl, cfg) -> float:
    groups = _groups(pl)
    uav = pl.uav_xyz[n]
    total = 0.0
    for n2 in _cochannel_uavs(pl, n):
        members = groups[n2]
        for w in members:
            pair = cfg.relayed_pairs[w]
            total += pair.tx_power_w * gain_air(_swd3(pair), uav, cfg.channel) / len(members)
    for k in _cochannel_directs(pl, cfg, n):
        pair = cfg.direct_pairs[k]
        total += pair.activity * pair.tx_power_w * gain_air(_swd3(pair), uav, cfg.channel)
    return total


def sinr_up(m, n, pl, cfg) -> float:
    pair = cfg.relayed_pairs[m]
    signal = pair.tx_power_w * gain_air(_swd3(pair), pl.uav_xyz[n], cfg.channel)
    return signal / (cfg.channel.noise_w + interference_up(m, n, pl, cfg))


def sinr_down(n, m, pl, cfg) -> float:
    groups = _groups(pl)
    dwd = _dwd3(cfg.relayed_pairs[m])
    total = 0.0
    for n2 in _cochannel_uavs(pl, n):
        if groups[n2]:
            total += pl.uav_tx_w[n2] * gain_air(dwd, pl.uav_xyz[n2], cfg.channel)
    for k in _cochannel_directs(pl, cfg, n):
        pair = cfg.direct_pairs[k]
        total += pair.activity * pair.tx_power_w * gain_ground(pair.swd_xy, dwd[:2], cfg.channel)
    signal = pl.uav_tx_w[n] * gain_air(dwd, pl.uav_xyz[n], cfg.channel)
    return signal / (cfg.channel.noise_w + total)


def sinr_direct_leg(m, pl, cfg) -> float:
    n = int(pl.assignment[m])
    groups = _groups(pl)
    me = cfg.relayed_pairs[m]
    total = 0.0
    for n2 in _cochannel_uavs(pl, n):
        members = groups[n2]
        for w in members:
            pair = cfg.relayed_pairs[w]
            total += pair.tx_power_w * gain_ground(pair.swd_xy, me.dwd_xy, cfg.channel) / len(members)
    for k in _cochannel_directs(pl, cfg, n):
        pair = cfg.direct_pairs[k]
        total += pair.activity * pair.tx_power_w * gain_ground(pair.swd_xy, me.dwd_xy, cfg.channel)
    signal = me.tx_power_w * gain_ground(me.swd_xy, me.dwd_xy, cfg.channel)
    return signal / (cfg.channel.noise_w + total)


def rate(m, n, pl, cfg) -> float:
    if int(pl.assignment[m]) != n:
        return 0.0
    mu = len(_groups(pl)[n])
    g1 = sinr_up(m, n, pl, cfg)
    g2 = sinr_down(n, m, pl, cfg)
    g0 = sinr_direct_leg(m, pl, cfg)
    combined = 1.0 + g0 + g1 * g2 / (1.0 + g1 + g2)
    return cfg.channel.bandwidth_hz / (2.0 * mu) * math.log2(combined)


def capacity(pl, cfg) -> float:
    total = 0.0
    for m in range(cfg.m_pairs):
        for n in range(len(pl.uav_xyz)):
            total += rate(m, n, pl, cfg)
    return total


def direct_only_capacity(cfg, channels, direct_channels) -> float:
    total = 0.0
    for m, pair in enumerate(cfg.relayed_pairs):
        interference = 0.0
        for m2, other in enumerate(cfg.relayed_pairs):
            if m2 != m and channels[m2] == channels[m]:
                interference += other.tx_power_w * gain_ground(other.swd_xy, pair.dwd_xy, cfg.channel)
        for k, dpair in enumerate(cfg.direct_pairs):
            if direct_channels[k] == channels[m]:
                interference += dpair.activity * dpair.tx_power_w * gain_ground(
                    dpair.swd_xy, pair.dwd_xy, cfg.channel
                )
        signal = pair.tx_power_w * gain_ground(pair.swd_xy, pair.dwd_xy, cfg.channel)
        total += cfg.channel.bandwidth_hz * math.log2(1.0 + signal / (cfg.channel.noise_w + interference))
    return total


def propulsion_power(v, ep) -> float:
    blade = ep.p_blade_w * (1.0 + 3.0 * v**2 / ep.tip_speed_m_s**2)
    v0 = ep.rotor_induced_v_m_s
    induced = ep.p_induced_w * math.sqrt(
        math.sqrt(1.0 + v**4 / (4.0 * v0**4)) - v**2 / (2.0 * v0**2)
    )
    parasite = 0.5 * ep.drag_ratio * ep.air_density_kg_m3 * ep.rotor_solidity * ep.disk_area_m2 * v**3
    return blade + induced + parasite


def flight_energy(dest_xyz, speed, origin_xyz, ep) -> float:
    """Constant-speed straight-line flight: propulsion power times flight
    time, plus the potential term of the altitude gain."""
    distance = math.dist(dest_xyz, origin_xyz)
    flight_time = distance / speed
    potential = ep.uav_mass_kg * ep.gravity_m_s2 * (dest_xyz[2] - origin_xyz[2])
    return propulsion_power(speed, ep) * flight_time + potential


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and a != tuple(b)


def slow_fronts(keys) -> list[list[int]]:
    """O(n^2) peeling classifier: repeatedly remove the non-dominated set."""
    keys = [tuple(k) for k in keys]
    remaining = list(range(len(keys)))
    fronts = []
    while remaining:
        level = [
            i
            for i in remaining
            if not any(
                dominates(keys[j], keys[i]) and keys[j] != keys[i] for j in remaining if j != i
            )
        ]
        # equal vectors never dominate each other, keep them in one level
        fronts.append(level)
        taken = set(level)
        remaining = [i for i in remaining if i not in taken]
    return fronts


def classic_fronts(pop) -> list[list[int]]:
    """Constrained-domination fronts by the classic per-member peel (Deb et
    al., IEEE TEVC 2002), as indices into ``pop``.

    Within a front, members appear in the order the peel releases them.
    """
    n = len(pop)
    keys = np.array([ind.key() for ind in pop])
    viol = np.array([ind.objectives.violation for ind in pop])
    le = (keys[:, None, :] <= keys[None, :, :]).all(axis=2)
    lt = (keys[:, None, :] < keys[None, :, :]).any(axis=2)
    dom = (viol[:, None] < viol[None, :]) | ((viol[:, None] == viol[None, :]) & le & lt)
    dominated_by = [list(np.flatnonzero(dom[i])) for i in range(n)]
    dom_count = [int(dom[:, i].sum()) for i in range(n)]
    fronts = []
    current = [i for i in range(n) if dom_count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def sbx(p1, p2, lower, upper, eta_c, pc, rng):
    """Simulated binary crossover on numpy scalars, one gene at a time."""
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() >= pc:
        return c1, c2
    for i in range(len(p1)):
        if rng.random() >= 0.5:
            continue
        x1, x2 = p1[i], p2[i]
        if abs(x1 - x2) < 1e-14:
            continue
        lo, hi = min(x1, x2), max(x1, x2)
        u = rng.random()
        beta = 1.0 + 2.0 * (lo - lower[i]) / (hi - lo)
        alpha = 2.0 - beta ** -(eta_c + 1.0)
        betaq = (
            (u * alpha) ** (1.0 / (eta_c + 1.0))
            if u <= 1.0 / alpha
            else (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta_c + 1.0))
        )
        child_lo = 0.5 * ((lo + hi) - betaq * (hi - lo))
        beta = 1.0 + 2.0 * (upper[i] - hi) / (hi - lo)
        alpha = 2.0 - beta ** -(eta_c + 1.0)
        betaq = (
            (u * alpha) ** (1.0 / (eta_c + 1.0))
            if u <= 1.0 / alpha
            else (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta_c + 1.0))
        )
        child_hi = 0.5 * ((lo + hi) + betaq * (hi - lo))
        if rng.random() < 0.5:
            child_lo, child_hi = child_hi, child_lo
        c1[i] = min(max(child_lo, lower[i]), upper[i])
        c2[i] = min(max(child_hi, lower[i]), upper[i])
    return c1, c2


def poly_mutation(x, lower, upper, eta_m, pm, rng):
    """Bounded polynomial mutation on numpy scalars, one gene at a time."""
    out = x.copy()
    for i in range(len(x)):
        if rng.random() >= pm:
            continue
        lo, hi = lower[i], upper[i]
        span = hi - lo
        if span <= 0.0:
            continue
        u = rng.random()
        delta1 = (out[i] - lo) / span
        delta2 = (hi - out[i]) / span
        mut_pow = 1.0 / (eta_m + 1.0)
        if u < 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta1) ** (eta_m + 1.0)
            deltaq = val**mut_pow - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta2) ** (eta_m + 1.0)
            deltaq = 1.0 - val**mut_pow
        out[i] = min(max(out[i] + deltaq * span, lo), hi)
    return out


def repair_continuous(genes, cfg, rng):
    """Out-of-bounds continuous genes resampled one axis at a time, each
    axis's bounds from the scenario: a copy of ``genes`` (rows laid out
    x|y|z|p|v) in which each bad gene takes the uniform at its own position
    of one block the shape of ``genes``."""
    out = np.array(genes, dtype=float)
    u = rng.random(out.shape)
    n = cfg.n_max
    for k, (lo, hi) in enumerate(
        (
            (cfg.l_min_m, cfg.l_max_m),
            (cfg.l_min_m, cfg.l_max_m),
            (cfg.z_min_m, cfg.z_max_m),
            (cfg.p_min_w, cfg.p_max_w),
            (cfg.v_min_m_s, cfg.v_max_m_s),
        )
    ):
        arr, draws = out[..., k * n : (k + 1) * n], u[..., k * n : (k + 1) * n]
        bad = (arr < lo) | (arr > hi) | ~np.isfinite(arr)
        arr[bad] = lo + draws[bad] * (hi - lo)
    return out


def hypervolume(points, ref) -> float:
    """Volume dominated by minimised ``points`` below ``ref``, counted cell by
    cell over the grid of the points' distinct coordinates and ``ref``: a
    cell counts when some point is at or below its lower corner in every
    objective."""
    pts = [p for p in map(tuple, points) if all(a < r for a, r in zip(p, ref))]
    axes = [sorted({p[j] for p in pts} | {ref[j]}) for j in range(3)]
    volume = 0.0
    for x0, x1 in zip(axes[0], axes[0][1:]):
        for y0, y1 in zip(axes[1], axes[1][1:]):
            for z0, z1 in zip(axes[2], axes[2][1:]):
                if any(p[0] <= x0 and p[1] <= y0 and p[2] <= z0 for p in pts):
                    volume += (x1 - x0) * (y1 - y0) * (z1 - z0)
    return volume


def nsga3_niching(n_chosen, niche_of, distance, n_refs, target, rng) -> list[int]:
    """Pool indices NSGA-III niching adds after the first ``n_chosen``.

    The earlier loop: it rebuilds the live niches, their counts and the
    member list from the set of remaining candidates for every pick.
    """
    niche_count = np.zeros(n_refs, dtype=int)
    for idx in range(n_chosen):
        niche_count[niche_of[idx]] += 1
    remaining = {n_chosen + i for i in range(len(niche_of) - n_chosen)}
    picks = []
    while n_chosen + len(picks) < target:
        live_niches = sorted({niche_of[i] for i in remaining})
        counts = np.array([niche_count[j] for j in live_niches])
        least = [j for j, c in zip(live_niches, counts) if c == counts.min()]
        niche = least[int(rng.integers(len(least)))]
        members = [i for i in remaining if niche_of[i] == niche]
        if niche_count[niche] == 0:
            pick = min(members, key=lambda i: distance[i])
        else:
            pick = members[int(rng.integers(len(members)))]
        picks.append(pick)
        remaining.remove(pick)
        niche_count[niche] += 1
    return picks


def lone_objectives(sol, cfg) -> tuple[float, float, float, bool, float]:
    """(neg_f1, f2, f3, feasible, violation) of one solution scored alone.

    The per-solution scoring that grouped scoring replaced: the rates of
    the lone placement, their sum, the mean and spread of the lone flight
    plan's per-UAV energies and times, then the fixed penalties.
    """
    from skyrelay import encoding, radio

    plan = encoding.to_flight_plan(sol, cfg)
    neg_f1 = -float(radio.link_rates(encoding.to_placement(sol, cfg), cfg).sum())
    f2 = float(sol.n_active)
    f3 = float(plan.energies.sum()) / plan.n_uavs
    spread = float(plan.times.max() - plan.times.min())
    feasible = spread <= cfg.t_th_s
    violation = 0.0
    if not feasible:
        neg_f1 += encoding.PENALTY_NEG_F1
        f2 += encoding.PENALTY_F2
        f3 += encoding.PENALTY_F3
        violation = spread - cfg.t_th_s
    return neg_f1, f2, f3, feasible, violation
