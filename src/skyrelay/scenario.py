"""World description: device pairs, channel/energy parameters, bounds and counts.

A :class:`ScenarioConfig` is immutable and shared read-only by every other
module.  Scenarios are either generated from a (scale, seed) pair or loaded
from a JSON file (``schema: 1``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

SCHEMA_VERSION = 1

LIGHT_SPEED_M_S = 2.998e8


class ScenarioError(ValueError):
    """Raised when a scenario violates one of its declared invariants."""


@dataclass(frozen=True)
class ChannelParams:
    """Air-to-ground and ground-to-ground channel model parameters."""

    a: float = 9.61
    b: float = 0.16
    eta_los: float = 1.0
    eta_nlos: float = 20.0
    beta0_db: float = -60.0
    alpha: float = 2.0
    bandwidth_hz: float = 1e6
    carrier_hz: float = 2e9
    noise_psd_dbm_hz: float = -174.0
    light_speed_m_s: float = LIGHT_SPEED_M_S

    @property
    def beta0(self) -> float:
        """Linear reference gain at 1 m."""
        return 10.0 ** (self.beta0_db / 10.0)

    @property
    def noise_w(self) -> float:
        """Noise power in W: PSD integrated over the channel bandwidth."""
        return 10.0 ** ((self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz) - 30.0) / 10.0)

    def validate(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ScenarioError("channel.bandwidth_hz must be > 0")
        if self.carrier_hz <= 0:
            raise ScenarioError("channel.carrier_hz must be > 0")
        if self.alpha < 1:
            raise ScenarioError("channel.alpha must be >= 1")
        if self.a <= 0 or self.b <= 0:
            raise ScenarioError("channel.a and channel.b must be > 0")


@dataclass(frozen=True)
class EnergyParams:
    """Rotary-wing propulsion model parameters.

    Defaults are standard reference values for a small rotary-wing craft.
    ``induced_v4`` selects the alternative reading of the induced-power
    bracket with a fourth-power denominator in the subtracted term; the
    default second-power form keeps the bracket non-negative at all speeds.
    """

    p_blade_w: float = 79.8563
    p_induced_w: float = 88.6279
    tip_speed_m_s: float = 120.0
    rotor_induced_v_m_s: float = 4.03
    drag_ratio: float = 0.6
    air_density_kg_m3: float = 1.225
    rotor_solidity: float = 0.05
    disk_area_m2: float = 0.503
    uav_mass_kg: float = 2.0
    gravity_m_s2: float = 9.8
    induced_v4: bool = False

    def validate(self) -> None:
        for name in (
            "p_blade_w",
            "p_induced_w",
            "tip_speed_m_s",
            "rotor_induced_v_m_s",
            "drag_ratio",
            "air_density_kg_m3",
            "rotor_solidity",
            "disk_area_m2",
            "uav_mass_kg",
            "gravity_m_s2",
        ):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"energy.{name} must be > 0")


@dataclass(frozen=True)
class DevicePair:
    """One ground device pair (source and destination device)."""

    kind: str  # "relayed" | "direct"
    swd_xy: tuple[float, float]
    dwd_xy: tuple[float, float]
    tx_power_w: float
    activity: float = 1.0

    def validate(self, l_min: float, l_max: float) -> None:
        if self.kind not in ("relayed", "direct"):
            raise ScenarioError(f"pair.kind must be 'relayed' or 'direct', got {self.kind!r}")
        for label, (x, y) in (("swd_xy", self.swd_xy), ("dwd_xy", self.dwd_xy)):
            if not (l_min <= x <= l_max and l_min <= y <= l_max):
                raise ScenarioError(f"pair.{label} {x, y} outside [{l_min}, {l_max}]^2")
        if self.tx_power_w <= 0:
            raise ScenarioError("pair.tx_power_w must be > 0")
        if not 0.0 <= self.activity <= 1.0:
            raise ScenarioError("pair.activity must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable world description consumed by every other module.

    Arrays derived from the scenario alone (:attr:`radio_constants`,
    :attr:`gene_bounds`) are built on first use and kept on the instance.
    """

    relayed_pairs: tuple[DevicePair, ...]
    direct_pairs: tuple[DevicePair, ...]
    n_min: int
    n_max: int
    u_channels: int
    l_min_m: float
    l_max_m: float
    z_min_m: float
    z_max_m: float
    v_min_m_s: float
    v_max_m_s: float
    p_min_w: float
    p_max_w: float
    t_th_s: float
    channel: ChannelParams = field(default_factory=ChannelParams)
    energy: EnergyParams = field(default_factory=EnergyParams)

    @property
    def m_pairs(self) -> int:
        return len(self.relayed_pairs)

    @property
    def k_pairs(self) -> int:
        return len(self.direct_pairs)

    @property
    def origin_xyz(self) -> tuple[float, float, float]:
        """Common UAV start point: the area origin at the minimum altitude."""
        return (0.0, 0.0, self.z_min_m)

    @cached_property
    def radio_constants(self):
        """Placement-independent radio arrays (:class:`skyrelay.radio.RadioConstants`)."""
        from .radio import RadioConstants  # deferred: radio imports this module

        return RadioConstants(self)

    @cached_property
    def gene_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only copy of :func:`skyrelay.encoding.continuous_bounds`."""
        from .encoding import continuous_bounds  # deferred: encoding imports this module

        lower, upper = continuous_bounds(self)
        lower.setflags(write=False)
        upper.setflags(write=False)
        return lower, upper

    def validate(self) -> None:
        if self.n_min < 1:
            raise ScenarioError("counts.n_min must be >= 1")
        if not self.u_channels < self.n_min:
            raise ScenarioError(
                f"U < N_min violated: u_channels={self.u_channels}, n_min={self.n_min}"
            )
        if not self.n_min <= self.n_max:
            raise ScenarioError("counts.n_min must be <= counts.n_max")
        if not self.n_max < self.m_pairs:
            raise ScenarioError(
                f"N_max < M violated: n_max={self.n_max}, relayed pairs={self.m_pairs}"
            )
        if self.u_channels < 1:
            raise ScenarioError("counts.u_channels must be >= 1")
        if not self.l_min_m < self.l_max_m:
            raise ScenarioError("bounds.l_min_m must be < bounds.l_max_m")
        if not self.z_min_m < self.z_max_m:
            raise ScenarioError("bounds.z_min_m must be < bounds.z_max_m")
        if not 0 < self.v_min_m_s < self.v_max_m_s:
            raise ScenarioError("bounds must satisfy 0 < v_min_m_s < v_max_m_s")
        if not 0 < self.p_min_w < self.p_max_w:
            raise ScenarioError("bounds must satisfy 0 < p_min_w < p_max_w")
        if self.t_th_s <= 0:
            raise ScenarioError("bounds.t_th_s must be > 0")
        self.channel.validate()
        self.energy.validate()
        for pair in self.relayed_pairs:
            pair.validate(self.l_min_m, self.l_max_m)
            if pair.kind != "relayed":
                raise ScenarioError("relayed_pairs entry has kind != 'relayed'")
        for pair in self.direct_pairs:
            pair.validate(self.l_min_m, self.l_max_m)
            if pair.kind != "direct":
                raise ScenarioError("direct_pairs entry has kind != 'direct'")
        # The ground-to-ground gain divides by every relayed-DWD-to-SWD distance.
        sources = {tuple(p.swd_xy) for p in self.relayed_pairs + self.direct_pairs}
        for m, pair in enumerate(self.relayed_pairs):
            if tuple(pair.dwd_xy) in sources:
                raise ScenarioError(
                    f"relayed_pairs[{m}].dwd_xy {tuple(pair.dwd_xy)} coincides with a source device"
                )


# Table of per-scale network sizes: (n_max, n_min, u, m, k).
_SCALES = {
    "one": (8, 4, 3, 10, 3),
    "two": (16, 8, 7, 100, 6),
}

_DIRECT_RING_MIN_M = 10.0
_DIRECT_RING_MAX_M = 50.0
_SWD_POWER_W = 0.01
_DIRECT_ACTIVITY = 0.6


def gen_scenario(scale: str, seed: int) -> ScenarioConfig:
    """Generate a reproducible scenario for the given scale ("one" or "two").

    Source devices are uniform in the area.  Destinations of relayed pairs
    are uniform anywhere (remote pairs); destinations of direct pairs land
    in a 10-50 m ring around their source (short-range pairs), resampled
    until inside the area.
    """
    if scale not in _SCALES:
        raise ScenarioError(f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}")
    n_max, n_min, u, m, k = _SCALES[scale]
    l_min, l_max = 0.0, 400.0
    rng = np.random.default_rng(seed)

    relayed = []
    for _ in range(m):
        swd = tuple(rng.uniform(l_min, l_max, size=2))
        dwd = tuple(rng.uniform(l_min, l_max, size=2))
        relayed.append(
            DevicePair(kind="relayed", swd_xy=swd, dwd_xy=dwd, tx_power_w=_SWD_POWER_W)
        )

    direct = []
    for _ in range(k):
        swd = rng.uniform(l_min, l_max, size=2)
        while True:
            radius = rng.uniform(_DIRECT_RING_MIN_M, _DIRECT_RING_MAX_M)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dwd = swd + radius * np.array([math.cos(angle), math.sin(angle)])
            if l_min <= dwd[0] <= l_max and l_min <= dwd[1] <= l_max:
                break
        direct.append(
            DevicePair(
                kind="direct",
                swd_xy=tuple(swd),
                dwd_xy=tuple(dwd),
                tx_power_w=_SWD_POWER_W,
                activity=_DIRECT_ACTIVITY,
            )
        )

    cfg = ScenarioConfig(
        relayed_pairs=tuple(relayed),
        direct_pairs=tuple(direct),
        n_min=n_min,
        n_max=n_max,
        u_channels=u,
        l_min_m=l_min,
        l_max_m=l_max,
        z_min_m=200.0,
        z_max_m=500.0,
        v_min_m_s=6.0,
        v_max_m_s=16.0,
        p_min_w=0.1,
        p_max_w=1.0,
        t_th_s=12.0,
    )
    cfg.validate()
    return cfg


def _pair_to_dict(pair: DevicePair) -> dict:
    return {
        "kind": pair.kind,
        "swd_xy": list(pair.swd_xy),
        "dwd_xy": list(pair.dwd_xy),
        "tx_power_w": pair.tx_power_w,
        "activity": pair.activity,
    }


def _real(value, name: str):
    """``value`` if it is an int or float within the finite doubles (a bool is
    neither; NaN and the infinities are not within), else ScenarioError."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return value
    raise ScenarioError(f"{name} must be a finite number, got {value!r}")


def _count(value, name: str) -> int:
    """``value`` if it is an int (a bool is not), else ScenarioError."""
    if type(value) is int:
        return value
    raise ScenarioError(f"{name} must be an integer, got {value!r}")


def _flag(value, name: str) -> bool:
    """``value`` if it is a bool, else ScenarioError."""
    if type(value) is bool:
        return value
    raise ScenarioError(f"{name} must be true or false, got {value!r}")


def _xy(values, name: str) -> tuple:
    """``values`` as a tuple if it holds two finite numbers, else ScenarioError."""
    if len(values) != 2:
        raise ScenarioError(f"{name} must hold 2 numbers, got {values!r}")
    return tuple(_real(v, name) for v in values)


# The ScenarioConfig fields in the file's "counts" and "bounds" sections.
_COUNTS = ("n_min", "n_max", "u_channels")
_BOUNDS = (
    "l_min_m", "l_max_m", "z_min_m", "z_max_m", "v_min_m_s", "v_max_m_s", "p_min_w", "p_max_w", "t_th_s"
)


def _pair_from_dict(d: dict) -> DevicePair:
    return DevicePair(
        kind=d["kind"],
        swd_xy=_xy(d["swd_xy"], "pair.swd_xy"),
        dwd_xy=_xy(d["dwd_xy"], "pair.dwd_xy"),
        tx_power_w=_real(d["tx_power_w"], "pair.tx_power_w"),
        activity=_real(d.get("activity", 1.0), "pair.activity"),
    )


def save_scenario(cfg: ScenarioConfig, path) -> None:
    """Write a scenario to a JSON file (schema version 1)."""
    doc = {
        "schema": SCHEMA_VERSION,
        "bounds": {k: getattr(cfg, k) for k in _BOUNDS},
        "counts": {k: getattr(cfg, k) for k in _COUNTS},
        "channel": asdict(cfg.channel),
        "energy": asdict(cfg.energy),
        "relayed_pairs": [_pair_to_dict(p) for p in cfg.relayed_pairs],
        "direct_pairs": [_pair_to_dict(p) for p in cfg.direct_pairs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario JSON file, validating the schema and all invariants.

    Counts must be integers, ``energy.induced_v4`` a bool, each device
    position two numbers, and every other numeric field a finite number.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} must hold a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {doc.get('schema')!r}")
    try:
        counts = {k: _count(doc["counts"][k], f"counts.{k}") for k in _COUNTS}
        bounds = {k: _real(doc["bounds"][k], f"bounds.{k}") for k in _BOUNDS}
        channel = {k: _real(v, f"channel.{k}") for k, v in doc["channel"].items()}
        energy = {
            k: (_flag if k == "induced_v4" else _real)(v, f"energy.{k}")
            for k, v in doc["energy"].items()
        }
        cfg = ScenarioConfig(
            relayed_pairs=tuple(_pair_from_dict(p) for p in doc["relayed_pairs"]),
            direct_pairs=tuple(_pair_from_dict(p) for p in doc["direct_pairs"]),
            channel=ChannelParams(**channel),
            energy=EnergyParams(**energy),
            **counts,
            **bounds,
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    cfg.validate()
    return cfg
