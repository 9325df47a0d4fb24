import copy
import math
from functools import reduce
from operator import getitem

import numpy as np
import pytest

# Verdict lines recorded by the acceptance suite; echoed after the run so
# they are visible even for passing tests.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

from skyrelay.radio import Placement
from skyrelay.scenario import DevicePair, ScenarioConfig, gen_scenario


# (path to a field of a saved scenario document, an ill-typed or non-finite
# value for it) pairs that load_scenario must reject
BAD_SCENARIO_FIELDS = [
    (("counts", "n_min"), "4"),
    (("counts", "n_min"), True),
    (("counts", "n_max"), 8.5),
    (("bounds", "t_th_s"), "12"),
    (("bounds", "t_th_s"), None),
    (("bounds", "t_th_s"), math.nan),
    (("bounds", "p_max_w"), math.inf),
    (("bounds", "l_max_m"), 10**400),  # an int no double can hold
    (("relayed_pairs", 0, "tx_power_w"), "0.01"),
    (("relayed_pairs", 0, "tx_power_w"), None),
    (("channel", "bandwidth_hz"), "1e6"),
    (("channel", "bandwidth_hz"), None),
    (("channel", "bandwidth_hz"), math.nan),
    (("channel", "alpha"), math.nan),
    (("energy", "uav_mass_kg"), math.inf),
    (("energy", "induced_v4"), "false"),  # a truthy string
    (("energy", "induced_v4"), None),
    (("energy", "induced_v4"), 1),
    (("relayed_pairs", 0, "swd_xy"), [1.0, 2.0, 3.0]),
]


def malformed_scenarios(doc: dict) -> list:
    """A top-level list holding ``doc``, then a copy of ``doc`` per entry of
    ``BAD_SCENARIO_FIELDS`` with that field set to that value."""
    out: list = [[doc]]
    for (*path, key), value in BAD_SCENARIO_FIELDS:
        bad = copy.deepcopy(doc)
        reduce(getitem, path, bad)[key] = value
        out.append(bad)
    return out


def make_config(
    rng: np.random.Generator,
    m: int,
    k: int,
    n_min: int = 4,
    n_max: int = 8,
    u: int = 3,
) -> ScenarioConfig:
    """Small scenario with random device positions; invariants not enforced
    so tiny instances (N < U etc.) can be built for oracle comparisons."""
    l_min, l_max = 0.0, 400.0

    def pair(kind, activity):
        return DevicePair(
            kind=kind,
            swd_xy=tuple(rng.uniform(l_min, l_max, 2)),
            dwd_xy=tuple(rng.uniform(l_min, l_max, 2)),
            tx_power_w=0.01,
            activity=activity,
        )

    return ScenarioConfig(
        relayed_pairs=tuple(pair("relayed", 1.0) for _ in range(m)),
        direct_pairs=tuple(pair("direct", 0.6) for _ in range(k)),
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


def make_placement(rng: np.random.Generator, cfg: ScenarioConfig, n: int) -> Placement:
    xy = rng.uniform(cfg.l_min_m, cfg.l_max_m, (n, 2))
    z = rng.uniform(cfg.z_min_m, cfg.z_max_m, (n, 1))
    return Placement(
        uav_xyz=np.hstack([xy, z]),
        uav_tx_w=rng.uniform(cfg.p_min_w, cfg.p_max_w, n),
        assignment=rng.integers(0, n, cfg.m_pairs),
        uav_channel=rng.integers(0, cfg.u_channels, n),
        direct_channel=rng.integers(0, cfg.u_channels, cfg.k_pairs),
    )


@pytest.fixture(scope="session")
def scale_one():
    return gen_scenario("one", 1)


@pytest.fixture(scope="session")
def scale_two():
    return gen_scenario("two", 1)
