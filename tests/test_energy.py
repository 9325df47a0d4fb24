import dataclasses
import math

import numpy as np
import pytest

import oracle
from skyrelay.energy import (
    EnergyError,
    FlightPlan,
    average_flight_energy,
    flight_time_spread,
    propulsion_power,
)
from skyrelay.scenario import EnergyParams

EP = EnergyParams()

# Frozen reference values for the default parameter set.
P_HOVER_W = 168.4842
P_10_W = 126.02907406639233
E_500M_10MS_J = 6301.453703319617


def test_hover_power_is_blade_plus_induced():
    assert propulsion_power(0.0, EP) == pytest.approx(EP.p_blade_w + EP.p_induced_w, abs=1e-9)
    assert propulsion_power(0.0, EP) == pytest.approx(P_HOVER_W, abs=1e-9)


def test_power_at_10():
    assert propulsion_power(10.0, EP) == pytest.approx(P_10_W, abs=1e-9)


def test_power_matches_oracle():
    for v in np.linspace(0.5, 30.0, 40):
        assert propulsion_power(float(v), EP) == pytest.approx(
            oracle.propulsion_power(float(v), EP), rel=1e-12
        )


ORIGIN = (0.0, 0.0, 200.0)


def _lone_energy(dest_xyz, speed):
    """Energy (J) of a one-UAV plan from ``ORIGIN``."""
    plan = FlightPlan(np.array([dest_xyz]), np.array([speed]), ORIGIN, EP)
    return float(plan.energies[0])


def test_flight_energy_level_anchor():
    e = _lone_energy((500.0, 0.0, 200.0), 10.0)
    assert e == pytest.approx(E_500M_10MS_J, abs=1e-9)
    assert e == pytest.approx(50.0 * propulsion_power(10.0, EP), abs=1e-9)
    want = oracle.flight_energy((500.0, 0.0, 200.0), 10.0, ORIGIN, EP)
    assert e == pytest.approx(want, rel=1e-12)


def test_flight_energy_potential_term():
    level = _lone_energy((0.0, 300.0, 200.0), 8.0)
    dz = 120.0
    dist = math.hypot(300.0, dz)
    climb = _lone_energy((0.0, 300.0, 200.0 + dz), 8.0)
    expected = propulsion_power(8.0, EP) * dist / 8.0 + EP.uav_mass_kg * EP.gravity_m_s2 * dz
    assert climb == pytest.approx(expected, rel=1e-12)
    assert climb > level


def test_flight_energy_rejects_bad_speed():
    # a plan checks its speeds when it is built
    dest = np.array([[100.0, 0.0, 250.0], [0.0, 50.0, 300.0]])
    for v in (0.0, -3.0):
        with pytest.raises(EnergyError, match="speed must be > 0"):
            FlightPlan(dest, np.array([8.0, v]), ORIGIN, EP)


def test_flight_plan_rejects_non_finite_speed_and_destination():
    dest = np.array([[100.0, 0.0, 250.0], [0.0, 50.0, 300.0]])
    speeds = np.array([8.0, 9.0])
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(3):
            wrong = dest.copy()
            wrong[1, k] = bad
            with pytest.raises(EnergyError, match="must be finite"):
                FlightPlan(wrong, speeds, ORIGIN, EP)
        with pytest.raises(EnergyError, match="must be finite"):
            FlightPlan(dest, np.array([8.0, bad]), ORIGIN, EP)


def test_induced_v4_reading():
    ep4 = dataclasses.replace(EP, induced_v4=True)
    # weaker subtraction -> larger induced term than the default reading
    assert propulsion_power(10.0, ep4) > propulsion_power(10.0, EP)
    assert propulsion_power(0.0, ep4) == pytest.approx(propulsion_power(0.0, EP), rel=1e-12)
    # the bracket only goes negative once v0 < 1; check the guard fires there
    tiny = dataclasses.replace(EP, rotor_induced_v_m_s=0.5, induced_v4=True)
    with pytest.raises(EnergyError):
        propulsion_power(10.0, tiny)


def _plan(rng, n):
    xy = rng.uniform(0.0, 400.0, (n, 2))
    z = rng.uniform(200.0, 500.0, (n, 1))
    return FlightPlan(np.hstack([xy, z]), rng.uniform(6.0, 16.0, n), ORIGIN, EP)


def test_average_matches_per_uav_sum():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 8):
        plan = _plan(rng, n)
        avg = average_flight_energy(plan)
        per = [
            oracle.flight_energy(plan.dest_xyz[i], float(plan.speed_m_s[i]), ORIGIN, EP)
            for i in range(n)
        ]
        assert avg == pytest.approx(sum(per) / n, rel=1e-12)


def test_average_rejects_empty_and_bad_speed():
    empty = FlightPlan(np.empty((0, 3)), np.empty(0), ORIGIN, EP)
    with pytest.raises(EnergyError, match="no UAVs"):
        average_flight_energy(empty)
    rng = np.random.default_rng(1)
    plan = _plan(rng, 3)
    speeds = plan.speed_m_s.copy()
    speeds[1] = 0.0
    with pytest.raises(EnergyError, match="speed must be > 0"):
        FlightPlan(plan.dest_xyz, speeds, ORIGIN, EP)


def test_flight_time_spread():
    plan = FlightPlan(
        np.array([[100.0, 0.0, 200.0], [0.0, 160.0, 200.0]]), np.array([10.0, 10.0]), ORIGIN, EP
    )
    assert flight_time_spread(plan) == pytest.approx(6.0, rel=1e-12)
    single = FlightPlan(np.array([[50.0, 0.0, 250.0]]), np.array([7.0]), ORIGIN, EP)
    assert flight_time_spread(single) == 0.0


@pytest.mark.parametrize("n", range(1, 18))
def test_batch_rows_equal_lone_plans_bytewise(n):
    # rows up to 17 UAVs cross the 8-element block of numpy's pairwise sum
    rng = np.random.default_rng(n)
    b = 6
    batch = FlightPlan(
        dest_xyz=np.stack(
            [rng.uniform(0.0, 400.0, (b, n)), rng.uniform(0.0, 400.0, (b, n)),
             rng.uniform(200.0, 500.0, (b, n))],
            axis=-1,
        ),
        speed_m_s=rng.uniform(6.0, 16.0, (b, n)),
        origin_xyz=ORIGIN,
        ep=EP,
    )
    energies = average_flight_energy(batch)
    spreads = flight_time_spread(batch)
    assert energies.shape == spreads.shape == (b,)
    for row in range(b):
        lone = FlightPlan(
            batch.dest_xyz[row].copy(), batch.speed_m_s[row].copy(), batch.origin_xyz, EP
        )
        energy, spread = average_flight_energy(lone), flight_time_spread(lone)
        assert type(energy) is float and type(spread) is float
        assert energies[row].tobytes() == np.float64(energy).tobytes()
        assert spreads[row].tobytes() == np.float64(spread).tobytes()
        # a plan gathered from a lone one scores as that lone one
        taken = lone.take(np.arange(n)[None])
        assert average_flight_energy(taken)[0] == energy
        assert flight_time_spread(taken)[0] == spread


@pytest.mark.parametrize(
    "counts", [[8, 5, 4, 6, 5, 8, 7, 4], [16, 8, 12, 9, 15, 8, 16, 11, 10, 13]], ids=["one", "two"]
)
def test_padded_rows_equal_lone_plans_bytewise(counts):
    # each row repeats its last UAV up to the widest count, and the rows are
    # neither sorted nor of distinct counts
    rng = np.random.default_rng(len(counts))
    lone = [_plan(rng, n) for n in counts]
    n = np.array(counts)
    slots = np.minimum(np.arange(n.max()), n[:, None] - 1)
    pass_plan = FlightPlan(
        np.concatenate([plan.dest_xyz for plan in lone]),
        np.concatenate([plan.speed_m_s for plan in lone]),
        ORIGIN,
        EP,
    )
    batch = pass_plan.take(np.cumsum(n)[:, None] - n[:, None] + slots, n)
    energies, spreads = average_flight_energy(batch), flight_time_spread(batch)
    for row, plan in enumerate(lone):
        assert energies[row].tobytes() == np.float64(average_flight_energy(plan)).tobytes()
        assert spreads[row].tobytes() == np.float64(flight_time_spread(plan)).tobytes()
