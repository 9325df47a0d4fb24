import json
import math

import pytest

from conftest import malformed_scenarios
from skyrelay.scenario import (
    ChannelParams,
    ScenarioError,
    gen_scenario,
    load_scenario,
    save_scenario,
)

# Noise PSD of -174 dBm/Hz over a 1 MHz channel.
NOISE_W = 3.9810717055349695e-15


def test_scale_sizes():
    one = gen_scenario("one", 0)
    assert (one.n_max, one.n_min, one.u_channels, one.m_pairs, one.k_pairs) == (8, 4, 3, 10, 3)
    two = gen_scenario("two", 0)
    assert (two.n_max, two.n_min, two.u_channels, two.m_pairs, two.k_pairs) == (16, 8, 7, 100, 6)


def test_shared_parameters():
    cfg = gen_scenario("one", 0)
    assert (cfg.l_min_m, cfg.l_max_m) == (0.0, 400.0)
    assert (cfg.z_min_m, cfg.z_max_m) == (200.0, 500.0)
    assert (cfg.v_min_m_s, cfg.v_max_m_s) == (6.0, 16.0)
    assert (cfg.p_min_w, cfg.p_max_w) == (0.1, 1.0)
    assert cfg.t_th_s == 12.0
    assert cfg.origin_xyz == (0.0, 0.0, 200.0)
    assert all(p.tx_power_w == 0.01 for p in cfg.relayed_pairs + cfg.direct_pairs)
    assert all(p.activity == 1.0 for p in cfg.relayed_pairs)
    assert all(p.activity == 0.6 for p in cfg.direct_pairs)


def test_channel_params_derived():
    ch = ChannelParams()
    assert ch.beta0 == pytest.approx(1e-6, rel=1e-12)
    assert ch.noise_w == pytest.approx(NOISE_W, rel=1e-12)


def test_direct_pairs_short_range():
    for seed in range(5):
        cfg = gen_scenario("one", seed)
        for p in cfg.direct_pairs:
            d = math.dist(p.swd_xy, p.dwd_xy)
            assert 10.0 <= d <= 50.0


def test_generation_deterministic():
    a = gen_scenario("one", 7)
    b = gen_scenario("one", 7)
    assert a == b
    assert a != gen_scenario("one", 8)


def test_unknown_scale():
    with pytest.raises(ScenarioError):
        gen_scenario("three", 0)


def test_save_load_roundtrip(tmp_path):
    cfg = gen_scenario("two", 3)
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_rejects_wrong_schema(tmp_path):
    cfg = gen_scenario("one", 0)
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    doc = json.loads(path.read_text())
    doc["schema"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_rejects_missing_key(tmp_path):
    cfg = gen_scenario("one", 0)
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    doc = json.loads(path.read_text())
    del doc["counts"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_rejects_ill_typed_and_non_finite_fields(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(gen_scenario("one", 0), path)
    for bad in malformed_scenarios(json.loads(path.read_text())):
        path.write_text(json.dumps(bad))  # NaN and Infinity as JSON extensions
        with pytest.raises(ScenarioError):
            load_scenario(path)


def test_load_rejects_invariant_violation(tmp_path):
    cfg = gen_scenario("one", 0)
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    doc = json.loads(path.read_text())
    doc["counts"]["u_channels"] = 99  # breaks U < N_min
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize(
    ("kind", "index"),
    [("relayed", 2), ("relayed", 1), ("direct", 1)],  # its own SWD, another's, a direct one
)
def test_load_rejects_dwd_on_a_source(tmp_path, kind, index):
    # the ground-to-ground gain raises each DWD-to-SWD distance to -alpha
    cfg = gen_scenario("one", 0)
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    doc = json.loads(path.read_text())
    doc["relayed_pairs"][2]["dwd_xy"] = doc[f"{kind}_pairs"][index]["swd_xy"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="coincides with a source device"):
        load_scenario(path)
