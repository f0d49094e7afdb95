"""Schema validation, defaults, and model building from config documents."""

import copy
import json

import numpy as np
import pytest

from rspde.config import (DEFAULTS, MAX_BASE_SEED, ConfigError,
                          ExperimentConfig, canonical_json)
from rspde.geometry import Ball, Intersection
from rspde.ldp import EventSpec


def base_payload():
    return {
        "domain": {"kind": "ball", "center": [0.0], "radius": 0.25},
        "gamma": {"rule": "normal"},
        "coefficients": {
            "d": 1, "m": 1,
            "b": {"name": "constant", "value": [4.0]},
            "sigma": {"name": "constant", "matrix": [[1.0]]},
        },
        "u0": {"kind": "zero"},
        "grid": {"J": 31, "dt": 1e-3, "T": 0.1},
        "penalty": {"n_event": 256.0,
                    "sweep": {"n_start": 8.0, "n_max": 128.0}},
        "replicas": {"base_seed": 7, "count": 10},
    }


def test_valid_config_builds_every_object():
    cfg = ExperimentConfig.from_dict(base_payload())
    dom = cfg.build_domain()
    assert isinstance(dom, Ball)
    gamma = cfg.build_gamma(dom)
    coeffs = cfg.build_coefficients()
    assert coeffs.d == 1 and coeffs.m == 1
    u0 = cfg.build_u0()
    assert u0.values.shape == (1, 31)
    assert cfg.build_control() is None
    assert cfg.build_event() is None
    assert gamma.domain is dom


def test_unknown_top_level_key_rejected():
    payload = base_payload()
    payload["grids"] = {}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)


def test_unknown_nested_key_reports_path():
    payload = base_payload()
    payload["grid"]["Jay"] = 10
    with pytest.raises(ConfigError, match="grid"):
        ExperimentConfig.from_dict(payload)


def test_wrong_type_reports_field_path():
    payload = base_payload()
    payload["grid"]["J"] = "thirty"
    with pytest.raises(ConfigError, match=r"grid\.J"):
        ExperimentConfig.from_dict(payload)


def test_base_seed_must_be_a_key_word():
    # a replica's Philox key holds the base seed as one 64-bit word, and
    # the ldp1 strays run from base_seed + 1
    for top in (MAX_BASE_SEED, 0):
        payload = base_payload()
        payload["replicas"]["base_seed"] = top
        assert ExperimentConfig.from_dict(payload).base_seed == top
    for bad in (2**64, 2**64 - 1, -1):
        payload = base_payload()
        payload["replicas"]["base_seed"] = bad
        with pytest.raises(ConfigError,
                           match=r"config field replicas\.base_seed"):
            ExperimentConfig.from_dict(payload)


def test_missing_required_section_rejected():
    payload = base_payload()
    del payload["domain"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)


def test_hash_ignores_key_order_but_not_values():
    payload = base_payload()
    reordered = json.loads(canonical_json(payload))
    reordered["grid"] = dict(reversed(list(payload["grid"].items())))
    a = ExperimentConfig.from_dict(payload).config_hash()
    b = ExperimentConfig.from_dict(reordered).config_hash()
    assert a == b
    changed = copy.deepcopy(payload)
    changed["grid"]["J"] = 32
    assert ExperimentConfig.from_dict(changed).config_hash() != a


def test_defaults_merge_with_overrides():
    cfg = ExperimentConfig.from_dict(base_payload())
    assert cfg.epsilons == DEFAULTS["epsilons"]
    sweep = cfg.sweep
    assert sweep["n_start"] == 8.0 and sweep["n_max"] == 128.0
    assert sweep["factor"] == DEFAULTS["sweep"]["factor"]
    assert cfg.snapshot_stride == 1
    assert cfg.n_event == 256.0
    assert cfg.ldp1 == DEFAULTS["ldp1"]
    # the weighted trend falls back to the run's noise levels and count
    assert cfg.weighted == {**DEFAULTS["weighted"], "epsilons": cfg.epsilons,
                            "replicas": cfg.replica_count}
    payload = base_payload()
    payload["weighted"] = {"epsilons": [0.3], "replicas": 7}
    weighted = ExperimentConfig.from_dict(payload).weighted
    assert weighted == {**DEFAULTS["weighted"], "epsilons": [0.3],
                        "replicas": 7}


def test_domain_dimension_must_match_coefficients():
    payload = base_payload()
    payload["domain"] = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    cfg = ExperimentConfig.from_dict(payload)
    with pytest.raises(ConfigError, match="dimension"):
        cfg.build_domain()


def test_intersection_domain_builds_recursively():
    payload = base_payload()
    payload["coefficients"]["d"] = 2
    payload["coefficients"]["b"] = {"name": "zero"}
    payload["coefficients"]["sigma"] = {"name": "constant",
                                        "matrix": [[1.0], [0.0]]}
    payload["domain"] = {
        "kind": "intersection",
        "members": [
            {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"kind": "box", "lower": [-0.5, -2.0], "upper": [0.5, 2.0]},
        ],
    }
    dom = ExperimentConfig.from_dict(payload).build_domain()
    assert isinstance(dom, Intersection)
    assert dom.contains_many(np.array([[0.4, 0.4], [0.0, 1.5]])).tolist() == [True, False]


def test_u0_profiles():
    payload = base_payload()
    payload["u0"] = {"kind": "parabola", "scale": 2.0, "cap": 0.25}
    u0 = ExperimentConfig.from_dict(payload).build_u0()
    xs = np.arange(1, 32) / 32.0
    assert np.array_equal(u0.values[0], np.minimum(2.0 * xs * (1 - xs), 0.25))
    payload["u0"] = {"kind": "sine", "amplitude": 0.2}
    u0 = ExperimentConfig.from_dict(payload).build_u0()
    assert u0.values[0].max() == pytest.approx(0.2, rel=1e-3)


def test_control_and_family_builders():
    payload = base_payload()
    payload["control"] = {"kind": "sine", "K": 20, "rate": 2, "amplitude": 1.5}
    payload["control_family"] = {"kind": "sine_rates", "rates": [1, 2, 4],
                                 "K": 20, "amplitude": 1.0}
    cfg = ExperimentConfig.from_dict(payload)
    ctrl = cfg.build_control()
    assert ctrl.K == 20 and ctrl.m == 1
    fam = cfg.build_control_family()
    assert [label for label, _ in fam] == ["r1", "r2", "r4"]
    assert all(c.K == 20 for _, c in fam)

    payload["control_family"] = {"kind": "scaled",
                                 "base": {"kind": "constant", "vector": [2.0],
                                          "K": 4},
                                 "factors": [1.0, 0.5]}
    fam = ExperimentConfig.from_dict(payload).build_control_family()
    assert fam[1][1].values[0, 0] == pytest.approx(1.0)


def test_control_vector_length_checked():
    payload = base_payload()
    payload["control"] = {"kind": "constant", "vector": [1.0, 2.0]}
    with pytest.raises(ConfigError, match="vector length"):
        ExperimentConfig.from_dict(payload).build_control()


def test_event_builders_and_registry_check():
    payload = base_payload()
    payload["event"] = {"kind": "terminal_ball", "radius": 0.1,
                        "complement": True,
                        "center": {"kind": "sine", "amplitude": 0.1}}
    ev = ExperimentConfig.from_dict(payload).build_event()
    assert isinstance(ev, EventSpec)
    assert ev.complement and ev.center.shape == (1, 31)

    payload["event"] = {"kind": "functional_threshold",
                        "functional": "no_such_functional", "level": 1.0}
    with pytest.raises(ConfigError, match="functional"):
        ExperimentConfig.from_dict(payload).build_event()


def test_unknown_coefficient_rule_reported():
    payload = base_payload()
    payload["coefficients"]["b"] = {"name": "cubic"}
    with pytest.raises(ConfigError, match="coefficients"):
        ExperimentConfig.from_dict(payload).build_coefficients()


def test_from_file_and_bad_json(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(base_payload()))
    cfg = ExperimentConfig.from_file(good)
    assert cfg.J == 31
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.from_file(bad)


def test_rate_section_required_for_rate_options():
    cfg = ExperimentConfig.from_dict(base_payload())
    with pytest.raises(ConfigError, match="rate"):
        cfg.rate_options
    payload = base_payload()
    payload["rate"] = {"K": 8, "max_iters": 40}
    opts = ExperimentConfig.from_dict(payload).rate_options
    assert opts["K"] == 8 and opts["max_iters"] == 40
    assert opts["fd_step"] == DEFAULTS["rate"]["fd_step"]
