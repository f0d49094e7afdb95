"""Schema validation, defaults, and model building from config documents."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from rspde.config import (_CHECKS, DEFAULTS, MAX_BASE_SEED, SCHEMA,
                          ConfigError, ExperimentConfig, canonical_json,
                          validate_config)
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


def test_sine_rates_that_alias_are_refused():
    # K left-endpoint samples resolve a sine only below rate K/2: at K/2
    # they are all zero, and rate K - r is rate r with the sign flipped
    payload = base_payload()
    payload["control_family"] = {"kind": "sine_rates", "rates": [1, 31]}
    fam = ExperimentConfig.from_dict(payload).build_control_family()
    r31 = fam[1][1]
    assert r31.K == 64 and r31.cm_norm_sq() == pytest.approx(0.5 * r31.T)
    payload["control_family"]["rates"] = [1, 31, 32]
    with pytest.raises(ConfigError, match=r"^config field control_family\."
                       r"rates\.2: rate 32 aliases on K = 64 "):
        validate_config(payload)
    payload["control_family"] = {"kind": "sine_rates", "rates": [3], "K": 6}
    with pytest.raises(ConfigError, match=r"control_family\.rates\.0: "):
        validate_config(payload)
    del payload["control_family"]
    payload["control"] = {"kind": "sine", "rate": 2, "K": 5}
    ExperimentConfig.from_dict(payload)
    payload["control"]["K"] = 4
    with pytest.raises(ConfigError, match=r"^config field control\.rate: "
                       r"rate 2 aliases on K = 4 "):
        validate_config(payload)


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


# ---------------------------------------------------------------------------
# the package's validator against jsonschema's, as an oracle

ROOT = Path(__file__).resolve().parent.parent
_DROP = object()


def _resolve(schema: dict) -> dict:
    while "$ref" in schema:
        schema = SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[1]]
    return schema


def _nodes(value, schema: dict, path: tuple = ()):
    """(path, subschema, value) at every node of a valid payload."""
    schema = _resolve(schema)
    yield path, schema, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, schema["properties"][key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, schema["items"], path + (i,))


def _with(payload: dict, path: tuple, value) -> dict:
    """A copy of ``payload`` with ``value`` at ``path`` (_DROP deletes it)."""
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def _mutations(payload: dict):
    """Payloads one edit away from ``payload``: each key dropped, an
    unknown key in each object, a wrong type at each node, an empty array
    for each array, each bound met and overstepped, a bool where a number
    goes, an unknown kind, and each kind without the fields it needs."""
    for path, schema, value in _nodes(payload, SCHEMA):
        if path:
            yield _with(payload, path, 5 if isinstance(value, str) else "x")
        if isinstance(value, list):
            yield _with(payload, path, [])
        if not isinstance(value, dict):
            continue
        for key in value:
            yield _with(payload, path + (key,), _DROP)
        yield _with(payload, path + ("unknown_key",), 1)
        if "kind" in value:
            yield _with(payload, path + ("kind",), "no_such_kind")
        for clause in schema.get("allOf", []):
            kind = clause["if"]["properties"]["kind"]["const"]
            bare = {k: v for k, v in value.items()
                    if k not in clause["then"]["required"]}
            yield _with(payload, path, {**bare, "kind": kind})
        for key, sub in schema["properties"].items():
            sub = _resolve(sub)
            if sub.get("type") in ("number", "integer"):
                yield _with(payload, path + (key,), True)
            if sub.get("type") == "integer" and key in value:
                yield _with(payload, path + (key,), float(value[key]))
            for bound, past in (("minimum", -1), ("maximum", 1),
                                ("exclusiveMinimum", -1)):
                if bound in sub:
                    at = sub[bound]
                    step = (past if sub["type"] == "integer"
                            else np.nextafter(at, past * np.inf) - at)
                    yield _with(payload, path + (key,), at)
                    yield _with(payload, path + (key,), at + step)


def _first_error(validator, payload: dict):
    """validate_config's message from the oracle's errors, or None."""
    errors = sorted(validator.iter_errors(payload),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    path = ".".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"config field {path}: {errors[0].message}"


def _own_error(payload: dict):
    try:
        validate_config(payload)
    except ConfigError as err:
        return str(err)
    return None


def test_validator_agrees_with_jsonschema(monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    oracle = jsonschema.Draft202012Validator(SCHEMA)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS

    payloads = [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted((ROOT / "configs").glob("*.json"))]
    payloads += [w.make_config(1) for w in WORKLOADS.values()]
    payloads.append(base_payload())
    checked = failed = 0
    for payload in payloads:
        assert _own_error(payload) is None and _first_error(oracle, payload) is None
        for mutant in _mutations(payload):
            want = _first_error(oracle, mutant)
            assert _own_error(mutant) == want, mutant
            checked += 1
            failed += want is not None
    assert checked > 1000 and 0 < failed < checked


def test_schema_uses_only_what_the_validator_covers():
    # _errors passes over a keyword it does not know, and its messages
    # assume string enums and consts and minItems 1: a SCHEMA edit outside
    # these would validate wrongly without an error
    descending = {"$ref", "allOf", "if", "then", "items", "required",
                  "properties", "additionalProperties"}
    annotations = {"$schema", "$defs", "deprecated"}
    seen = set()

    def walk(schema: dict):
        assert set(schema) <= set(_CHECKS) | descending | annotations, schema
        seen.update(schema)
        assert schema.get("additionalProperties", False) is False, schema
        assert schema.get("minItems", 1) == 1, schema
        assert isinstance(schema.get("type", "string"), str), schema
        assert all(isinstance(v, str) for v in schema.get("enum", [])), schema
        assert isinstance(schema.get("const", ""), str), schema
        assert ("if" in schema) == ("then" in schema), schema
        assert schema.get("$ref", "#/$defs/").startswith("#/$defs/"), schema
        for sub in [*schema.get("properties", {}).values(),
                    *schema.get("$defs", {}).values(), *schema.get("allOf", [])]:
            walk(sub)
        for key in ("items", "if", "then"):
            if key in schema:
                walk(schema[key])

    walk(SCHEMA)
    assert seen == set(_CHECKS) | descending | annotations


def test_validator_edge_cases():
    payload = base_payload()
    # 1.0 is an integer and true is not a number, as in JSON Schema
    payload["grid"]["J"] = 31.0
    validate_config(payload)
    payload["grid"]["dt"] = True
    with pytest.raises(ConfigError,
                       match=r"grid\.dt: True is not of type 'number'"):
        validate_config(payload)
    # the deprecated rate keys the benchmark's rate workload still sends
    payload = base_payload()
    payload["rate"] = {"K": 4, "mu_schedule": [1e2, 1e4], "stag_window": 10}
    validate_config(payload)
    # the first error in path order, not in the schema's key order
    payload["domain"]["radius"] = "big"
    payload["coefficients"]["d"] = 0
    with pytest.raises(ConfigError, match=r"^config field coefficients\.d: "
                       r"0 is less than the minimum of 1$"):
        validate_config(payload)
    del payload["u0"]
    with pytest.raises(ConfigError,
                       match=r"^config field <root>: 'u0' is a required"):
        validate_config(payload)
