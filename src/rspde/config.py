"""Experiment configuration: one JSON document, schema-checked up front.

The schema is the published contract for config files (importable as
``rspde.config.SCHEMA``): unknown keys are rejected everywhere, so a typo
fails before any computation, with a JSON-path diagnostic.  Numeric
defaults for optional sections live in DEFAULTS, not scattered through
the runner.

An ``ExperimentConfig`` wraps the validated document and builds the model
objects on demand; ``config_hash`` fingerprints the canonicalized
document (sorted keys, separators fixed) so a manifest can certify what
was actually run.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelCoefficients, make_coefficients
from .controls import (Control, constant_control, sine_control,
                       tabulated_control, zero_control)
from .fields import Field, SpatialGrid
from .geometry import (Ball, Box, ConvexDomain, Intersection, ObliqueField,
                       Polytope)
from .ldp import EVENT_N_PEN, EventSpec


class ConfigError(ValueError):
    """Malformed configuration: message carries the offending field path."""


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_INT_POS = {"type": "integer", "minimum": 1}
_VEC = {"type": "array", "items": _NUM, "minItems": 1}
_MAT = {"type": "array", "items": _VEC, "minItems": 1}

# The largest base seed: a replica's Philox key holds its base seed as one
# 64-bit word, and the ldp1 stray replicas run from base_seed + 1.
MAX_BASE_SEED = 2**64 - 2

# The control grid of a sine_rates family that does not set its K.
SINE_RATES_K = 64


def _kind_needs(fields: dict) -> list:
    """``allOf`` clauses requiring, for each kind, the fields it reads."""
    return [{"if": {"required": ["kind"], "properties": {"kind": {"const": k}}},
             "then": {"required": need}} for k, need in fields.items()]


_DOMAIN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["ball", "box", "polytope", "intersection"]},
        "center": _VEC,
        "radius": _POS,
        "lower": _VEC,
        "upper": _VEC,
        "normals": _MAT,
        "offsets": _VEC,
        "members": {"type": "array", "items": {"$ref": "#/$defs/domain"},
                    "minItems": 1},
    },
    "allOf": _kind_needs({"ball": ["center", "radius"],
                          "box": ["lower", "upper"],
                          "polytope": ["normals", "offsets"],
                          "intersection": ["members"]}),
}

_CONTROL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["zero", "constant", "sine", "tabulated"]},
        "K": _INT_POS,
        "vector": _VEC,
        "rate": _INT_POS,
        "amplitude": _NUM,
        "component": {"type": "integer", "minimum": 0},
        "values": _MAT,
    },
    "allOf": _kind_needs({"constant": ["vector"], "sine": ["K", "rate"],
                          "tabulated": ["values"]}),
}

_PROFILE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["zero", "sine", "parabola"]},
        "amplitude": _NUM,
        "scale": _NUM,
        "cap": _NUM,
        "component": {"type": "integer", "minimum": 0},
    },
}

_COEFF_RULE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"type": "string"},
        "value": _VEC,
        "matrix": _MAT,
        "base": _VEC,
        "slope": _VEC,
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$defs": {"domain": _DOMAIN_SCHEMA, "control": _CONTROL_SCHEMA,
              "profile": _PROFILE_SCHEMA, "coeff_rule": _COEFF_RULE_SCHEMA},
    "type": "object",
    "additionalProperties": False,
    "required": ["domain", "gamma", "coefficients", "u0", "grid", "penalty",
                 "replicas"],
    "properties": {
        "domain": {"$ref": "#/$defs/domain"},
        "gamma": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rule"],
            "properties": {
                "rule": {"enum": ["normal", "rotated_normal"]},
                "angle": _NUM,
            },
        },
        "coefficients": {
            "type": "object",
            "additionalProperties": False,
            "required": ["d", "m", "b", "sigma"],
            "properties": {
                "d": _INT_POS,
                "m": _INT_POS,
                "b": {"$ref": "#/$defs/coeff_rule"},
                "sigma": {"$ref": "#/$defs/coeff_rule"},
            },
        },
        "u0": {"$ref": "#/$defs/profile"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["J", "dt", "T"],
            "properties": {
                "J": _INT_POS,
                "dt": _POS,
                "T": _POS,
            },
        },
        "penalty": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_event": _POS,
                "sweep": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "n_start": _POS,
                        "factor": {"type": "number", "exclusiveMinimum": 1},
                        "n_max": _POS,
                        "tol_cauchy": {"type": "number", "minimum": 0},
                    },
                },
            },
        },
        "control": {"$ref": "#/$defs/control"},
        "control_family": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["sine_rates", "scaled"]},
                "rates": {"type": "array", "items": _INT_POS, "minItems": 1},
                "K": _INT_POS,
                "amplitude": _NUM,
                "component": {"type": "integer", "minimum": 0},
                "base": {"$ref": "#/$defs/control"},
                "factors": {"type": "array", "items": _NUM, "minItems": 1},
            },
            "allOf": _kind_needs({"sine_rates": ["rates"],
                                  "scaled": ["base", "factors"]}),
        },
        "epsilons": {"type": "array", "items": _POS, "minItems": 1},
        "replicas": {
            "type": "object",
            "additionalProperties": False,
            "required": ["base_seed", "count"],
            "properties": {
                "base_seed": {"type": "integer", "minimum": 0,
                              "maximum": MAX_BASE_SEED},
                "count": _INT_POS,
            },
        },
        "event": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["terminal_ball", "sup_exceed",
                                  "functional_threshold"]},
                "radius": {"type": "number", "minimum": 0},
                "complement": {"type": "boolean"},
                "center": {"$ref": "#/$defs/profile"},
                "reference": {"$ref": "#/$defs/profile"},
                "functional": {"type": "string"},
                "level": _NUM,
            },
        },
        "rate": {
            "type": "object",
            "additionalProperties": False,
            "required": ["K"],
            "properties": {
                "K": _INT_POS,
                # read by nothing: still accepted because older configs,
                # the benchmark's rate workload among them, set them
                "mu_schedule": {"type": "array", "items": _POS, "minItems": 1,
                                "deprecated": True},
                "fd_step": _POS,
                "max_iters": _INT_POS,
                "stag_window": {**_INT_POS, "deprecated": True},
                "feas_tol": _POS,
            },
        },
        "ldp1": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"delta_sq": _POS, "replicas": _INT_POS},
        },
        "weighted": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lam": {"type": "number", "minimum": 0},
                "epsilons": {"type": "array", "items": _POS, "minItems": 1},
                "replicas": _INT_POS,
            },
        },
        "validation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "samples": _INT_POS,
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rho_min": {"type": "number", "minimum": 0},
                "delta_min": {"type": "number", "minimum": 0},
            },
        },
    },
}

DEFAULTS = {
    "n_event": EVENT_N_PEN,
    "sweep": {"n_start": 16.0, "factor": 2.0, "n_max": 4096.0,
              "tol_cauchy": 1e-6},
    "epsilons": [1.0, 0.5, 0.2, 0.1, 0.05],
    "ldp1": {"delta_sq": 0.01, "replicas": 50},
    "weighted": {"lam": 1.0},
    "validation": {"samples": 1000, "seed": 0},
    "tolerances": {"rho_min": 0.7072, "delta_min": 0.0},
    "rate": {"fd_step": 1e-4, "max_iters": 150, "feas_tol": 1e-3},
}

_TYPES = {"number": numbers.Number, "object": dict, "array": list,
          "string": str, "boolean": bool}


def _is_type(x, name: str) -> bool:
    """JSON Schema's types: a bool is no number, and 1.0 is an integer."""
    if isinstance(x, bool) and name != "boolean":
        return False
    if name == "integer":
        return isinstance(x, int) or isinstance(x, float) and x.is_integer()
    return isinstance(x, _TYPES[name])


# keyword: (the type it applies to, violated(x, rule), message) for the
# keywords that do not descend; SCHEMA's enums and consts hold strings and
# its minItems are all 1
_CHECKS = {
    "type": (None, lambda x, r: not _is_type(x, r), "{x!r} is not of type {r!r}"),
    "enum": (None, lambda x, r: x not in r, "{x!r} is not one of {r!r}"),
    "const": (None, operator.ne, "{r!r} was expected"),
    "minimum": ("number", operator.lt, "{x!r} is less than the minimum of {r!r}"),
    "maximum": ("number", operator.gt, "{x!r} is greater than the maximum of {r!r}"),
    "exclusiveMinimum": ("number", operator.le,
                         "{x!r} is less than or equal to the minimum of {r!r}"),
    "minItems": ("array", lambda x, r: len(x) < r, "{x!r} should be non-empty"),
}


def _errors(schema: dict, x, path: tuple = ()):
    """(path, message) of each violation of ``schema`` by ``x``, in the
    schema's keyword order, with JSON Schema 2020-12's messages.  Covers the
    keywords SCHEMA uses (``additionalProperties`` only as false);
    ``$schema``, ``$defs`` and ``deprecated`` assert nothing."""
    for key, rule in schema.items():
        if key in _CHECKS:
            applies, violated, message = _CHECKS[key]
            if (applies is None or _is_type(x, applies)) and violated(x, rule):
                yield path, message.format(x=x, r=rule)
        elif key == "$ref":
            yield from _errors(SCHEMA["$defs"][rule.rsplit("/", 1)[1]], x, path)
        elif key == "allOf":
            for sub in rule:
                yield from _errors(sub, x, path)
        elif key == "if" and "then" in schema and not any(_errors(rule, x, path)):
            yield from _errors(schema["then"], x, path)
        elif key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from _errors(rule, item, path + (i,))
        elif not isinstance(x, dict):
            continue
        elif key == "required":
            yield from ((path, f"{name!r} is a required property")
                        for name in rule if name not in x)
        elif key == "properties":
            for name, sub in rule.items():
                if name in x:
                    yield from _errors(sub, x[name], path + (name,))
        elif key == "additionalProperties":
            extra = sorted(set(x) - set(schema.get("properties", {})))
            if extra:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} unexpected)")


def _aliased_rates(payload: dict):
    """(path, message) of each sine rate, of ``control`` or of a
    ``sine_rates`` family, that its K control values cannot resolve: the
    left-endpoint samples of sin(2 pi rate t / T) alias unless
    2 * rate < K (rate K/2 samples to zero, and rate K - r is rate r with
    the sign flipped)."""
    sines = []
    spec = payload.get("control")
    if spec is not None and spec["kind"] == "sine":
        sines.append((("control", "rate"), spec["rate"], spec["K"]))
    spec = payload.get("control_family")
    if spec is not None and spec["kind"] == "sine_rates":
        K = spec.get("K", SINE_RATES_K)
        sines += [(("control_family", "rates", i), rate, K)
                  for i, rate in enumerate(spec["rates"])]
    for path, rate, K in sines:
        if 2 * rate >= K:
            yield path, (f"rate {rate!r} aliases on K = {K!r} control "
                         "values (2 * rate must be below K)")


def validate_config(payload: dict) -> None:
    """Raise ConfigError on the first violation of SCHEMA in path order,
    or, when there is none, on the first sine rate that aliases."""
    errors = list(_errors(SCHEMA, payload)) or list(_aliased_rates(payload))
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise ConfigError(f"config field {'.'.join(map(str, path)) or '<root>'}: "
                          f"{message}")


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _build_domain(spec: dict) -> ConvexDomain:
    kind = spec["kind"]
    if kind == "ball":
        return Ball(center=spec["center"], radius=spec["radius"])
    if kind == "box":
        return Box(lower=spec["lower"], upper=spec["upper"])
    if kind == "polytope":
        return Polytope(normals=spec["normals"], offsets=spec["offsets"])
    return Intersection([_build_domain(s) for s in spec["members"]])


def _build_profile(grid: SpatialGrid, spec: dict) -> Field:
    vals = np.zeros((grid.d, grid.J))
    kind = spec["kind"]
    comp = spec.get("component", 0)
    if comp >= grid.d:
        raise ConfigError(f"profile component {comp} out of range for d={grid.d}")
    if kind == "sine":
        vals[comp] = spec.get("amplitude", 1.0) * np.sin(np.pi * grid.xs)
    elif kind == "parabola":
        prof = spec.get("scale", 1.0) * grid.xs * (1.0 - grid.xs)
        if "cap" in spec:
            prof = np.minimum(prof, spec["cap"])
        vals[comp] = prof
    return Field(grid, vals)


def _build_control(T: float, m: int, spec: dict) -> Control:
    kind = spec["kind"]
    if kind == "zero":
        return zero_control(T, m, K=spec.get("K", 1))
    if kind == "constant":
        vec = spec["vector"]
        if len(vec) != m:
            raise ConfigError(f"control vector length {len(vec)} != m={m}")
        return constant_control(T, vec, K=spec.get("K", 1))
    if kind == "sine":
        return sine_control(T, m, K=spec["K"], rate=spec["rate"],
                            amplitude=spec.get("amplitude", 1.0),
                            component=spec.get("component", 0))
    values = np.asarray(spec["values"], dtype=float)
    if values.shape[0] != m:
        raise ConfigError(f"tabulated control has {values.shape[0]} rows, "
                          f"expected m={m}")
    return tabulated_control(T, values)


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        validate_config(payload)
        return cls(raw=payload)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from err
        return cls.from_dict(payload)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()

    # -- sections with defaults ---------------------------------------

    def _merged(self, name: str, spec: dict = None) -> dict:
        """DEFAULTS[name] overridden by ``spec``, by default the config's
        top-level section ``name``."""
        return {**DEFAULTS[name],
                **(self.raw.get(name, {}) if spec is None else spec)}

    @property
    def J(self) -> int:
        return self.raw["grid"]["J"]

    @property
    def dt(self) -> float:
        return float(self.raw["grid"]["dt"])

    @property
    def T(self) -> float:
        return float(self.raw["grid"]["T"])

    @property
    def n_event(self) -> float:
        return float(self.raw["penalty"].get("n_event", DEFAULTS["n_event"]))

    @property
    def sweep(self) -> dict:
        return self._merged("sweep", self.raw["penalty"].get("sweep", {}))

    @property
    def epsilons(self) -> list:
        return list(self.raw.get("epsilons", DEFAULTS["epsilons"]))

    @property
    def base_seed(self) -> int:
        return self.raw["replicas"]["base_seed"]

    @property
    def replica_count(self) -> int:
        return self.raw["replicas"]["count"]

    @property
    def ldp1(self) -> dict:
        return self._merged("ldp1")

    @property
    def weighted(self) -> dict:
        """The weighted trend's section; its noise levels and replica
        count fall back to the run's ``epsilons`` and ``replicas.count``."""
        return {"epsilons": self.epsilons, "replicas": self.replica_count,
                **self._merged("weighted")}

    @property
    def validation(self) -> dict:
        return self._merged("validation")

    @property
    def tolerances(self) -> dict:
        return self._merged("tolerances")

    @property
    def rate_options(self) -> dict:
        spec = self.raw.get("rate")
        if spec is None:
            raise ConfigError("config has no 'rate' section")
        return self._merged("rate", spec)

    # -- model builders ------------------------------------------------

    def build_domain(self) -> ConvexDomain:
        dom = _build_domain(self.raw["domain"])
        if dom.dim != self.raw["coefficients"]["d"]:
            raise ConfigError(
                f"domain dimension {dom.dim} != coefficients.d "
                f"{self.raw['coefficients']['d']}")
        return dom

    def build_gamma(self, domain: ConvexDomain = None) -> ObliqueField:
        if domain is None:
            domain = self.build_domain()
        spec = self.raw["gamma"]
        if spec["rule"] == "rotated_normal":
            return ObliqueField(domain, "rotated_normal",
                                angle=spec.get("angle", 0.0))
        return ObliqueField(domain, "normal")

    def build_coefficients(self) -> ModelCoefficients:
        c = self.raw["coefficients"]
        try:
            return make_coefficients(c["d"], c["m"], b=c["b"], sigma=c["sigma"])
        except (KeyError, ValueError) as err:
            raise ConfigError(f"config field coefficients: {err}") from err

    def build_grid(self) -> SpatialGrid:
        return SpatialGrid(J=self.J, d=self.raw["coefficients"]["d"])

    def build_u0(self) -> Field:
        return _build_profile(self.build_grid(), self.raw["u0"])

    def build_control(self) -> Control:
        spec = self.raw.get("control")
        if spec is None:
            return None
        return _build_control(self.T, self.raw["coefficients"]["m"], spec)

    def build_control_family(self) -> list:
        spec = self.raw.get("control_family")
        if spec is None:
            return []
        m = self.raw["coefficients"]["m"]
        if spec["kind"] == "sine_rates":
            K = spec.get("K", SINE_RATES_K)
            return [(f"r{r}", sine_control(self.T, m, K=K, rate=r,
                                           amplitude=spec.get("amplitude", 1.0),
                                           component=spec.get("component", 0)))
                    for r in spec["rates"]]
        base = _build_control(self.T, m, spec["base"])
        return [(f"x{c}", base.scaled(c)) for c in spec["factors"]]

    def build_event(self) -> EventSpec:
        spec = self.raw.get("event")
        if spec is None:
            return None
        grid = self.build_grid()
        kwargs = {"kind": spec["kind"]}
        if "radius" in spec:
            kwargs["radius"] = spec["radius"]
        if spec.get("complement"):
            kwargs["complement"] = True
        if "center" in spec:
            kwargs["center"] = _build_profile(grid, spec["center"]).values
        if "reference" in spec:
            kwargs["reference"] = _build_profile(grid, spec["reference"]).values
        if "functional" in spec:
            kwargs["functional"] = spec["functional"]
        if "level" in spec:
            kwargs["level"] = spec["level"]
        try:
            return EventSpec(**kwargs)
        except ValueError as err:
            raise ConfigError(f"config field event: {err}") from err
