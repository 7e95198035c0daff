"""JSON run specifications: schema validation with key paths, state builders.

A run spec is one JSON object.  Minimal example:

    {"geometry": "sphere", "truncation": 8, "nu": 1.0, "alpha": 1.0,
     "scheme": {"dt": 0.01, "t_end": 2.0}}

Optional blocks: "forcing" (rotational modes as [index..., amplitude] rows
plus a torus "harmonic" pair), "initial" (zero | eigenmode | random),
"lyapunov" (ensemble settings), "sweep" (bounds parameter sweep), "seed",
"out", and "length" (torus period, required there).  Unknown keys anywhere
are rejected by name so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import basis, dynamics, integrate, lyapunov, operators as ops
from .errors import ConfigurationError, IndexRangeError

SWEEP_KEYS = dynamics.MODEL_PARAMS


@dataclass(frozen=True)
class InitialSpec:
    """Initial condition: zero, one eigenmode, or a seeded random spectrum."""

    kind: str
    mode: tuple = ()
    amplitude: float = 1.0
    seed: int = 0
    slope: float = 2.0
    energy: float = 1.0


@dataclass(frozen=True)
class RunSpec:
    geometry: basis.Geometry
    truncation: int
    nu: float
    alpha: float
    sigma: float
    forcing_modes: tuple
    forcing_harmonic: tuple
    initial: InitialSpec
    scheme: integrate.SchemeConfig
    lyapunov: lyapunov.LyapunovConfig | None
    seed: int | None
    out: str | None
    sweep: tuple | None


# ---------------------------------------------------------------------------
# validation helpers


def _fail(path, message):
    raise ConfigurationError(f"{path}: {message}")


def _reject_unknown(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key")


def _number(value, path):
    """`value` as a float; a non-number or a non-finite number fails naming `path`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _get_number(obj, key, path, default=None, minimum=None, strict_min=False):
    if key not in obj:
        if default is None:
            _fail(f"{path}{key}", "missing required key")
        return default
    value = _number(obj[key], f"{path}{key}")
    if minimum is not None:
        if strict_min and not value > minimum:
            _fail(f"{path}{key}", f"must be > {minimum}, got {value}")
        if not strict_min and value < minimum:
            _fail(f"{path}{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_int(obj, key, path, default=None, minimum=None):
    if key not in obj:
        if default is None:
            _fail(f"{path}{key}", "missing required key")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{path}{key}", f"must be >= {minimum}, got {value}")
    return value


def _seed(value, path):
    """The seed; fails naming `path` where `operators.check_seed` refuses it."""
    try:
        return ops.check_seed(value)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _check_param(kind, key, value, path):
    why = dynamics.param_error(kind, key, value)
    if why:
        _fail(path, why)
    return value


def _check_products(geometry, nu, alpha, path=None):
    """Fails naming `path`, or else the parameter at fault, where
    `dynamics.product_error` refuses (nu, alpha) on the geometry."""
    found = dynamics.product_error(geometry.lambda_1, nu, alpha)
    if found:
        _fail(path or found[0], found[1])


def _check_mode_index(geometry, truncation, index, path):
    """The index pair as a tuple; fails naming `path` where
    `basis.check_mode_index` refuses it (not integers, or outside the
    truncation)."""
    try:
        return basis.check_mode_index(geometry.kind, truncation, index)
    except IndexRangeError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# block parsers


def _parse_forcing(obj, geometry, truncation):
    if obj is None:
        return (), ()
    _reject_unknown(obj, {"modes", "harmonic"}, "forcing")
    modes = []
    for i, row in enumerate(obj.get("modes", [])):
        path = f"forcing.modes[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            _fail(path, f"expected [index, index, amplitude], got {row!r}")
        idx = _check_mode_index(geometry, truncation, row[:2], path)
        modes.append((idx, _number(row[2], path)))
    harmonic = obj.get("harmonic", [])
    if harmonic and geometry.kind == basis.SPHERE:
        _fail("forcing.harmonic", "the sphere has no harmonic component")
    if harmonic:
        if not isinstance(harmonic, list) or len(harmonic) != 2:
            _fail("forcing.harmonic", f"expected a pair, got {harmonic!r}")
        harmonic = [_number(v, f"forcing.harmonic[{i}]") for i, v in enumerate(harmonic)]
    return tuple(modes), tuple(harmonic)


def _parse_initial(obj, geometry, truncation, top_seed):
    if obj is None:
        return InitialSpec("zero")
    kind = obj.get("kind")
    if kind == "zero":
        _reject_unknown(obj, {"kind"}, "initial")
        return InitialSpec("zero")
    if kind == "eigenmode":
        _reject_unknown(obj, {"kind", "mode", "amplitude"}, "initial")
        mode = obj.get("mode")
        if not isinstance(mode, list) or len(mode) != 2:
            _fail("initial.mode", f"expected an index pair, got {mode!r}")
        mode = _check_mode_index(geometry, truncation, mode, "initial.mode")
        amp = _get_number(obj, "amplitude", "initial.", default=1.0)
        return InitialSpec("eigenmode", mode=mode, amplitude=amp)
    if kind == "random":
        _reject_unknown(obj, {"kind", "seed", "slope", "energy"}, "initial")
        seed = obj.get("seed", top_seed)
        if seed is None:
            _fail("initial.seed", "random initial data needs a seed (here or top-level)")
        seed = _seed(seed, "initial.seed")
        slope = _get_number(obj, "slope", "initial.", default=2.0)
        energy = _get_number(obj, "energy", "initial.", default=1.0, minimum=0.0, strict_min=True)
        return InitialSpec("random", seed=seed, slope=slope, energy=energy)
    _fail("initial.kind", f"expected zero | eigenmode | random, got {kind!r}")


def _parse_scheme(obj):
    if obj is None:
        _fail("scheme", "missing required key")
    _reject_unknown(obj, {"dt", "t_end", "method", "stride"}, "scheme")
    dt = _get_number(obj, "dt", "scheme.")
    t_end = _get_number(obj, "t_end", "scheme.")
    method = obj.get("method", integrate.IF_RK4)
    stride = _get_int(obj, "stride", "scheme.", default=1)
    try:
        return integrate.SchemeConfig(dt=dt, t_end=t_end, method=method, stride=stride)
    except ConfigurationError as exc:
        raise ConfigurationError(f"scheme: {exc}") from exc


def _parse_lyapunov(obj, top_seed):
    if obj is None:
        return None
    allowed = {"n_ensemble", "t_transient", "t_average", "renorm_interval", "seed"}
    _reject_unknown(obj, allowed, "lyapunov")
    seed = _seed(obj.get("seed", top_seed if top_seed is not None else 0), "lyapunov.seed")
    try:
        return lyapunov.LyapunovConfig(
            n_ensemble=_get_int(obj, "n_ensemble", "lyapunov.", minimum=1),
            t_transient=_get_number(obj, "t_transient", "lyapunov.", default=0.0, minimum=0.0),
            t_average=_get_number(obj, "t_average", "lyapunov."),
            renorm_interval=_get_number(obj, "renorm_interval", "lyapunov."),
            seed=seed,
        )
    except ConfigurationError as exc:
        msg = str(exc)
        raise ConfigurationError(msg if msg.startswith("lyapunov") else f"lyapunov: {msg}") from exc


def _parse_sweep(obj, geometry, nu, alpha):
    if obj is None:
        return None
    _reject_unknown(obj, {"key", "values"}, "sweep")
    key = obj.get("key")
    if key not in SWEEP_KEYS:
        _fail("sweep.key", f"expected one of {SWEEP_KEYS}, got {key!r}")
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        _fail("sweep.values", "expected a nonempty list of numbers")
    out = []
    for i, v in enumerate(values):
        path = f"sweep.values[{i}]"
        value = _check_param(geometry.kind, key, _number(v, path), path)
        point = {"nu": nu, "alpha": alpha, key: value}
        _check_products(geometry, point["nu"], point["alpha"], path)
        out.append(value)
    return (key, tuple(out))


TOP_KEYS = {
    "geometry",
    "length",
    "truncation",
    "nu",
    "alpha",
    "sigma",
    "forcing",
    "initial",
    "scheme",
    "lyapunov",
    "seed",
    "out",
    "sweep",
}


def parse_config(text):
    """Parse and validate one JSON run spec; every error names its key path."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ConfigurationError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("the top level must be a JSON object")
    _reject_unknown(raw, TOP_KEYS, "")
    kind = raw.get("geometry")
    if kind not in (basis.SPHERE, basis.TORUS):
        _fail("geometry", f"expected sphere | torus, got {kind!r}")
    if kind == basis.TORUS:
        length = _get_number(raw, "length", "", minimum=0.0, strict_min=True)
        geometry = basis.torus(length)
    else:
        if "length" in raw:
            _fail("length", "only valid with torus geometry")
        geometry = basis.sphere()
    truncation = _get_int(raw, "truncation", "", minimum=1)
    nu = _check_param(kind, "nu", _get_number(raw, "nu", ""), "nu")
    alpha = _check_param(kind, "alpha", _get_number(raw, "alpha", ""), "alpha")
    sigma = _check_param(kind, "sigma", _get_number(raw, "sigma", "", default=0.0), "sigma")
    _check_products(geometry, nu, alpha)
    seed = raw.get("seed")
    if seed is not None:
        _seed(seed, "seed")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        _fail("out", f"expected a string, got {out!r}")
    modes, harmonic = _parse_forcing(raw.get("forcing"), geometry, truncation)
    return RunSpec(
        geometry=geometry,
        truncation=truncation,
        nu=nu,
        alpha=alpha,
        sigma=sigma,
        forcing_modes=modes,
        forcing_harmonic=harmonic,
        initial=_parse_initial(raw.get("initial"), geometry, truncation, seed),
        scheme=_parse_scheme(raw.get("scheme")),
        lyapunov=_parse_lyapunov(raw.get("lyapunov"), seed),
        seed=seed,
        out=out,
        sweep=_parse_sweep(raw.get("sweep"), geometry, nu, alpha),
    )


# ---------------------------------------------------------------------------
# realization against a plan


def build_plan(spec):
    return basis.build_plan(spec.geometry, spec.truncation)


def model_params(plan, spec, nu=None, alpha=None, sigma=None):
    """ModelParams for the spec, with optional overrides for sweeps."""
    c = np.zeros(plan.n_modes)
    for index, amplitude in spec.forcing_modes:
        c[basis.mode_slot(plan, index)] += amplitude
    f2 = np.zeros(plan.n_harmonic)
    if spec.forcing_harmonic:
        f2[:] = spec.forcing_harmonic
    return dynamics.ModelParams(
        nu=spec.nu if nu is None else nu,
        alpha=spec.alpha if alpha is None else alpha,
        sigma=spec.sigma if sigma is None else sigma,
        forcing=dynamics.Forcing(c, f2),
    )


def initial_state(plan, spec):
    """Realize the initial condition block against a transform plan."""
    init = spec.initial
    if init.kind == "eigenmode":
        return ops.state_from_mode(plan, init.mode, init.amplitude)
    if init.kind == "random":
        return ops.random_state(plan, init.seed, init.slope, init.energy, spec.alpha)
    return ops.zero_state(plan)
