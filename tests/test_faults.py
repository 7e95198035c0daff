"""Which planted faults the checks of `verify`, `selftest` and `lyapunov` see.

This is mutation testing (DeMillo, Lipton & Sayward 1978, IEEE Computer
11(4), 34-41).  Each fault in FAULTS replaces one module attribute in
process, by monkeypatch, with a wrong variant; no source is edited.  Under
each fault the command line runs `simulate` and then `verify` on a small
sphere config and on a small torus config, `lyapunov` on the sphere config,
and `selftest`.  TABLE pins the exit codes and the exact set of FAIL rows
of each.

The gaps are pinned as strictly as the catches.  VERIFY_GAPS names each
fault that no `verify` row catches on either config, with the ROADMAP item
whose row will close the gap, and LYAPUNOV_GAPS each fault under which the
`lyapunov` verdict still reads `consistent`.  A fault that starts failing
a row fails this module until its gap is struck off.  A change may strike
a fault off a gaps list; none may add one.  UNTESTED_ROWS names the printed
rows that no fault fails.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from bardina2d import basis, bounds, cli, dynamics, fourier, integrate, legendre

TWO_PI = 2.0 * np.pi

SPHERE = {
    "geometry": "sphere",
    "truncation": 8,
    "nu": 1.0,
    "alpha": 1.0,
    # with sigma = 0 a wrong drag is invisible
    "sigma": 0.2,
    "forcing": {"modes": [[2, 1, 5.0]]},
    "initial": {"kind": "random", "seed": 0},
    "scheme": {"dt": 0.01, "t_end": 1.0, "stride": 10},
    "lyapunov": {"n_ensemble": 4, "t_transient": 0.0, "t_average": 1.0, "renorm_interval": 0.25},
}

# the README torus config at truncation 6, to t = 1
TORUS = {
    "geometry": "torus",
    "length": TWO_PI,
    "truncation": 6,
    "nu": 0.05,
    "alpha": 0.25,
    "sigma": 0.4,
    "seed": 11,
    "forcing": {"modes": [[1, 2, 1.5], [3, 0, 0.5]], "harmonic": [0.2, 0.0]},
    "initial": {"kind": "random", "slope": 2.0, "energy": 0.5},
    "scheme": {"dt": 0.005, "t_end": 1.0, "stride": 50, "method": "if-rk4"},
}


def _unsigned_rot90(vec):
    # n x (.) without its minus sign
    return np.stack((vec[..., 1, :, :], vec[..., 0, :, :]), axis=-3)


def _products_without_cross_term(plan, rows):
    # dynamics._product_parts with the tangent rows' zeta_u (n x U) never
    # added: they keep zeta_U (n x u) alone
    core = plan.core
    ws = core.workspace(len(rows))
    core.row_synthesis(rows, ws, ws.grids)
    for g, grad0 in ws.products:
        np.multiply(ws.zeta, grad0, out=g)
    return core.row_analysis(ws.g, ws)


def _zero_tangents(product_parts):
    def parts(plan, rows):
        p = product_parts(plan, rows)
        p[1:] = 0.0
        return p

    return parts


def _scaled_run_constants(forcing, helmholtz):
    # forcing row times `forcing`, divisor 1 + helmholtz alpha^2 lam
    def make(run_constants):
        def scaled(plan, params):
            run = run_constants(plan, params)
            divisor = 1.0 + helmholtz * params.alpha**2 * plan.core.row_lam[None]
            return dynamics.RunConstants(forcing * run.forcing, divisor)

        return scaled

    return make


def _scaled_drag(remainder_u):
    def remainder(plan, rows, params, run):
        return remainder_u(plan, rows, dataclasses.replace(params, sigma=1.01 * params.sigma), run)

    return remainder


def _scaled_decay(decay_factors):
    def decay(plan, nu, dt):
        return decay_factors(plan, 1.01 * nu, dt)

    return decay


def _rk4(fault):
    # integrate.step_pair's IF-RK4 with combination g2 + g2 in place of
    # g2 + g3 ("g2g2"), or stage 3 built from g1 in place of g2 ("stage3")
    def step_pair(rows, dt, e_full, e_half, rem, method, first=None):
        assert method == integrate.IF_RK4
        g1 = rem(rows) if first is None else first
        g2 = rem(e_half * (rows + 0.5 * dt * g1))
        g3 = rem(e_half * rows + 0.5 * dt * (g1 if fault == "stage3" else g2))
        decayed = e_full * rows
        g4 = rem(decayed + dt * (e_half * g3))
        mid = g2 + (g2 if fault == "g2g2" else g3)
        return decayed + (dt / 6.0) * (e_full * g1 + 2.0 * (e_half * mid) + g4)

    return lambda _: step_pair


def _lowered_levels(constants):
    def lowered(*args, **kwargs):
        c = constants(*args, **kwargs)
        return dataclasses.replace(c, l1=c.l1 / 10.0, l2=c.l2 / 10.0)

    return lowered


def _sphere_rule(fast_even):
    # the sphere's nlon = _fast_even(3L + 1) becomes a 2L + 2 longitude rule
    return lambda n: fast_even(2 * (n - 1) // 3 + 2)


# name: (owner, attribute, make), the attribute replaced by make(original)
FAULTS = {
    "sign": (basis, "rot90", lambda _: _unsigned_rot90),
    "cross-term": (dynamics, "_product_parts", lambda _: _products_without_cross_term),
    "tangent-zero": (dynamics, "_product_parts", _zero_tangents),
    "helmholtz": (dynamics, "run_constants", _scaled_run_constants(1.0, 1.01)),
    "drag": (dynamics, "_remainder_u", _scaled_drag),
    "forcing": (dynamics, "run_constants", _scaled_run_constants(1.01, 1.0)),
    "decay": (integrate, "decay_factors", _scaled_decay),
    "rk4-g2g2": (integrate, "step_pair", _rk4("g2g2")),
    "rk4-stage3": (integrate, "step_pair", _rk4("stage3")),
    "bounds-level": (bounds, "constants", _lowered_levels),
    "torus-grid": (fourier._TorusCore, "ngrid", lambda _: property(lambda core: 3 * core.kmax)),
    "sphere-grid": (legendre, "_fast_even", _sphere_rule),
}

ROUNDTRIP, ALIAS = "transform-roundtrip", "transform-alias"
IDENTITIES, TANGENT = "operator-identities", "tangent-linearization"
ENERGY_LAW, RUN_ENVELOPES = "run-energy-law", "run-envelopes"


def _both(*rows):
    return {f"{kind}:{row}" for kind in ("sphere", "torus") for row in rows}


# fault: (FAIL rows of verify on SPHERE, of verify on TORUS, of selftest)
TABLE = {
    None: (set(), set(), set()),
    "sign": ({ROUNDTRIP, IDENTITIES}, {ROUNDTRIP, IDENTITIES}, _both(ROUNDTRIP, IDENTITIES)),
    "cross-term": ({TANGENT}, {TANGENT}, _both(TANGENT)),
    "tangent-zero": ({TANGENT}, {TANGENT}, _both(TANGENT)),
    "helmholtz": ({ENERGY_LAW}, {ENERGY_LAW}, set()),
    "drag": ({ENERGY_LAW}, {ENERGY_LAW}, set()),
    "forcing": ({ENERGY_LAW}, {ENERGY_LAW}, set()),
    "decay": (set(), set(), {"eigenmode-decay"}),
    "rk4-g2g2": (set(), set(), set()),
    "rk4-stage3": (set(), set(), set()),
    "bounds-level": (set(), {RUN_ENVELOPES}, set()),
    "torus-grid": (set(), {ALIAS}, {"torus:" + ALIAS}),
    "sphere-grid": ({ALIAS, IDENTITIES}, set(), {"sphere:" + ALIAS, "sphere:" + IDENTITIES}),
}

# faults that no verify row catches on either config, and the ROADMAP item
# whose row will catch them
VERIFY_GAPS = {
    "decay": "item 19's exact-solution row",
    "rk4-g2g2": "item 10's time-step row",
    "rk4-stage3": "item 10's time-step row",
}

# faults under which the sphere config's lyapunov verdict reads
# `consistent`, and the ROADMAP item whose checks will catch them: all of
# them, the tangent faults included
LYAPUNOV_GAPS = dict.fromkeys(
    (
        "sign", "cross-term", "tangent-zero", "helmholtz", "drag", "forcing", "decay",
        "rk4-g2g2", "rk4-stage3", "bounds-level", "torus-grid", "sphere-grid",
    ),
    "item 8's Lyapunov checks",
)

# printed rows that no fault fails
UNTESTED_ROWS = {
    "gronwall-envelopes",
    "sphere:gronwall-envelopes",
    "torus:gronwall-envelopes",
    "run-average-enstrophy",
    "snapshot-roundtrip",
}


@dataclasses.dataclass
class Observed:
    exits: dict  # command: exit code
    rows: dict  # "sphere", "torus", "selftest": {row name: status}
    verdict: str
    finals: dict  # geometry: final.bdna bytes


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _status(text):
    """{row name: PASS or FAIL} of a printed check table."""
    return dict(line.split()[:2] for line in text.splitlines()[1:])


def _observe(tmp, fault):
    exits, rows, finals = {}, {}, {}
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            owner, name, make = FAULTS[fault]
            mp.setattr(owner, name, make(getattr(owner, name)))
        for kind, doc in (("sphere", SPHERE), ("torus", TORUS)):
            config, out = tmp / f"{kind}.json", tmp / f"{fault}-{kind}"
            config.write_text(json.dumps(doc))
            args = ["--config", str(config), "--out", str(out)]
            exits[f"simulate {kind}"], _ = _run(["simulate", *args])
            exits[f"verify {kind}"], text = _run(["verify", *args])
            rows[kind] = _status(text)
            finals[kind] = (out / "final.bdna").read_bytes()
        lyap = tmp / f"{fault}-lyapunov"
        exits["lyapunov"], _ = _run(
            ["lyapunov", "--config", str(tmp / "sphere.json"), "--out", str(lyap)]
        )
        verdict = json.loads((lyap / "lyapunov.json").read_text())["verdict"]
        exits["selftest"], text = _run(["selftest"])
        rows["selftest"] = _status(text)
    return Observed(exits, rows, verdict, finals)


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("faults")
    return {fault: _observe(tmp, fault) for fault in TABLE}


def _failed(status):
    return {name for name, s in status.items() if s != "PASS"}


@pytest.mark.parametrize("fault", list(TABLE), ids=lambda f: f or "none")
def test_fault_row(observed, fault):
    got = observed[fault]
    want = dict(zip(("sphere", "torus", "selftest"), TABLE[fault]))
    assert {key: _failed(status) for key, status in got.rows.items()} == want
    exits = {"simulate sphere": 0, "simulate torus": 0, "lyapunov": 0}
    exits.update({f"verify {kind}": int(bool(want[kind])) for kind in ("sphere", "torus")})
    exits["selftest"] = int(bool(want["selftest"]))
    assert got.exits == exits


def test_gaps_are_strict(observed):
    assert set(TABLE) - {None} == set(FAULTS)
    uncaught = {f for f in FAULTS if not (TABLE[f][0] or TABLE[f][1])}
    assert uncaught == set(VERIFY_GAPS)
    # each gap is a live fault: it changes the run that verify passes
    clean = observed[None].finals
    for fault in VERIFY_GAPS:
        assert all(observed[fault].finals[kind] != clean[kind] for kind in clean), fault
    assert observed[None].verdict == "consistent"
    consistent = {f for f in FAULTS if observed[f].verdict == "consistent"}
    assert consistent == set(LYAPUNOV_GAPS)


def test_every_printed_row_is_failed_by_a_fault(observed):
    printed = set().union(*(status for status in observed[None].rows.values()))
    failed = set().union(*(rows for row in TABLE.values() for rows in row))
    assert failed <= printed
    assert printed - failed == UNTESTED_ROWS
