"""Command line driver: simulate | lyapunov | bounds | verify | selftest.

All numerics live in the library modules; this file parses arguments, pins
the BLAS thread pools, and serializes reports.  The pools are pinned to one
thread before numpy is first imported so that reductions always run in the
same order: --threads is accepted (a speed hint for wrappers) but can never
change a single output bit.  CSV numbers are written with 17 significant
digits, so every 64-bit float round-trips exactly.

Exit codes: 0 success, 1 runtime failure (divergence, degenerate ensemble,
failed verification suite), 2 invalid configuration or input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from types import SimpleNamespace

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_DIAG_HEADER = (
    "t,norm_u_l2,norm_u_v,norm_Au,norm_u2,norm_v,"
    "E1,E2,env1,env2,energy_residual,violations"
)


def _pin_thread_pools():
    # must happen before the first numpy import anywhere in the process
    for var in _THREAD_VARS:
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(x):
    return format(float(x), ".17g")


def _write_lines(path, lines):
    from .atomic import replacing

    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(value):
    import numpy as np

    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _write_json(path, obj):
    from .atomic import replacing

    with replacing(path) as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args, spec):
    out = args.out or spec.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bardina2d",
        description="Spectral simulator and estimate checks for a regularized "
        "fluid model on the sphere and the flat torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker hint; results never depend on it (pools stay pinned)",
    )

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True, help="JSON run spec")
    configured.add_argument("--out", default=None, help="output directory")
    configured.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every seed in the config",
    )

    sim = sub.add_parser(
        "simulate",
        parents=[common, configured],
        help="integrate one run; writes diagnostics.csv, final.bdna, meta.json",
    )
    sim.add_argument("--resume", default=None, help="snapshot file to continue from")

    sub.add_parser(
        "lyapunov",
        parents=[common, configured],
        help="exponent estimation; writes exponents.csv and lyapunov.json",
    )
    sub.add_parser(
        "bounds",
        parents=[common, configured],
        help="closed-form constants and bounds; writes bounds.json (+ sweep CSV)",
    )
    sub.add_parser(
        "verify",
        parents=[common, configured],
        help="identity, envelope, roundtrip, and tangent checks; "
        "also rechecks a run directory when --out holds one",
    )
    slf = sub.add_parser(
        "selftest",
        parents=[common],
        help="fixed built-in check suite on both geometries",
    )
    slf.add_argument(
        "--inject-sign-fault",
        action="store_true",
        help="flip the pointwise rotation sign to demonstrate failure reporting",
    )
    return parser


def _override_seed(spec, seed):
    initial = spec.initial
    if initial.kind == "random":
        initial = dataclasses.replace(initial, seed=seed)
    lyap = spec.lyapunov
    if lyap is not None:
        lyap = dataclasses.replace(lyap, seed=seed)
    return dataclasses.replace(spec, seed=seed, initial=initial, lyapunov=lyap)


def _load_spec(args):
    from . import config as cfg

    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    spec = cfg.parse_config(text)
    if args.seed is not None:
        spec = _override_seed(spec, args.seed)
    return spec


# ---------------------------------------------------------------------------
# simulate


def _diag_row(r, dt):
    """One diagnostics.csv line for one record, without its newline."""
    from . import verification

    over1, over2 = verification.envelope_flags(r.e1, r.envelope1, r.e2, r.envelope2, dt)
    flags = int(over1) + int(over2)
    return ",".join(
        [
            _fmt(r.t),
            _fmt(r.u_l2),
            _fmt(r.u_v),
            _fmt(r.au_l2),
            _fmt(r.h_l2),
            _fmt(r.v_l2),
            _fmt(r.e1),
            _fmt(r.e2),
            _fmt(r.envelope1),
            _fmt(r.envelope2),
            _fmt(r.energy_residual),
            str(flags),
        ]
    )


def _param_echo(spec):
    return {
        "geometry": spec.geometry.kind,
        "length": spec.geometry.length,
        "truncation": spec.truncation,
        "nu": spec.nu,
        "alpha": spec.alpha,
        "sigma": spec.sigma,
    }


def _load_meta(meta_path, spec):
    """(meta, cause) for the meta.json at meta_path.

    meta is its dict, or None when the file is missing, unreadable or not a
    JSON object.  cause is None when meta echoes the config's parameters;
    otherwise it says why not: the read error, or the first key echoed
    differently, with both values.
    """
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return None, f"no meta.json at {meta_path}"
    except (OSError, ValueError) as exc:
        return None, f"{meta_path} is unreadable ({exc})"
    if not isinstance(meta, dict):
        return None, f"{meta_path} is not a JSON object"
    for key, value in _param_echo(spec).items():
        if meta.get(key) != value:
            return meta, f"{meta_path}: {key} is {meta.get(key)!r}, the config has {value!r}"
    return meta, None


def _resume_anchor(resume_path, spec):
    """Envelope anchor of the original run, read from meta.json next to the
    snapshot; resumed diagnostics then continue the original envelopes bitwise.

    Returns (anchor, None), or (None, cause) when meta.json is missing,
    unreadable, made with other parameters or lacks the anchor.
    """
    meta_path = os.path.join(os.path.dirname(os.path.abspath(resume_path)), "meta.json")
    meta, cause = _load_meta(meta_path, spec)
    if cause is not None:
        return None, cause
    try:
        anchor = (float(meta["anchor_e1"]), float(meta["anchor_e2"]), float(meta["anchor_t"]))
    except (KeyError, TypeError, ValueError):
        return None, f"{meta_path} holds no valid anchor_e1/anchor_e2/anchor_t"
    return anchor, None


def cmd_simulate(args, spec):
    from . import config as cfg
    from . import dynamics as dyn
    from . import integrate, snapshot, verification
    from . import operators as ops
    from .atomic import committing
    from .errors import ConfigurationError, DivergenceError

    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    dyn.validate_params(plan, params)
    scheme = spec.scheme

    if args.resume:
        snap = snapshot.load_snapshot(args.resume)
        snapshot.check_snapshot(snap, plan, params)
        state = snapshot.as_state(snap)
        t_start = snap.t
        anchor, reanchor_cause = _resume_anchor(args.resume, spec)
    else:
        state = cfg.initial_state(plan, spec)
        t_start = 0.0
        anchor, reanchor_cause = None, None
    if anchor is None:
        anchor = (
            ops.energy_e1(plan, state, params.alpha),
            ops.energy_e2(plan, state, params.alpha),
            t_start,
        )
    if scheme.t_end < t_start:
        raise ConfigurationError(
            f"scheme.t_end: {scheme.t_end} is before the start time {t_start}"
        )

    out = _out_dir(args, spec)
    meta = _param_echo(spec)
    meta.update(
        {
            "anchor_e1": float(anchor[0]),
            "anchor_e2": float(anchor[1]),
            "anchor_t": float(anchor[2]),
            "dt": scheme.dt,
            "t_end": scheme.t_end,
            "stride": scheme.stride,
            "method": scheme.method,
            "t_start": t_start,
            "seed": spec.seed,
            "diagnostics": "diagnostics.csv",
        }
    )
    if reanchor_cause is not None:
        # the envelopes restart from the snapshot state, not the original run
        meta["anchor"] = "reanchored"
        print(f"warning: --resume re-anchored the envelopes at t={t_start}: "
              f"{reanchor_cause}", file=sys.stderr)

    envelopes = verification.envelopes(plan, params, *anchor)
    last, diverged = (t_start, state), None
    # all three files are staged and then renamed in staging order:
    # diagnostics.csv, the snapshot, and meta.json last, since it names both
    with committing() as stage:
        with open(stage(os.path.join(out, "diagnostics.csv")), "w",
                  encoding="utf-8", newline="") as csv:
            csv.write(_DIAG_HEADER + "\n")

            def observe(t, st, tend):
                record = verification.energy_record(plan, st, params, t, envelopes, tend)
                csv.write(_diag_row(record, scheme.dt) + "\n")

            # a zero-length run writes the header only and snapshots its start
            if scheme.t_end > t_start:
                try:
                    # only the latest sample is kept: it becomes the snapshot
                    for last in integrate.samples(
                        plan, state, params, scheme, (observe,), t_start
                    ):
                        pass
                except DivergenceError as exc:
                    diverged = exc

        kept, stale = "final.bdna", "last_good.bdna"
        if diverged is not None:
            kept, stale = stale, kept
        t_final, final_state = last
        snapshot.save_snapshot(
            stage(os.path.join(out, kept)), plan, final_state, t_final, params
        )
        meta["snapshot"] = kept
        meta["t_final"] = t_final
        if diverged is not None:
            meta["diverged_at"] = diverged.t
        _write_json(stage(os.path.join(out, "meta.json")), meta)

    # the snapshot name meta does not give is an earlier run's, unless this
    # run resumed from it
    stale = os.path.join(out, stale)
    try:
        if not (args.resume and os.path.samefile(stale, args.resume)):
            os.remove(stale)
    except FileNotFoundError:
        pass
    if diverged is not None:
        print(f"error: {diverged}; partial diagnostics flushed, last recorded "
              f"state in {kept}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# lyapunov


def cmd_lyapunov(args, spec):
    import numpy as np

    from . import config as cfg
    from . import lyapunov
    from .errors import ConfigurationError

    if spec.lyapunov is None:
        raise ConfigurationError("lyapunov: missing required block")
    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    state = cfg.initial_state(plan, spec)

    report = lyapunov.benettin_run(plan, state, params, spec.scheme, spec.lyapunov)
    verdict = lyapunov.compare_bound(plan, report, params)

    out = _out_dir(args, spec)
    n = spec.lyapunov.n_ensemble
    header = ",".join(
        ["t"] + [f"mu_{k}" for k in range(1, n + 1)] + [f"q_{k}" for k in range(1, n + 1)]
    )
    lines = [header]
    for row in range(report.t_series.size):
        mu = np.sort(report.mu_series[row])[::-1]
        q = np.cumsum(mu)
        lines.append(",".join([_fmt(report.t_series[row])] + [_fmt(x) for x in mu] + [_fmt(x) for x in q]))
    _write_lines(os.path.join(out, "exponents.csv"), lines)

    payload = _param_echo(spec)
    payload.update(
        {
            "exponents": report.exponents,
            "q_partial": report.q_partial,
            "dim_ky": report.dim_ky,
            "ky_saturated": report.ky_saturated,
            "nstar": report.nstar,
            "measured_crossing": verdict["measured_crossing"],
            "consistent": verdict["consistent"],
            "gs_min_scale": report.gs_min_scale,
            "n_ensemble": spec.lyapunov.n_ensemble,
            "t_transient": spec.lyapunov.t_transient,
            "t_average": spec.lyapunov.t_average,
            "renorm_interval": spec.lyapunov.renorm_interval,
            "seed": spec.lyapunov.seed,
        }
    )
    _write_json(os.path.join(out, "lyapunov.json"), payload)
    return 0


# ---------------------------------------------------------------------------
# bounds


_SWEEP_FIELDS = (
    "lambda_1",
    "delta",
    "delta_prime",
    "l1",
    "l2",
    "grashof",
    "nstar",
    "rho0",
    "rho1",
    "rho1_tilde",
    "rho2",
    "rho_v_sum",
    "average_enstrophy_bound",
)


def cmd_bounds(args, spec):
    from . import bounds
    from . import config as cfg

    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    out = _out_dir(args, spec)
    _write_json(os.path.join(out, "bounds.json"), bounds.bounds_report(plan, params))

    if spec.sweep is not None:
        key, values = spec.sweep
        lines = ["parameter,value," + ",".join(_SWEEP_FIELDS)]
        for value in values:
            point = bounds.bounds_report(plan, cfg.model_params(plan, spec, **{key: value}))
            lines.append(
                ",".join([key, _fmt(value)] + [_fmt(point[f]) for f in _SWEEP_FIELDS])
            )
        _write_lines(os.path.join(out, "bounds_sweep.csv"), lines)
    return 0


# ---------------------------------------------------------------------------
# verify / selftest check suites


def _run_check(name, fn):
    from .errors import ModelError

    try:
        ok, detail = fn()
    except ModelError as exc:
        return (name, False, f"error: {exc}")
    return (name, bool(ok), detail)


def _ensure_forced(plan, params):
    """Inject a unit single-mode force when the config carries none, so the
    envelope check exercises a nontrivial balance: mode (2, 1) on the sphere
    ((1, 1) at truncation 1, where (2, 1) is not retained), (1, 1) on the
    torus."""
    import numpy as np

    from . import basis
    from . import dynamics as dyn

    if np.any(params.forcing.f1_curl != 0.0) or np.any(params.forcing.f2 != 0.0):
        return params
    c = np.zeros(plan.n_modes)
    index = (min(2, plan.truncation), 1) if plan.geometry.kind == basis.SPHERE else (1, 1)
    c[basis.mode_slot(plan, index)] = 1.0
    return dyn.ModelParams(
        nu=params.nu,
        alpha=params.alpha,
        sigma=params.sigma,
        forcing=dyn.Forcing(c, np.zeros(plan.n_harmonic)),
    )


# relative tolerance of the transform rows: sound transforms round to at
# most 1.8e-14 at sphere L <= 256 (round trip 7.1e-15 at L=85, 1.3e-14 at
# L=256) and 1.9e-15 at torus K <= 32, while an aliased grid is off by the
# edge coefficients, 1e-2 and more
TRANSFORM_TOL = 1e-12


def _transform_roundtrip(plan, seed):
    """Synthesize-analyze round trip and Parseval sum of one random field."""
    import numpy as np

    from . import basis, verification

    coeffs = verification.probe_state(plan, np.random.default_rng(seed)).psi
    f = basis.synthesize(plan, coeffs)
    back = basis.analyze(plan, f)
    rel = np.linalg.norm(back - coeffs) / np.linalg.norm(coeffs)
    ss = float(np.dot(coeffs, coeffs))
    parseval = abs(basis.integrate(plan, f * f) - ss) / ss
    worst = max(float(rel), float(parseval))
    return worst <= TRANSFORM_TOL, f"max residual {worst:.3e}"


def _library_checks(plan, params, seed, prefix=""):
    import numpy as np

    from . import basis, integrate, verification
    from . import dynamics as dyn
    from . import operators as ops

    def alias():
        # a product of two retained fields analyzed on the plan grid and on the
        # next plan whose grid is larger both ways; an undersized grid rule
        # aliases onto the edge modes of the first but not of the second.
        # The residual is relative to the whole product on the larger plan,
        # whose retained part can vanish (degree-1 fields at sphere L=1)
        rng = np.random.default_rng(seed + 2000)
        pair = np.stack([verification.probe_state(plan, rng).psi for _ in range(2)])
        fa, fb = basis.synthesize(plan, pair)
        got = basis.analyze(plan, fa * fb)
        truncation = plan.truncation + 1
        larger = basis.build_plan(plan.geometry, truncation)
        while not all(b > a for a, b in zip(plan.grid_shape, larger.grid_shape)):
            truncation += 1
            larger = basis.build_plan(plan.geometry, truncation)
        slots = basis.slot_map(plan, larger)
        lifted = np.zeros((2, larger.n_modes))
        lifted[:, slots] = pair
        fa, fb = basis.synthesize(larger, lifted)
        full = basis.analyze(larger, fa * fb)
        rel = float(np.linalg.norm(got - full[slots]) / np.linalg.norm(full))
        return rel <= TRANSFORM_TOL, f"residual {rel:.3e} against truncation {truncation}"

    def identities():
        table = verification.identity_suite(plan, params, seed, n_states=20)
        worst = max(float(np.max(vals)) for vals in table.values())
        return worst <= 1e-9, f"max residual {worst:.3e}"

    def tangent():
        eps = 1e-6
        worst = 0.0
        for i in range(5):
            rng = np.random.default_rng(seed + 1000 + i)
            u = verification.probe_state(plan, rng)
            w = verification.probe_state(plan, rng)
            plus = ops.VelocityState(u.psi + eps * w.psi, u.harmonic + eps * w.harmonic)
            minus = ops.VelocityState(u.psi - eps * w.psi, u.harmonic - eps * w.harmonic)
            fp = dyn.rhs_u(plan, plus, params)
            fm = dyn.rhs_u(plan, minus, params)
            lin = dyn.rhs_tangent(plan, w, u, params)
            num = np.linalg.norm((fp.psi - fm.psi) / (2 * eps) - lin.psi) + np.linalg.norm(
                (fp.harmonic - fm.harmonic) / (2 * eps) - lin.harmonic
            )
            den = np.linalg.norm(lin.psi) + np.linalg.norm(lin.harmonic)
            worst = max(worst, num / den)
        return worst <= 1e-6, f"max residual {worst:.3e}"

    def envelopes():
        run_params = _ensure_forced(plan, params)
        state = verification.probe_state(plan, np.random.default_rng(seed))
        scheme = integrate.SchemeConfig(dt=0.005, t_end=2.0, method=integrate.IF_RK4, stride=10)
        traj = integrate.run(plan, state, run_params, scheme)
        recs = verification.trajectory_diagnostics(plan, traj, run_params)
        bad = verification.check_trajectory(plan, recs, run_params, dt=scheme.dt)
        return not bad, f"{len(bad)} violation(s) in {len(recs)} samples"

    return [
        _run_check(prefix + "transform-roundtrip", lambda: _transform_roundtrip(plan, seed)),
        _run_check(prefix + "transform-alias", alias),
        _run_check(prefix + "operator-identities", identities),
        _run_check(prefix + "tangent-linearization", tangent),
        _run_check(prefix + "gronwall-envelopes", envelopes),
    ]


def _recheck_run_dir(out, spec, plan, params):
    """Re-test a completed run directory from its diagnostics.csv: the
    recorded energies against the recorded envelopes (E1/E2 vs env1/env2),
    the worst recorded energy-law residual, and the time average of ||u||^2
    against its closed-form bound for the configured parameters."""
    import numpy as np

    from . import verification
    from .errors import ConfigurationError

    meta, meta_cause = _load_meta(os.path.join(out, "meta.json"), spec)
    try:
        dt = float((meta or {}).get("dt", 0.0))
    except (TypeError, ValueError):
        dt = 0.0
    with open(os.path.join(out, "diagnostics.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    cols = {name: k for k, name in enumerate(header)}

    def column(name):
        # a missing column or a non-numeric field fails the row that reads it
        try:
            return np.array([float(parts[cols[name]]) for parts in rows])
        except (KeyError, IndexError, ValueError) as exc:
            raise ConfigurationError(f"diagnostics.csv column {name}: {exc!r}") from exc

    def envelopes():
        over1, over2 = verification.envelope_flags(
            column("E1"), column("env1"), column("E2"), column("env2"), dt
        )
        bad = int(np.sum(over1) + np.sum(over2))
        return bad == 0, f"{bad} violation(s) in {len(rows)} rows"

    def energy_law():
        worst = float(np.max(column("energy_residual"), initial=0.0))
        tol = verification.ENERGY_RESIDUAL_TOL
        return worst <= tol, f"worst residual {worst:.3e} (tolerance {tol:.0e})"

    def average_enstrophy():
        if len(rows) < 2:
            return True, f"skipped: {len(rows)} row(s), a time average needs 2"
        if meta_cause is not None:
            return False, meta_cause
        records = [
            SimpleNamespace(t=t, u_v=u_v, e2=e2)
            for t, u_v, e2 in zip(column("t"), column("norm_u_v"), column("E2"))
        ]
        rep = verification.average_enstrophy_check(plan, records, params)
        return rep["ok"], f"average {rep['average']:.3e}, bound {rep['bound']:.3e}"

    return [
        _run_check("run-envelopes", envelopes),
        _run_check("run-energy-law", energy_law),
        _run_check("run-average-enstrophy", average_enstrophy),
    ]


def _print_table(checks):
    width = max(len(name) for name, _, _ in checks)
    print(f"{'check':<{width}}  status  detail")
    failures = sum(0 if ok else 1 for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL':<6}  {detail}")
    if failures:
        sys.stdout.flush()
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args, spec):
    from . import config as cfg
    from . import dynamics as dyn

    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    dyn.validate_params(plan, params)
    seed = spec.seed if spec.seed is not None else 0
    checks = _library_checks(plan, params, seed)
    run_dir = args.out or spec.out
    if run_dir and os.path.isfile(os.path.join(run_dir, "diagnostics.csv")):
        checks.extend(_recheck_run_dir(run_dir, spec, plan, params))
    return _print_table(checks)


def cmd_selftest(args):
    import numpy as np

    from . import basis, snapshot
    from . import dynamics as dyn
    from . import integrate
    from . import operators as ops
    from .errors import CorruptSnapshotError

    restore = None
    if args.inject_sign_fault:
        # the rotation is defined in basis and re-exported by operators
        restore = basis.rot90

        def unsigned_rot90(vec):
            # deliberately wrong: drops the minus sign of the rotation
            return np.stack((vec[..., 1, :, :], vec[..., 0, :, :]), axis=-3)

        basis.rot90 = ops.rot90 = unsigned_rot90

    try:
        checks = []
        for kind in (basis.SPHERE, basis.TORUS):
            if kind == basis.SPHERE:
                plan = basis.build_plan(basis.sphere(), 21)
                sigma, index, f2 = 0.0, (2, 1), np.zeros(0)
            else:
                plan = basis.build_plan(basis.torus(2.0 * np.pi), 21)
                sigma, index, f2 = 0.5, (1, 1), np.array([0.1, 0.0])
            c = np.zeros(plan.n_modes)
            c[basis.mode_slot(plan, index)] = 1.0
            params = dyn.ModelParams(nu=1.0, alpha=1.0, sigma=sigma, forcing=dyn.Forcing(c, f2))
            checks.extend(_library_checks(plan, params, seed=0, prefix=kind + ":"))

        def decay():
            plan = basis.build_plan(basis.sphere(), 6)
            params = dyn.ModelParams(nu=1.0, alpha=1.0, sigma=0.0, forcing=dyn.zero_forcing(plan))
            state = ops.state_from_mode(plan, (3, 1), amplitude=0.7)
            lam = basis.eigenvalue(plan, (3, 1))
            scheme = integrate.SchemeConfig(dt=1e-3, t_end=0.5, method=integrate.IF_RK4)
            traj = integrate.run(plan, state, params, scheme)
            expected = ops.norm_l2(plan, state) * np.exp(-params.nu * lam * scheme.t_end)
            rel = abs(ops.norm_l2(plan, traj.final_state) - expected) / expected
            return rel <= 1e-8, f"relative error {rel:.3e}"

        def snapshot_roundtrip():
            plan = basis.build_plan(basis.sphere(), 4)
            params = dyn.ModelParams(nu=1.0, alpha=1.0, sigma=0.0, forcing=dyn.zero_forcing(plan))
            state = ops.random_state(plan, seed=3)
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "state.bdna")
                snapshot.save_snapshot(path, plan, state, 1.25, params)
                snap = snapshot.load_snapshot(path)
                snapshot.check_snapshot(snap, plan, params)
                back = snapshot.as_state(snap)
                same = bool(np.array_equal(back.psi, state.psi)) and snap.t == 1.25
                with open(path, "rb") as fh:
                    blob = bytearray(fh.read())
                blob[-10] ^= 0x01  # flip one payload byte
                with open(path, "wb") as fh:
                    fh.write(bytes(blob))
                try:
                    snapshot.load_snapshot(path)
                    caught = False
                except CorruptSnapshotError:
                    caught = True
            ok = same and caught
            return ok, "roundtrip bitwise, corruption detected" if ok else "mismatch"

        checks.append(_run_check("eigenmode-decay", decay))
        checks.append(_run_check("snapshot-roundtrip", snapshot_roundtrip))
        return _print_table(checks)
    finally:
        if restore is not None:
            basis.rot90 = ops.rot90 = restore


# ---------------------------------------------------------------------------
# entry point


def _dispatch(args):
    if args.command == "selftest":
        return cmd_selftest(args)
    spec = _load_spec(args)
    if args.command == "simulate":
        return cmd_simulate(args, spec)
    if args.command == "lyapunov":
        return cmd_lyapunov(args, spec)
    if args.command == "bounds":
        return cmd_bounds(args, spec)
    return cmd_verify(args, spec)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    _pin_thread_pools()
    from .errors import (
        ConfigurationError,
        DegenerateEnsembleError,
        DivergenceError,
        IndexRangeError,
        ShapeError,
        SnapshotError,
        UnsupportedGeometryError,
    )

    try:
        return _dispatch(args)
    except (
        ConfigurationError,
        IndexRangeError,
        ShapeError,
        SnapshotError,
        UnsupportedGeometryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, DegenerateEnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
