"""The check battery of `verify` and `selftest`; only those commands import it.

Each row returns (name, ok, detail); a row whose check raises a model error
fails with the error as its detail.  `library_checks` tests the transforms,
the nonlinearity identities, the tangent linearization and the Gronwall
envelopes on one plan, `recheck_run_dir` a finished run's diagnostics.csv,
and `selftest` fixed plans of both geometries.  `print_table` prints the
rows and returns the exit code.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

from . import basis, integrate, snapshot, verification
from . import dynamics as dyn
from . import operators as ops
from .errors import ConfigurationError, CorruptSnapshotError, ModelError

# relative tolerance of a recorded envelope against the one rebuilt from the
# run's anchor: both come from verification.Envelopes.at, and the csv holds
# 17 significant digits, so they differ at most by the rounding of exp
ENVELOPE_REBUILD_TOL = 1e-12

# relative tolerance of the transform rows: sound flow transforms round to
# at most 2.9e-14 at sphere L <= 256 (round trip 4.2e-15 at L=85, 7.5e-15
# at L=256) and 1.7e-15 at torus K <= 64, while an aliased grid is off by
# the edge coefficients, 1e-2 and more
TRANSFORM_TOL = 1e-12

# steps of the library envelope row, sampled every 10th: at a config's own
# dt a probe state steps as stably as the config's run does
ENVELOPE_STEPS = 400


def _run_check(name, fn):
    try:
        ok, detail = fn()
    except ModelError as exc:
        return (name, False, f"error: {exc}")
    return (name, bool(ok), detail)


def _unit_forcing(plan, index, f2=None):
    """Unit force on the one rotational mode `index`; harmonic pair f2, or zero."""
    c = np.zeros(plan.n_modes)
    c[basis.mode_slot(plan, index)] = 1.0
    return dyn.Forcing(c, np.zeros(plan.n_harmonic) if f2 is None else f2)


def _ensure_forced(plan, params):
    """Inject a unit single-mode force when the config carries none, so the
    envelope check exercises a nontrivial balance: mode (2, 1) on the sphere
    ((1, 1) at truncation 1, where (2, 1) is not retained), (1, 1) on the
    torus."""
    if np.any(params.forcing.f1_curl != 0.0) or np.any(params.forcing.f2 != 0.0):
        return params
    index = (min(2, plan.truncation), 1) if plan.geometry.kind == basis.SPHERE else (1, 1)
    return dataclasses.replace(params, forcing=_unit_forcing(plan, index))


def transform_roundtrip(plan, seed):
    """Flow round trip of a random psi: n x grad psi analyzes back to psi,
    grad psi to zero, and the integral of |grad psi|^2 is sum lam psi^2."""
    psi = verification.probe_state(plan, ops.NormalStream(seed)).psi
    _, grad = basis.flow_synthesis(plan, psi)
    norm = np.linalg.norm(psi)
    back = np.linalg.norm(basis.flow_analysis(plan, basis.rot90(grad))[0] - psi) / norm
    leray = np.linalg.norm(basis.flow_analysis(plan, grad)[0]) / norm
    ss = float(np.dot(plan.lam * psi, psi))
    parseval = abs(basis.integrate(plan, np.sum(grad * grad, axis=0)) - ss) / ss
    worst = max(float(back), float(leray), float(parseval))
    return worst <= TRANSFORM_TOL, f"max residual {worst:.3e}"


def library_checks(plan, params, seed, dt, prefix=""):
    """The five library rows on one plan, each name prefixed by `prefix`;
    the envelope row makes ENVELOPE_STEPS IF-RK4 steps of `dt`."""

    def alias():
        # the product the right-hand side forms, zeta_a n x grad psi_b of
        # two retained fields, analyzed on the plan grid and on the next
        # plan whose grid is larger both ways; an undersized grid rule
        # aliases onto the edge modes of the first but not of the second.
        # The residual is relative to the whole product on the larger plan,
        # whose retained part can vanish (degree-1 fields at sphere L=1)
        def product(p, psis):
            zeta, grad = basis.flow_synthesis(p, psis)
            return basis.flow_analysis(p, zeta[0] * basis.rot90(grad[1]))[0]

        rng = ops.NormalStream(seed + 2000)
        pair = np.stack([verification.probe_state(plan, rng).psi for _ in range(2)])
        got = product(plan, pair)
        truncation = plan.truncation + 1
        larger = basis.build_plan(plan.geometry, truncation)
        while not all(b > a for a, b in zip(plan.grid_shape, larger.grid_shape)):
            truncation += 1
            larger = basis.build_plan(plan.geometry, truncation)
        slots = basis.slot_map(plan, larger)
        lifted = np.zeros((2, larger.n_modes))
        lifted[:, slots] = pair
        full = product(larger, lifted)
        rel = float(np.linalg.norm(got - full[slots]) / np.linalg.norm(full))
        return rel <= TRANSFORM_TOL, f"residual {rel:.3e} against truncation {truncation}"

    def identities():
        table = verification.identity_suite(plan, params, seed, n_states=20)
        worst = max(float(np.max(vals)) for vals in table.values())
        return worst <= 1e-9, f"max residual {worst:.3e}"

    def tangent():
        # the tendency is quadratic plus affine in the state, so the central
        # difference (f(u + eps w) - f(u - eps w)) / 2 eps is f'(u) w at any
        # eps; eps = 1 keeps a dominant forcing from cancelling its digits
        eps = 1.0
        worst = 0.0
        for i in range(5):
            rng = ops.NormalStream(seed + 1000 + i)
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
        # streamed as `simulate` streams a run: each record is built from the
        # tendency the stepper already made, against envelopes anchored at
        # the start state
        run_params = _ensure_forced(plan, params)
        state = verification.probe_state(plan, ops.NormalStream(seed))
        scheme = integrate.SchemeConfig(
            dt=dt, t_end=ENVELOPE_STEPS * dt, method=integrate.IF_RK4, stride=10
        )
        anchor = verification.envelopes(
            plan,
            run_params,
            ops.energy_e1(plan, state, run_params.alpha),
            ops.energy_e2(plan, state, run_params.alpha),
        )
        bad = 0

        def observe(t, st, tend):
            nonlocal bad
            r = verification.energy_record(plan, st, run_params, t, anchor, tend)
            over1, over2 = verification.envelope_flags(
                r.e1, r.envelope1, r.e2, r.envelope2, scheme.dt
            )
            bad += int(over1) + int(over2)

        n = sum(1 for _ in integrate.samples(plan, state, run_params, scheme, (observe,)))
        return bad == 0, f"{bad} violation(s) in {n} samples"

    return [
        _run_check(prefix + "transform-roundtrip", lambda: transform_roundtrip(plan, seed)),
        _run_check(prefix + "transform-alias", alias),
        _run_check(prefix + "operator-identities", identities),
        _run_check(prefix + "tangent-linearization", tangent),
        _run_check(prefix + "gronwall-envelopes", envelopes),
    ]


def recheck_run_dir(out, plan, params, dt, meta):
    """Re-test a completed run directory from its diagnostics.csv: the
    recorded envelopes env1/env2 against those rebuilt from meta.json's
    anchor and the configured parameters, the recorded energies E1/E2
    against them, the worst recorded energy-law residual, and the time
    average of ||u||^2 against its closed-form bound for the configured
    parameters.  `dt` is the configured step.  `meta` is the run's
    meta.json as a pair (dict or None, cause): a dt there that is missing
    or other than `dt`, or no valid anchor, fails the first row, and a
    cause that is not None says why meta.json does not echo the configured
    parameters and fails the last row.
    """
    meta, meta_cause = meta
    run_dt = dt if meta is None else meta.get("dt")
    if meta is None:
        anchor, anchor_cause = None, meta_cause
    else:
        anchor, why = verification.meta_anchor(meta)
        anchor_cause = why and f"meta.json: {why}"
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
        if run_dt is None:
            return False, "meta.json has no dt"
        if run_dt != dt:
            return False, f"meta.json dt is {run_dt!r}, the config has dt {dt!r}"
        if anchor is None:
            return False, f"cannot rebuild the envelopes: {anchor_cause}"
        t, env1, env2 = column("t"), column("env1"), column("env2")
        rebuilt = verification.envelopes(plan, params, *anchor).at(t)
        for name, got, want in zip(("env1", "env2"), (env1, env2), rebuilt):
            off = np.flatnonzero(~(np.abs(got - want) <= ENVELOPE_REBUILD_TOL * np.abs(want)))
            if off.size:
                k = off[0]
                why = f"; {meta_cause}" if meta_cause else ""
                return False, (
                    f"{off.size} row(s) with {name} off the envelope rebuilt from "
                    f"meta.json's anchor, first t={float(t[k])!r}: {float(got[k])!r}, "
                    f"rebuilt {float(want[k])!r}{why}"
                )
        over1, over2 = verification.envelope_flags(column("E1"), env1, column("E2"), env2, dt)
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


def selftest(inject_sign_fault=False):
    """The library rows on sphere and torus plans at truncation 21, an
    eigenmode decay and a snapshot round trip.  With `inject_sign_fault`
    the rotation drops its minus sign while the rows run, which fails the
    transform-roundtrip and operator-identities rows.
    """
    restore = None
    if inject_sign_fault:
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
                sigma, index, f2 = 0.0, (2, 1), None
            else:
                plan = basis.build_plan(basis.torus(2.0 * np.pi), 21)
                sigma, index, f2 = 0.5, (1, 1), np.array([0.1, 0.0])
            forcing = _unit_forcing(plan, index, f2)
            params = dyn.ModelParams(nu=1.0, alpha=1.0, sigma=sigma, forcing=forcing)
            checks.extend(library_checks(plan, params, seed=0, dt=0.005, prefix=kind + ":"))

        def decay():
            plan = basis.build_plan(basis.sphere(), 6)
            params = dyn.ModelParams(nu=1.0, alpha=1.0, sigma=0.0, forcing=dyn.zero_forcing(plan))
            state = ops.state_from_mode(plan, (3, 1), amplitude=0.7)
            lam = basis.eigenvalue(plan, (3, 1))
            scheme = integrate.SchemeConfig(dt=1e-3, t_end=0.5, method=integrate.IF_RK4)
            for _, final in integrate.samples(plan, state, params, scheme):
                pass
            expected = ops.norm_l2(plan, state) * np.exp(-params.nu * lam * scheme.t_end)
            rel = abs(ops.norm_l2(plan, final) - expected) / expected
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
        return checks
    finally:
        if restore is not None:
            basis.rot90 = ops.rot90 = restore


def print_table(checks):
    """Print the rows as a table; 1 when any row failed (counted on stderr), else 0."""
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
