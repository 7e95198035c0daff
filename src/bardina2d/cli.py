"""Command line driver: simulate | lyapunov | bounds | verify | selftest.

All numerics live in the library modules; this file parses arguments, pins
the BLAS thread pools, and serializes reports.  The pools are pinned to one
thread before numpy is first imported so that reductions always run in the
same order: --threads is accepted (a speed hint for wrappers) but can never
change a single output bit.  CSV numbers are written with 17 significant
digits, so every 64-bit float round-trips exactly.  The verify and
selftest rows live in `checks`, which only those two commands import.

Exit codes: 0 success, 1 runtime failure (divergence, degenerate ensemble,
failed verification suite), 2 invalid configuration or input file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

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


# the writers write the path an `atomic.committing` block staged for them


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args, spec):
    out = args.out or spec.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _seed_arg(text):
    """The --seed value: a non-negative integer, as config seeds are."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


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
        type=_seed_arg,
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
    sub.add_parser(
        "selftest",
        parents=[common],
        help="fixed built-in check suite on both geometries",
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
    """(line, flags): one diagnostics.csv line for a `DiagnosticsRecord`,
    without its newline, and its count of envelope flags.  The line holds
    the fields in declaration order (the order of `_DIAG_HEADER` and of
    vars(), which astuple would copy), then that count."""
    from . import verification

    over1, over2 = verification.envelope_flags(r.e1, r.envelope1, r.e2, r.envelope2, dt)
    flags = int(over1) + int(over2)
    return ",".join([*map(_fmt, vars(r).values()), str(flags)]), flags


def _param_echo(plan, params):
    """The run's model as meta.json and lyapunov.json echo it, in JSON-native
    lists, so that one read back compares equal.  The forcing is the realized
    one: its nonzero modes as [index, index, amplitude] in slot order, and
    the harmonic pair, [] when zero; other config rows for it echo alike."""
    from . import basis

    f1, f2 = params.forcing.f1_curl, params.forcing.f2
    return {
        "geometry": plan.geometry.kind,
        "length": plan.geometry.length,
        "truncation": plan.truncation,
        "nu": params.nu,
        "alpha": params.alpha,
        "sigma": params.sigma,
        "forcing": {
            "modes": [
                [*basis.mode_index(plan, slot), f1[slot].item()] for slot in f1.nonzero()[0]
            ],
            "harmonic": f2.tolist() if f2.any() else [],
        },
    }


def _load_meta(meta_path, plan, params):
    """(meta, cause) for the meta.json at meta_path.

    meta is its dict, or None when the file is missing, unreadable or not a
    JSON object.  cause is None when meta echoes the run's model
    (`_param_echo`); otherwise it says why not: the read error, or the first
    key echoed differently, with both values.
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
    for key, value in _param_echo(plan, params).items():
        if meta.get(key) != value:
            return meta, f"{meta_path}: {key} is {meta.get(key)!r}, the config has {value!r}"
    return meta, None


def _resume_anchor(resume_path, plan, params):
    """Envelope anchor of the original run, read from meta.json next to the
    snapshot; resumed diagnostics then continue the original envelopes bitwise.

    Returns (anchor, None), or (None, cause) when meta.json is missing,
    unreadable, made with other parameters, or lacks the anchor or holds a
    non-finite one (json reads NaN and Infinity).
    """
    from . import verification

    meta_path = os.path.join(os.path.dirname(os.path.abspath(resume_path)), "meta.json")
    meta, cause = _load_meta(meta_path, plan, params)
    if cause is not None:
        return None, cause
    anchor, cause = verification.meta_anchor(meta)
    return anchor, None if cause is None else f"{meta_path}: {cause}"


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
        anchor, reanchor_cause = _resume_anchor(args.resume, plan, params)
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
    if scheme.t_end > t_start:
        # a step count out of range fails before the output directory exists
        integrate._step_range(scheme, t_start)

    out = _out_dir(args, spec)
    meta = {
        **_param_echo(plan, params),
        **dataclasses.asdict(scheme),
        **dict(zip(verification.ANCHOR_KEYS, map(float, anchor))),
        "t_start": t_start,
        "seed": spec.seed,
        "diagnostics": "diagnostics.csv",
    }
    if reanchor_cause is not None:
        # the envelopes restart from the snapshot state, not the original run
        meta["anchor"] = "reanchored"
        print(f"warning: --resume re-anchored the envelopes at t={t_start}: "
              f"{reanchor_cause}", file=sys.stderr)

    envelopes = verification.envelopes(plan, params, *anchor)
    last, diverged = (t_start, state), None
    # rows with a nonzero violations column, and the first one's t
    violating, first_violation = 0, None
    # all three files are staged and then renamed in staging order:
    # diagnostics.csv, the snapshot, and meta.json last, since it names both
    with committing() as stage:
        with open(stage(os.path.join(out, "diagnostics.csv")), "w",
                  encoding="utf-8", newline="") as csv:
            csv.write(_DIAG_HEADER + "\n")

            def observe(t, st, tend):
                nonlocal violating, first_violation
                record = verification.energy_record(plan, st, params, t, envelopes, tend)
                line, flags = _diag_row(record, scheme.dt)
                csv.write(line + "\n")
                if flags:
                    violating += 1
                    if first_violation is None:
                        first_violation = t

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
    with contextlib.suppress(FileNotFoundError):
        if not (args.resume and os.path.samefile(stale, args.resume)):
            os.remove(stale)
    if violating:
        print(f"warning: {violating} diagnostics row(s) exceed their energy envelopes "
              f"(nonzero violations column), the first at t={first_violation}", file=sys.stderr)
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
    from .atomic import committing
    from .errors import ConfigurationError

    if spec.lyapunov is None:
        raise ConfigurationError("lyapunov: missing required block")
    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    state = cfg.initial_state(plan, spec)

    report = lyapunov.benettin_run(plan, state, params, spec.scheme, spec.lyapunov)
    verdict = lyapunov.compare_bound(plan, report, params)

    out = _out_dir(args, spec)
    ks = range(1, spec.lyapunov.n_ensemble + 1)
    header = ",".join(["t", *(f"mu_{k}" for k in ks), *(f"q_{k}" for k in ks)])
    mu = np.sort(report.mu_series, axis=1)[:, ::-1]
    table = np.column_stack((report.t_series, mu, np.cumsum(mu, axis=1)))
    lines = [header, *(",".join(map(_fmt, row)) for row in table)]

    # the verdict's nstar is the report's: one attractor_bound call shape
    payload = {
        **_param_echo(plan, params),
        **dataclasses.asdict(spec.lyapunov),
        **verdict,
        "exponents": report.exponents.tolist(),
        "q_partial": report.q_partial.tolist(),
        "dim_ky": report.dim_ky,
        "ky_saturated": report.ky_saturated,
        "gs_min_scale": report.gs_min_scale,
    }
    with committing() as stage:
        _write_lines(stage(os.path.join(out, "exponents.csv")), lines)
        _write_json(stage(os.path.join(out, "lyapunov.json")), payload)
    return 0


# ---------------------------------------------------------------------------
# bounds


# the bounds.json fields of a bounds_sweep.csv row, after the parameter and its value
_SWEEP_FIELDS = (
    "lambda_1", "delta", "delta_prime", "l1", "l2", "grashof", "nstar",
    "rho0", "rho1", "rho1_tilde", "rho2", "rho_v_sum", "average_enstrophy_bound",
)


def cmd_bounds(args, spec):
    from . import bounds
    from . import config as cfg
    from .atomic import committing
    from .errors import ConfigurationError

    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    report = bounds.bounds_report(plan, params)
    if spec.sweep is not None:
        key, values = spec.sweep
        lines = ["parameter,value," + ",".join(_SWEEP_FIELDS)]
        for i, value in enumerate(values):
            try:
                point = bounds.bounds_report(plan, cfg.model_params(plan, spec, **{key: value}))
            except ConfigurationError as exc:  # before any output directory exists
                raise ConfigurationError(f"sweep.values[{i}]: {exc}") from exc
            lines.append(",".join([key, _fmt(value), *(_fmt(point[f]) for f in _SWEEP_FIELDS)]))
    out = _out_dir(args, spec)
    sweep_path = os.path.join(out, "bounds_sweep.csv")
    with committing() as stage:
        _write_json(stage(os.path.join(out, "bounds.json")), report)
        if spec.sweep is not None:
            _write_lines(stage(sweep_path), lines)

    if spec.sweep is None:  # then a sweep CSV is an earlier run's
        with contextlib.suppress(FileNotFoundError):
            os.remove(sweep_path)
    return 0


# ---------------------------------------------------------------------------
# verify / selftest


def cmd_verify(args, spec):
    from . import checks
    from . import config as cfg
    from . import dynamics as dyn

    plan = cfg.build_plan(spec)
    params = cfg.model_params(plan, spec)
    dyn.validate_params(plan, params)
    seed = spec.seed if spec.seed is not None else 0
    rows = checks.library_checks(plan, params, seed, spec.scheme.dt)
    run_dir = args.out or spec.out
    if run_dir and os.path.isfile(os.path.join(run_dir, "diagnostics.csv")):
        meta = _load_meta(os.path.join(run_dir, "meta.json"), plan, params)
        rows.extend(checks.recheck_run_dir(run_dir, plan, params, spec.scheme.dt, meta))
    return checks.print_table(rows)


def cmd_selftest():
    from . import checks

    return checks.print_table(checks.selftest())


# ---------------------------------------------------------------------------
# entry point


def _dispatch(args):
    if args.command == "selftest":
        return cmd_selftest()
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
    from .errors import DegenerateEnsembleError, DivergenceError, ModelError

    try:
        return _dispatch(args)
    except (DivergenceError, DegenerateEnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, OSError) as exc:
        # every other package error is a bad configuration or input file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
