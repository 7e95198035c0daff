"""The benchmark's workloads: generated configs, CLI command sequences and
the checks every command's outputs must pass.

Each workload is a short sequence of real `bardina2d` CLI commands.  The
benchmark seed reaches the program only through the CLI's `--seed` flag
(and the matching top-level `seed` of the set-up probe's config).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

# Worst energy-law residual a run may record.  The seed commit records about
# 8e-16 on every workload; a dealiasing or transform defect shows as 1e-8.
RESIDUAL_TOL = 1e-13

# Relative tolerance on equilibrium exponents, as in tests/test_acceptance.py.
EXPONENT_RTOL = 0.01

# The README torus config, verbatim.
TORUS_README = {
    "geometry": "torus",
    "length": 6.283185307179586,
    "truncation": 16,
    "nu": 0.05,
    "alpha": 0.25,
    "sigma": 0.4,
    "seed": 11,
    "forcing": {"modes": [[1, 2, 1.5], [3, 0, 0.5]], "harmonic": [0.2, 0.0]},
    "initial": {"kind": "random", "slope": 2.0, "energy": 0.5},
    "scheme": {"dt": 0.005, "t_end": 20.0, "stride": 50, "method": "if-rk4"},
    "lyapunov": {
        "n_ensemble": 6,
        "t_transient": 5.0,
        "t_average": 40.0,
        "renorm_interval": 0.25,
    },
}

# Sphere L=21 at Grashof number 10 (|f| = amp / sqrt(lambda_2)), as in
# TestDimensionConsistency.  The flow settles to a stable steady state.
SPHERE21_LYAP = {
    "geometry": "sphere",
    "truncation": 21,
    "nu": 1.0,
    "alpha": 1.0,
    "seed": 0,
    "forcing": {"modes": [[2, 1, 10.0 * math.sqrt(6.0)]]},
    "initial": {"kind": "random", "slope": 2.0, "energy": 1.0},
    "scheme": {"dt": 0.01, "t_end": 1.0},
    "lyapunov": {
        "n_ensemble": 8,
        "t_transient": 1.0,
        "t_average": 4.0,
        "renorm_interval": 0.25,
    },
}

# In that steady state the leading exponents are -nu * lambda_n with
# lambda_n = n (n + 1) of multiplicity 2n + 1: three at -2, five at -6.
SPHERE21_EXPONENTS = (-2.0,) * 3 + (-6.0,) * 5

SPHERE85_DENSE = {
    "geometry": "sphere",
    "truncation": 85,
    "nu": 0.01,
    "alpha": 0.1,
    "sigma": 0.1,
    "seed": 0,
    "forcing": {"modes": [[4, 2, 2.0], [6, -3, 1.0]]},
    "initial": {"kind": "random", "slope": 2.0, "energy": 1.0},
    "scheme": {"dt": 0.002, "t_end": 0.5, "stride": 1},
}


def program_seed(workload, seed):
    """Seed handed to the CLI: a fixed function of the benchmark seed, kept
    non-negative because numpy generators reject negative seeds."""
    return random.Random(f"{workload}/{seed}").randrange(1, 2**31)


def _with_scheme(doc, **scheme):
    out = json.loads(json.dumps(doc))
    out["scheme"].update(scheme)
    return out


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it wrote."""

    label: str
    argv: tuple  # arguments after `python -m bardina2d.cli`
    out: str
    check: object  # check(out_dir, library) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict  # file name -> config document
    setup_config: str  # which config the set-up probe realizes
    sequence: object  # sequence(config_dir, run_dir, seed) -> [Command]


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def check_diagnostics(path, rows):
    """Row count, finite values, zero envelope violations, residual at rounding."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            table = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path}: {exc}"]
    problems = []
    if len(table) != rows:
        problems.append(f"{path}: {len(table)} rows, expected {rows}")
    worst = 0.0
    for k, row in enumerate(table):
        try:
            values = {key: float(value) for key, value in row.items()}
        except (TypeError, ValueError):
            problems.append(f"{path}: row {k} is not numeric")
            continue
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"{path}: row {k} holds a non-finite value")
        if values.get("violations") != 0.0:
            problems.append(f"{path}: row {k} has violations={row.get('violations')}")
        worst = max(worst, values.get("energy_residual", math.inf))
    if worst > RESIDUAL_TOL:
        problems.append(f"{path}: worst energy_residual {worst:.3e} > {RESIDUAL_TOL:.0e}")
    return problems


def check_exponents(report, expected=SPHERE21_EXPONENTS, rtol=EXPONENT_RTOL):
    """Consistent verdict and exponents within rtol of the equilibrium ladder."""
    problems = []
    if report.get("consistent") is not True:
        problems.append(f"consistent is {report.get('consistent')!r}")
    got = report.get("exponents")
    if not isinstance(got, list) or len(got) != len(expected):
        return problems + [f"exponents {got!r}: expected {len(expected)} values"]
    for k, (have, want) in enumerate(zip(got, expected)):
        if not abs(have - want) <= rtol * abs(want):
            problems.append(f"exponent {k}: {have!r}, expected {want} within {rtol:.0%}")
    return problems


def check_snapshot(path, config_path, t_end, library):
    """The final snapshot loads, passes its CRC and matches plan and params."""
    try:
        snap = library.snapshot.load_snapshot(path)
        spec, plan, params = library.realize(config_path)
        library.snapshot.check_snapshot(snap, plan, params)
    except (OSError, library.ModelError) as exc:
        return [f"{path}: {exc}"]
    if abs(snap.t - t_end) > 1e-9:
        return [f"{path}: t={snap.t!r}, expected {t_end}"]
    return []


def _simulate_check(config_path, rows, t_end):
    def check(out, library):
        return check_diagnostics(os.path.join(out, "diagnostics.csv"), rows) + check_snapshot(
            os.path.join(out, "final.bdna"), config_path, t_end, library
        )

    return check


def _lyapunov_check(rows):
    def check(out, library):
        try:
            with open(os.path.join(out, "lyapunov.json"), "r", encoding="utf-8") as fh:
                report = json.load(fh)
            with open(os.path.join(out, "exponents.csv"), "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, ValueError) as exc:
            return [f"{out}: {exc}"]
        problems = check_exponents(report)
        if len(lines) != rows + 1:
            problems.append(f"{out}/exponents.csv: {len(lines) - 1} rows, expected {rows}")
        return problems

    return check


# ---------------------------------------------------------------------------
# command sequences


def _torus_sequence(config_dir, run_dir, seed):
    config = os.path.join(config_dir, "torus16.json")
    out = os.path.join(run_dir, "sim")
    argv = ("simulate", "--config", config, "--out", out, "--seed", str(seed))
    return [Command("simulate", argv, out, _simulate_check(config, 81, 20.0))]


def _lyap_sequence(config_dir, run_dir, seed):
    config = os.path.join(config_dir, "sphere21.json")
    out = os.path.join(run_dir, "lyap")
    argv = ("lyapunov", "--config", config, "--out", out, "--seed", str(seed))
    return [Command("lyapunov", argv, out, _lyapunov_check(16))]


def _dense_sequence(config_dir, run_dir, seed):
    leg1_config = os.path.join(config_dir, "sphere85_leg1.json")
    leg2_config = os.path.join(config_dir, "sphere85_leg2.json")
    leg1 = os.path.join(run_dir, "leg1")
    leg2 = os.path.join(run_dir, "leg2")
    return [
        Command(
            "simulate-leg1",
            ("simulate", "--config", leg1_config, "--out", leg1, "--seed", str(seed)),
            leg1,
            _simulate_check(leg1_config, 126, 0.25),
        ),
        Command(
            "simulate-leg2",
            (
                "simulate",
                "--config",
                leg2_config,
                "--out",
                leg2,
                "--seed",
                str(seed),
                "--resume",
                os.path.join(leg1, "final.bdna"),
            ),
            leg2,
            _simulate_check(leg2_config, 126, 0.5),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="torus16-sim",
            why="README torus config through simulate: 4000 IF-RK4 steps, ~75% in complex "
            "fft2/ifft2; no Legendre work, little diagnostics or I/O",
            configs={"torus16.json": TORUS_README},
            setup_config="torus16.json",
            sequence=_torus_sequence,
        ),
        Workload(
            name="sphere21-lyap",
            why="sphere L=21 lyapunov, 8 tangents: per-m Legendre loop overhead with "
            "0.2 MB tables, duplicate base synthesis; writes no diagnostics",
            configs={"sphere21.json": SPHERE21_LYAP},
            setup_config="sphere21.json",
            sequence=_lyap_sequence,
        ),
        Workload(
            name="sphere85-dense",
            why="sphere L=85 simulate in two legs with resume, a row every step: 11.6 MB "
            "Legendre tables beyond L2, energy_record and snapshot I/O",
            configs={
                "sphere85_leg1.json": _with_scheme(SPHERE85_DENSE, t_end=0.25),
                "sphere85_leg2.json": SPHERE85_DENSE,
            },
            setup_config="sphere85_leg2.json",
            sequence=_dense_sequence,
        ),
    )
}
