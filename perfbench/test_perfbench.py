"""Self-tests of the benchmark harness.

Run from the checkout root:  python -m pytest -q perfbench
"""

import json
import os
import sys
import types

import pytest

import run
import tracing
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# self time


def test_aggregate_self_time_on_nested_tree():
    # A(0..10) holds B(1..4) holding C(2..3), and D(5..9) holding E(6..7);
    # a second, childless A runs 20..22.
    spans = [
        ["A", 0.0, 10.0, -1],
        ["B", 1.0, 4.0, 0],
        ["C", 2.0, 3.0, 1],
        ["D", 5.0, 9.0, 0],
        ["E", 6.0, 7.0, 3],
        ["A", 20.0, 22.0, -1],
    ]
    out = tracing.aggregate(spans, names=("A", "B", "C", "D", "E", "F"))
    assert out["A"] == {"calls": 2, "total_s": 12.0, "self_s": 5.0}
    assert out["B"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert out["C"]["self_s"] == 1.0
    assert out["D"]["self_s"] == 3.0
    assert out["E"]["self_s"] == 1.0
    assert out["F"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    # self times partition the root spans exactly
    assert sum(r["self_s"] for r in out.values()) == 12.0


def test_tracer_records_nesting_through_module_attributes():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * mod.inner(x)
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer")
    assert mod.outer(2) == 9
    summary = tracer.summary(names=("m.outer", "m.inner"))
    # clock: outer opens at 0, inner 1..2, inner 3..4, outer closes at 5
    assert summary["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_hooks_count_rows_and_keep_the_smallest_scale():
    mod = types.SimpleNamespace(
        synth=lambda plan, coeffs: None, ortho=lambda plan, psis, hs, alpha: psis
    )
    tracer = tracing.Tracer()
    tracer.wrap(mod, "synth", "basis.synthesize", tracing.HOOKS["basis.synthesize"])
    tracer.wrap(mod, "ortho", "lyap", tracing.HOOKS["lyapunov._orthonormalize_arrays"])
    mod.synth(None, types.SimpleNamespace(shape=(9, 3, 440)))
    mod.synth(None, types.SimpleNamespace(shape=(440,)))
    mod.ortho(None, [0.5, 0.2], None, None)
    mod.ortho(None, [0.9, 0.3], None, None)
    assert tracer.extras == {"basis.synthesize.rows": 28, "lyapunov.gs_min_scale": 0.2}


# ---------------------------------------------------------------------------
# restoring wrapped attributes


@pytest.fixture
def bardina2d():
    sys.path.insert(0, SRC)
    try:
        import bardina2d

        yield bardina2d
    finally:
        sys.path.remove(SRC)


def _current(package):
    import importlib

    out = {}
    for module_name, attr in tracing.SPANS:
        module = importlib.import_module(f"{package}.{module_name}")
        out[(module_name, attr)] = getattr(module, attr, None)
    return out


def test_tracer_restores_every_wrapped_attribute(bardina2d):
    before = _current("bardina2d")
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    assert set(wrapped) == set(tracing.SPAN_NAMES)
    during = _current("bardina2d")
    assert all(during[key] is not before[key] for key in before)
    tracer.restore()
    after = _current("bardina2d")
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_a_failing_call(bardina2d):
    from bardina2d import config
    from bardina2d.errors import ConfigurationError

    original = config.parse_config
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ConfigurationError):
            config.parse_config("[]")
    finally:
        tracer.restore()
    assert config.parse_config is original
    assert tracer.summary()["config.parse_config"]["calls"] == 1


def test_install_skips_functions_a_refactor_removed():
    mod = types.ModuleType("fakepkg.layer")
    mod.kept = lambda: 1
    sys.modules["fakepkg"] = types.ModuleType("fakepkg")
    sys.modules["fakepkg.layer"] = mod
    try:
        tracer = tracing.Tracer()
        assert tracer.install("fakepkg", spans=(("layer", "kept"), ("layer", "gone"))) == [
            "layer.kept"
        ]
        tracer.restore()
        assert tracer.summary(names=("layer.gone",))["layer.gone"]["calls"] == 0
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.layer"]


# ---------------------------------------------------------------------------
# output checks feed failed_frac


HEADER = "t,norm_u_l2,norm_u_v,norm_Au,norm_u2,norm_v,E1,E2,env1,env2,energy_residual,violations"


def _diag(tmp_path, rows):
    path = tmp_path / "diagnostics.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return str(path)


GOOD_ROW = "0.5,1,1,1,0,1,1,1,2,2,8.1e-16,0"


def test_clean_diagnostics_pass(tmp_path):
    assert workloads.check_diagnostics(_diag(tmp_path, [GOOD_ROW] * 3), 3) == []


@pytest.mark.parametrize(
    "bad_row",
    [
        "0.5,1,1,1,0,1,1,1,2,2,8.1e-16,1",  # an envelope violation
        "0.5,1,1,1,0,1,1,1,2,2,2.0e-8,0",  # energy law broken beyond rounding
        "0.5,1,1,1,0,nan,1,1,2,2,8.1e-16,0",  # non-finite value
        "0.5,1,1,1,0,1,1",  # truncated row
        "0.5,1,1,1,0,x,1,1,2,2,8.1e-16,0",  # not a number
    ],
)
def test_corrupted_diagnostics_row_is_a_failure(tmp_path, bad_row):
    assert workloads.check_diagnostics(_diag(tmp_path, [GOOD_ROW, bad_row, GOOD_ROW]), 3)


def test_missing_diagnostics_rows_are_a_failure(tmp_path):
    assert workloads.check_diagnostics(_diag(tmp_path, [GOOD_ROW] * 2), 3)


def _lyap_report(exponents, consistent=True):
    return {"exponents": list(exponents), "consistent": consistent}


def test_equilibrium_exponents_pass():
    report = _lyap_report([-1.99999, -2.0, -2.00001, -6.0, -6.0, -5.99, -6.0, -6.05])
    assert workloads.check_exponents(report) == []


@pytest.mark.parametrize(
    "report",
    [
        _lyap_report([-2.0, -2.0, -2.0, -6.0, -6.0, -6.0, -6.0, -6.2]),  # 3% off
        _lyap_report([-2.0, -2.0, -1.9, -6.0, -6.0, -6.0, -6.0, -6.0]),  # 5% off
        _lyap_report([-2.0] * 3 + [-6.0] * 4),  # one missing
        _lyap_report([-2.0] * 3 + [-6.0] * 5, consistent=False),
    ],
)
def test_wrong_exponent_is_a_failure(report):
    assert workloads.check_exponents(report)


def _bench(tmp_path):
    bench = run.Bench(str(tmp_path), seed=5, env={})
    bench.tally["w"] = run.Tally()
    return bench


def test_failures_are_counted_per_command(tmp_path):
    bench = _bench(tmp_path)
    ok = workloads.Command("ok", (), "o1", lambda out, lib: [])
    bad = workloads.Command("bad", (), "o2", lambda out, lib: ["corrupted row"])
    crashed = workloads.Command("crashed", (), "o3", lambda out, lib: [])
    procs = [run.Proc(1.0, 1.0, 10.0, 0), run.Proc(1.0, 1.0, 10.0, 0), run.Proc(1.0, 1.0, 10.0, 1)]
    bench.judge(types.SimpleNamespace(name="w"), [ok, bad, crashed], procs)
    tally = bench.tally["w"]
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(tally.problems) == 2


def test_lyapunov_output_with_wrong_exponent_is_counted(tmp_path):
    out = tmp_path / "lyap"
    out.mkdir()
    report = _lyap_report([-2.0] * 3 + [-6.0] * 4 + [-7.0])
    (out / "lyapunov.json").write_text(json.dumps(report))
    (out / "exponents.csv").write_text("\n".join(["t"] + ["0"] * 16) + "\n")
    commands = workloads.WORKLOADS["sphere21-lyap"].sequence(str(tmp_path), str(tmp_path), 1)
    bench = _bench(tmp_path)
    bench.judge(types.SimpleNamespace(name="w"), commands, [run.Proc(1.0, 1.0, 1.0, 0)])
    assert (bench.tally["w"].attempted, bench.tally["w"].failed) == (1, 1)


# ---------------------------------------------------------------------------
# inputs


def test_program_seed_is_a_fixed_nonnegative_function_of_the_seed():
    assert workloads.program_seed("torus16-sim", -3) == workloads.program_seed("torus16-sim", -3)
    seeds = {workloads.program_seed("torus16-sim", s) for s in range(-50, 50)}
    assert len(seeds) == 100 and min(seeds) >= 1


def test_count_figures_leave_out_the_float_scale():
    spans = {"a.f": {"calls": 3, "self_s": 0.1}}
    extras = {"basis.synthesize.rows": 7, "lyapunov.gs_min_scale": 0.2}
    assert run.count_figures(spans, extras) == {"a.f.calls": 3, "basis.synthesize.rows": 7}
