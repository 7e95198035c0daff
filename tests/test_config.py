"""Run-spec parsing, validation paths, and realization against a plan."""

import json

import numpy as np
import pytest

from bardina2d import basis, config as cfg, integrate, operators as ops, verification
from bardina2d.errors import ConfigurationError

TWO_PI = 2.0 * np.pi


def sphere_doc(**extra):
    doc = {
        "geometry": "sphere",
        "truncation": 6,
        "nu": 0.5,
        "alpha": 1.0,
        "scheme": {"dt": 0.01, "t_end": 1.0},
    }
    doc.update(extra)
    return doc


def torus_doc(**extra):
    doc = {
        "geometry": "torus",
        "length": TWO_PI,
        "truncation": 4,
        "nu": 0.5,
        "alpha": 1.0,
        "sigma": 0.3,
        "scheme": {"dt": 0.01, "t_end": 1.0},
    }
    doc.update(extra)
    return doc


def parse(doc):
    return cfg.parse_config(json.dumps(doc))


def error_of(doc):
    with pytest.raises(ConfigurationError) as err:
        parse(doc)
    return str(err.value)


class TestParseConfig:
    def test_minimal_sphere_defaults(self):
        spec = parse(sphere_doc())
        assert spec.geometry.kind == basis.SPHERE
        assert spec.truncation == 6
        assert spec.sigma == 0.0
        assert spec.forcing_modes == () and spec.forcing_harmonic == ()
        assert spec.initial.kind == "zero"
        assert spec.scheme.method == integrate.IF_RK4
        assert spec.scheme.stride == 1
        assert spec.lyapunov is None
        assert spec.seed is None and spec.out is None and spec.sweep is None

    def test_malformed_json(self):
        with pytest.raises(ConfigurationError) as err:
            cfg.parse_config("{nope")
        assert "malformed JSON" in str(err.value)

    def test_integer_past_the_digit_limit_is_malformed(self):
        # json raises a plain ValueError there (Python >= 3.10.7), not a
        # JSONDecodeError
        with pytest.raises(ConfigurationError):
            cfg.parse_config('{"nu": 1' + "0" * 5000 + "}")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigurationError):
            cfg.parse_config("[1, 2]")

    def test_unknown_top_key_named(self):
        assert "viscosity" in error_of(sphere_doc(viscosity=1.0))

    def test_unknown_nested_key_has_path(self):
        doc = sphere_doc()
        doc["scheme"]["warp"] = 2
        assert "scheme.warp" in error_of(doc)

    def test_geometry_required(self):
        doc = sphere_doc()
        del doc["geometry"]
        assert "geometry" in error_of(doc)

    def test_torus_needs_length(self):
        doc = torus_doc()
        del doc["length"]
        assert "length" in error_of(doc)

    def test_sphere_rejects_length(self):
        assert "length" in error_of(sphere_doc(length=3.0))

    def test_torus_sigma_zero_rejected(self):
        msg = error_of(torus_doc(sigma=0.0))
        assert msg.startswith("sigma")

    def test_nu_positive_required(self):
        assert "nu" in error_of(sphere_doc(nu=0.0))
        doc = sphere_doc()
        del doc["nu"]
        assert "nu" in error_of(doc)

    def test_bool_is_not_a_number(self):
        assert "nu" in error_of(sphere_doc(nu=True))

    def test_truncation_positive_integer(self):
        assert "truncation" in error_of(sphere_doc(truncation=0))
        assert "truncation" in error_of(sphere_doc(truncation=6.5))

    def test_forcing_mode_beyond_truncation(self):
        doc = sphere_doc(forcing={"modes": [[7, 0, 1.0]]})
        assert "forcing.modes[0]" in error_of(doc)

    def test_torus_zero_mode_rejected(self):
        doc = torus_doc(forcing={"modes": [[0, 0, 1.0]]})
        assert "forcing.modes[0]" in error_of(doc)

    def test_torus_edge_mode_accepted_and_conserves_energy(self):
        # every mode up to the truncation is active, so forcing and initial
        # data at the edge (K, 0) must run with the energy law intact
        parse(torus_doc(initial={"kind": "eigenmode", "mode": [0, -4]}))
        doc = torus_doc(
            seed=3,
            forcing={"modes": [[1, 2, 1.0], [4, 0, 1.5]]},
            initial={"kind": "random", "energy": 0.5},
            scheme={"dt": 0.01, "t_end": 0.5, "stride": 5},
        )
        spec = parse(doc)
        plan = cfg.build_plan(spec)
        params = cfg.model_params(plan, spec)
        records = []

        def observe(t, st, tend):
            records.append(verification.energy_record(plan, st, params, t, None, tend))

        for _ in integrate.samples(plan, cfg.initial_state(plan, spec), params, spec.scheme,
                                   (observe,)):
            pass
        assert len(records) == 11
        assert max(r.energy_residual for r in records) <= 1e-13

    def test_sphere_rejects_harmonic_forcing(self):
        doc = sphere_doc(forcing={"harmonic": [1.0, 0.0]})
        assert "forcing.harmonic" in error_of(doc)

    def test_harmonic_forcing_must_be_pair(self):
        doc = torus_doc(forcing={"harmonic": [1.0]})
        assert "forcing.harmonic" in error_of(doc)

    def test_eigenmode_initial_range_checked(self):
        doc = sphere_doc(initial={"kind": "eigenmode", "mode": [9, 0]})
        assert "initial.mode" in error_of(doc)

    def test_random_initial_needs_some_seed(self):
        doc = sphere_doc(initial={"kind": "random"})
        assert "initial.seed" in error_of(doc)

    def test_random_initial_inherits_top_seed(self):
        spec = parse(sphere_doc(seed=42, initial={"kind": "random"}))
        assert spec.initial.seed == 42

    def test_explicit_initial_seed_wins(self):
        spec = parse(sphere_doc(seed=42, initial={"kind": "random", "seed": 7}))
        assert spec.initial.seed == 7

    def test_unknown_initial_kind(self):
        assert "initial.kind" in error_of(sphere_doc(initial={"kind": "vortex"}))

    def test_scheme_required(self):
        doc = sphere_doc()
        del doc["scheme"]
        assert "scheme" in error_of(doc)

    def test_scheme_errors_prefixed(self):
        doc = sphere_doc()
        doc["scheme"]["method"] = "leapfrog"
        assert error_of(doc).startswith("scheme")

    def test_lyapunov_block(self):
        doc = sphere_doc(
            seed=3,
            lyapunov={"n_ensemble": 4, "t_average": 2.0, "renorm_interval": 0.5},
        )
        spec = parse(doc)
        assert spec.lyapunov.n_ensemble == 4
        assert spec.lyapunov.t_transient == 0.0
        assert spec.lyapunov.seed == 3

    def test_lyapunov_seed_defaults_to_zero(self):
        doc = sphere_doc(lyapunov={"n_ensemble": 2, "t_average": 1.0, "renorm_interval": 0.5})
        assert parse(doc).lyapunov.seed == 0

    def test_sweep_key_restricted(self):
        assert "sweep.key" in error_of(sphere_doc(sweep={"key": "dt", "values": [1.0]}))

    def test_sweep_values_nonempty(self):
        assert "sweep.values" in error_of(sphere_doc(sweep={"key": "nu", "values": []}))

    def test_sweep_roundtrip(self):
        spec = parse(sphere_doc(sweep={"key": "alpha", "values": [0.5, 1, 2.0]}))
        assert spec.sweep == ("alpha", (0.5, 1.0, 2.0))


class TestRealization:
    def test_build_plan_matches_spec(self):
        spec = parse(torus_doc())
        plan = cfg.build_plan(spec)
        assert plan.geometry.kind == basis.TORUS
        assert plan.geometry.length == TWO_PI
        assert plan.truncation == 4

    def test_forcing_amplitudes_placed_and_summed(self):
        doc = sphere_doc(forcing={"modes": [[2, 1, 1.5], [2, 1, 0.25], [1, 0, -1.0]]})
        spec = parse(doc)
        plan = cfg.build_plan(spec)
        params = cfg.model_params(plan, spec)
        assert params.forcing.f1_curl[basis.mode_slot(plan, (2, 1))] == 1.75
        assert params.forcing.f1_curl[basis.mode_slot(plan, (1, 0))] == -1.0

    def test_harmonic_forcing_realized(self):
        spec = parse(torus_doc(forcing={"harmonic": [0.2, -0.1]}))
        plan = cfg.build_plan(spec)
        params = cfg.model_params(plan, spec)
        assert params.forcing.f2.tolist() == [0.2, -0.1]

    def test_sweep_overrides(self):
        spec = parse(torus_doc())
        plan = cfg.build_plan(spec)
        params = cfg.model_params(plan, spec, nu=2.5)
        assert params.nu == 2.5
        assert params.alpha == spec.alpha and params.sigma == spec.sigma

    def test_zero_initial_state(self):
        spec = parse(sphere_doc())
        plan = cfg.build_plan(spec)
        state = cfg.initial_state(plan, spec)
        assert not state.psi.any() and not state.harmonic.any()

    def test_eigenmode_initial_state(self):
        spec = parse(sphere_doc(initial={"kind": "eigenmode", "mode": [3, -2], "amplitude": 0.25}))
        plan = cfg.build_plan(spec)
        state = cfg.initial_state(plan, spec)
        slot = basis.mode_slot(plan, (3, -2))
        assert state.psi[slot] == 0.25
        assert np.count_nonzero(state.psi) == 1

    def test_random_initial_normalized_and_dealiased(self):
        doc = torus_doc(initial={"kind": "random", "seed": 9, "energy": 0.75})
        spec = parse(doc)
        plan = cfg.build_plan(spec)
        state = cfg.initial_state(plan, spec)
        e1 = ops.energy_e1(plan, state, spec.alpha)
        assert abs(e1 - 0.75) < 1e-12

    def test_random_initial_is_ops_random_state_bitwise(self):
        # the normalization of the historical config builder, kept bit for bit
        for doc in (sphere_doc(alpha=0.8), torus_doc(alpha=0.8)):
            doc["initial"] = {"kind": "random", "seed": 5, "slope": 1.5, "energy": 0.3}
            spec = parse(doc)
            plan = cfg.build_plan(spec)
            state = cfg.initial_state(plan, spec)
            rng = ops.NormalStream(5)
            psi = rng.standard_normal(plan.n_modes) * plan.lam ** (-0.5 * 1.5)
            e1 = ops.energy_e1(plan, ops.VelocityState(psi, np.zeros(plan.n_harmonic)), 0.8)
            psi *= np.sqrt(0.3 / e1)
            direct = ops.random_state(plan, 5, slope=1.5, e1=0.3, alpha=0.8)
            assert np.array_equal(state.psi, psi)
            assert np.array_equal(direct.psi, psi)
            assert np.array_equal(state.harmonic, direct.harmonic)

    def test_random_initial_seed_dependence(self):
        base = torus_doc(initial={"kind": "random", "seed": 1})
        other = torus_doc(initial={"kind": "random", "seed": 2})
        plan = cfg.build_plan(parse(base))
        a = cfg.initial_state(plan, parse(base))
        b = cfg.initial_state(plan, parse(other))
        c = cfg.initial_state(plan, parse(base))
        assert not np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.psi, c.psi)
