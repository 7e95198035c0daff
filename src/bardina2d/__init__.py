"""Spectral Galerkin solver and verification lab for a regularized 2D flow model.

Subpackage layout:

    basis        orthonormal eigenbases, transforms, quadrature (sphere / torus)
    legendre     the sphere transform core: Gauss-Legendre rule, P_n^m, transforms
    fourier      the torus transform core, by partial summation
    operators    states, Stokes / Helmholtz / projection operators, norms
    dynamics     model tendencies, tangent linearization, prepared equation
    integrate    integrating-factor time steppers
    bounds       dissipativity constants, absorbing radii, dimension bounds
    verification energy diagnostics, decay envelopes, identity checks
    lyapunov     Benettin exponent estimation and Kaplan-Yorke dimension
    config       JSON run specifications
    snapshot     binary state checkpoints
    atomic       whole-or-nothing output files
    errors       exception hierarchy rooted at ModelError
    checks       the verify / selftest check battery
    cli          command line entry point

Submodules load lazily so the command line tool can pin the linear algebra
thread pools before numpy initializes them.
"""

__version__ = "0.1.0"

_LAZY = {
    "build_plan": ("basis", "build_plan"),
    "sphere": ("basis", "sphere"),
    "torus": ("basis", "torus"),
    "Forcing": ("dynamics", "Forcing"),
    "ModelParams": ("dynamics", "ModelParams"),
    "VelocityState": ("operators", "VelocityState"),
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        module, attr = _LAZY[name]
        return getattr(import_module(f"{__name__}.{module}"), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
