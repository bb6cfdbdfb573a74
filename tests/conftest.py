import math

import numpy as np
import pytest

from nsrkit import (
    DiffusionParams,
    GaussianProbeSpec,
    Operator,
    PhaseFamilySpec,
    StateVector,
    dephasing_family,
    pure_unitary_family,
)
from nsrkit.dephasing import _covariant_sld
from nsrkit.scalar import _covariant_sld_floats, _probe

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def plus_state() -> StateVector:
    return StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))


def pure_qubit_family():
    """exp(-i x sigma_z/2)|+>": slope 1 / variance 1 / QFI 1 reference case."""
    h = Operator(SIGMA_Z / 2)
    return pure_unitary_family(h, plus_state())


def dephased_qubit_spec(beta: float) -> PhaseFamilySpec:
    """(|0>+|1>)/sqrt(2) through the diffusion channel: Bloch length e^{-beta^2}."""
    return PhaseFamilySpec(
        probe=plus_state(),
        diffusion=DiffusionParams(beta),
        phi_domain=(-math.pi, math.pi),
    )


def fock_dephasing_spec(alpha: float, r: float, beta: float, dim=None) -> PhaseFamilySpec:
    """The spec of qfi --alpha --r --beta [--dim] at --phi-true 0."""
    return PhaseFamilySpec(
        probe=(GaussianProbeSpec.with_default_dim(alpha, r) if dim is None
               else GaussianProbeSpec(alpha, r, dim)),
        diffusion=DiffusionParams(beta),
        phi_domain=(-math.pi, math.pi),
    )


def dephasing_covariant_sld(spec: PhaseFamilySpec) -> tuple[float, float]:
    """_covariant_sld on the orbit of dephasing_family(spec), as
    qfi --family dephasing calls it: (QFI, largest SLD eigenvalue)."""
    return _covariant_sld(spec.probe_state().amplitudes, spec.diffusion.beta)


def dephasing_covariant_sld_floats(spec: PhaseFamilySpec) -> tuple[float, float]:
    """_covariant_sld_floats on the probe amplitudes as floats, as
    qfi --family dephasing calls it up to SCALAR_SLD_MAX_DIM."""
    return _covariant_sld_floats(_probe(spec.probe), spec.diffusion.beta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def qubit_family():
    return pure_qubit_family()


@pytest.fixture
def dephased_qubit():
    return dephasing_family(dephased_qubit_spec(0.4)), 0.4
