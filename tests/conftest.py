"""Shared random-object builders for the test suite.

All builders take an explicit numpy Generator so every test controls
its own stream; the ``rng`` fixture provides a default seeded one.
"""

import tracemalloc

import numpy as np
import pytest

from twotime import (
    DensityVector,
    Ensemble,
    KrausOperator,
    Measurement,
    TwoTimeState,
    density_from_ensemble,
    pure_product,
    superpose,
)

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)

#: The non-projective qubit Kraus operator |-><+| that separates the
#: equal superposition from the equal mixture.
MINUS_PLUS = np.outer(MINUS, PLUS)


def complex_gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_state(rng, d):
    return TwoTimeState(complex_gaussian(rng, (d, d)))


def random_kraus(rng, d):
    return KrausOperator(complex_gaussian(rng, (d, d)))


def random_hermitian(rng, d):
    m = complex_gaussian(rng, (d, d))
    return (m + m.conj().T) / 2.0


def random_weights(rng, n):
    w = rng.random(n) + 0.1
    return w / w.sum()


def random_ensemble(rng, d, n_members=3):
    return Ensemble(
        tuple((w, random_state(rng, d)) for w in random_weights(rng, n_members))
    )


def random_density(rng, d, n_members=3):
    return density_from_ensemble(random_ensemble(rng, d, n_members))


def random_complete_measurement(rng, d, n_outcomes=3):
    # The d-column blocks of a random isometry satisfy sum A^dag A = I.
    g = complex_gaussian(rng, (n_outcomes * d, d))
    q, _ = np.linalg.qr(g)
    ops = [KrausOperator(q[k * d:(k + 1) * d, :]) for k in range(n_outcomes)]
    return Measurement.detailed(ops)


def random_coarse_measurement(rng, d, n_outcomes=2, branches=2):
    detailed = random_complete_measurement(rng, d, n_outcomes * branches)
    flat = [out.kraus[0] for out in detailed.outcomes]
    sets = [flat[k * branches:(k + 1) * branches] for k in range(n_outcomes)]
    return Measurement.from_kraus_sets(sets)


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()`` run a second time (the first warms caches)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_bloch_projector(rng):
    v = complex_gaussian(rng, 2)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def bell_basis_povm(d):
    """The d^2 maximally entangled basis projectors on the doubled space."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    ops = []
    for m in range(d):
        for n in range(d):
            u = np.linalg.matrix_power(shift, m) @ np.linalg.matrix_power(clock, n)
            v = np.kron(u, np.eye(d)) @ phi
            ops.append(np.outer(v, v.conj()))
    return ops


def projective_measurement(projector):
    p = np.asarray(projector, dtype=complex)
    return Measurement.detailed([KrausOperator(p), KrausOperator(np.eye(len(p)) - p)])


def equal_superposition_state():
    """(coeffs = I/sqrt(2)): equal superposition of the two diagonal products."""
    return superpose([
        (1.0 / np.sqrt(2.0), pure_product(E0, E0)),
        (1.0 / np.sqrt(2.0), pure_product(E1, E1)),
    ])


def equal_mixture():
    return Ensemble((
        (0.5, pure_product(E0, E0)),
        (0.5, pure_product(E1, E1)),
    ))


def equal_mixture_density():
    return density_from_ensemble(equal_mixture())


def superposition_density():
    return DensityVector.from_pure(equal_superposition_state())


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
