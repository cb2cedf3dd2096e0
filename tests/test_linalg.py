from __future__ import annotations

import numpy as np
import pytest

from hyperdense import linalg

from _oracles import random_density, random_ket, random_unitary

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _unit(amplitudes):
    psi = np.asarray(amplitudes, dtype=complex)
    return psi / np.linalg.norm(psi)


def _basis(dim, index):
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def test_tensor_product_identity():
    assert np.array_equal(linalg.tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_basis_index():
    psi = linalg.tensor_product(_basis(2, 1), _basis(2, 0))
    assert np.array_equal(psi, _basis(4, 2))


def test_tensor_product_single_factor_action():
    op = linalg.tensor_product(_X, np.eye(2))
    psi = linalg.tensor_product(_basis(2, 0), _basis(2, 0))
    out = op @ psi
    want = linalg.tensor_product(_basis(2, 1), _basis(2, 0))
    assert np.allclose(out, want)


def test_tensor_product_associative_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        left = linalg.tensor_product(linalg.tensor_product(a, b), c)
        right = linalg.tensor_product(a, linalg.tensor_product(b, c))
        assert np.allclose(left, right, atol=1e-12)
        s = 0.3 - 1.7j
        assert np.allclose(
            linalg.tensor_product(s * a + b, c),
            s * linalg.tensor_product(a, c) + linalg.tensor_product(b, c),
            atol=1e-12,
        )


def test_density_matrix_validation():
    rho = linalg.density_from_ket(_unit([1.0, 1.0j]))
    assert np.array_equal(linalg.validate_density_matrix(rho), rho)
    with pytest.raises(ValueError, match="trace"):
        linalg.validate_density_matrix(2.0 * rho)
    with pytest.raises(ValueError, match="hermitian"):
        linalg.validate_density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        linalg.validate_density_matrix(np.diag([1.5, -0.5]))


def test_purity():
    pure = linalg.density_from_ket(_unit([1.0, 0.0, 1.0, 0.0]))
    assert abs(linalg.purity(pure) - 1.0) < 1e-12
    assert abs(linalg.purity(np.eye(4) / 4.0) - 0.25) < 1e-12
    lam = 0.01
    rho = (1.0 - lam) * pure + lam * np.eye(4) / 4.0
    # closed form (1-lam)^2 + lam(1-lam)/2 + lam^2/4
    assert abs(linalg.purity(rho) - 0.985075) < 1e-12


def test_linear_entropy():
    bell = linalg.density_from_ket(
        _unit([1.0, 0.0, 0.0, -1.0]))
    assert abs(linalg.linear_entropy(bell)) < 1e-12
    for lam, want in ((0.010, 0.0199), (0.03, 0.0591)):
        rho = (1.0 - lam) * bell + lam * np.eye(4) / 4.0
        assert abs(linalg.linear_entropy(rho) - want) < 1e-12
    assert abs(linalg.linear_entropy(np.eye(4) / 4.0) - 1.0) < 1e-12


def test_fidelity_with_pure():
    psi = _unit([1.0, 0.0, 0.0, 1.0])
    rho = linalg.density_from_ket(psi)
    assert abs(linalg.fidelity_with_pure(rho, psi) - 1.0) < 1e-12
    orth = _unit([1.0, 0.0, 0.0, -1.0])
    assert abs(linalg.fidelity_with_pure(rho, orth)) < 1e-12
    lam = 0.2
    mixed = (1.0 - lam) * rho + lam * np.eye(4) / 4.0
    assert abs(linalg.fidelity_with_pure(mixed, psi) - (1.0 - 0.75 * lam)) < 1e-12
    with pytest.raises(ValueError, match="mismatch"):
        linalg.fidelity_with_pure(rho, _basis(2, 0))


def test_concurrence_reference_states():
    for amps in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]):
        bell = linalg.density_from_ket(_unit(amps))
        assert abs(linalg.concurrence(bell) - 1.0) < 1e-10
    product = linalg.density_from_ket(_basis(4, 0))
    assert linalg.concurrence(product) < 1e-10
    theta = np.pi / 4.0 + np.deg2rad(1.0)
    tilted = linalg.density_from_ket(
        np.array([np.cos(theta), 0.0, 0.0, -np.sin(theta)], dtype=complex))
    assert abs(linalg.concurrence(tilted) - np.cos(np.deg2rad(2.0))) < 1e-10
    with pytest.raises(ValueError):
        linalg.concurrence(np.eye(2) / 2.0)


def test_concurrence_werner_closed_form():
    # (1-lam) |bell><bell| + lam I/4 has concurrence max(0, (1-lam) - lam/2)
    bell = linalg.density_from_ket(_unit([1.0, 0.0, 0.0, -1.0]))
    for lam in (0.0, 0.010, 0.1, 0.5, 0.9):
        rho = (1.0 - lam) * bell + lam * np.eye(4) / 4.0
        want = max(0.0, (1.0 - lam) - lam / 2.0)
        assert abs(linalg.concurrence(rho) - want) < 1e-10


def test_tangle_is_squared_concurrence():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density(rng, 4)
        assert abs(linalg.tangle(rho) - linalg.concurrence(rho) ** 2) < 1e-12


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = random_density(rng, 4)
        u = linalg.tensor_product(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(linalg.concurrence(rotated) - linalg.concurrence(rho)) < 1e-8


def test_wootters_eigenvalues_satisfy_characteristic_polynomial():
    rng = np.random.default_rng(5)
    yy = np.kron(_Y, _Y)
    for _ in range(25):
        rho = random_density(rng, 4)
        product = rho @ (yy @ rho.conj() @ yy)
        vals = linalg._wootters_eigenvalues(rho)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-15)
        for lam in vals:
            assert abs(np.linalg.det(product - lam * np.eye(4))) < 1e-8


def test_eigenvalue_spectrum_preserved_under_pure_states():
    # pure states: one eigenvalue equals concurrence^2, others vanish
    rng = np.random.default_rng(17)
    for _ in range(20):
        psi = random_ket(rng, 4)
        rho = linalg.density_from_ket(psi)
        vals = linalg._wootters_eigenvalues(rho)
        assert np.all(vals[1:] < 1e-10)
        assert abs(np.sqrt(vals[0]) - linalg.concurrence(rho)) < 1e-8
