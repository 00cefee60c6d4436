import numpy as np
import pytest

from helpers import mixed_preparation_measurement, partial_trace_env, rand_density, rand_unitary
from procmap import jsonio
from procmap.qstate import (
    IDENTITY_2,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    bloch_vector,
    conjugate_system,
    dagger,
    eig_hermitian,
    is_projector,
    ket_from_projector,
    pauli_combination,
    pauli_decompose,
    state_from_bloch,
    tensor,
    validate_density_matrix,
    validate_unitary,
)
from procmap.records import state_of_label

CHOI_IDENTITY = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


def test_tensor_identity():
    assert np.array_equal(tensor(IDENTITY_2, IDENTITY_2), np.eye(4))


@pytest.mark.parametrize("dim", [1, 2, 3, 64])
def test_tensor_is_bit_identical_to_kron(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a[0, 1] = complex(-0.0, 0.0)
    a[1, 0] = complex(0.0, -0.0)
    b[0, 0] = complex(-0.0, -0.0)
    for x, y in ((a, b), (SIGMA_2, np.eye(dim)), (a.real, b.imag)):
        expected = np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
        assert tensor(x, y).tobytes() == expected.tobytes()


def test_tensor_sigma2_sigma3():
    expected = np.array(
        [
            [0, 0, -1j, 0],
            [0, 0, 0, 1j],
            [1j, 0, 0, 0],
            [0, -1j, 0, 0],
        ]
    )
    assert np.max(np.abs(tensor(SIGMA_2, SIGMA_3) - expected)) == 0


def test_tensor_sigma1_sigma1_antidiagonal():
    expected = np.fliplr(np.eye(4)).astype(complex)
    assert np.max(np.abs(tensor(SIGMA_1, SIGMA_1) - expected)) == 0


def test_tensor_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.max(np.abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c)))) < 1e-12
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12
        assert np.max(np.abs(tensor(a + c, b) - tensor(a, b) - tensor(c, b))) < 1e-12


@pytest.mark.parametrize("dim_env", [1, 2, 3, 64])
def test_conjugate_system_matches_dense_kron(dim_env):
    rng = np.random.default_rng(30 + dim_env)
    d = 2 * dim_env
    mixed = mixed_preparation_measurement(state_from_bloch([0.5, 0.0, 0.0]))
    operators = [
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),  # neither Hermitian nor unitary
        state_of_label("4+"),
        rand_unitary(rng, 2),
        *(outcome.kraus[0] for outcome in mixed.outcomes),
    ]
    for joint in (rand_density(rng, d), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))):
        for k in operators:
            big = tensor(k, np.eye(dim_env))
            assert np.max(np.abs(conjugate_system(k, joint) - big @ joint @ dagger(big))) < 1e-13


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    for dim_env in (2, 3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        b = rng.normal(size=(dim_env, dim_env)) + 1j * rng.normal(size=(dim_env, dim_env))
        tau = b @ b.conj().T
        tau /= np.trace(tau)
        assert np.max(np.abs(partial_trace_env(tensor(rho, tau), 2, dim_env) - rho)) < 1e-12


def test_partial_trace_correlated_state():
    # The sigma (x) sigma term is traceless in the environment factor.
    a = np.array([0.2, 0.5, -0.1])
    gamma = 0.25 * (np.eye(4) + sum(aj * tensor(s, IDENTITY_2) for aj, s in zip(a, (SIGMA_1, SIGMA_2, SIGMA_3))))
    gamma += 0.25 * 0.3 * tensor(SIGMA_2, SIGMA_3)
    reduced = partial_trace_env(gamma, 2, 2)
    assert np.max(np.abs(reduced - state_from_bloch(a))) < 1e-12


def test_partial_trace_bell_state():
    ket = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = np.outer(ket, ket.conj())
    assert np.max(np.abs(partial_trace_env(bell, 2, 2) - 0.5 * np.eye(2))) < 1e-15


def test_state_from_bloch_golden():
    assert np.max(np.abs(state_from_bloch([0, 0, 1]) - np.diag([1.0, 0.0]))) < 1e-15
    assert np.max(np.abs(state_from_bloch([0, 0, 0]) - 0.5 * np.eye(2))) < 1e-15
    p4 = state_from_bloch([1 / np.sqrt(2), 1 / np.sqrt(2), 0])
    assert is_projector(p4)
    expected = 0.5 * (np.eye(2) + (SIGMA_1 + SIGMA_2) / np.sqrt(2))
    assert np.max(np.abs(p4 - expected)) < 1e-15


def test_pauli_decompose_golden():
    a0, a = pauli_decompose(SIGMA_2)
    assert a0 == 0.0
    assert np.allclose(a, [0, 1, 0], atol=1e-15)

    a0, a = pauli_decompose(0.5 * IDENTITY_2)
    assert abs(a0 - 0.5) < 1e-15
    assert np.max(np.abs(a)) < 1e-15

    # Post-measurement output state of the correlated example: coefficients
    # (-c*CS, C^2, c*S^2)/... with C^2 = S^2 = CS = 1/2 and c = 0.2.
    q = 0.5 * (IDENTITY_2 - 0.1 * SIGMA_1 + 0.5 * SIGMA_2 + 0.1 * SIGMA_3)
    assert np.allclose(bloch_vector(q), [-0.1, 0.5, 0.1], atol=1e-15)


def test_pauli_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a0 = rng.normal()
        a = rng.normal(size=3)
        back0, back = pauli_decompose(pauli_combination(a0, a))
        assert abs(back0 - a0) < 1e-13
        assert np.max(np.abs(back - a)) < 1e-13


def test_pauli_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_hermitian_golden():
    w, _ = eig_hermitian(IDENTITY_2)
    assert np.allclose(w, [1, 1])
    w, _ = eig_hermitian(SIGMA_3)
    assert np.allclose(w, [-1, 1])
    w, _ = eig_hermitian(CHOI_IDENTITY)
    assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(17)
    for d in (2, 4, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a + a.conj().T
        w, v = eig_hermitian(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))


def test_validators():
    validate_density_matrix(0.5 * np.eye(2))
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    validate_unitary(SIGMA_2)
    with pytest.raises(ValueError):
        validate_unitary(2 * np.eye(2))


def test_ket_from_projector_deterministic():
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = state_from_bloch(v)
        ket = ket_from_projector(p)
        assert np.max(np.abs(np.outer(ket, ket.conj()) - p)) < 1e-10
        again = ket_from_projector(p)
        assert np.array_equal(ket, again)


def test_matrix_json_roundtrip_bit_exact():
    rng = np.random.default_rng(8)
    mats = [
        rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
        np.array([[0.1 + 1j / 3, -0.0 + 0j], [1e-200 + 1e200j, -7.25 + 0.5j]]),
    ]
    for m in mats:
        text = jsonio.dumps(jsonio.matrix_to_json(m))
        import json

        back = jsonio.matrix_from_json(json.loads(text))
        assert back.shape == m.shape
        # bit-exact: compare raw float payloads, including signed zeros
        assert np.array_equal(back.view(float), np.asarray(m, dtype=complex).view(float))


def test_matrix_json_rejects_malformed():
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 0, "cols": 1, "data": []})
