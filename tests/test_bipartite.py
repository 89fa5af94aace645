import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomo.bipartite import (
    hs_norm,
    inverse,
    kron,
    partial_trace_2,
    phase_align,
    unvec,
    vec,
)
from optomo.errors import NonInvertibleEntanglerError

from oracles import kron_action_by_loops, partial_trace_2_by_loops, vec_by_loops


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestVecUnvec:
    def test_identity_d2(self):
        v = vec(np.eye(2))
        assert np.allclose(v, [1, 0, 0, 1])

    def test_single_entry(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        v = vec(m)
        assert v[1] == 1.0 and np.count_nonzero(v) == 1

    def test_roundtrip_random(self, rng):
        m = random_complex(rng, (3, 3))
        assert np.array_equal(unvec(vec(m)), m)

    def test_vec_matches_loops(self, rng):
        m = random_complex(rng, (4, 4))
        assert np.array_equal(vec(m), vec_by_loops(m))

    def test_unvec_maximally_entangled(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(unvec(v), np.eye(2) / np.sqrt(2))

    def test_vec_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            vec(np.zeros((2, 3)))

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5))

    def test_kron_action_identity(self, rng):
        # (A (x) C^T) vec(B) = vec(A B C), brute-forced on random 3x3
        a, b, c = (random_complex(rng, (3, 3)) for _ in range(3))
        lhs = kron(a, c.T) @ vec(b)
        assert np.allclose(lhs, vec(a @ b @ c), atol=1e-12)
        assert np.allclose(lhs, kron_action_by_loops(a, c, b), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10**6))
    def test_roundtrip_property(self, d, seed):
        m = random_complex(np.random.default_rng(seed), (d, d))
        assert np.array_equal(unvec(vec(m)), m)
        assert abs(np.linalg.norm(vec(m)) - hs_norm(m)) < 1e-12

    def test_roundtrip_d32(self, rng):
        m = random_complex(rng, (32, 32))
        assert np.array_equal(unvec(vec(m)), m)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_map_on_first_factor(self, d, seed):
        # (A (x) I) vec(psi) = vec(A psi): the identity behind the entangled map
        r = np.random.default_rng(seed)
        a = random_complex(r, (d, d))
        psi = random_complex(r, (d, d))
        assert np.allclose(kron(a, np.eye(d)) @ vec(psi), vec(a @ psi), atol=1e-10)


class TestHilbertSchmidt:
    def test_norm_identity(self):
        assert abs(hs_norm(np.eye(3)) - np.sqrt(3)) < 1e-14

    def test_norm_squared_elementwise(self, rng):
        m = random_complex(rng, (5, 5))
        brute = sum(abs(m[i, j]) ** 2 for i in range(5) for j in range(5))
        assert abs(hs_norm(m) ** 2 - brute) < 1e-12


class TestPartialTrace:
    def test_factorized(self, rng):
        rho = random_complex(rng, (3, 3))
        sig = random_complex(rng, (3, 3))
        got = partial_trace_2(kron(rho, sig))
        assert np.allclose(got, rho * np.trace(sig), atol=1e-12)

    def test_maximally_entangled_projector(self):
        v = vec(np.eye(2))
        got = partial_trace_2(np.outer(v, v.conj()))
        assert np.allclose(got, np.eye(2))
        brute = partial_trace_2_by_loops(np.outer(v, v.conj()))
        assert np.allclose(got, brute)

    def test_trace_preserving(self, rng):
        x = random_complex(rng, (9, 9))
        assert abs(np.trace(partial_trace_2(x)) - np.trace(x)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 10**6))
    def test_linear(self, d, seed):
        r = np.random.default_rng(seed)
        x = random_complex(r, (d * d, d * d))
        y = random_complex(r, (d * d, d * d))
        a = complex(r.normal(), r.normal())
        assert np.allclose(
            partial_trace_2(a * x + y),
            a * partial_trace_2(x) + partial_trace_2(y),
            atol=1e-10,
        )

    def test_rejects_non_square_composite(self):
        with pytest.raises(ValueError):
            partial_trace_2(np.zeros((5, 5)))


class TestBasicOps:
    def test_kron_identities(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_inverse_diagonal(self):
        m = np.diag([0.5, np.sqrt(0.75) * 0.5])
        inv = inverse(m)
        assert np.allclose(inv, np.diag([2.0, 1.0 / (0.5 * np.sqrt(0.75))]))

    def test_inverse_residual(self, rng):
        m = random_complex(rng, (4, 4)) + 2.0 * np.eye(4)
        res = np.max(np.abs(inverse(m) @ m - np.eye(4)))
        assert res < 1e-10 * 4

    def test_inverse_rejects_singular(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonInvertibleEntanglerError):
            inverse(m)

    def test_inverse_rejects_near_singular(self):
        m = np.diag([1.0, 1e-14])
        with pytest.raises(NonInvertibleEntanglerError):
            inverse(m)


class TestPhaseAlign:
    def test_pure_phase(self, rng):
        n = random_complex(rng, (3, 3))
        phase, dist = phase_align(1j * n, n)
        assert abs(phase - 1j) < 1e-12 and dist < 1e-12

    def test_equal(self, rng):
        n = random_complex(rng, (3, 3))
        phase, dist = phase_align(n, n)
        assert abs(phase - 1.0) < 1e-12 and dist < 1e-12

    def test_minimises_over_phase_scan(self, rng):
        m = random_complex(rng, (3, 3))
        n = random_complex(rng, (3, 3))
        _, dist = phase_align(m, n)
        for theta in np.linspace(0, 2 * np.pi, 100, endpoint=False):
            assert dist <= np.linalg.norm(m - np.exp(1j * theta) * n) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0, 2 * np.pi), seed=st.integers(0, 10**6))
    def test_recovers_rotation(self, alpha, seed):
        m = random_complex(np.random.default_rng(seed), (3, 3))
        phase, dist = phase_align(np.exp(1j * alpha) * m, m)
        assert abs(phase - np.exp(1j * alpha)) < 1e-10
        assert dist < 1e-10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            phase_align(np.eye(2), np.zeros((2, 2)))
