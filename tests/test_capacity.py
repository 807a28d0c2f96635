import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidmimo import (
    PortSelection,
    capacity,
    capacity_q_form,
    capacity_upper_bound,
    extract_effective,
    surrogate_u,
)
from fluidmimo.capacity import _packed_logdet

from conftest import make_channel, random_instance
from oracles import (
    binary_selections,
    eig_capacity,
    frobenius_u,
    frozen_gram_logdet,
    packed_capacity,
    q_matrix_from_selection,
)


class TestExtractEffective:
    def test_singleton(self):
        ch = make_channel([[0.3 - 0.4j]], 1, 1, 1, 1)
        eff = extract_effective(ch, PortSelection((1,), (1,)))
        assert eff.shape == (1, 1) and eff[0, 0] == 0.3 - 0.4j

    def test_direct_indexing(self):
        ch = make_channel([[1, 2], [3, 4]], 1, 1, 2, 2)
        eff = extract_effective(ch, PortSelection((2,), (1,)))
        assert eff[0, 0] == 3

    def test_matches_q_matrix_definition(self, rng):
        for _ in range(25):
            ch = random_instance(rng, m_max=2, n_max=3)
            c = ch.config
            rx = tuple(int(rng.integers(1, c.n_r + 1)) for _ in range(c.m_r))
            tx = tuple(int(rng.integers(1, c.n_t + 1)) for _ in range(c.m_t))
            q = q_matrix_from_selection(ch, rx, tx)
            # strip zero rows/columns of Q and compare
            stripped = q[np.ix_(np.any(q != 0, axis=1), np.any(q != 0, axis=0))]
            eff = extract_effective(ch, PortSelection(rx, tx))
            if stripped.size:  # a zero effective row/col strips away too
                mask = eff[np.ix_(np.any(eff != 0, axis=1), np.any(eff != 0, axis=0))]
                assert np.array_equal(stripped, mask)

    def test_gathers_a_c_contiguous_copy(self, rng):
        # a copy that owns its memory, whatever the channel's layout
        for _ in range(10):
            ch = random_instance(rng, m_max=3, n_max=4)
            c = ch.config
            rx = tuple(int(rng.integers(1, c.n_r + 1)) for _ in range(c.m_r))
            tx = tuple(int(rng.integers(1, c.n_t + 1)) for _ in range(c.m_t))
            eff = extract_effective(ch, PortSelection(rx, tx))
            rows = [i * c.n_r + p - 1 for i, p in enumerate(rx)]
            cols = [j * c.n_t + p - 1 for j, p in enumerate(tx)]
            assert np.array_equal(eff, ch.entries[np.ix_(rows, cols)])
            assert eff.flags.c_contiguous and not np.shares_memory(eff, ch.entries)

    def test_out_of_range_port(self):
        ch = make_channel([[1, 2], [3, 4]], 1, 1, 2, 2)
        with pytest.raises(ValueError, match="port 3"):
            extract_effective(ch, PortSelection((3,), (1,)))


class TestPortSelection:
    def test_keeps_python_and_numpy_integers(self):
        sel = PortSelection((np.int64(2), np.int32(1)), [np.intp(3)])
        assert sel == PortSelection((2, 1), (3,))
        assert all(type(p) is int for p in sel.rx_ports + sel.tx_ports)

    @pytest.mark.parametrize("bad", [1.7, "2", True, np.bool_(True), np.float64(2.0)])
    @pytest.mark.parametrize("side", ["rx_ports", "tx_ports"])
    def test_rejects_non_integer_ports(self, bad, side):
        # 1.7 used to become port 1; "2" and True were accepted
        ports = {"rx_ports": (1,), "tx_ports": (2,), side: (1, bad)}
        shown = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"{side} must hold integers, got {shown}"):
            PortSelection(**ports)


class TestCapacity:
    def test_identity_channel(self):
        assert capacity(np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_channel(self):
        assert capacity(np.zeros((3, 2)), 4.7) == 0.0

    def test_scalar_channel(self):
        assert capacity(np.array([[2.0]]), 1.0) == pytest.approx(np.log2(5.0), abs=1e-12)

    def test_rho_zero(self):
        h = np.array([[1.0 + 1.0j, 0.5], [0.2, 0.9j]])
        assert capacity(h, 0.0) == 0.0

    def test_against_eigenvalue_oracle(self, rng):
        for _ in range(30):
            m_r = int(rng.integers(1, 4))
            m_t = int(rng.integers(1, 4))
            h = rng.standard_normal((m_r, m_t)) + 1j * rng.standard_normal((m_r, m_t))
            rho = float(rng.uniform(0.0, 3.0))
            assert capacity(h, rho) == pytest.approx(eig_capacity(h, rho), abs=1e-10)

    def test_fixed_tall_matrix_against_oracle(self, rng):
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert capacity(h, 1.5) == pytest.approx(eig_capacity(h, 1.5), abs=1e-10)

    def test_monotone_in_rho(self, rng):
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        caps = [capacity(h, rho) for rho in np.linspace(0.0, 10.0, 50)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    @staticmethod
    def _shapes_and_rhos(rng):
        # every shape 1x1..4x4, so both Gram sides; rho over eight decades
        for _ in range(40):
            for m_r in range(1, 5):
                for m_t in range(1, 5):
                    h = rng.normal(size=(m_r, m_t)) + 1j * rng.normal(size=(m_r, m_t))
                    yield h, 10.0 ** rng.uniform(-3, 5)

    def test_bits_match_the_packed_oracle(self, rng):
        # the searches' formula: packed terms added in antenna order
        for h, rho in self._shapes_and_rhos(rng):
            assert capacity(h, rho) == packed_capacity(h, rho, _packed_logdet)

    def test_bits_match_the_frozen_form(self, rng):
        # the Gram-product form it replaced, to the last few ulps of a
        # capacity of at least one bit
        for h, rho in self._shapes_and_rhos(rng):
            expected = frozen_gram_logdet(h, rho)
            assert abs(capacity(h, rho) - expected) <= 1e-14 * max(1.0, expected)

    def test_overflowing_determinant_is_rescued(self, rng):
        # rho |g|^2 ~ 1e300: the entries of I + rho G are finite, their 2 x 2
        # determinant is not; it is taken of the matrix scaled by 2^-k, plus 2k
        for _ in range(50):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = 10.0 ** rng.uniform(290, 306)
            b = np.eye(2) + rho * (h @ h.conj().T)
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(b[0, 0] * b[1, 1] - abs(b[0, 1]) ** 2)
            k = np.frexp(np.abs(b).max())[1]
            chol = np.linalg.cholesky(np.ldexp(b.real, -k) + 1j * np.ldexp(b.imag, -k))
            expected = 2.0 * np.log2(chol.diagonal().real).sum() + 2 * k
            assert capacity(h, rho) == pytest.approx(expected, rel=1e-12)

    def test_rescue_leaves_finite_columns_alone(self, rng):
        # a batch of ten selections, three of them with an overflowing
        # determinant: the other seven keep the bits they score alone
        b = rng.uniform(0.5, 2.0, size=(4, 10))
        b[:2] += 2.0
        b[:, [1, 4, 8]] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):     # as in a search
            out = _packed_logdet(b)
        assert np.isfinite(out).all()
        finite = [0, 2, 3, 5, 6, 7, 9]
        assert np.array_equal(out[finite], _packed_logdet(b[:, finite]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            capacity(np.array([[np.nan]]), 1.0)
        with pytest.raises(ValueError):
            capacity(np.eye(2), -1.0)

    @pytest.mark.parametrize("rho", [True, False, np.True_])
    def test_rejects_a_bool_rho(self, rho):
        # capacity(h, True) used to score at rho = 1
        with pytest.raises(ValueError, match="^rho must be finite and >= 0, got "):
            capacity(np.eye(2), rho)


class TestQForm:
    def test_matches_effective_path(self, rng):
        for _ in range(50):
            ch = random_instance(rng, m_max=3, n_max=4)
            c = ch.config
            rx = tuple(int(rng.integers(1, c.n_r + 1)) for _ in range(c.m_r))
            tx = tuple(int(rng.integers(1, c.n_t + 1)) for _ in range(c.m_t))
            sel = PortSelection(rx, tx)
            rho = float(rng.uniform(0.0, 4.0))
            via_q = capacity_q_form(ch, sel, rho)
            via_eff = capacity(extract_effective(ch, sel), rho)
            assert abs(via_q - via_eff) <= 1e-9 * max(1.0, via_eff)

    def test_rho_zero(self, rng):
        ch = random_instance(rng)
        sel = PortSelection((1,) * ch.config.m_r, (1,) * ch.config.m_t)
        assert capacity_q_form(ch, sel, 0.0) == 0.0

    def test_scalar_case(self):
        ch = make_channel([[0.6 + 0.8j]], 1, 1, 1, 1)
        sel = PortSelection((1,), (1,))
        assert capacity_q_form(ch, sel, 2.0) == pytest.approx(np.log2(1 + 2.0), abs=1e-12)

    def test_size_guard(self, monkeypatch):
        import sys
        capacity_mod = sys.modules["fluidmimo.capacity"]
        monkeypatch.setattr(capacity_mod, "_Q_FORM_MAX_ENTRIES", 8)
        ch = make_channel(np.ones((3, 3)), 1, 1, 3, 3)
        with pytest.raises(ValueError, match="entries"):
            capacity_q_form(ch, PortSelection((1,), (1,)), 1.0)


class TestSurrogate:
    def test_binary_equals_frobenius(self, rng):
        for _ in range(20):
            ch = random_instance(rng, m_max=2, n_max=3)
            c = ch.config
            for rx, tx in binary_selections(c):
                x, y = PortSelection(rx, tx).to_indicators(c.n_r, c.n_t)
                assert surrogate_u(ch, x, y) == pytest.approx(
                    frobenius_u(ch, rx, tx), abs=1e-12)

    def test_all_zero_weights(self, rng):
        ch = random_instance(rng)
        c = ch.config
        assert surrogate_u(ch, np.zeros(c.rx_dim), np.ones(c.tx_dim) / c.n_t) == 0.0

    def test_half_weights_hand_value(self):
        ch = make_channel(np.ones((2, 2)), 1, 1, 2, 2)
        assert surrogate_u(ch, np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_out_of_range(self, rng):
        ch = random_instance(rng)
        c = ch.config
        with pytest.raises(ValueError, match="x components"):
            surrogate_u(ch, np.full(c.rx_dim, 1.5), np.ones(c.tx_dim))

    def test_concavity_spot_check(self, rng):
        ch = random_instance(rng, m_max=2, n_max=4)
        c = ch.config
        for _ in range(40):
            def feasible():
                x = rng.uniform(0, 1, c.rx_dim).reshape(c.m_r, c.n_r)
                x /= x.sum(axis=1, keepdims=True)
                y = rng.uniform(0, 1, c.tx_dim).reshape(c.m_t, c.n_t)
                y /= y.sum(axis=1, keepdims=True)
                return x.ravel(), y.ravel()
            x1, y1 = feasible()
            x2, y2 = feasible()
            theta = float(rng.uniform(0.01, 0.99))
            mixed = surrogate_u(ch, theta * x1 + (1 - theta) * x2, theta * y1 + (1 - theta) * y2)
            assert mixed >= (theta * surrogate_u(ch, x1, y1)
                             + (1 - theta) * surrogate_u(ch, x2, y2) - 1e-12)


class TestUpperBound:
    def test_zero(self):
        assert capacity_upper_bound(0.0, 3.0) == 0.0

    def test_algebraic_point(self):
        assert capacity_upper_bound(np.log(2.0), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_capacity_at_binary_points(self, rng):
        for _ in range(50):
            ch = random_instance(rng, m_max=2, n_max=3)
            c = ch.config
            rho = c.rho
            for rx, tx in binary_selections(c):
                sel = PortSelection(rx, tx)
                x, y = sel.to_indicators(c.n_r, c.n_t)
                bound = capacity_upper_bound(surrogate_u(ch, x, y), rho)
                cap = capacity(extract_effective(ch, sel), rho)
                assert cap <= bound + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63 - 1),
       st.floats(min_value=0.0, max_value=20.0))
def test_capacity_nonnegative_property(seed, rho):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert capacity(h, rho) >= 0.0
