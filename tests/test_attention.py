"""Additive attention: float reference, integer path, denominator diagnostics."""

import numpy as np
import pytest

from irnn.attention import (
    AttentionWeights,
    _degrade_denominator,
    attach_context,
    attention_int,
    attention_intermediates,
    attention_ref,
    calibrate_attention,
    integer_softmax_weights,
    project_keys,
)
from irnn.quant import QTensor, derive_params, quantize_tensor


def _toy(seed, T=8, m_enc=16, m_dec=16, m_att=12, n_cal=200, pieces=32):
    """Calibrated toy attention; calibration covers concentrated cases."""
    rng = np.random.default_rng(seed)
    wq = rng.normal(0.0, 0.4, size=(m_att, m_dec))
    wk = rng.normal(0.0, 0.4, size=(m_att, m_enc))
    v = rng.normal(0.0, 0.4, size=m_att)
    hdec_s = rng.normal(0.0, 0.6, size=(n_cal, m_dec))
    henc_s = rng.normal(0.0, 0.6, size=(n_cal, T, m_enc))
    for i in range(0, n_cal, 8):
        henc_s[i] = np.tile(henc_s[i, 0], (T, 1))
    w, expt, tanht = calibrate_attention(wq, wk, v, hdec_s, henc_s, pieces=pieces)
    return rng, (wq, wk, v), w, expt, tanht


class TestFloatRef:
    def test_uniform_weights_when_keys_ignored(self):
        # wk = 0 makes every alignment equal, so alpha is uniform
        rng = np.random.default_rng(42)
        T, m = 6, 4
        H = rng.normal(size=(T, m))
        s, alpha = attention_ref(
            rng.normal(size=m), H, rng.normal(size=(3, m)), np.zeros((3, m)),
            rng.normal(size=3),
        )
        np.testing.assert_allclose(alpha, np.full(T, 1.0 / T))
        np.testing.assert_allclose(s, H.mean(axis=0))

    def test_single_encoder_state(self):
        rng = np.random.default_rng(42)
        H = rng.normal(size=(1, 5))
        s, alpha = attention_ref(
            rng.normal(size=5), H, rng.normal(size=(3, 5)),
            rng.normal(size=(3, 5)), rng.normal(size=3),
        )
        np.testing.assert_allclose(alpha, [1.0])
        np.testing.assert_allclose(s, H[0])

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            T, m_enc, m_dec, m_att = 5, 4, 3, 6
            wq = rng.normal(size=(m_att, m_dec))
            wk = rng.normal(size=(m_att, m_enc))
            v = rng.normal(size=m_att)
            h = rng.normal(size=m_dec)
            H = rng.normal(size=(T, m_enc))
            e = np.array([v @ np.tanh(wq @ h + wk @ H[i]) for i in range(T)])
            ex = np.exp(e)
            alpha_ref = ex / ex.sum()
            s_ref = sum(alpha_ref[i] * H[i] for i in range(T))
            s, alpha = attention_ref(h, H, wq, wk, v)
            np.testing.assert_allclose(alpha, alpha_ref, atol=1e-12)
            np.testing.assert_allclose(s, s_ref, atol=1e-12)

    def test_empty_encoder_rejected(self):
        with pytest.raises(ValueError, match="T >= 1"):
            attention_ref(np.zeros(3), np.zeros((0, 4)), np.zeros((2, 3)),
                          np.zeros((2, 4)), np.zeros(2))


class TestTypes:
    def test_sites_read_only(self):
        _, _, w, _, _ = _toy(42, n_cal=8)
        with pytest.raises(TypeError):
            w.sites["s"] = w.sites["e"]

    def test_weights_must_be_8bit(self):
        rng = np.random.default_rng(42)
        p8, p16 = derive_params(-2, 2, 8), derive_params(-2, 2, 16)
        wq = quantize_tensor(rng.normal(size=(3, 4)), p16)
        wk = quantize_tensor(rng.normal(size=(3, 5)), p8)
        v = quantize_tensor(rng.normal(size=3), p8)
        with pytest.raises(ValueError, match="8-bit"):
            AttentionWeights(wq, wk, v, {})

    def test_projection_rows_must_match(self):
        rng = np.random.default_rng(42)
        p = derive_params(-2, 2, 8)
        wq = quantize_tensor(rng.normal(size=(3, 4)), p)
        wk = quantize_tensor(rng.normal(size=(3, 5)), p)
        v = quantize_tensor(rng.normal(size=7), p)
        with pytest.raises(ValueError, match="rows"):
            AttentionWeights(wq, wk, v, {})


class TestIntAttention:
    def test_toy_regression(self):
        rng, (wq, wk, v), w, expt, tanht = _toy(42)
        errs = []
        for _ in range(20):
            hd = rng.normal(0.0, 0.6, size=16)
            He = rng.normal(0.0, 0.6, size=(8, 16))
            s_ref, _ = attention_ref(hd, He, wq, wk, v)
            s, _ = attention_int(
                quantize_tensor(hd, w.sites["hdec"]),
                quantize_tensor(He, w.sites["henc"]),
                w, expt, tanht,
            )
            errs.append(np.abs(s.dequantize() - s_ref).max())
        assert max(errs) <= 0.05
        assert np.mean(errs) <= 0.02

    def test_identical_encoder_states(self):
        rng, _, w, expt, tanht = _toy(42)
        one = rng.normal(0.0, 0.6, size=16)
        qHe = quantize_tensor(np.tile(one, (8, 1)), w.sites["henc"])
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        s, q_exp = attention_int(qhd, qHe, w, expt, tanht)
        assert (q_exp.data == q_exp.data[0]).all()
        tol = w.sites["s"].scale / 2 + w.sites["s"].scale
        assert np.abs(s.dequantize() - qHe.dequantize()[0]).max() <= tol

    def test_single_timestep(self):
        rng, _, w, expt, tanht = _toy(42)
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(1, 16)), w.sites["henc"])
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        inter = attention_intermediates(qhd, qHe, w, expt, tanht)
        assert inter.denom == int(inter.exp_e.data[0])
        assert inter.denom >= 254
        tol = w.sites["s"].scale / 2 + w.sites["henc"].scale
        assert np.abs(inter.s.dequantize() - qHe.dequantize()[0]).max() <= tol

    def test_max_element_hits_top_code(self):
        # the shifted maximum lands on the table's right endpoint, whose
        # output is the top code give or take one eval rounding
        rng, _, w, expt, tanht = _toy(42)
        for _ in range(10):
            qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
            qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
            inter = attention_intermediates(qhd, qHe, w, expt, tanht)
            assert int(inter.exp_e.data.max()) >= 254
            assert inter.denom >= 254
            assert inter.denom == int(inter.exp_e.data.astype(np.int64).sum())

    def test_integer_shift_invariance(self):
        rng, _, w, expt, tanht = _toy(42)
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
        q_e = attention_intermediates(qhd, qHe, w, expt, tanht).e.data.astype(np.int64)
        base_w, base_d = integer_softmax_weights(q_e, w.sites["e"], expt)
        for off in (-5000, -1, 1, 1234):
            w2, d2 = integer_softmax_weights(q_e + off, w.sites["e"], expt)
            np.testing.assert_array_equal(base_w, w2)
            assert base_d == d2

    def test_real_constant_offset_moves_weights_at_most_one(self):
        rng, (wq, wk, v), w, expt, _ = _toy(42)
        hd = rng.normal(0.0, 0.6, size=16)
        He = rng.normal(0.0, 0.6, size=(8, 16))
        e = np.tanh((wq @ hd)[None, :] + He @ wk.T) @ v
        p_e = w.sites["e"]
        q0, _ = integer_softmax_weights(quantize_tensor(e, p_e).data, p_e, expt)
        # shift keeps the range width (hence the scale); it must also keep
        # zero inside the range or the grid cannot be derived at all
        for c in (0.37, -1.9, 1.1):
            p_shift = derive_params(p_e.min + c, p_e.max + c, 16)
            q1, _ = integer_softmax_weights(
                quantize_tensor(e + c, p_shift).data, p_shift, expt
            )
            assert np.abs(q0.astype(int) - q1.astype(int)).max() <= 1

    def test_degraded_denominator_strictly_worse(self):
        # one seed here; the acceptance suite sweeps ten
        rng, (wq, wk, v), w, expt, tanht = _toy(42)
        e32, e8 = [], []
        for _ in range(50):
            hd = rng.normal(0.0, 0.6, size=16)
            He = rng.normal(0.0, 0.6, size=(8, 16))
            _, a_ref = attention_ref(hd, He, wq, wk, v)
            inter = attention_intermediates(
                quantize_tensor(hd, w.sites["hdec"]),
                quantize_tensor(He, w.sites["henc"]),
                w, expt, tanht,
            )
            d8 = _degrade_denominator(inter.denom, 8, 8, 8)
            e32.append(np.abs(inter.exp_e.data / inter.denom - a_ref).sum())
            e8.append(np.abs(inter.exp_e.data / d8 - a_ref).sum())
        assert np.mean(e8) > np.mean(e32)

    def test_denom_bits_changes_only_context(self):
        rng, _, w, expt, tanht = _toy(42)
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
        a = attention_intermediates(qhd, qHe, w, expt, tanht)
        b = attention_intermediates(qhd, qHe, w, expt, tanht, denom_bits=8)
        np.testing.assert_array_equal(a.exp_e.data, b.exp_e.data)
        assert a.denom == b.denom

    def test_precomputed_keys_identical(self):
        rng, _, w, expt, tanht = _toy(42)
        qhd = quantize_tensor(rng.normal(0.0, 0.6, size=16), w.sites["hdec"])
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
        keys = project_keys(qHe, w)
        s1, a1 = attention_int(qhd, qHe, w, expt, tanht)
        s2, a2 = attention_int(qhd, qHe, w, expt, tanht, keys=keys)
        np.testing.assert_array_equal(s1.data, s2.data)
        np.testing.assert_array_equal(a1.data, a2.data)

    def test_foreign_params_rejected(self):
        rng, _, w, expt, tanht = _toy(42)
        bad = quantize_tensor(rng.normal(size=16), derive_params(-9, 9, 8))
        qHe = quantize_tensor(rng.normal(0.0, 0.6, size=(8, 16)), w.sites["henc"])
        with pytest.raises(ValueError, match="uncalibrated-tensor"):
            attention_int(bad, qHe, w, expt, tanht)


class TestAttachContext:
    def _fixtures(self):
        rng = np.random.default_rng(42)
        gates = quantize_tensor(rng.normal(0.0, 1.0, size=64), derive_params(-4, 4, 16))
        ws = quantize_tensor(rng.normal(0.0, 0.3, size=(64, 16)), derive_params(-1.2, 1.2, 8))
        return rng, gates, ws

    def test_zero_context_within_one_code(self):
        rng, gates, ws = self._fixtures()
        s = quantize_tensor(np.zeros(16), derive_params(-1, 1, 8))
        out = attach_context(gates, ws, s)
        assert out.params == gates.params
        assert np.abs(out.data.astype(int) - gates.data.astype(int)).max() <= 1

    def test_zero_projection_exact_passthrough(self):
        rng, gates, _ = self._fixtures()
        ws0 = quantize_tensor(np.zeros((64, 16)), derive_params(-1, 1, 8))
        s = quantize_tensor(rng.normal(0.0, 0.5, size=16), derive_params(-1.5, 1.5, 8))
        out = attach_context(gates, ws0, s)
        np.testing.assert_array_equal(out.data, gates.data)

    def test_matches_dequantized_oracle(self):
        rng, gates, ws = self._fixtures()
        s = quantize_tensor(rng.normal(0.0, 0.5, size=16), derive_params(-1.5, 1.5, 8))
        p_out = derive_params(-6.0, 6.0, 16)
        out = attach_context(gates, ws, s, p_out)
        ref = gates.dequantize() + ws.dequantize() @ s.dequantize()
        assert np.abs(out.dequantize() - ref).max() <= p_out.scale

    def test_shape_mismatch(self):
        rng, gates, ws = self._fixtures()
        s_bad = quantize_tensor(np.zeros(7), derive_params(-1, 1, 8))
        with pytest.raises(ValueError, match="columns"):
            attach_context(gates, ws, s_bad)
