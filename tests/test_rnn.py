"""LSTM cells: float reference semantics and integer-path regression bounds.

Integer-vs-float tolerances were measured once against the float oracle and
frozen; they are regression bounds, not theoretical limits.
"""

import numpy as np
import pytest

from irnn import graph
from irnn.quant import QTensor, derive_params, quantize_tensor
from irnn.rnn import (
    GATE_ORDER,
    CellConfig,
    IntLstmCell,
    LstmState,
    LstmWeights,
    calibrate_lstm_cell,
    lstm_run_ref,
    lstm_step_ref,
)


def _toy_weights(rng, n, m, scale=0.3):
    wx = rng.normal(0.0, scale, size=(4 * m, n))
    wh = rng.normal(0.0, scale, size=(4 * m, m))
    bias = rng.normal(0.0, 0.1, size=4 * m)
    return wx, wh, bias


def _toy_cell(seed, cfg, n=16, m=16, T=32, n_cal=8):
    """Calibrated toy cell plus a fresh evaluation sequence and its oracle."""
    rng = np.random.default_rng(seed)
    wx, wh, bias = _toy_weights(rng, n, m)
    cal = rng.normal(0.0, 1.0, size=(n_cal, T, n))
    cell = calibrate_lstm_cell(wx, wh, bias, cal, cfg)
    xs = rng.normal(0.0, 1.0, size=(T, n))
    ref = lstm_run_ref(xs, wx, wh, bias, use_madnorm=cfg.use_madnorm)
    return cell, xs, ref


def _trajectory_error(cell, xs, ref):
    qxs = quantize_tensor(xs, cell.sites["x"])
    err = np.abs(cell.run(qxs).dequantize() - ref)
    return err.max(), err.mean()


class TestFloatRef:
    def test_zero_everything(self):
        m = 4
        h1, c1 = lstm_step_ref(
            np.zeros(3), np.zeros(m), np.zeros(m),
            np.zeros((4 * m, 3)), np.zeros((4 * m, m)),
        )
        np.testing.assert_array_equal(h1, np.zeros(m))
        np.testing.assert_array_equal(c1, np.zeros(m))

    def test_forget_gate_saturation(self):
        # driving f to +20 makes c' -> c + sigmoid(i) tanh(j)
        rng = np.random.default_rng(42)
        m = 5
        bias = np.zeros(4 * m)
        bias[m : 2 * m] = 20.0
        bias[:m] = rng.normal(size=m)
        bias[2 * m : 3 * m] = rng.normal(size=m)
        c = rng.normal(size=m)
        _, c1 = lstm_step_ref(
            np.zeros(2), np.zeros(m), c,
            np.zeros((4 * m, 2)), np.zeros((4 * m, m)), bias,
        )
        sig = 1.0 / (1.0 + np.exp(-bias[:m]))
        expect = c + sig * np.tanh(bias[2 * m : 3 * m])
        np.testing.assert_allclose(c1, expect, atol=1e-8)

    def test_against_per_gate_oracle(self):
        # second implementation with four separate weight matrices
        rng = np.random.default_rng(42)
        n, m = 7, 5
        blocks_x = [rng.normal(size=(m, n)) for _ in range(4)]
        blocks_h = [rng.normal(size=(m, m)) for _ in range(4)]
        x, h, c = rng.normal(size=n), rng.normal(size=m), rng.normal(size=m)
        b = rng.normal(size=4 * m)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        pre = [
            blocks_x[k] @ x + blocks_h[k] @ h + b[k * m : (k + 1) * m]
            for k in range(4)
        ]
        i_pre, f_pre, j_pre, o_pre = pre
        c_ref = sig(f_pre) * c + sig(i_pre) * np.tanh(j_pre)
        h_ref = sig(o_pre) * np.tanh(c_ref)

        h1, c1 = lstm_step_ref(
            x, h, c, np.vstack(blocks_x), np.vstack(blocks_h), b
        )
        np.testing.assert_allclose(h1, h_ref, atol=1e-12)
        np.testing.assert_allclose(c1, c_ref, atol=1e-12)

    def test_shape_mismatch(self):
        m = 3
        with pytest.raises(ValueError, match="shapes"):
            lstm_step_ref(
                np.zeros(2), np.zeros(m), np.zeros(m + 1),
                np.zeros((4 * m, 2)), np.zeros((4 * m, m)),
            )

    def test_madnorm_ref_branch_normalization(self):
        # matching the normalized construction built by hand
        from irnn.madnorm import madnorm_ref

        rng = np.random.default_rng(42)
        n, m = 6, 4
        wx, wh, bias = _toy_weights(rng, n, m, scale=1.0)
        x, h, c = rng.normal(size=n), rng.normal(size=m), rng.normal(size=m)
        total = madnorm_ref(wx @ x) + madnorm_ref(wh @ h) + bias

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        gi, gf, gj, go = (total[k * m : (k + 1) * m] for k in range(4))
        c_ref = sig(gf) * c + sig(gi) * np.tanh(gj)
        h_ref = sig(go) * np.tanh(c_ref)
        h1, c1 = lstm_step_ref(x, h, c, wx, wh, bias, use_madnorm=True)
        np.testing.assert_allclose(h1, h_ref, atol=1e-12)
        np.testing.assert_allclose(c1, c_ref, atol=1e-12)


class TestTypes:
    def test_weights_must_be_8bit(self):
        rng = np.random.default_rng(42)
        w16 = quantize_tensor(rng.normal(size=(8, 3)), derive_params(-4, 4, 16))
        w8 = quantize_tensor(rng.normal(size=(8, 2)), derive_params(-4, 4, 8))
        with pytest.raises(ValueError, match="8-bit"):
            LstmWeights(w16, w8)

    def test_gate_stacking_shape(self):
        rng = np.random.default_rng(42)
        p = derive_params(-4, 4, 8)
        wx = quantize_tensor(rng.normal(size=(8, 3)), p)
        wh_bad = quantize_tensor(rng.normal(size=(8, 3)), p)
        with pytest.raises(ValueError, match="stacking"):
            LstmWeights(wx, wh_bad)

    def test_gate_order_is_fixed(self):
        rng = np.random.default_rng(42)
        p = derive_params(-4, 4, 8)
        wx = quantize_tensor(rng.normal(size=(8, 3)), p)
        wh = quantize_tensor(rng.normal(size=(8, 2)), p)
        assert LstmWeights(wx, wh).gate_order == GATE_ORDER
        with pytest.raises(ValueError, match="fixed"):
            LstmWeights(wx, wh, gate_order=("f", "i", "j", "o"))

    def test_hidden_state_must_be_8bit(self):
        p16 = derive_params(-1, 1, 16)
        h = quantize_tensor(np.zeros(4), p16)
        with pytest.raises(ValueError, match="8-bit"):
            LstmState(h, h)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CellConfig(cell_bits=12)
        with pytest.raises(ValueError):
            CellConfig(preact_bits=4)
        with pytest.raises(ValueError):
            CellConfig(pwl_pieces=0)


class TestIntCell:
    def test_zero_model_outputs_zero(self):
        n = m = 4
        cal = np.zeros((2, 5, n))
        cell = calibrate_lstm_cell(
            np.zeros((4 * m, n)), np.zeros((4 * m, m)), None, cal, CellConfig()
        )
        qxs = quantize_tensor(np.zeros((3, n)), cell.sites["x"])
        out = cell.run(qxs)
        assert (out.data == cell.sites["h"].zero_point).all()
        np.testing.assert_array_equal(out.dequantize(), np.zeros((3, m)))

    def test_eight_bit_toy_regression(self):
        cell, xs, ref = _toy_cell(42, CellConfig(cell_bits=8, preact_bits=8))
        mx, mean = _trajectory_error(cell, xs, ref)
        assert mx <= 0.03
        assert mean <= 0.006

    def test_sixteen_bit_toy_regression(self):
        cell, xs, ref = _toy_cell(42, CellConfig(cell_bits=16, preact_bits=16))
        mx, mean = _trajectory_error(cell, xs, ref)
        assert mx <= 0.018
        assert mean <= 0.004

    def test_sixteen_bit_beats_eight_bit(self):
        wins = 0
        for seed in range(42, 52):
            c8, xs, ref = _toy_cell(seed, CellConfig(cell_bits=8, preact_bits=8))
            c16, _, _ = _toy_cell(seed, CellConfig(cell_bits=16, preact_bits=16))
            _, mean8 = _trajectory_error(c8, xs, ref)
            _, mean16 = _trajectory_error(c16, xs, ref)
            wins += mean16 <= mean8
        assert wins >= 9

    def test_more_pieces_not_worse(self):
        wins = 0
        for seed in range(42, 52):
            c8p, xs, ref = _toy_cell(seed, CellConfig(pwl_pieces=8))
            c32p, _, _ = _toy_cell(seed, CellConfig(pwl_pieces=32))
            _, mean8p = _trajectory_error(c8p, xs, ref)
            _, mean32p = _trajectory_error(c32p, xs, ref)
            wins += mean32p <= mean8p
        assert wins >= 9

    def test_long_sequence_error_bounded(self):
        cell, xs, ref = _toy_cell(42, CellConfig(), T=128)
        mx, _ = _trajectory_error(cell, xs, ref)
        assert mx <= 0.05

    def test_single_step_equals_t1_run(self):
        cell, xs, _ = _toy_cell(42, CellConfig())
        qx = quantize_tensor(xs[:1], cell.sites["x"])
        run_out = cell.run(qx)
        state = cell.step(QTensor(qx.data[0], qx.params), cell.initial_state())
        np.testing.assert_array_equal(run_out.data[0], state.h.data)

    def test_deterministic_repeat(self):
        cell, xs, _ = _toy_cell(42, CellConfig())
        qxs = quantize_tensor(xs, cell.sites["x"])
        a = cell.run(qxs)
        b = cell.run(qxs)
        assert a.data.tobytes() == b.data.tobytes()

    def test_madnorm_toy_regression(self):
        cell, xs, ref = _toy_cell(42, CellConfig(use_madnorm=True))
        assert "mnx_y" in cell.sites and "mnh_d" in cell.sites
        mx, mean = _trajectory_error(cell, xs, ref)
        assert mx <= 0.15
        assert mean <= 0.015

    def test_context_cell_regression(self):
        rng = np.random.default_rng(42)
        n, m, m_enc, T = 16, 16, 12, 32
        wx, wh, bias = _toy_weights(rng, n, m)
        ws = rng.normal(0.0, 0.3, size=(4 * m, m_enc))
        cal = rng.normal(0.0, 1.0, size=(8, T, n))
        s_cal = rng.normal(0.0, 0.5, size=(8, T, m_enc))
        cell = calibrate_lstm_cell(wx, wh, bias, cal, CellConfig(), ws=ws, s_seqs=s_cal)
        xs = rng.normal(0.0, 1.0, size=(T, n))
        ss = rng.normal(0.0, 0.5, size=(T, m_enc))
        ref = lstm_run_ref(xs, wx, wh, bias, ws=ws, context=lambda t, h: ss[t])
        qxs = quantize_tensor(xs, cell.sites["x"])
        qss = quantize_tensor(ss, cell.sites["s"])
        err = np.abs(cell.run(qxs, lambda t, h: QTensor(qss.data[t], qss.params)).dequantize() - ref)
        assert err.max() <= 0.05
        assert err.mean() <= 0.008

    def test_missing_site_rejected(self):
        cell, _, _ = _toy_cell(42, CellConfig())
        sites = dict(cell.sites)
        del sites["sum1"]
        with pytest.raises(KeyError, match="uncalibrated-tensor"):
            IntLstmCell(cell.weights, cell.cfg, sites, cell.tables)

    def test_foreign_input_params_rejected(self):
        cell, xs, _ = _toy_cell(42, CellConfig())
        qxs = quantize_tensor(xs, derive_params(-20.0, 20.0, 8))
        with pytest.raises(ValueError, match="uncalibrated-tensor"):
            cell.run(qxs)

    def test_context_wiring_mismatch(self):
        cell, xs, _ = _toy_cell(42, CellConfig())
        qx = quantize_tensor(xs[0], cell.sites["x"])
        qs = quantize_tensor(np.zeros(4), derive_params(-1, 1, 8))
        with pytest.raises(ValueError, match="wiring"):
            cell.step(qx, cell.initial_state(), qs)

    def test_saturation_no_wraparound(self):
        # evaluate far outside the calibrated amplitude: values clip to the
        # calibrated ranges instead of wrapping
        rng = np.random.default_rng(42)
        n = m = 8
        wx, wh, bias = _toy_weights(rng, n, m, scale=1.5)
        cal = rng.normal(0.0, 0.3, size=(4, 16, n))
        cell = calibrate_lstm_cell(wx, wh, bias, cal, CellConfig())
        wild = rng.normal(0.0, 5.0, size=(64, n))
        out = cell.run(quantize_tensor(wild, cell.sites["x"]))
        ph = cell.sites["h"]
        deq = out.dequantize()
        assert deq.min() >= ph.min - ph.scale
        assert deq.max() <= ph.max + ph.scale

    def test_hidden_always_8bit(self):
        cell, xs, _ = _toy_cell(42, CellConfig(cell_bits=16, preact_bits=16))
        qx = quantize_tensor(xs[0], cell.sites["x"])
        state = cell.step(qx, cell.initial_state())
        assert state.h.params.bitwidth == 8
        assert state.c.params.bitwidth == 16


class TestCompiledCell:
    def test_sites_read_only(self):
        cell, _, _ = _toy_cell(42, CellConfig(), n_cal=2)
        with pytest.raises(TypeError):
            cell.sites["sum1"] = cell.sites["h"]

    def _context_cell(self, madnorm):
        rng = np.random.default_rng(7)
        n, m, m_enc, T = 6, 8, 5, 10
        wx, wh, bias = _toy_weights(rng, n, m)
        ws = rng.normal(0.0, 0.3, size=(4 * m, m_enc))
        cal = rng.normal(0.0, 1.0, size=(4, T, n))
        s_cal = rng.normal(0.0, 0.5, size=(4, T, m_enc))
        cfg = CellConfig(cell_bits=16, use_madnorm=madnorm)
        cell = calibrate_lstm_cell(wx, wh, bias, cal, cfg, ws=ws, s_seqs=s_cal)
        qxs = quantize_tensor(rng.normal(0.0, 1.0, size=(T, n)), cell.sites["x"])
        qss = quantize_tensor(rng.normal(0.0, 0.5, size=(T, m_enc)), cell.sites["s"])
        return cell, qxs, qss

    @pytest.mark.parametrize("madnorm", [False, True])
    def test_hoisted_input_branch_equals_stepping(self, madnorm):
        cell, qxs, qss = self._context_cell(madnorm)
        state, stepped = cell.initial_state(), []
        for t in range(qxs.data.shape[0]):
            qx = QTensor(qxs.data[t], qxs.params)
            state = cell.step(qx, state, QTensor(qss.data[t], qss.params))
            stepped.append(state.h.data)
        np.testing.assert_array_equal(
            cell.run(qxs, lambda t, h: QTensor(qss.data[t], qss.params)).data, np.stack(stepped)
        )


class TestBilstm:
    def _calibrated_pair(self, seed=42, n=16, m=16, T=32, shared_weights=False):
        rng = np.random.default_rng(seed)
        wxf, whf, bf = _toy_weights(rng, n, m)
        if shared_weights:
            wxb, whb, bb = wxf, whf, bf
        else:
            wxb, whb, bb = _toy_weights(rng, n, m)
        base = rng.normal(0.0, 1.0, size=(4, T, n))
        # include each sequence both ways so fwd/bwd observers agree exactly
        cal = np.concatenate([base, base[:, ::-1]])
        fm = graph.FloatModel("bilstm", {
            "fwd_wx": wxf, "fwd_wh": whf, "fwd_bias": bf,
            "bwd_wx": wxb, "bwd_wh": whb, "bwd_bias": bb,
        })
        model = graph.calibrate(fm, cal, CellConfig())
        return (wxf, whf, bf, wxb, whb, bb), model, rng

    def test_against_float_oracle(self):
        (wxf, whf, bf, wxb, whb, bb), model, rng = self._calibrated_pair()
        xs = rng.normal(0.0, 1.0, size=(32, 16))
        out = graph.run_int(model, xs)["out"]
        ref = np.concatenate(
            [lstm_run_ref(xs, wxf, whf, bf), lstm_run_ref(xs[::-1], wxb, whb, bb)[::-1]],
            axis=1,
        )
        err = np.abs(out - ref)
        assert out.shape == (32, 32)
        assert err.max() <= 0.05
        assert err.mean() <= 0.008

    def test_shared_h_params(self):
        _, model, _ = self._calibrated_pair()
        fwd, bwd = model.cells["fwd"], model.cells["bwd"]
        assert fwd.sites["h"] == bwd.sites["h"]
        assert fwd.sites["x"] == bwd.sites["x"]

    def test_palindrome_symmetry(self):
        # identical weights + palindromic input: the two halves agree at the
        # middle timestep, bit-exactly
        _, model, rng = self._calibrated_pair(shared_weights=True, T=33)
        half = rng.normal(0.0, 1.0, size=(16, 16))
        xs = np.concatenate([half, rng.normal(0.0, 1.0, size=(1, 16)), half[::-1]])
        fwd, bwd = model.cells["fwd"], model.cells["bwd"]
        hf = fwd.run(quantize_tensor(xs, fwd.sites["x"]))
        hb = bwd.run(quantize_tensor(np.ascontiguousarray(xs[::-1]), bwd.sites["x"]))
        np.testing.assert_array_equal(hf.data[16], hb.data[16])
        mid = graph.run_int(model, xs)["out"][16]
        np.testing.assert_array_equal(mid[:16], mid[16:])

    def test_params_mismatch_rejected(self):
        _, model, _ = self._calibrated_pair()
        bwd = model.cells["bwd"]
        model.cells["bwd"] = IntLstmCell(
            bwd.weights, bwd.cfg, {**bwd.sites, "h": derive_params(-2.0, 2.0, 8)}, bwd.tables
        )
        with pytest.raises(ValueError, match="concat-params-mismatch"):
            graph.run_int(model, np.zeros((4, 16)))
