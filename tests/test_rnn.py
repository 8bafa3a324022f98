"""LSTM cells: float reference semantics and integer-path regression bounds.

Integer-vs-float tolerances were measured once against the float oracle and
frozen; they are regression bounds, not theoretical limits.
"""

import dataclasses

import numpy as np
import pytest
from bigint_ref import clip_code, madnorm_codes, requant, two_term

from irnn import graph
from irnn import model_io as mio
from irnn.fixedpoint import FxOverflow, round_half_away
from irnn.pwl import TANH_GRID, PwlTable, eval_int
from irnn.quant import (
    Observer,
    QTensor,
    QuantParams,
    dequantize,
    derive_params,
    quantize_tensor,
)
from irnn.rnn import (
    CellConfig,
    IntLstmCell,
    LstmWeights,
    calibrate_lstm_cell,
    freeze_cell,
    lstm_run_ref,
    lstm_step_ref,
)


def _toy_weights(rng, n, m, scale=0.3):
    wx = rng.normal(0.0, scale, size=(4 * m, n))
    wh = rng.normal(0.0, scale, size=(4 * m, m))
    bias = rng.normal(0.0, 0.1, size=4 * m)
    return wx, wh, bias


def _regrid(tables, grids):
    """The named tables' knot codes and values, on other (input, output) grids."""
    return {name: PwlTable(tables[name].q_knots, tables[name].values, *g)
            for name, g in grids.items()}


def _toy_cell(seed, cfg, n=16, m=16, T=32, n_cal=8):
    """Calibrated toy cell plus a fresh evaluation sequence and its oracle."""
    rng = np.random.default_rng(seed)
    wx, wh, bias = _toy_weights(rng, n, m)
    cal = rng.normal(0.0, 1.0, size=(n_cal, T, n))
    cell = calibrate_lstm_cell(wx, wh, bias, cal, cfg)
    xs = rng.normal(0.0, 1.0, size=(T, n))
    ref = lstm_run_ref(xs, wx, wh, bias, use_madnorm=cfg.use_madnorm)
    return cell, xs, ref


def _zero_state(cell):
    """The (h, c) codes a run starts from: every code at its zero point."""
    return tuple(np.full(cell.hidden_size, cell.sites[k].zero_point, dtype=cell.sites[k].dtype)
                 for k in ("h", "c"))


def _hprod(cell, h):
    """The hprod codes of h, which a cell's run hands its step."""
    return cell._hprod(cell._gemv_h(h))


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

    def test_saturated_gates_without_overflow_warning(self):
        # gates far below -709 overflow exp(-v); the sigmoid is then 0, so
        # a run closes every gate without a warning
        m = 3
        hs = lstm_run_ref(
            np.ones((4, 2)), np.full((4 * m, 2), -1e4), np.zeros((4 * m, m)), np.zeros(4 * m)
        )
        np.testing.assert_array_equal(hs, np.zeros((4, m)))

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

    def test_hidden_state_must_be_8bit(self):
        # the calibrated h grid, widened to 16 or 32 bits
        cell, _, _ = _toy_cell(42, CellConfig(), n_cal=2)
        p = cell.sites["h"]
        for bits in (16, 32):
            sites = {**cell.sites, "h": QuantParams(bits, p.scale, p.zero_point)}
            with pytest.raises(ValueError, match="8-bit"):
                IntLstmCell(cell.weights, sites, cell.tables)

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
        h0, c0 = _zero_state(cell)
        h, _ = cell.step(cell.input_branch(qx.data)[0], _hprod(cell, h0), c0)
        np.testing.assert_array_equal(run_out.data[0], h)

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
        err = np.abs(cell.run(qxs, lambda t, h: qss.data[t]).dequantize() - ref)
        assert err.max() <= 0.05
        assert err.mean() <= 0.008

    def test_missing_site_rejected(self):
        cell, _, _ = _toy_cell(42, CellConfig())
        sites = dict(cell.sites)
        del sites["sum1"]
        with pytest.raises(KeyError, match="uncalibrated-tensor"):
            IntLstmCell(cell.weights, sites, cell.tables)

    def test_madnorm_wiring_read_from_sites(self):
        # all eight mn* sites make a MadNorm cell, none a plain one, and
        # anything between is a missing site
        cell, _, _ = _toy_cell(42, CellConfig(use_madnorm=True))
        assert cell.use_madnorm
        mn = [k for k in cell.sites if k.startswith("mn")]
        assert len(mn) == 8
        plain = {k: v for k, v in cell.sites.items() if k not in mn}
        assert not IntLstmCell(cell.weights, plain, cell.tables).use_madnorm
        for k in mn:
            with pytest.raises(KeyError, match=f"uncalibrated-tensor: {k}'"):
                IntLstmCell(cell.weights, {**plain, **{j: cell.sites[j] for j in mn if j != k}},
                            cell.tables)
            with pytest.raises(KeyError, match="uncalibrated-tensor"):
                IntLstmCell(cell.weights, {**plain, k: cell.sites[k]}, cell.tables)

    def test_tables_on_other_grids_rejected(self):
        cell, _, _ = _toy_cell(42, CellConfig())
        tables = cell.tables
        swapped = {**tables, "sigmoid": tables["tanh_gate"]}
        wide = derive_params(-20.0, 20.0, 8)
        regridded = {**tables, **_regrid(tables, {"tanh_cell": (wide, TANH_GRID)})}
        for bad in (swapped, regridded):
            with pytest.raises(ValueError, match="table-grid-mismatch"):
                IntLstmCell(cell.weights, cell.sites, bad)

    def test_extra_or_missing_table_rejected(self):
        # a cell holds exactly the tables of its table_grids: an extra one
        # would be saved and then refused by the load, and a missing one is
        # named rather than a bare KeyError
        cell, _, _ = _toy_cell(42, CellConfig())
        tables = cell.tables
        extra = {**tables, "gelu": tables["sigmoid"]}
        with pytest.raises(ValueError, match="table-grid-mismatch: the 'gelu' table"):
            IntLstmCell(cell.weights, cell.sites, extra)
        for name in tables:
            fewer = {k: t for k, t in tables.items() if k != name}
            with pytest.raises(ValueError, match=f"table-grid-mismatch: the '{name}' table"):
                IntLstmCell(cell.weights, cell.sites, fewer)

    def test_wide_hidden_state_rejected(self):
        cell, _, _ = _toy_cell(42, CellConfig())
        sites = {**cell.sites, "h": derive_params(-1.0, 1.0, 16)}
        with pytest.raises(ValueError, match="8-bit"):
            IntLstmCell(cell.weights, sites, cell.tables)

    def test_bias_beyond_int32_rejected(self):
        # checked before rounding, where a code past int64 failed the cast:
        # a code of top + 0.25 rounds to int32's top, one of top + 0.75 past it
        rng = np.random.default_rng(42)
        wx, wh, _ = _toy_weights(rng, 4, 4)
        xs = rng.normal(0.0, 1.0, size=(5, 4))
        observers = {"x": Observer().observe(xs)}
        lstm_run_ref(xs, wx, wh, np.zeros(16), observers=observers)
        cell = freeze_cell(observers, wx, wh, None, CellConfig())
        unit, top = cell.sites["x"].scale * cell.weights.wx.params.scale, 2**31 - 1
        edge = freeze_cell(observers, wx, wh, np.full(16, (top + 0.25) * unit), CellConfig())
        assert edge.weights.bias.max() == top
        for b in ((top + 0.75) * unit, 1e300):
            with pytest.raises(FxOverflow, match="bias codes"):
                freeze_cell(observers, wx, wh, np.full(16, b), CellConfig())

    def test_foreign_input_params_rejected(self):
        cell, xs, _ = _toy_cell(42, CellConfig())
        qxs = quantize_tensor(xs, derive_params(-20.0, 20.0, 8))
        with pytest.raises(ValueError, match="uncalibrated-tensor"):
            cell.run(qxs)

    def test_context_wiring_mismatch(self):
        cell, xs, _ = _toy_cell(42, CellConfig())
        qxs = quantize_tensor(xs, cell.sites["x"])
        qs = quantize_tensor(np.zeros(4), derive_params(-1, 1, 8))
        with pytest.raises(ValueError, match="wiring"):
            cell.run(qxs, lambda t, h: qs.data)

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
        assert deq.min() >= dequantize(0, ph)
        assert deq.max() <= dequantize(ph.qmax, ph)

    def test_hidden_always_8bit(self):
        cell, xs, _ = _toy_cell(42, CellConfig(cell_bits=16, preact_bits=16))
        qx = quantize_tensor(xs[:1], cell.sites["x"])
        h0, c0 = _zero_state(cell)
        h, c = cell.step(cell.input_branch(qx.data)[0], _hprod(cell, h0), c0)
        assert np.iinfo(h.dtype).bits == 8
        assert np.iinfo(c.dtype).bits == 16


class TestCompiledCell:
    def test_sites_read_only(self):
        cell, _, _ = _toy_cell(42, CellConfig(), n_cal=2)
        with pytest.raises(TypeError):
            cell.sites["sum1"] = cell.sites["h"]

    def test_tables_read_only(self):
        cell, _, _ = _toy_cell(42, CellConfig(), n_cal=2)
        sig = cell.tables["sigmoid"]
        with pytest.raises(TypeError):
            cell.tables["sigmoid"] = cell.tables["tanh_gate"]
        with pytest.raises(TypeError):
            del cell.tables["sigmoid"]
        assert cell.tables["sigmoid"] is sig

    def test_constants_are_read_only_copies(self):
        # weights, a bias and a table's arrays are held as read-only copies,
        # and the arrays the caller handed in stay the caller's, writable
        cell, _, _ = _toy_cell(42, CellConfig(), n_cal=2)
        w, sig = cell.weights, cell.tables["sigmoid"]
        wx, wh, bias = (np.array(a) for a in (w.wx.data, w.wh.data, w.bias))
        knots, values = np.array(sig.q_knots), np.array(sig.values)
        mine = LstmWeights(QTensor(wx, w.wx.params), QTensor(wh, w.wh.params), bias)
        table = PwlTable(knots, values, sig.in_params, sig.out_params)
        fields = ("q_knots", "values", "knots", "slopes", "intercepts", "fx_slopes",
                  "fx_intercepts", "lut")
        held = [mine.wx.data, mine.wh.data, mine.bias, *(getattr(table, f) for f in fields)]
        for a in held:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        for a in (wx, wh, bias, knots, values):
            a[...] = 0
        assert mine.wx.data.any() and mine.bias.any() and table.values.any()

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
        (h, c), stepped = _zero_state(cell), []
        for t in range(qxs.data.shape[0]):
            xb = cell.input_branch(qxs.data[t : t + 1])[0]
            h, c = cell.step(xb, _hprod(cell, h), c, qss.data[t])
            stepped.append(h)
        np.testing.assert_array_equal(
            cell.run(qxs, lambda t, h: qss.data[t]).data, np.stack(stepped)
        )

    def test_context_cell_refuses_a_run_without_context(self):
        cell, qxs, _ = self._context_cell(False)
        with pytest.raises(ValueError, match="wiring"):
            cell.run(qxs)

    @pytest.mark.parametrize("context", [False, True])
    def test_run_steps_once_per_timestep(self, context, monkeypatch):
        # the benchmark's rnn.IntLstmCell.step.calls counts timesteps
        if context:
            cell, qxs, qss = self._context_cell(False)
        else:
            cell, xs, _ = _toy_cell(42, CellConfig(), n_cal=2)
            qxs = quantize_tensor(xs, cell.sites["x"])
        calls, step = [], IntLstmCell.step
        monkeypatch.setattr(IntLstmCell, "step", lambda self, *a: calls.append(a) or step(self, *a))
        out = cell.run(qxs, (lambda t, h: qss.data[t]) if context else None)
        assert len(calls) == len(out.data) == qxs.data.shape[0]


def _reference_step(cell, qx, h, c, qs=None):
    """One cell step in Python big ints from the sites' grids and the table
    gathers, with every site saturated on its own grid: the cell's
    semantics, written out.  Returns (h', c', the sum1 codes before any
    bias or context)."""
    p, w, m = cell.sites, cell.weights, cell.hidden_size
    p_sig = cell.tables["sigmoid"].out_params
    p_tanh = cell.tables["tanh_gate"].out_params
    p_tc = cell.tables["tanh_cell"].out_params
    mn = cell.use_madnorm

    def centered(codes, params):
        return [int(v) - params.zero_point for v in codes]

    def product(qw, q, p_q, p_out, bias=None):
        """qw @ q over centered codes, plus an int32 bias at its scale,
        requantized into p_out."""
        x = centered(q, p_q)
        acc = [sum(a * b for a, b in zip(row, x)) for row in qw.centered().tolist()]
        if bias is not None:
            acc = [a + b for a, b in zip(acc, bias.tolist())]
        return [requant(a, p_q.scale * qw.params.scale / p_out.scale, p_out) for a in acc]

    def mul(qa, pa, qb, pb, pc):
        """The centered product of two code vectors, requantized into pc."""
        return [requant(a * b, pa.scale * pb.scale / pc.scale, pc)
                for a, b in zip(centered(qa, pa), centered(qb, pb))]

    def add(qa, pa, qb, pb, pc):
        return [two_term(a, pa.scale, b, pb.scale, pc)
                for a, b in zip(centered(qa, pa), centered(qb, pb))]

    def gather(name, codes):
        return eval_int(cell.tables[name], np.array(codes)).tolist()

    xprod = product(w.wx, qx.data, qx.params, p["xprod"], None if mn else w.bias)
    hprod = product(w.wh, h, p["h"], p["hprod"])
    px, ph = p["xprod"], p["hprod"]
    if mn:
        steps = ("mu", "xhat", "d", "y")
        xprod = madnorm_codes(centered(xprod, px), px, *(p[f"mnx_{k}"] for k in steps))
        hprod = madnorm_codes(centered(hprod, ph), ph, *(p[f"mnh_{k}"] for k in steps))
        px, ph = p["mnx_y"], p["mnh_y"]
    gates = sum1 = add(xprod, px, hprod, ph, p["sum1"])
    if mn and w.bias is not None:
        codes = round_half_away(
            w.bias.astype(np.float64) * p["x"].scale * w.wx.params.scale / p["sum1"].scale
        )
        gates = [clip_code(g + b, p["sum1"]) for g, b in zip(gates, codes.tolist())]
    if qs is not None:
        # the centered gates and the context projection share one rounding
        s = centered(qs.data, qs.params)
        proj = [sum(a * b for a, b in zip(row, s)) for row in w.ws.centered().tolist()]
        gates = [two_term(g, p["sum1"].scale, v, qs.params.scale * w.ws.params.scale, p["preact"])
                 for g, v in zip(centered(gates, p["sum1"]), proj)]
    sig = gather("sigmoid", gates)
    tj = gather("tanh_gate", gates[2 * m : 3 * m])
    fc = mul(sig[m : 2 * m], p_sig, c, p["c"], p["fc"])
    ij = mul(sig[:m], p_sig, tj, p_tanh, p["ij"])
    c1 = add(fc, p["fc"], ij, p["ij"], p["c"])
    h1 = mul(sig[3 * m :], p_sig, gather("tanh_cell", c1), p_tc, p["h"])
    return h1, c1, sum1


class TestReferenceStep:
    """IntLstmCell.step against _reference_step on cells whose gate grid is
    narrowed to a quarter of its calibrated range, so that gate codes
    saturate often; a bias then pulls saturated codes back inside."""

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("madnorm", [False, True])
    @pytest.mark.parametrize("context", [False, True])
    def test_step_equals_reference(self, bits, madnorm, context):
        rng = np.random.default_rng(11)
        n, m, m_enc, T = 6, 8, 5, 24
        wx, wh, bias = _toy_weights(rng, n, m)
        bias = bias * 20
        ws = rng.normal(0.0, 0.3, size=(4 * m, m_enc)) if context else None
        cal = rng.normal(0.0, 1.0, size=(4, T, n))
        s_cal = rng.normal(0.0, 0.5, size=(4, T, m_enc)) if context else None
        cfg = CellConfig(cell_bits=bits, preact_bits=bits, use_madnorm=madnorm)
        cell = calibrate_lstm_cell(wx, wh, bias, cal, cfg, ws=ws, s_seqs=s_cal)
        sites = dict(cell.sites)
        p = sites["sum1"]
        sites["sum1"] = derive_params(
            dequantize(0, p) / 4, dequantize(p.qmax, p) / 4, p.bitwidth
        )
        grids = IntLstmCell.table_grids(sites, context)
        cell = IntLstmCell(cell.weights, sites, _regrid(cell.tables, grids))
        qxs = quantize_tensor(rng.normal(0.0, 1.0, size=(T, n)), sites["x"])
        qss = None
        if context:
            qss = quantize_tensor(rng.normal(0.0, 0.5, size=(T, m_enc)), sites["s"])
        (h, c), clipped = _zero_state(cell), 0
        xb = cell.input_branch(qxs.data)
        for t in range(T):
            qx = QTensor(qxs.data[t], qxs.params)
            qs = None if qss is None else QTensor(qss.data[t], qss.params)
            h1, c1, sum1 = _reference_step(cell, qx, h, c, qs)
            h, c = cell.step(xb[t], _hprod(cell, h), c, None if qs is None else qs.data)
            np.testing.assert_array_equal(h, h1)
            np.testing.assert_array_equal(c, c1)
            clipped += int(np.isin(sum1, [0, sites["sum1"].qmax]).sum())
        assert clipped > 0


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
        # bwd's x and h are tied to fwd's: a model whose grids differ is
        # refused when it is made or re-assembled, and the model it was
        # re-assembled from keeps its cell and still saves
        _, model, _ = self._calibrated_pair()
        bwd = model.cells["bwd"]
        for site in ("x", "h"):
            moved = IntLstmCell(
                bwd.weights, {**bwd.sites, site: derive_params(-2.0, 2.0, 8)}, bwd.tables
            )
            cells = {**model.cells, "bwd": moved}
            with pytest.raises(graph.GraphError, match=f"tied-site-mismatch: bwd.{site}"):
                graph.IrnnModel("bilstm", cells)
            with pytest.raises(graph.GraphError, match=f"tied-site-mismatch: bwd.{site}"):
                dataclasses.replace(model, cells=cells)
            assert model.cells["bwd"] is bwd
            mio.save(model)
