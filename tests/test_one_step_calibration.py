"""Cells calibrated on one-step sequences, where fc is only ever 0.

From zero state the first step's fc = sigmoid(f) * c_0 is 0 everywhere, so
its observer sees a single point.  The site then takes the grid its operands
can reach, c times the unit grid, instead of the identity grid, on which the
stacked ij/fc rescale of a 16-bit cell cannot be proven to fit int64.
"""

import numpy as np
import pytest

from irnn import model_io as mio
from irnn.cli import main
from irnn.quant import Observer, QTensor, dequantize, derive_params, quantize
from irnn.rnn import CellConfig, calibrate_lstm_cell, freeze_cell, lstm_run_ref

N, M = 8, 16


def _weights(rng):
    return (
        rng.normal(0.0, 0.3, size=(4 * M, N)),
        rng.normal(0.0, 0.3, size=(4 * M, M)),
        rng.normal(0.0, 0.1, size=4 * M),
    )


@pytest.mark.parametrize("madnorm", [False, True])
@pytest.mark.parametrize("bits", [(16, 16), (16, 8), (8, 8)])
def test_cell_builds_and_runs(bits, madnorm):
    rng = np.random.default_rng(3)
    wx, wh, bias = _weights(rng)
    seqs = rng.normal(size=(5, 1, N))
    cell = calibrate_lstm_cell(wx, wh, bias, seqs, CellConfig(*bits, madnorm))
    c = cell.sites["c"]
    assert cell.sites["fc"] == derive_params(dequantize(c.qmin, c), dequantize(c.qmax, c), bits[0])
    p_x, p_h = cell.sites["x"], cell.sites["h"]
    for x in seqs:
        out = cell.run(QTensor(quantize(x, p_x), p_x))
        want = lstm_run_ref(x, wx, wh, bias, use_madnorm=madnorm)
        # 0.017 at most here, about four codes of h
        assert np.abs(dequantize(out.data, p_h) - want).max() < 6 * p_h.scale
    # and on longer sequences than it was calibrated on
    out = cell.run(QTensor(quantize(rng.normal(size=(12, N)), p_x), p_x))
    assert out.data.shape == (12, M)


def test_fc_seen_at_more_than_one_point_keeps_its_range():
    rng = np.random.default_rng(3)
    wx, wh, bias = _weights(rng)
    xs = rng.normal(size=(5, 2, N))
    observers = {"x": Observer().observe(xs)}
    lstm_run_ref(xs, wx, wh, bias, observers=observers)
    cell = freeze_cell(observers, wx, wh, bias, CellConfig(16, 16))
    assert cell.sites["fc"] == observers["fc"].finalize(16)


@pytest.mark.parametrize("madnorm", [(), ("--madnorm",)])
def test_quantize_exits_zero(tmp_path, capsys, madnorm):
    rng = np.random.default_rng(5)
    wx, wh, bias = _weights(rng)
    np.savez(tmp_path / "model.npz", wx=wx, wh=wh, bias=bias)
    mio.save_calibration(tmp_path / "calib.bin", rng.normal(size=(5, 1, N)))
    out = tmp_path / "model.irnn"
    argv = ["quantize", str(tmp_path / "model.npz"), "--calib", str(tmp_path / "calib.bin"),
            "--out", str(out), "--cell-bits", "16", "--preact-bits", "16", *madnorm]
    assert main(argv) == 0, capsys.readouterr().err
    assert main(["run", str(out), "--synth", "2", "--seq-len", "5"]) == 0
