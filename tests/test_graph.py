"""Model graphs: kind tables and single-pass calibration."""

import sys

import numpy as np
import pytest

from irnn import graph
from irnn import model_io as mio
from irnn import rnn
from irnn.cli import build_model
from irnn.rnn import CellConfig

N_FEAT = M = 8


def _arrays(kind, rng, n=N_FEAT, m=M):
    def cell(prefix, context=None):
        arrays = {
            prefix + "wx": rng.normal(0.0, 0.3, size=(4 * m, n)),
            prefix + "wh": rng.normal(0.0, 0.3, size=(4 * m, m)),
            prefix + "bias": rng.normal(0.0, 0.1, size=4 * m),
        }
        if context is not None:
            arrays[prefix + "ws"] = rng.normal(0.0, 0.3, size=(4 * m, context))
        return arrays

    if kind == "lstm":
        return cell("")
    if kind == "bilstm":
        return {**cell("fwd_"), **cell("bwd_")}
    return {
        **cell("enc_"),
        **cell("dec_", context=m),
        "att_wq": rng.normal(0.0, 0.4, size=(m, m)),
        "att_wk": rng.normal(0.0, 0.4, size=(m, m)),
        "att_v": rng.normal(0.0, 0.4, size=m),
    }


class TestKinds:
    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
    def test_kind_inferred_from_input_cell(self, kind):
        arrays = _arrays(kind, np.random.default_rng(42))
        assert graph.infer_kind(arrays) == kind

    def test_unknown_kind_and_missing_keys(self):
        with pytest.raises(graph.GraphError, match="unknown model kind"):
            graph.FloatModel("gru", {})
        arrays = _arrays("encdec", np.random.default_rng(42))
        del arrays["dec_ws"], arrays["att_v"]
        with pytest.raises(graph.GraphError, match="missing keys: att_v, dec_ws"):
            graph.FloatModel("encdec", arrays)

    def test_input_cell(self):
        rng = np.random.default_rng(42)
        fm = graph.FloatModel("encdec", _arrays("encdec", rng))
        model = graph.calibrate(fm, rng.normal(0.0, 1.0, size=(2, 5, N_FEAT)), CellConfig())
        assert model.input_cell is model.cells["enc"]


class TestCalibrate:
    @pytest.mark.parametrize("kind,per_step", [("lstm", 1), ("bilstm", 2), ("encdec", 2)])
    def test_each_recurrence_runs_once(self, kind, per_step, monkeypatch):
        # one float step per cell per calibration timestep: calibration is
        # the float graph run once with observers attached
        rng = np.random.default_rng(42)
        n_seq, T = 3, 5
        fm = mio.FloatModel(kind, _arrays(kind, rng))
        calib = rng.normal(0.0, 1.0, size=(n_seq, T, N_FEAT))
        orig, calls = rnn.lstm_step_ref, []

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("irnn") and getattr(module, "lstm_step_ref", None) is orig:
                monkeypatch.setattr(module, "lstm_step_ref", counting)
        build_model(fm, calib, CellConfig())
        assert len(calls) == per_step * n_seq * T

    def test_bidirectional_input_width_checked(self):
        rng = np.random.default_rng(42)
        arrays = _arrays("bilstm", rng)
        arrays["bwd_wx"] = arrays["bwd_wx"][:, :-1]
        with pytest.raises(graph.GraphError, match="bwd cell expects 7 features"):
            graph.calibrate(
                graph.FloatModel("bilstm", arrays),
                rng.normal(0.0, 1.0, size=(2, 5, N_FEAT)),
                CellConfig(),
            )

    def test_calibration_rank_checked(self):
        fm = graph.FloatModel("lstm", _arrays("lstm", np.random.default_rng(42)))
        with pytest.raises(graph.GraphError, match=r"\[N x T x n\]"):
            graph.calibrate(fm, np.zeros((5, N_FEAT)), CellConfig())


class TestRun:
    def test_encdec_recurrences_run_through_run(self, monkeypatch):
        # the decoder runs through the same driver as the encoder, with an
        # attention callback: two run calls per sequence on either side
        rng = np.random.default_rng(42)
        fm = graph.FloatModel("encdec", _arrays("encdec", rng))
        model = graph.calibrate(fm, rng.normal(0.0, 1.0, size=(2, 5, N_FEAT)), CellConfig())
        oracle = graph.export_float(model)
        calls = []
        orig_run, orig_ref = rnn.IntLstmCell.run, rnn.lstm_run_ref

        def run(self, *args, **kwargs):
            calls.append("run")
            return orig_run(self, *args, **kwargs)

        def ref(*args, **kwargs):
            calls.append("ref")
            return orig_ref(*args, **kwargs)

        monkeypatch.setattr(rnn.IntLstmCell, "run", run)
        for name, module in list(sys.modules.items()):
            if name.startswith("irnn") and getattr(module, "lstm_run_ref", None) is orig_ref:
                monkeypatch.setattr(module, "lstm_run_ref", ref)
        seqs = rng.normal(0.0, 1.0, size=(3, 6, N_FEAT))
        traces = graph.run_batch(graph.run_int, model, seqs)
        graph.run_batch(graph.run_ref, oracle, seqs)
        assert calls.count("run") == calls.count("ref") == 2 * len(seqs)
        assert traces["att"].shape == (3, 6, M)
