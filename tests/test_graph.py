"""Model graphs: kind tables and single-pass calibration."""

import dataclasses
import sys

import numpy as np
import pytest
from test_rnn import _hprod

from irnn import graph
from irnn import model_io as mio
from irnn import pwl, rnn
from irnn.attention import AttentionPlan, AttentionWeights
from irnn.cli import build_model, run_model_int, run_model_ref
from irnn.fixedpoint import FxOverflow
from irnn.pwl import activation_registry, build_full, reduce
from irnn.quant import ExactGemv, Observer, QTensor, QuantParams, dequantize, quantize_tensor
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

    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
    def test_layout_checked(self, kind):
        # any array of a kind one row short, or with an axis added, breaks
        # the kind's layout, and the archive is refused before any run
        arrays = _arrays(kind, np.random.default_rng(42))
        graph.FloatModel(kind, arrays)
        for key in arrays:
            for bad in (arrays[key][:-1], arrays[key][None]):
                with pytest.raises(graph.GraphError, match="float-model-shape"):
                    graph.FloatModel(kind, {**arrays, key: bad})

    def test_input_cell(self):
        rng = np.random.default_rng(42)
        fm = graph.FloatModel("encdec", _arrays("encdec", rng))
        model = graph.calibrate(fm, rng.normal(0.0, 1.0, size=(2, 5, N_FEAT)), CellConfig())
        assert model.input_cell is model.cells["enc"]


class TestCalibrate:
    @pytest.mark.parametrize("kind,per_step", [("lstm", 1), ("bilstm", 2), ("encdec", 2)])
    def test_each_recurrence_runs_once(self, kind, per_step, monkeypatch):
        # one float step per cell per timestep for the whole calibration
        # set: calibration is the float graph run once over every sequence
        # with observers attached
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
        assert len(calls) == per_step * T

    @pytest.mark.parametrize("kind,cfg,tables", [
        ("lstm", CellConfig(16, 16, use_madnorm=True), 3),
        ("encdec", CellConfig(), 8),
    ])
    def test_builds_no_full_grid_table(self, kind, cfg, tables, monkeypatch):
        # each table is fitted straight from its input grid: no table is
        # built with more knots than the piece budget keeps
        def full(*args, **kwargs):
            raise AssertionError("a build made a full-grid table")

        for name, module in list(sys.modules.items()):
            if name.startswith("irnn") and getattr(module, "build_full", None) is pwl.build_full:
                monkeypatch.setattr(module, "build_full", full)
        knots, init = [], pwl.PwlTable.__post_init__

        def counted(self):
            knots.append(len(self.q_knots))
            init(self)

        monkeypatch.setattr(pwl.PwlTable, "__post_init__", counted)
        rng = np.random.default_rng(42)
        fm = graph.FloatModel(kind, _arrays(kind, rng))
        graph.calibrate(fm, rng.normal(0.0, 1.0, size=(4, 8, N_FEAT)), cfg)
        assert knots == [cfg.pwl_pieces + 1] * tables

    def test_bidirectional_input_width_checked(self):
        # every cell reads the model input, so a backward cell of another
        # width is a malformed archive, refused before any data is read
        rng = np.random.default_rng(42)
        arrays = _arrays("bilstm", rng)
        arrays["bwd_wx"] = arrays["bwd_wx"][:, :-1]
        with pytest.raises(graph.GraphError, match=r"float-model-shape: bwd_wx is \(32, 7\)"):
            graph.FloatModel("bilstm", arrays)
        fm = graph.FloatModel("bilstm", _arrays("bilstm", rng))
        with pytest.raises(graph.GraphError, match="fwd cell expects 8 features, data has 7"):
            graph.calibrate(fm, rng.normal(0.0, 1.0, size=(2, 5, N_FEAT - 1)), CellConfig())

    def test_calibration_rank_checked(self):
        fm = graph.FloatModel("lstm", _arrays("lstm", np.random.default_rng(42)))
        with pytest.raises(graph.GraphError, match=r"\[N x T x n\]"):
            graph.calibrate(fm, np.zeros((5, N_FEAT)), CellConfig())

    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
    @pytest.mark.parametrize("shape,axis", [((0, 5, N_FEAT), "N"), ((3, 0, N_FEAT), "T")],
                             ids=["no-sequences", "no-timesteps"])
    def test_empty_calibration_set_refused(self, kind, shape, axis, monkeypatch):
        # no sequence or no timestep observes nothing: an identity grid on
        # every site, or a bare KeyError from the freeze; refused before
        # the float run
        fm = graph.FloatModel(kind, _arrays(kind, np.random.default_rng(42)))

        def float_run(*args):
            raise AssertionError("the float run started")

        monkeypatch.setattr(graph._Graph, "float_run", float_run)
        with pytest.raises(graph.GraphError, match=rf"empty calibration set: .* has {axis} "):
            graph.calibrate(fm, np.zeros(shape), CellConfig())


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

    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
    def test_runs_the_cells_the_model_holds(self, kind, monkeypatch):
        # int_run runs model.cells and nothing else: the decoder it runs is
        # the query carrier the model stores, once per sequence
        rng = np.random.default_rng(42)
        fm = graph.FloatModel(kind, _arrays(kind, rng))
        model = graph.calibrate(fm, rng.normal(0.0, 1.0, size=(2, 5, N_FEAT)), CellConfig())
        selves, orig = [], rnn.IntLstmCell.run

        def run(self, *args, **kwargs):
            selves.append(self)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(rnn.IntLstmCell, "run", run)
        graph.run_batch(graph.run_int, model, rng.normal(0.0, 1.0, size=(3, 6, N_FEAT)))
        assert [id(c) for c in selves] == [id(c) for c in model.cells.values()] * 3


    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_sequences_are_a_graph_error(self, threads):
        # an empty batch has no traces to stack, on either backend
        rng = np.random.default_rng(42)
        fm = graph.FloatModel("lstm", _arrays("lstm", rng))
        model = graph.calibrate(fm, rng.normal(0.0, 1.0, size=(2, 5, N_FEAT)), CellConfig())
        empty = np.zeros((0, 6, N_FEAT))
        with pytest.raises(graph.GraphError, match="at least one sequence"):
            run_model_int(model, empty, threads=threads)
        with pytest.raises(graph.GraphError, match="at least one sequence"):
            run_model_ref(graph.export_float(model), empty)


class TestObservers:
    """A tied site and its source share one Observer for the whole float
    run, so freezing gives them one grid without a merge."""

    @pytest.mark.parametrize("kind", ["bilstm", "encdec"])
    def test_tied_sites_share_their_sources_observer(self, kind):
        g = graph.GRAPHS[kind]
        obs = g.observers()
        assert list(obs) == [*g.cells, "att"]
        for (stage, site), (src, src_site) in g.ties.items():
            assert obs[stage][site] is obs[src][src_site]
        # each call makes fresh observers
        other = g.observers()
        ids = {id(o) for d in other.values() for o in d.values()}
        assert ids.isdisjoint(id(o) for d in obs.values() for o in d.values())

    @pytest.mark.parametrize("kind", ["bilstm", "encdec"])
    def test_one_observer_sees_both_sides(self, kind):
        rng = np.random.default_rng(42)
        fm = graph.FloatModel(kind, _arrays(kind, rng))
        g = graph.GRAPHS[kind]
        seqs = rng.normal(0.0, 1.0, size=(3, 6, N_FEAT))
        obs = g.observers()
        g.float_run(dict(fm.arrays), seqs, dict.fromkeys(g.cells, False), obs)
        model = graph.calibrate(fm, seqs, CellConfig())
        for (stage, site), (src, src_site) in g.ties.items():
            o = obs[stage][site]
            assert o is obs[src][src_site] and o.running_min <= o.running_max
            assert model.sites(stage)[site] == model.sites(src)[src_site] == o.finalize(8)

    @pytest.mark.parametrize("madnorm", [False, True])
    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
    def test_each_value_is_observed_once_where_it_is_computed(self, kind, madnorm, monkeypatch):
        # the run shows its input once to the input cell's x observer, the
        # attention its keys once per source, and every other observer one
        # batch per step of each cell that computes its site: bilstm's two
        # cells share h, and no stage observes what another computed
        shown, observe = {}, Observer.observe

        def counted(obs, batch):
            shown[id(obs)] = shown.get(id(obs), 0) + 1
            return observe(obs, batch)

        monkeypatch.setattr(Observer, "observe", counted)
        rng, T = np.random.default_rng(42), 5
        g = graph.GRAPHS[kind]
        obs = g.observers()
        g.float_run(_arrays(kind, rng), rng.normal(0.0, 1.0, size=(3, T, N_FEAT)),
                    dict.fromkeys(g.cells, madnorm), obs)
        got = {(stage, site): shown.get(id(o)) for stage, sites in obs.items()
               for site, o in sites.items()}
        want = dict.fromkeys(got, T)
        want[g.input_cell, "x"] = 1
        if kind == "bilstm":
            want["fwd", "h"] = 2 * T
        if kind == "encdec":
            want["att", "kproj"] = 1
        for tied, src in g.ties.items():
            want[tied] = want[src]
        assert got == want


def _frozen(*arrays):
    """Mark arrays read-only, so that any write into them raises, and return
    copies to compare them with afterwards."""
    for a in arrays:
        a.flags.writeable = False
    return [a.copy() for a in arrays]


class TestKernelInputs:
    """The step kernels work in place only in arrays they allocate: every
    input stays unwritten, and a run on read-only inputs has the bits of
    graph.run_int."""

    def _model(self, kind, cfg):
        rng = np.random.default_rng(42)
        fm = graph.FloatModel(kind, _arrays(kind, rng, n=64, m=64))
        model = build_model(fm, rng.normal(0.0, 1.0, size=(8, 12, 64)), cfg)
        xs = rng.normal(0.0, 1.0, size=(12, 64))
        return model, quantize_tensor(xs, model.input_cell.sites["x"]), xs

    @staticmethod
    def _zero_state(cell):
        return [np.full(cell.hidden_size, cell.sites[k].zero_point, dtype=cell.sites[k].dtype)
                for k in ("h", "c")]

    def test_lstm_step(self):
        model, qxs, xs = self._model("lstm", CellConfig(16, 16, use_madnorm=True))
        cell = model.input_cell
        # each step reads one row view of the input branch's [T x 4m] array
        xb = cell.input_branch(qxs.data)
        (xb_was,) = _frozen(xb)
        h, c = self._zero_state(cell)
        hs = []
        for t in range(len(xb)):
            was = _frozen(h, c)
            h1, c1 = cell.step(xb[t], _hprod(cell, h), c)
            for a, b in zip((h, c), was):
                np.testing.assert_array_equal(a, b)
            h, c = h1, c1
            hs.append(h)
        np.testing.assert_array_equal(xb, xb_was)
        want = graph.run_int(model, xs)["out"]
        np.testing.assert_array_equal(dequantize(np.stack(hs), cell.sites["h"]), want)

    def test_encdec_decoder_and_attention(self):
        model, qxs, xs = self._model("encdec", CellConfig())
        enc, dec, att = model.cells["enc"], _plain(model.cells["dec"]), model.attention
        src = att.source(enc.run(qxs))
        src_was = _frozen(src.offsets, src.henc)
        xb = dec.input_branch(qxs.data)
        (xb_was,) = _frozen(xb)
        h, c = self._zero_state(dec)
        hs = []
        for t in range(len(xb)):
            was = _frozen(h, c)
            s = att.context(h, src)
            was += _frozen(s)
            h1, c1 = dec.step(xb[t], _hprod(dec, h), c, s)
            for a, b in zip((h, c, s), was):
                np.testing.assert_array_equal(a, b)
            h, c = h1, c1
            hs.append(h)
        for a, b in zip((src.offsets, src.henc, xb), [*src_was, xb_was]):
            np.testing.assert_array_equal(a, b)
        want = graph.run_int(model, xs)["out"]
        np.testing.assert_array_equal(dequantize(np.stack(hs), dec.sites["h"]), want)


def _plain(cell):
    """A cell built from cell's weights, sites and tables: the plain h
    projection, without the query a model's decoder carries."""
    return rnn.IntLstmCell(cell.weights, cell.sites, cell.tables)


def _decoder_by_hand(model, xs):
    """The decoder's states, dequantized, from the plain cells and a plan
    that projects the query itself (AttentionPlan.context)."""
    enc, dec, att = model.cells["enc"], _plain(model.cells["dec"]), model.attention
    qxs = quantize_tensor(xs, enc.sites["x"])
    src = att.source(enc.run(qxs))
    xb = dec.input_branch(qxs.data)
    h, c = TestKernelInputs._zero_state(dec)
    hs = []
    for t in range(len(xb)):
        h, c = dec.step(xb[t], _hprod(dec, h), c, att.context(h, src))
        hs.append(h)
    return dequantize(np.stack(hs), dec.sites["h"])


class TestStackedQuery:
    """The decoder's h projection carries the attention query: one GEMV and
    one rescale per decoder state give its hprod and the query codes."""

    @staticmethod
    def _model(kind, cfg, rng):
        fm = graph.FloatModel(kind, _arrays(kind, rng))
        return build_model(fm, rng.normal(0.0, 1.0, size=(4, 8, N_FEAT)), cfg)

    @pytest.mark.parametrize(
        "cfg", [CellConfig(), CellConfig(16, 16), CellConfig(use_madnorm=True)],
        ids=["q8", "q16", "q8mn"],
    )
    def test_codes_equal_the_two_projections(self, cfg):
        rng = np.random.default_rng(42)
        model = self._model("encdec", cfg, rng)
        dec, att, carrier = _plain(model.cells["dec"]), model.attention, model.cells["dec"]
        assert carrier._gemv_h.w.dtype == np.float32
        rows = 4 * dec.hidden_size
        assert carrier._gemv_h.w.shape[1] == rows + att._gemv_q.w.shape[1]
        hs = [rng.integers(0, 256, size=M).astype(np.uint8) for _ in range(50)]
        hs += [np.zeros(M, np.uint8), np.full(M, 255, np.uint8)]
        for h in [*hs, np.stack(hs)]:
            got = carrier._hprod(carrier._gemv_h(h))
            np.testing.assert_array_equal(got[..., :rows], dec._hprod(dec._gemv_h(h)))
            np.testing.assert_array_equal(got[..., rows:], att._qproj(att._gemv_q(h)))
        # a run has the bits of the plain cell and the plan stepped by hand
        xs = rng.normal(0.0, 1.0, size=(9, N_FEAT))
        np.testing.assert_array_equal(graph.run_int(model, xs)["dec"], _decoder_by_hand(model, xs))

    def test_wide_stack_runs_in_float64_exactly(self):
        # a query block at its extremes puts the stacked bound past 2^24,
        # where float32 sums stop being exact: the stack runs in float64
        # and equals the int64 product
        rng = np.random.default_rng(42)
        n, p_h = 300, QuantParams(8, 0.01, 0)
        wh = QTensor(rng.integers(100, 156, size=(32, n)).astype(np.uint8),
                     QuantParams(8, 0.01, 128))
        wq = QTensor(np.full((8, n), 255, np.uint8), QuantParams(8, 0.01, 0))
        gh, gq = ExactGemv(wh, p_h), ExactGemv(wq, p_h)
        assert gh.w.dtype == np.float32 and gq.w.dtype == np.float64
        assert gq.bound == n * 255 * 255 >= 2**24
        stacked = ExactGemv.stack([gh, gq])
        assert stacked.w.dtype == np.float64 and stacked.bound == gq.bound
        w = np.concatenate([wh.centered(), wq.centered()])
        for h in (rng.integers(0, 256, size=n), np.full(n, 255), np.zeros(n), np.full(n, 1)):
            h = h.astype(np.uint8)
            got = stacked(h)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, w @ h.astype(np.int64))
            np.testing.assert_array_equal(got, np.concatenate([gh(h), gq(h)]))
        # a part past the int32 contract keeps its per-call check in the stack
        n = 2**31 // (255 * 255) + 1
        big = ExactGemv(QTensor(np.full((1, n), 255, np.uint8), QuantParams(8, 0.01, 0)), p_h)
        small = ExactGemv(QTensor(np.zeros((2, n), np.uint8), QuantParams(8, 0.01, 0)), p_h)
        assert big.per_call_check and not small.per_call_check
        wide = ExactGemv.stack([small, big])
        assert wide.per_call_check
        np.testing.assert_array_equal(wide(np.ones(n, np.uint8)), [0, 0, 255 * n])
        with pytest.raises(FxOverflow, match="int32"):
            wide(np.full(n, 255, np.uint8))
        with pytest.raises(ValueError, match="one input grid"):
            ExactGemv.stack([gh, ExactGemv(wq, QuantParams(8, 0.01, 3))])
        with pytest.raises(ValueError, match="unbiased"):
            ExactGemv.stack([gh, ExactGemv(wq, p_h, np.zeros(8, np.int32))])

    @pytest.mark.parametrize("kind,fixed,per_step", [("lstm", 1, 1), ("encdec", 3, 4)])
    def test_gemvs_per_timestep(self, kind, fixed, per_step, monkeypatch):
        # per timestep an lstm makes its h GEMV; an encdec the encoder's h
        # GEMV, the decoder's stacked h and query GEMV, its context GEMV and
        # the attention's score GEMV.  Per sequence come the input branches
        # and (encdec) the key projection.
        rng = np.random.default_rng(42)
        model = self._model(kind, CellConfig(), rng)
        orig, calls = ExactGemv.__call__, []

        def counting(self, q):
            calls.append(1)
            return orig(self, q)

        monkeypatch.setattr(ExactGemv, "__call__", counting)
        for T in (1, 5, 9):
            calls.clear()
            graph.run_int(model, rng.normal(0.0, 1.0, size=(T, N_FEAT)))
            assert len(calls) == fixed + per_step * T

    def test_finer_query_grid_still_stacks(self):
        rng = np.random.default_rng(42)
        model = self._model("encdec", CellConfig(), rng)
        plan, aw, carrier = model.attention, model.attention.weights, model.cells["dec"]
        # a query grid 2^20 times finer takes 20 fraction bits off the query
        # rescale, and lifted to hprod's f its raw overflowed int64; each
        # element keeps its own f, so the query still rides on the decoder
        p_q = aw.sites["qproj"]
        fine = QuantParams(8, p_q.scale / 2**20, p_q.zero_point)
        wide = AttentionPlan(AttentionWeights(aw.wq, aw.wk, aw.v, {**aw.sites, "qproj": fine}),
                             plan.tables)
        rows, f_h, q = 4 * carrier.hidden_size, _plain(carrier)._hprod.f, wide._qproj
        assert f_h > q.f and (abs(q.raws[0]) << (f_h - q.f)) * q.bounds[0] > 2**63 - 1
        assert set(carrier._hprod.f[rows:].tolist()) == {q.f + 20}
        # re-assembly with the finer plan derives the carrier again
        fine_model = dataclasses.replace(model, attention=wide)
        assert set(fine_model.cells["dec"]._hprod.f[rows:].tolist()) == {q.f}
        xs = rng.normal(0.0, 1.0, size=(9, N_FEAT))
        np.testing.assert_array_equal(graph.run_int(fine_model, xs)["dec"],
                                      _decoder_by_hand(fine_model, xs))
        again = dataclasses.replace(fine_model, attention=plan)
        assert again.cells["dec"] is not carrier
        np.testing.assert_array_equal(graph.run_int(again, xs)["dec"], _decoder_by_hand(again, xs))

    def test_reassembly_stacks_one_query_block(self):
        # a model re-assembled twice holds a decoder with one query block,
        # the last plan's, under the plain h projection
        rng = np.random.default_rng(42)
        model = self._model("encdec", CellConfig(), rng)
        plan, aw = model.attention, model.attention.weights
        p_q = aw.sites["qproj"]
        fine = QuantParams(8, p_q.scale / 2**20, p_q.zero_point)
        wide = AttentionPlan(AttentionWeights(aw.wq, aw.wk, aw.v, {**aw.sites, "qproj": fine}),
                             plan.tables)
        again = dataclasses.replace(dataclasses.replace(model, attention=wide), attention=plan)
        dec, plain = again.cells["dec"], _plain(again.cells["dec"])
        rows, m_att = 4 * dec.hidden_size, plan._gemv_q.w.shape[1]
        assert dec._gemv_h.w.shape[1] == dec._hprod.f.size == rows + m_att
        np.testing.assert_array_equal(dec._hprod.f, model.cells["dec"]._hprod.f)
        h = rng.integers(0, 256, size=(20, M)).astype(np.uint8)
        got = dec._hprod(dec._gemv_h(h))
        np.testing.assert_array_equal(got[:, :rows], plain._hprod(plain._gemv_h(h)))
        np.testing.assert_array_equal(got[:, rows:], plan._qproj(plan._gemv_q(h)))
        xs = rng.normal(0.0, 1.0, size=(9, N_FEAT))
        np.testing.assert_array_equal(graph.run_int(again, xs)["dec"], _decoder_by_hand(again, xs))
        np.testing.assert_array_equal(graph.run_int(again, xs)["out"],
                                      graph.run_int(model, xs)["out"])

    def test_query_rides_once_on_a_context_fed_cell(self):
        rng = np.random.default_rng(42)
        model = self._model("encdec", CellConfig(), rng)
        att, carrier = model.attention, model.cells["dec"]
        with pytest.raises(ValueError, match="only on a context-fed cell"):
            att.carrier(model.cells["enc"])
        # a carrier derives the carrier again: one query block, same bits
        again = att.carrier(carrier)
        assert again is not carrier
        assert again._gemv_h.w.shape == carrier._gemv_h.w.shape
        np.testing.assert_array_equal(again._gemv_h.w, carrier._gemv_h.w)
        h = rng.integers(0, 256, size=(20, M)).astype(np.uint8)
        np.testing.assert_array_equal(again._hprod(again._gemv_h(h)),
                                      carrier._hprod(carrier._gemv_h(h)))


class TestAssembly:
    """A model is checked when it is assembled and not changed afterwards."""

    @staticmethod
    def _encdec():
        rng = np.random.default_rng(42)
        fm = graph.FloatModel("encdec", _arrays("encdec", rng))
        return build_model(fm, rng.normal(0.0, 1.0, size=(4, 8, N_FEAT)), CellConfig())

    def test_fields_and_cells_are_read_only(self):
        model = self._encdec()
        plan, dec = model.attention, model.cells["dec"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.attention = plan
        with pytest.raises(TypeError):
            model.cells["dec"] = dec
        assert model.attention is plan and model.cells["dec"] is dec

    def test_stage_inputs_cannot_be_reassigned(self):
        # what a stage was built from cannot be swapped afterwards: new
        # weights would save as another model than the one that runs, and a
        # MadNorm flag would make the float oracle normalize where the
        # integer cell does not
        model = self._encdec()
        enc, dec, att = model.cells["enc"], model.cells["dec"], model.attention
        xs = np.random.default_rng(7).normal(0.0, 1.0, size=(9, N_FEAT))
        blob, traces = mio.save(model), graph.run_int(model, xs)
        meta = graph.export_float(model).meta
        w = enc.weights
        zeros = QTensor(np.zeros_like(w.wx.data), w.wx.params)
        attempts = [
            (w, "wx", zeros), (w, "wh", zeros), (dec.weights, "ws", None), (w, "bias", None),
            (w.wx, "data", zeros.data), (w.wx, "params", att.weights.v.params),
            *((cell, name, value) for cell in (enc, dec) for name, value in (
                ("weights", dec.weights), ("sites", dec.sites), ("tables", dec.tables),
                ("use_madnorm", True))),
            (att, "weights", att.weights), (att, "tables", att.tables),
            (att.weights, "wq", att.weights.wk), (att.weights, "v", att.weights.v),
            (att.weights, "sites", {}),
        ]
        for obj, name, value in attempts:
            was = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            assert getattr(obj, name) is was, name
        assert mio.save(model) == blob
        assert graph.export_float(model).meta == meta == {
            "cells": {"enc": {"use_madnorm": False}, "dec": {"use_madnorm": False}}}
        for key, trace in graph.run_int(model, xs).items():
            np.testing.assert_array_equal(trace, traces[key])

    def test_replaced_plan_off_the_tied_grid_is_refused(self):
        # the plan's henc grid at twice the scale: the encoder's codes would
        # be read on the wrong grid, so re-assembly refuses it
        model = self._encdec()
        aw = model.attention.weights
        p = aw.sites["henc"]
        moved = QuantParams(p.bitwidth, p.scale * 2, p.zero_point)
        plan = AttentionPlan(AttentionWeights(aw.wq, aw.wk, aw.v, {**aw.sites, "henc": moved}),
                             model.attention.tables)
        with pytest.raises(graph.GraphError, match="tied-site-mismatch: att.henc differs from enc.h"):
            dataclasses.replace(model, attention=plan)

    def test_decoder_without_context_weights_is_refused(self):
        # the decoder's own weights and grids, less ws and its two sites:
        # every tie but att.s holds
        model = self._encdec()
        dec = model.cells["dec"]
        sites = {k: v for k, v in dec.sites.items() if k not in ("s", "preact")}
        tables = {
            name: reduce(build_full(activation_registry(name.partition("_")[0])[0], *grids), 32)
            for name, grids in rnn.IntLstmCell.table_grids(sites).items()
        }
        w = dec.weights
        deaf = rnn.IntLstmCell(rnn.LstmWeights(w.wx, w.wh, w.bias), sites, tables)
        with pytest.raises(graph.GraphError, match="the dec cell attends but has no context weights"):
            graph.IrnnModel("encdec", {"enc": model.cells["enc"], "dec": deaf},
                            attention=model.attention)

    def test_missing_tied_site_is_a_graph_error(self, monkeypatch):
        rng = np.random.default_rng(42)
        fm = graph.FloatModel("lstm", _arrays("lstm", rng))
        model = build_model(fm, rng.normal(0.0, 1.0, size=(4, 8, N_FEAT)), CellConfig())
        tied = dataclasses.replace(graph.GRAPHS["lstm"], ties={("main", "nope"): ("main", "h")})
        monkeypatch.setitem(graph.GRAPHS, "lstm", tied)
        with pytest.raises(graph.GraphError, match="tied-site-missing: main.nope or main.h"):
            graph.IrnnModel("lstm", model.cells)


@pytest.mark.parametrize("kind,cfg", [
    ("lstm", CellConfig(16, 16, use_madnorm=True)),
    ("encdec", CellConfig(use_madnorm=True)),
])
def test_first_threaded_call_on_a_fresh_load(kind, cfg):
    # a loaded model binds each rescale's array constants on its first
    # call, so the first threaded call races on the binding; switching
    # threads every microsecond, on a few fresh loads, makes the race likely
    rng = np.random.default_rng(42)
    fm = graph.FloatModel(kind, _arrays(kind, rng))
    blob = mio.save(build_model(fm, rng.normal(0.0, 1.0, size=(6, 10, N_FEAT)), cfg))
    seqs = rng.normal(0.0, 1.0, size=(8, 10, N_FEAT))
    single = run_model_int(mio.load(blob), seqs, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [run_model_int(mio.load(blob), seqs, threads=4) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for run in pooled:
        for key in single:
            np.testing.assert_array_equal(single[key], run[key])
