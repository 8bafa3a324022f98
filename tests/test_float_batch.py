"""One batched float run equals one run per sequence, bit for bit.

Calibration runs the float graph once over every calibration sequence at
once.  Each row's gate products are one BLAS gemv and each MadNorm
statistic reduces its own row, so every sequence's float traces equal a
one-sequence run's bytes, and every observer's range equals the one
collected a sequence at a time.  A zero sequence makes each MadNorm branch
constant in its row alone, so the zero-deviation guard fires for one row
while the others normalize.  Every decoder step of one source forms its
query-key sums in the same work array, with the bits of a fresh one.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from irnn import graph
from irnn import model_io as mio
from irnn.attention import _attend_ref, _keys_ref, attention_ref, calibrate_attention
from irnn.rnn import CellConfig, calibrate_lstm_cell, freeze_cell, lstm_run_ref

N_SEQ, N_FEAT, M, M_ATT = 5, 6, 8, 7


def _arrays(kind, rng, bias):
    def cell(prefix, context=False):
        arrays = {
            prefix + "wx": rng.normal(0.0, 0.4, size=(4 * M, N_FEAT)),
            prefix + "wh": rng.normal(0.0, 0.4, size=(4 * M, M)),
        }
        if bias:
            arrays[prefix + "bias"] = rng.normal(0.0, 0.2, size=4 * M)
        if context:
            arrays[prefix + "ws"] = rng.normal(0.0, 0.4, size=(4 * M, M))
        return arrays

    if kind == "lstm":
        return cell("")
    if kind == "bilstm":
        return {**cell("fwd_"), **cell("bwd_")}
    return {
        **cell("enc_"),
        **cell("dec_", context=True),
        "att_wq": rng.normal(0.0, 0.5, size=(M_ATT, M)),
        "att_wk": rng.normal(0.0, 0.5, size=(M_ATT, M)),
        "att_v": rng.normal(0.0, 0.5, size=M_ATT),
    }


def _seqs(rng, T):
    seqs = rng.normal(0.0, 1.0, size=(N_SEQ, T, N_FEAT))
    seqs[2] = 0.0
    return seqs


def _ranges(observers) -> dict:
    return {
        (stage, site): (o.running_min, o.running_max)
        for stage, sites in observers.items()
        for site, o in sites.items()
    }


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _runs(kind, madnorm, bias, T):
    """(float model, sequences, graph, observers of one batched run, observers
    of one run per sequence), after checking that every sequence's traces
    in the batched run have the bytes of its own run."""
    rng = np.random.default_rng(11)
    fm = graph.FloatModel(kind, _arrays(kind, rng, bias))
    seqs = _seqs(rng, T)
    g, a = graph.graph_for(kind), dict(fm.arrays)
    flags = dict.fromkeys(g.cells, madnorm)
    batched = g.observers()
    traces = g.float_run(a, seqs, flags, batched)
    sequential = g.observers()
    for i, xs in enumerate(seqs):
        single = g.float_run(a, xs, flags, sequential)
        assert single.keys() == traces.keys()
        for key, trace in single.items():
            assert _same_bits(traces[key][i], trace), (key, i)
    return fm, seqs, g, batched, sequential


@pytest.mark.parametrize("T", [1, 6])
@pytest.mark.parametrize("kind,madnorm,bias", [
    *(("lstm", mn, bias) for mn in (False, True) for bias in (False, True)),
    ("bilstm", True, True),
    ("bilstm", False, False),
    ("encdec", False, True),
    ("encdec", True, False),
])
def test_batched_run_equals_sequential(kind, madnorm, bias, T):
    _, _, g, batched, sequential = _runs(kind, madnorm, bias, T)
    assert _ranges(batched) == _ranges(sequential)
    assert ((g.input_cell, "mnx_y") in _ranges(batched)) == madnorm


@pytest.mark.parametrize("kind,madnorm,bias,bits", [
    *(("lstm", mn, bias, bits) for mn in (False, True) for bias in (False, True)
      for bits in (8, 16)),
    ("bilstm", True, True, 8),
    ("encdec", False, True, 16),
    ("encdec", True, False, 8),
])
def test_calibrate_freezes_sequential_observers(kind, madnorm, bias, bits):
    # the calibrated model is the one frozen from observers collected one
    # sequence at a time
    fm, seqs, g, _, sequential = _runs(kind, madnorm, bias, 6)
    cfg = CellConfig(cell_bits=bits, preact_bits=bits, use_madnorm=madnorm, pwl_pieces=4)
    cells, attention = g.freeze(dict(fm.arrays), sequential, cfg)
    want = mio.save(graph.IrnnModel(kind, cells, attention=attention))
    assert mio.save(graph.calibrate(fm, seqs, cfg)) == want


def test_oracle_runs_one_sequence_per_call():
    # run_ref keeps its one-sequence contract: its traces are the batched
    # run's rows
    rng = np.random.default_rng(12)
    fm = graph.FloatModel("encdec", _arrays("encdec", rng, True))
    seqs = _seqs(rng, 4)
    g = graph.graph_for("encdec")
    batched = g.float_run(dict(fm.arrays), seqs, dict.fromkeys(g.cells, False), {})
    for i, xs in enumerate(seqs):
        for key, trace in graph.run_ref(fm, xs).items():
            assert _same_bits(batched[key][i], trace), key


@pytest.mark.parametrize("madnorm", [False, True])
def test_calibrate_lstm_cell_is_one_batched_run(madnorm):
    # the gate-facing calibration: a context-fed cell over all sequences in
    # one run freezes the cell of the runs one sequence at a time
    rng = np.random.default_rng(13)
    arrays = _arrays("encdec", rng, True)
    wx, wh, bias, ws = (arrays["dec_" + k] for k in ("wx", "wh", "bias", "ws"))
    seqs, s_seqs = _seqs(rng, 6), rng.normal(0.0, 0.5, size=(N_SEQ, 6, M))
    cfg = CellConfig(use_madnorm=madnorm, pwl_pieces=4)
    observers = {}
    for xs, ss in zip(seqs, s_seqs):
        lstm_run_ref(xs, wx, wh, bias, ws=ws, context=lambda t, h, ss=ss: ss[t],
                     use_madnorm=madnorm, observers=observers)
    want = freeze_cell(observers, wx, wh, bias, cfg, ws=ws)
    cell = calibrate_lstm_cell(wx, wh, bias, seqs, cfg, ws=ws, s_seqs=s_seqs)
    assert dict(cell.sites) == dict(want.sites)


def test_calibrate_attention_is_one_batched_pass():
    rng = np.random.default_rng(14)
    arrays = _arrays("encdec", rng, False)
    wq, wk, v = arrays["att_wq"], arrays["att_wk"], arrays["att_v"]
    hdec, henc = rng.normal(0.0, 0.6, size=(N_SEQ, M)), rng.normal(0.0, 0.6, size=(N_SEQ, 9, M))
    henc[1] = henc[1, 0]  # identical encoder states: uniform weights in one row
    batched = attention_ref(hdec, henc, wq, wk, v)
    for i in range(N_SEQ):
        for got, want in zip(batched, attention_ref(hdec[i], henc[i], wq, wk, v)):
            assert _same_bits(got[i], want)
    w, _, _ = calibrate_attention(wq, wk, v, hdec, henc, pieces=4)
    observers = {}
    for h, H in zip(hdec, henc):
        attention_ref(h, H, wq, wk, v, observers=observers)
    for site, o in observers.items():
        assert w.sites[site] == o.finalize(16 if site in ("sumqk", "e") else 8), site


def _attention_case(rng, batch, T, m=M, m_att=M_ATT):
    wq, wk = rng.normal(0.0, 0.5, size=(m_att, m)), rng.normal(0.0, 0.5, size=(m_att, m))
    return wq, wk, rng.normal(0.0, 0.5, size=m_att), rng.normal(0.0, 0.6, size=(*batch, T, m))


def _observed(observers) -> list:
    return [(key, o.running_min, o.running_max, o.count) for key, o in observers.items()]


@pytest.mark.parametrize("batch", [(), (1,), (N_SEQ,)])
def test_steps_in_one_work_array_have_fresh_bits(batch):
    rng = np.random.default_rng(15)
    wq, wk, v, H = _attention_case(rng, batch, 9)
    obs_work, obs_fresh = {}, {}
    keys = _keys_ref(H, wk, obs_work)
    assert _same_bits(keys, _keys_ref(H, wk, obs_fresh))
    # a stale value left in the work array would show as NaN
    work = np.full_like(keys, np.nan)
    for _ in range(4):
        h = rng.normal(0.0, 0.6, size=(*batch, M))
        got = _attend_ref(h, H, keys, wq, v, obs_work, work)
        want = _attend_ref(h, H, keys, wq, v, obs_fresh)
        for g, w in zip(got, want):
            assert _same_bits(g, w)
        assert _observed(obs_work) == _observed(obs_fresh)
    assert list(obs_work) == ["kproj", "qproj", "sumqk", "e", "s"]


def test_float_run_hands_every_step_of_a_source_one_work_array(monkeypatch):
    refs, steps, freed = [], [], []

    def attend(h, H, keys, wq, v, observers, work=None):
        if not refs:
            refs.extend([weakref.ref(keys), weakref.ref(work)])
        steps.append((refs[0]() is keys, refs[1]() is work, work is keys, work.shape, work.dtype))
        return _attend_ref(h, H, keys, wq, v, observers, work)

    class GraphNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def concatenate(self, *args, **kwargs):
            # the keys and the work array are freed before the output is formed
            freed.append([r() is None for r in refs])
            return np.concatenate(*args, **kwargs)

    monkeypatch.setattr(graph, "_attend_ref", attend)
    monkeypatch.setattr(graph, "np", GraphNumpy())
    rng = np.random.default_rng(16)
    fm, seqs = graph.FloatModel("encdec", _arrays("encdec", rng, True)), _seqs(rng, 6)
    g = graph.graph_for("encdec")
    g.float_run(dict(fm.arrays), seqs, dict.fromkeys(g.cells, False), {})
    assert steps == [(True, True, False, (N_SEQ, 6, M_ATT), np.float64)] * 6
    assert freed == [[True, True]]


def test_step_in_a_work_array_allocates_no_copy_of_the_keys():
    # calibration steps N = 32 sequences over T = 64 states at m_att = 64:
    # a work array keeps each step's sums and tanh out of new 1 MiB arrays
    rng = np.random.default_rng(17)
    wq, wk, v, H = _attention_case(rng, (32,), 64, m=64, m_att=64)
    observers = {}
    keys = _keys_ref(H, wk, observers)
    work, h = np.empty_like(keys), rng.normal(0.0, 0.6, size=(32, 64))
    peaks = {}
    for name, arr in (("work", work), ("fresh", None)):
        _attend_ref(h, H, keys, wq, v, observers, arr)
        tracemalloc.start()
        try:
            _attend_ref(h, H, keys, wq, v, observers, arr)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["work"] < keys.nbytes / 4
    assert peaks["fresh"] >= keys.nbytes
