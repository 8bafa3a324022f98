"""Container format: round-trips, integrity errors, float export, loaders."""

import json
import struct
import sys

import numpy as np
import pytest

from irnn import model_io as mio
from irnn.attention import AttentionPlan, attention_int, calibrate_attention
from irnn.cli import build_model, run_model_int
from irnn.quant import QTensor, quantize_tensor
from irnn.rnn import CellConfig, calibrate_lstm_cell

_HEADER = struct.Struct("<4sIQ")


def _align64(n):
    return (n + 63) // 64 * 64


def _toy_model(seed=42, n=12, m=12, madnorm=False):
    rng = np.random.default_rng(seed)
    wx = rng.normal(0.0, 0.3, size=(4 * m, n))
    wh = rng.normal(0.0, 0.3, size=(4 * m, m))
    bias = rng.normal(0.0, 0.1, size=4 * m)
    seqs = rng.normal(0.0, 1.0, size=(6, 20, n))
    cfg = CellConfig(use_madnorm=madnorm)
    cell = calibrate_lstm_cell(wx, wh, bias, seqs, cfg)
    return mio.IrnnModel("lstm", {"main": cell}, meta={"seed": seed}), rng


def _remanifest(data, mutate):
    """Re-encode the manifest after an edit; blob payload stays in place."""
    magic, version, mlen = _HEADER.unpack_from(data)
    manifest = json.loads(data[_HEADER.size : _HEADER.size + mlen])
    mutate(manifest)
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    pad = _align64(_HEADER.size + len(body)) - _HEADER.size - len(body)
    payload = data[_align64(_HEADER.size + mlen) :]
    return _HEADER.pack(magic, version, len(body)) + body + b"\x00" * pad + payload


class TestContainer:
    def test_round_trip_bit_identical(self):
        model, rng = _toy_model()
        loaded = mio.load(mio.save(model))
        cell, twin = model.cells["main"], loaded.cells["main"]
        assert twin.sites == cell.sites
        for _ in range(10):
            xs = rng.normal(0.0, 1.0, size=(20, 12))
            a = cell.run(quantize_tensor(xs, cell.sites["x"])).data
            b = twin.run(quantize_tensor(xs, twin.sites["x"])).data
            np.testing.assert_array_equal(a, b)

    def test_save_is_byte_deterministic(self):
        model, _ = _toy_model()
        assert mio.save(model) == mio.save(model)

    def test_madnorm_cell_round_trip(self):
        model, rng = _toy_model(madnorm=True)
        loaded = mio.load(mio.save(model))
        xs = rng.normal(0.0, 1.0, size=(16, 12))
        cell, twin = model.cells["main"], loaded.cells["main"]
        np.testing.assert_array_equal(
            cell.run(quantize_tensor(xs, cell.sites["x"])).data,
            twin.run(quantize_tensor(xs, twin.sites["x"])).data,
        )

    def test_file_round_trip(self, tmp_path):
        model, rng = _toy_model()
        path = tmp_path / "toy.irnn"
        mio.save_file(model, path)
        loaded = mio.load_file(path)
        xs = rng.normal(0.0, 1.0, size=(8, 12))
        np.testing.assert_array_equal(
            model.cells["main"].run(quantize_tensor(xs, model.cells["main"].sites["x"])).data,
            loaded.cells["main"].run(quantize_tensor(xs, loaded.cells["main"].sites["x"])).data,
        )

    def test_bad_magic(self):
        model, _ = _toy_model()
        data = bytearray(mio.save(model))
        data[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            mio.load(bytes(data))

    def test_unknown_version_refused(self):
        model, _ = _toy_model()
        data = bytearray(mio.save(model))
        data[4:8] = struct.pack("<I", 99)
        with pytest.raises(ValueError, match="unsupported-version"):
            mio.load(bytes(data))

    def test_manifest_version_must_match_header(self):
        model, _ = _toy_model()

        def bump(man):
            man["format_version"] = 2

        with pytest.raises(ValueError, match="format_version"):
            mio.load(_remanifest(mio.save(model), bump))

    def test_truncated_blob_is_checksum_error(self):
        model, _ = _toy_model()
        data = mio.save(model)
        with pytest.raises(ValueError, match="checksum-mismatch"):
            mio.load(data[:-40])

    def test_corrupted_blob_byte(self):
        model, _ = _toy_model()
        data = bytearray(mio.save(model))
        _, _, mlen = _HEADER.unpack_from(data)
        manifest = json.loads(bytes(data[_HEADER.size : _HEADER.size + mlen]))
        entry = manifest["blobs"]["cells/main/wx"]
        pos = _align64(_HEADER.size + mlen) + entry["offset"]
        data[pos] ^= 0xFF
        with pytest.raises(ValueError, match="checksum-mismatch: blob 'cells/main/wx'"):
            mio.load(bytes(data))

    def test_dangling_tensor_reference(self):
        model, _ = _toy_model()

        def drop(man):
            del man["blobs"]["cells/main/wh"]

        with pytest.raises(ValueError, match="dangling tensor reference"):
            mio.load(_remanifest(mio.save(model), drop))

    def test_model_kind_validation(self):
        model, _ = _toy_model()
        cell = model.cells["main"]
        with pytest.raises(ValueError, match="cells"):
            mio.IrnnModel("bilstm", {"main": cell})
        with pytest.raises(ValueError, match="kind"):
            mio.IrnnModel("gru", {"main": cell})
        with pytest.raises(ValueError, match="attention"):
            mio.IrnnModel("encdec", {"enc": cell, "dec": cell}, attention=None)


class TestBilstmAndEncdec:
    def test_bilstm_round_trip(self):
        rng = np.random.default_rng(42)
        n = m = 10
        arrays = {}
        for prefix in ("fwd_", "bwd_"):
            arrays[prefix + "wx"] = rng.normal(0.0, 0.3, size=(4 * m, n))
            arrays[prefix + "wh"] = rng.normal(0.0, 0.3, size=(4 * m, m))
            arrays[prefix + "bias"] = rng.normal(0.0, 0.1, size=4 * m)
        seqs = rng.normal(0.0, 1.0, size=(5, 12, n))
        model = build_model(mio.FloatModel("bilstm", arrays), seqs, CellConfig())
        loaded = mio.load(mio.save(model))
        xs = rng.normal(0.0, 1.0, size=(1, 12, n))
        a, b = run_model_int(model, xs), run_model_int(loaded, xs)
        assert a.keys() == b.keys() == {"fwd", "bwd", "out"}
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_encdec_round_trip(self):
        rng = np.random.default_rng(42)
        n, m, m_att, T = 8, 8, 6, 7
        enc = calibrate_lstm_cell(
            rng.normal(0.0, 0.3, size=(4 * m, n)),
            rng.normal(0.0, 0.3, size=(4 * m, m)),
            None,
            rng.normal(0.0, 1.0, size=(4, T, n)),
            CellConfig(),
        )
        s_seqs = rng.normal(0.0, 0.4, size=(4, T, m))
        dec = calibrate_lstm_cell(
            rng.normal(0.0, 0.3, size=(4 * m, n)),
            rng.normal(0.0, 0.3, size=(4 * m, m)),
            None,
            rng.normal(0.0, 1.0, size=(4, T, n)),
            CellConfig(),
            ws=rng.normal(0.0, 0.3, size=(4 * m, m)),
            s_seqs=s_seqs,
        )
        aw, expt, tanht = calibrate_attention(
            rng.normal(0.0, 0.4, size=(m_att, m)),
            rng.normal(0.0, 0.4, size=(m_att, m)),
            rng.normal(0.0, 0.4, size=m_att),
            rng.normal(0.0, 0.5, size=(20, m)),
            rng.normal(0.0, 0.5, size=(20, T, m)),
        )
        model = mio.IrnnModel(
            "encdec",
            {"enc": enc, "dec": dec},
            attention=AttentionPlan(aw, expt, tanht),
        )
        loaded = mio.load(mio.save(model))
        la = loaded.attention
        qhd = quantize_tensor(rng.normal(0.0, 0.5, size=m), aw.sites["hdec"])
        qHe = quantize_tensor(rng.normal(0.0, 0.5, size=(T, m)), aw.sites["henc"])
        s1, e1 = attention_int(qhd, qHe, aw, expt, tanht)
        s2, e2 = attention_int(qhd, qHe, la.weights, la.exp_table, la.tanh_table)
        np.testing.assert_array_equal(s1.data, s2.data)
        np.testing.assert_array_equal(e1.data, e2.data)
        xs = rng.normal(0.0, 1.0, size=(T, n))
        ss = rng.normal(0.0, 0.4, size=(T, m))
        qxs = quantize_tensor(xs, dec.sites["x"])
        qss = quantize_tensor(ss, dec.sites["s"])
        context = lambda t, h: QTensor(qss.data[t], qss.params)
        np.testing.assert_array_equal(
            dec.run(qxs, context).data, loaded.cells["dec"].run(qxs, context).data
        )


class TestCompiledReplay:
    def test_load_rebuilds_no_table(self, monkeypatch):
        model, _ = _toy_model(madnorm=True)
        blob = mio.save(model)

        def rebuild(*args, **kwargs):
            raise AssertionError("load rebuilt a PWL table")

        monkeypatch.setattr("irnn.rnn.build_full", rebuild)
        monkeypatch.setattr("irnn.rnn.reduce", rebuild)
        loaded = mio.load(blob)
        assert mio.save(loaded) == blob

    def test_run_derives_nothing_from_float(self, monkeypatch):
        rng = np.random.default_rng(42)
        n = m = 8
        cell = lambda prefix, **extra: {
            prefix + "wx": rng.normal(0.0, 0.3, size=(4 * m, n)),
            prefix + "wh": rng.normal(0.0, 0.3, size=(4 * m, m)),
            prefix + "bias": rng.normal(0.0, 0.1, size=4 * m),
            **extra,
        }
        lstm = mio.FloatModel("lstm", cell(""))
        encdec = mio.FloatModel("encdec", {
            **cell("enc_"),
            **cell("dec_", dec_ws=rng.normal(0.0, 0.3, size=(4 * m, m))),
            "att_wq": rng.normal(0.0, 0.4, size=(m, m)),
            "att_wk": rng.normal(0.0, 0.4, size=(m, m)),
            "att_v": rng.normal(0.0, 0.4, size=m),
        })
        calib = rng.normal(0.0, 1.0, size=(3, 6, n))
        seqs = rng.normal(0.0, 1.0, size=(2, 6, n))
        cfg16 = CellConfig(cell_bits=16, preact_bits=16, use_madnorm=True, pwl_pieces=8)
        built = [build_model(lstm, calib, cfg16), build_model(encdec, calib, CellConfig())]
        models = built + [mio.load(mio.save(b)) for b in built]
        before = [run_model_int(mdl, seqs) for mdl in models]

        def float_derivation(*args, **kwargs):
            raise AssertionError("a step derived a constant from float scales")

        for name, module in list(sys.modules.items()):
            if name == "irnn" or name.startswith("irnn."):
                for attr in ("requant_multiplier", "to_fixed"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, float_derivation)
        for mdl, want in zip(models, before):
            got = run_model_int(mdl, seqs)
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])


class TestFloatExport:
    def test_weights_within_half_step(self):
        model, _ = _toy_model()
        fm = mio.export_float(model)
        cell = model.cells["main"]
        for key, qt in (("wx", cell.weights.wx), ("wh", cell.weights.wh)):
            err = np.abs(fm.arrays[key].astype(np.float64) - qt.dequantize())
            assert err.max() <= qt.params.scale / 2

    def test_bias_recovered(self):
        model, _ = _toy_model()
        cell = model.cells["main"]
        fm = mio.export_float(model)
        scale = cell.sites["x"].scale * cell.weights.wx.params.scale
        np.testing.assert_allclose(
            fm.arrays["bias"].astype(np.float64),
            cell.weights.bias.astype(np.float64) * scale,
            rtol=1e-6,
        )

    def test_npz_round_trip_and_kind(self):
        model, _ = _toy_model()
        fm = mio.export_float(model)
        twin = mio.load_float(mio.save_float(fm))
        assert twin.kind == "lstm"
        assert sorted(twin.arrays) == sorted(fm.arrays)
        for k in fm.arrays:
            np.testing.assert_array_equal(twin.arrays[k], fm.arrays[k])

    def test_kind_inferred_without_tag(self):
        rng = np.random.default_rng(42)
        import io as _io

        buf = _io.BytesIO()
        np.savez(
            buf,
            wx=rng.normal(size=(8, 2)).astype(np.float32),
            wh=rng.normal(size=(8, 2)).astype(np.float32),
        )
        fm = mio.load_float(buf.getvalue())
        assert fm.kind == "lstm"

    def test_missing_keys_rejected(self):
        import io as _io

        buf = _io.BytesIO()
        np.savez(buf, enc_wx=np.zeros((8, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="missing keys"):
            mio.load_float(buf.getvalue())

    def test_size_ratio_at_scale(self):
        # 205k parameters; weight payload dwarfs tables and manifest
        rng = np.random.default_rng(42)
        n = m = 160
        cell = calibrate_lstm_cell(
            rng.normal(0.0, 0.3, size=(4 * m, n)),
            rng.normal(0.0, 0.3, size=(4 * m, m)),
            rng.normal(0.0, 0.1, size=4 * m),
            rng.normal(0.0, 1.0, size=(4, 16, n)),
            CellConfig(),
        )
        model = mio.IrnnModel("lstm", {"main": cell})
        assert model.num_params() >= 100_000
        int_bytes = len(mio.save(model))
        float_bytes = len(mio.save_float(mio.export_float(model)))
        assert float_bytes / int_bytes >= 3.5


class TestCalibrationData:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        seq = rng.normal(size=(15, 4))
        path = tmp_path / "calib.csv"
        mio.save_calibration(path, seq)
        back = mio.load_calibration(path)
        assert back.shape == (1, 15, 4)
        np.testing.assert_allclose(back[0], seq, atol=0.0)

    def test_raw_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(42)
        seq = rng.normal(size=(9, 3)).astype(np.float32)
        path = tmp_path / "calib.bin"
        mio.save_calibration(path, seq)
        back = mio.load_calibration(path)
        assert back.shape == (1, 9, 3)
        np.testing.assert_array_equal(back[0].astype(np.float32), seq)

    def test_raw_round_trip_3d(self, tmp_path):
        rng = np.random.default_rng(42)
        seqs = rng.normal(size=(5, 9, 3)).astype(np.float32)
        path = tmp_path / "calib.bin"
        mio.save_calibration(path, seqs)
        back = mio.load_calibration(path)
        np.testing.assert_array_equal(back.astype(np.float32), seqs)

    def test_raw_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        payload = struct.pack("<I", 2) + struct.pack("<2Q", 4, 4)
        path.write_bytes(payload + b"\x00" * 12)
        with pytest.raises(ValueError, match="disagrees"):
            mio.load_calibration(path)

    def test_raw_bad_rank(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<I", 9))
        with pytest.raises(ValueError, match="rank"):
            mio.load_calibration(path)

    def test_csv_rejects_batch(self, tmp_path):
        with pytest.raises(ValueError, match="single sequence"):
            mio.save_calibration(tmp_path / "x.csv", np.zeros((2, 3, 4)))
