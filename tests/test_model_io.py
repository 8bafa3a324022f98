"""Container format: round-trips, integrity errors, float export, loaders."""

import dataclasses
import struct
import sys

import numpy as np
import pytest

from irnn import graph
from irnn import model_io as mio
from irnn.attention import AttentionPlan, AttentionWeights, attention_int, calibrate_attention
from irnn.cli import build_model, run_model_int
from irnn.quant import QTensor, QuantParams, quantize_tensor
from irnn.rnn import CellConfig, IntLstmCell, calibrate_lstm_cell
from reseal import HEADER, blob_added, manifest_of, payload_of, reseal, unsealed


def _toy_model(seed=42, n=12, m=12, madnorm=False, with_bias=True):
    rng = np.random.default_rng(seed)
    wx = rng.normal(0.0, 0.3, size=(4 * m, n))
    wh = rng.normal(0.0, 0.3, size=(4 * m, m))
    bias = rng.normal(0.0, 0.1, size=4 * m) if with_bias else None
    seqs = rng.normal(0.0, 1.0, size=(6, 20, n))
    cfg = CellConfig(use_madnorm=madnorm)
    cell = calibrate_lstm_cell(wx, wh, bias, seqs, cfg)
    return mio.IrnnModel("lstm", {"main": cell}, meta={"seed": seed}), rng


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
        # formats 1 to 3 included: no reader for them is kept
        model, _ = _toy_model()
        for version in (1, 2, 3, 99):
            data = bytearray(mio.save(model))
            data[4:8] = struct.pack("<I", version)
            with pytest.raises(ValueError, match="unsupported-version"):
                mio.load(bytes(data))

    def test_truncated_blob_is_checksum_error(self):
        model, _ = _toy_model()
        data = mio.save(model)
        with pytest.raises(ValueError, match="checksum-mismatch"):
            mio.load(data[:-40])

    def test_corrupted_blob_byte(self):
        model, _ = _toy_model()
        data = mio.save(model)
        pos = len(data) - len(payload_of(data))
        corrupt = bytearray(data)
        corrupt[pos] ^= 0xFF
        with pytest.raises(ValueError, match="checksum-mismatch"):
            mio.load(bytes(corrupt))

    def test_unreferenced_blob(self):
        # a context weight is stored for the lstm cell, whose manifest entry
        # says it has none (ws: null)
        lstm = _kind_models()[0]
        ws = np.zeros((48, 12), dtype=np.uint8)
        with pytest.raises(ValueError, match="unreferenced blob: 'cells/main/ws'"):
            mio.load(blob_added(mio.save(lstm), "cells/main/ws", ws))

    def test_dangling_tensor_reference(self):
        # renamed in place: the blob keeps its position in name order
        model, _ = _toy_model()

        def rename(man):
            man["blobs"]["cells/main/wh~"] = man["blobs"].pop("cells/main/wh")

        with pytest.raises(ValueError, match="dangling tensor reference: 'cells/main/wh'"):
            mio.load(reseal(mio.save(model), rename))

    def test_blob_read_at_its_readers_dtype_and_rank(self):
        # weights at their params' storage dtype, bias int32, knot codes at
        # their grid's storage dtype, knot values float64; each blob at its
        # rank, with a shape that agrees with its byte count
        data = mio.save(_toy_model()[0])
        table = "cells/main/tables/tanh_cell"
        edits = {
            "cells/main/wx": [("dtype", "int8", "dtype"), ("dtype", "float64", "dtype"),
                              ("shape", [48 * 12], "shape"), ("shape", [48, 13], "shape")],
            "cells/main/bias": [("dtype", "float32", "dtype"), ("dtype", "uint32", "dtype"),
                                ("shape", [48, 1], "shape")],
            f"{table}/q_knots": [("dtype", "float64", "dtype"), ("dtype", "uint16", "dtype"),
                                 ("shape", [1, 33], "shape")],
            f"{table}/values": [("dtype", "int64", "dtype"), ("dtype", "uint8", "dtype"),
                                ("shape", [33, 1], "shape"), ("shape", ["33"], "shape")],
        }
        for name, cases in edits.items():
            for key, value, match in cases:

                def edit(man):
                    man["blobs"][name][key] = value

                with pytest.raises(ValueError, match=match):
                    mio.load(reseal(data, edit))

    def test_model_kind_validation(self):
        model, _ = _toy_model()
        cell = model.cells["main"]
        with pytest.raises(ValueError, match="cells"):
            mio.IrnnModel("bilstm", {"main": cell})
        with pytest.raises(ValueError, match="kind"):
            mio.IrnnModel("gru", {"main": cell})
        with pytest.raises(ValueError, match="attention"):
            mio.IrnnModel("encdec", {"enc": cell, "dec": cell}, attention=None)


def _kind_models():
    """A MadNorm lstm, an 8-bit bilstm and a 16-bit MadNorm encdec."""
    rng = np.random.default_rng(42)
    n = m = 8
    cell = lambda prefix, **extra: {
        prefix + "wx": rng.normal(0.0, 0.3, size=(4 * m, n)),
        prefix + "wh": rng.normal(0.0, 0.3, size=(4 * m, m)),
        prefix + "bias": rng.normal(0.0, 0.1, size=4 * m),
        **extra,
    }
    encdec = mio.FloatModel("encdec", {
        **cell("enc_"),
        **cell("dec_", dec_ws=rng.normal(0.0, 0.3, size=(4 * m, m))),
        "att_wq": rng.normal(0.0, 0.4, size=(m, m)),
        "att_wk": rng.normal(0.0, 0.4, size=(m, m)),
        "att_v": rng.normal(0.0, 0.4, size=m),
    })
    calib = rng.normal(0.0, 1.0, size=(3, 6, n))
    cfg16 = CellConfig(cell_bits=16, preact_bits=16, use_madnorm=True, pwl_pieces=8)
    bilstm = mio.FloatModel("bilstm", {**cell("fwd_"), **cell("bwd_")})
    return [
        _toy_model(madnorm=True)[0],
        build_model(bilstm, calib, CellConfig(pwl_pieces=8)),
        build_model(encdec, calib, cfg16),
    ]


def _keys(node):
    """Every key of a JSON tree's objects."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _keys(v)


class TestFormat2:
    """What format 2 stopped storing stays out of the container."""

    def test_no_stored_config_multipliers_or_table_fields(self):
        banned = {"cfg", "fx_xprod", "fx_hprod", "in_params", "out_params",
                  "fraction_bits", "pieces", "tables", "exp_table", "tanh_table"}
        for model in _kind_models():
            man = manifest_of(mio.save(model))
            assert not banned & set(_keys({k: v for k, v in man.items() if k != "blobs"}))
            for entry in man["cells"].values():
                assert set(entry) == {"wx", "wh", "ws", "sites"}

    def test_each_table_is_two_blobs(self):
        for model in _kind_models():
            data = mio.save(model)
            blobs = manifest_of(data)["blobs"]
            tables = {}
            for name, entry in blobs.items():
                prefix, _, part = name.rpartition("/")
                if "/tables/" in prefix:
                    tables.setdefault(prefix, {})[part] = entry["dtype"]
            loaded = mio.load(data)
            live = {f"cells/{c}/tables/{t}": tab for c, cell in loaded.cells.items()
                    for t, tab in cell.tables.items()}
            if loaded.attention is not None:
                live["att/tables/exp"] = loaded.attention.tables["exp"]
                live["att/tables/tanh"] = loaded.attention.tables["tanh"]
            assert tables.keys() == live.keys()
            for prefix, parts in tables.items():
                grid = live[prefix].in_params
                assert parts == {"q_knots": np.dtype(grid.dtype).name, "values": "float64"}

    def test_load_rebuilds_every_derived_field(self):
        for model in _kind_models():
            loaded = mio.load(mio.save(model))
            for name, cell in model.cells.items():
                twin = loaded.cells[name]
                assert twin.use_madnorm == cell.use_madnorm
                for t in cell.tables:
                    a, b = cell.tables[t], twin.tables[t]
                    assert (a.in_params, a.out_params) == (b.in_params, b.out_params)
                    for field in ("knots", "slopes", "fx_slopes", "fx_intercepts", "lut"):
                        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestFormat3:
    """A format-3 grid is (bitwidth, scale, zero point), and a grid that the
    graph ties to another stage's is stored once, with its source."""

    def _params(self, node):
        """Every params object of a manifest tree: the dicts with a bitwidth."""
        if isinstance(node, dict):
            if "bitwidth" in node:
                yield node
            for value in node.values():
                yield from self._params(value)

    def test_grids_store_no_range(self):
        for model in _kind_models():
            params = list(self._params(manifest_of(mio.save(model))))
            assert len(params) >= 18
            for p in params:
                assert set(p) == {"bitwidth", "scale", "zero_point"}

    def test_each_tied_grid_stored_once(self):
        for model in _kind_models():
            ties = graph.graph_for(model.kind).ties
            assert bool(ties) == (model.kind != "lstm")
            man = manifest_of(mio.save(model))
            stored = {name: entry["sites"] for name, entry in man["cells"].items()}
            if man["attention"] is not None:
                stored["att"] = man["attention"]["sites"]
            loaded = mio.load(mio.save(model))
            for (stage, site), (src, src_site) in ties.items():
                assert site not in stored[stage] and src_site in stored[src]
                assert loaded.sites(stage)[site] is loaded.sites(src)[src_site]
                assert loaded.sites(stage)[site] == model.sites(stage)[site]

    def test_tied_copies_cannot_be_written(self):
        # the attention sites that copy the cells' (scale or zero point
        # edited) and a differing bwd.h: a manifest that stores one fails
        # the load, and a model cannot hold one, since assembling it and
        # re-assembling one with a replaced plan both fail
        _, bilstm, encdec = _kind_models()
        aw = encdec.attention.weights
        copies = [(encdec, ("attention",), site, aw.sites[site]) for site in ("hdec", "henc", "s")]
        copies.append((bilstm, ("cells", "bwd"), "h", bilstm.cells["fwd"].sites["h"]))
        for model, path, site, p in copies:
            for field in ("scale", "zero_point"):
                stored = {"bitwidth": p.bitwidth, "scale": p.scale, "zero_point": p.zero_point}
                stored[field] += stored[field] if field == "scale" else 1

                def add(man):
                    entry = man
                    for key in path:
                        entry = entry[key]
                    entry["sites"][site] = stored

                with pytest.raises(ValueError, match="tied site stored twice"):
                    mio.load(reseal(mio.save(model), add))
        for site in ("hdec", "henc", "s"):
            p = aw.sites[site]
            moved = QuantParams(p.bitwidth, p.scale * 2, p.zero_point)
            weights = AttentionWeights(aw.wq, aw.wk, aw.v, {**aw.sites, site: moved})
            plan = AttentionPlan(weights, encdec.attention.tables)
            with pytest.raises(graph.GraphError, match=f"tied-site-mismatch: att.{site}"):
                mio.IrnnModel("encdec", encdec.cells, attention=plan)
            kept = encdec.attention
            with pytest.raises(graph.GraphError, match=f"tied-site-mismatch: att.{site}"):
                dataclasses.replace(encdec, attention=plan)
            assert encdec.attention is kept
            mio.save(encdec)


class TestUnreadSites:
    """A stage takes exactly the sites it reads: a site outside that set,
    in a manifest or given to a stage, is refused with its name."""

    BOGUS = QuantParams(8, 0.01, 128)

    def test_manifest_with_an_unread_site_refused(self):
        stored = {"bitwidth": 8, "scale": 0.01, "zero_point": 128}
        for model in _kind_models():
            man = manifest_of(mio.save(model))
            entries = [("cells", name) for name in man["cells"]]
            if man["attention"] is not None:
                entries.append(("attention",))
            for path in entries:

                def add(man):
                    entry = man
                    for key in path:
                        entry = entry[key]
                    entry["sites"]["bogus"] = stored

                with pytest.raises(ValueError, match="unread-site: .* bogus$"):
                    mio.load(reseal(mio.save(model), add))

    def test_stage_given_an_unread_site_refused(self):
        _, bilstm, encdec = _kind_models()
        for cell in (*bilstm.cells.values(), *encdec.cells.values()):
            sites = {**cell.sites, "bogus": self.BOGUS, "alsobogus": self.BOGUS}
            with pytest.raises(ValueError, match="unread-site: the cell reads no alsobogus, bogus"):
                IntLstmCell(cell.weights, sites, cell.tables)
        aw = encdec.attention.weights
        weights = AttentionWeights(aw.wq, aw.wk, aw.v, {**aw.sites, "bogus": self.BOGUS})
        with pytest.raises(ValueError, match="unread-site: the attention reads no bogus"):
            AttentionPlan(weights, encdec.attention.tables)
        # a context-fed cell's s and preact are sites an lstm cell does not read
        dec, enc = encdec.cells["dec"], encdec.cells["enc"]
        sites = {**enc.sites, "s": dec.sites["s"], "preact": dec.sites["preact"]}
        with pytest.raises(ValueError, match="unread-site: the cell reads no preact, s"):
            IntLstmCell(enc.weights, sites, enc.tables)


class TestExactManifest:
    """The load reads exactly what save writes: a top-level key, a cell
    name or a field of a stage's entry that save does not write is
    refused with its name, where a load once dropped it silently."""

    @staticmethod
    def _edits(man) -> dict:
        edits = {
            "manifest field 'bogus'": lambda man: man.update(bogus=1),
            f"{man['kind']} cell 'ghost'": lambda man: man["cells"].update(ghost={"sites": {}}),
        }
        for name in man["cells"]:
            edits[f"cells/{name} field 'foo'"] = lambda man, n=name: man["cells"][n].update(foo=1)
        if man["attention"] is not None:
            edits["att field 'foo'"] = lambda man: man["attention"].update(foo=1)
        return edits

    def test_unwritten_field_refused(self):
        for model in _kind_models():
            data = mio.save(model)
            assert mio.save(mio.load(data)) == data
            edits = self._edits(manifest_of(data))
            assert len(edits) == 3 + len(model.cells) - (model.attention is None)
            for what, edit in edits.items():
                with pytest.raises(ValueError, match=f"malformed manifest: unknown {what}$"):
                    mio.load(reseal(data, edit))


class TestFormat4:
    """One CRC32 covers the container; a blob entry is its dtype and shape,
    and its place follows from name order; a cell has a bias exactly when
    its bias blob is stored."""

    # edits that format 3 loaded and ran with other outputs: a weight's
    # zero point, a site's scale, a dropped bias (the blob's entry deleted)
    FOUND_EDITS = {
        "zero-point": lambda man: man["cells"]["main"]["wx"].update(zero_point=0),
        "scale": lambda man: man["cells"]["main"]["sites"]["h"].update(
            scale=man["cells"]["main"]["sites"]["h"]["scale"] * 1.01
        ),
        "dropped-bias": lambda man: man["blobs"].pop("cells/main/bias"),
    }

    def test_manifest_holds_no_layout_or_repeated_fact(self):
        banned = {"offset", "nbytes", "crc32", "has_bias", "format_version"}
        for model in _kind_models() + [_toy_model(with_bias=False)[0]]:
            man = manifest_of(mio.save(model))
            assert not banned & set(_keys(man))
            for entry in man["blobs"].values():
                assert set(entry) == {"dtype", "shape"}

    def test_blobs_sit_in_name_order(self):
        # each blob starts where the padded blobs before it in name order end
        model, _ = _toy_model()
        data = mio.save(model)
        blobs, payload = manifest_of(data)["blobs"], payload_of(data)
        w, at = model.cells["main"].weights, 0
        stored = {"cells/main/wx": w.wx.data, "cells/main/wh": w.wh.data, "cells/main/bias": w.bias}
        for name in sorted(blobs):
            size = int(np.prod(blobs[name]["shape"])) * np.dtype(blobs[name]["dtype"]).itemsize
            if name in stored:
                le = stored[name].dtype.newbyteorder("<")
                assert payload[at : at + size] == stored[name].astype(le).tobytes()
            at += (size + 63) // 64 * 64
        assert at == len(payload)

    def test_blob_entry_holds_dtype_and_shape_only(self):
        # a format-3 layout field, or a missing shape, under a valid CRC
        data = mio.save(_toy_model()[0])
        edits = [lambda entry, f=f: entry.update({f: 0}) for f in ("offset", "nbytes", "crc32")]
        edits.append(lambda entry: entry.pop("shape"))
        for edit in edits:
            with pytest.raises(ValueError, match="is not a dtype and a shape"):
                mio.load(reseal(data, lambda man: edit(man["blobs"]["cells/main/wx"])))

    def test_bias_present_exactly_when_stored(self):
        for with_bias in (True, False):
            model, _ = _toy_model(with_bias=with_bias)
            data = mio.save(model)
            assert ("cells/main/bias" in manifest_of(data)["blobs"]) == with_bias
            bias = mio.load(data).cells["main"].weights.bias
            assert (bias is not None) == with_bias
            if with_bias:
                np.testing.assert_array_equal(bias, model.cells["main"].weights.bias)

    @pytest.mark.parametrize("edit", sorted(FOUND_EDITS))
    def test_edit_under_old_checksum_refused(self, edit):
        # resealed, the first two load (a tool that re-saves may make them)
        # and the third fails on its payload length
        data = mio.save(_toy_model()[0])
        if edit != "dropped-bias":
            mio.load(reseal(data, self.FOUND_EDITS[edit]))
        with pytest.raises(ValueError, match="checksum-mismatch"):
            mio.load(unsealed(data, self.FOUND_EDITS[edit]))

    def test_payload_length_must_match_shapes(self):
        # each under a valid CRC: one aligned block more or less, and a
        # dropped bias entry, whose bytes stay in the payload
        data = mio.save(_toy_model()[0])
        edited = [
            reseal(data, payload=lambda p: p + bytes(64)),
            reseal(data, payload=lambda p: p[:-64]),
            reseal(data, self.FOUND_EDITS["dropped-bias"]),
        ]
        for bad in edited:
            with pytest.raises(ValueError, match="payload-length-mismatch"):
                mio.load(bad)

    def test_header_layout(self):
        data = mio.save(_toy_model()[0])
        magic, version, _, mlen = HEADER.unpack_from(data)
        assert (magic, version) == (b"IRNN", 4)
        assert len(data) - len(payload_of(data)) == (HEADER.size + mlen + 63) // 64 * 64


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
        # the decoder reads the encoder's input, so both calibrate on it
        cal = rng.normal(0.0, 1.0, size=(4, T, n))
        enc = calibrate_lstm_cell(
            rng.normal(0.0, 0.3, size=(4 * m, n)),
            rng.normal(0.0, 0.3, size=(4 * m, m)),
            None,
            cal,
            CellConfig(),
        )
        s_seqs = rng.normal(0.0, 0.4, size=(4, T, m))
        dec = calibrate_lstm_cell(
            rng.normal(0.0, 0.3, size=(4 * m, n)),
            rng.normal(0.0, 0.3, size=(4 * m, m)),
            None,
            cal,
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
        # hdec, henc and s are tied to the cells' sites
        tied = {"hdec": dec.sites["h"], "henc": enc.sites["h"], "s": dec.sites["s"]}
        aw = AttentionWeights(aw.wq, aw.wk, aw.v, {**aw.sites, **tied})
        model = mio.IrnnModel(
            "encdec",
            {"enc": enc, "dec": dec},
            attention=AttentionPlan(aw, {"exp": expt, "tanh": tanht}),
        )
        loaded = mio.load(mio.save(model))
        la = loaded.attention
        qhd = quantize_tensor(rng.normal(0.0, 0.5, size=m), aw.sites["hdec"])
        qHe = quantize_tensor(rng.normal(0.0, 0.5, size=(T, m)), aw.sites["henc"])
        s1, e1 = attention_int(qhd, qHe, aw, expt, tanht)
        s2, e2 = attention_int(qhd, qHe, la.weights, la.tables["exp"], la.tables["tanh"])
        np.testing.assert_array_equal(s1.data, s2.data)
        np.testing.assert_array_equal(e1.data, e2.data)
        xs = rng.normal(0.0, 1.0, size=(T, n))
        ss = rng.normal(0.0, 0.4, size=(T, m))
        qxs = quantize_tensor(xs, dec.sites["x"])
        qss = quantize_tensor(ss, dec.sites["s"])
        context = lambda t, h: qss.data[t]
        np.testing.assert_array_equal(
            dec.run(qxs, context).data, loaded.cells["dec"].run(qxs, context).data
        )


class TestCompiledReplay:
    def test_load_rebuilds_no_table(self, monkeypatch):
        model, _ = _toy_model(madnorm=True)
        blob = mio.save(model)

        def rebuild(*args, **kwargs):
            raise AssertionError("load rebuilt a PWL table")

        for name in ("build_full", "reduce", "fit", "fit_tables"):
            monkeypatch.setattr(f"irnn.pwl.{name}", rebuild)
        loaded = mio.load(blob)
        assert mio.save(loaded) == blob

    def test_stored_arrays_cannot_be_edited_in_place(self):
        # an in-place edit of a weight, a bias, a table or a table's array
        # would change what save stores but not what the model runs, so
        # the saved container would load as another model: each raises,
        # and the saved bytes stay as they were
        for model in _kind_models():
            blob = mio.save(model)
            stages = list(model.cells.values())
            if model.attention is not None:
                stages.append(model.attention)
            for stage in stages:
                w = stage.weights
                arrays = [getattr(w, k).data for k in ("wx", "wh", "ws", "wq", "wk", "v")
                          if getattr(w, k, None) is not None]
                arrays += [w.bias] if getattr(w, "bias", None) is not None else []
                for name, t in stage.tables.items():
                    with pytest.raises(TypeError):
                        stage.tables[name] = t
                    arrays += [t.q_knots, t.values, t.knots, t.slopes, t.intercepts,
                               t.fx_slopes, t.fx_intercepts, t.lut]
                for a in arrays:
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0
            assert mio.save(model) == blob

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

    def test_meta_json_must_be_an_object(self):
        import io as _io

        rng = np.random.default_rng(42)
        weights = {k: rng.normal(size=(8, 2)).astype(np.float32) for k in ("wx", "wh")}
        for meta, ok in (("[1, 2]", False), ("5", False), ("null", False), ('"x"', False),
                         ('{"seed": 1}', True)):
            buf = _io.BytesIO()
            np.savez(buf, **weights, meta_json=np.array(meta))
            if ok:
                assert mio.load_float(buf.getvalue()).meta == {"seed": 1}
            else:
                with pytest.raises(ValueError, match="not a JSON object"):
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

    def test_raw_signalling_nan_rejected(self, tmp_path):
        # widening a signalling NaN sets the invalid flag; the load refuses
        # it as non-finite without a warning
        path = tmp_path / "snan.bin"
        path.write_bytes(struct.pack("<I2Q", 2, 1, 2) + struct.pack("<f", 1.0) + b"\x00\x00\xa0\x7f")
        with pytest.raises(ValueError, match="non-finite"):
            mio.load_calibration(path)

    def test_values_beyond_float32_rejected(self, tmp_path):
        # a CSV parses as float64, but data holds float32 values, as the raw
        # format does: larger ones could overflow the oracle's gate sums
        path = tmp_path / "big.csv"
        big = np.finfo(np.float32).max
        for value in (1e39, -1e308):
            mio.save_calibration(path, np.array([[0.5, value]]))
            with pytest.raises(ValueError, match="beyond float32"):
                mio.load_calibration(path)
        mio.save_calibration(path, np.array([[big, -big]]))
        assert mio.load_calibration(path).tolist() == [[[big, -big]]]

    def test_raw_dims_beyond_int64(self, tmp_path):
        path = tmp_path / "huge.bin"
        for dims in ((2**63, 2), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1)):
            path.write_bytes(struct.pack("<I2Q", 2, *dims) + bytes(8))
            with pytest.raises(ValueError, match="disagrees"):
                mio.load_calibration(path)
