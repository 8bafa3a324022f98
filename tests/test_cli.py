"""CLI subcommands: quantize/run/compare/bench/approx/table, exit codes."""

import csv
import dataclasses
import io
import json
import os
import statistics
import struct
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from irnn import model_io as mio
from irnn import quant
from irnn.cli import build_model, main
from irnn.pwl import ACTIVATIONS, PwlTable, build_full, eval_int, fit, reduce
from irnn.quant import QuantParams
from irnn.rnn import CellConfig, IntLstmCell
from reseal import blob_zeroed, manifest_of, reseal, unsealed, with_length, with_manifest

_TABLE_GOLDEN = [
    "scaling,precision,signed_low,signed_high,unsigned_low,unsigned_high",
    "2^1,2.0,-256.0,254.0,0.0,510.0",
    "2^0,1.0,-128.0,127.0,0.0,255.0",
    "2^-1,0.5,-64.0,63.5,0.0,127.5",
    "2^-2,0.25,-32.0,31.75,0.0,63.75",
    "2^-3,0.125,-16.0,15.875,0.0,31.875",
    "2^-4,0.0625,-8.0,7.9375,0.0,15.9375",
    "2^-5,0.03125,-4.0,3.96875,0.0,7.96875",
    "2^-6,0.015625,-2.0,1.984375,0.0,3.984375",
    "2^-7,0.0078125,-1.0,0.9921875,0.0,1.9921875",
    "2^-8,0.00390625,-0.5,0.49609375,0.0,0.99609375",
]


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _lstm_npz(path, rng, n=12, m=12):
    np.savez(
        path,
        wx=rng.normal(0.0, 0.3, size=(4 * m, n)).astype(np.float32),
        wh=rng.normal(0.0, 0.3, size=(4 * m, m)).astype(np.float32),
        bias=rng.normal(0.0, 0.1, size=4 * m).astype(np.float32),
    )


def _bilstm_npz(path, rng, n=10, m=10):
    mk = lambda r, c: rng.normal(0.0, 0.3, size=(r, c)).astype(np.float32)
    np.savez(
        path,
        fwd_wx=mk(4 * m, n), fwd_wh=mk(4 * m, m),
        fwd_bias=rng.normal(0.0, 0.1, size=4 * m).astype(np.float32),
        bwd_wx=mk(4 * m, n), bwd_wh=mk(4 * m, m),
        bwd_bias=rng.normal(0.0, 0.1, size=4 * m).astype(np.float32),
    )


def _encdec_npz(path, rng, n=8, m=8, m_att=6):
    mk = lambda r, c: rng.normal(0.0, 0.3, size=(r, c)).astype(np.float32)
    np.savez(
        path,
        enc_wx=mk(4 * m, n), enc_wh=mk(4 * m, m),
        enc_bias=rng.normal(0.0, 0.1, size=4 * m).astype(np.float32),
        dec_wx=mk(4 * m, n), dec_wh=mk(4 * m, m),
        dec_bias=rng.normal(0.0, 0.1, size=4 * m).astype(np.float32),
        dec_ws=mk(4 * m, m),
        att_wq=rng.normal(0.0, 0.4, size=(m_att, m)).astype(np.float32),
        att_wk=rng.normal(0.0, 0.4, size=(m_att, m)).astype(np.float32),
        att_v=rng.normal(0.0, 0.4, size=m_att).astype(np.float32),
    )


def _quantize(capsys, tmp_path, kind="lstm", n_feat=12, extra=()):
    rng = np.random.default_rng(42)
    npz = tmp_path / "model.npz"
    {"lstm": _lstm_npz, "bilstm": _bilstm_npz, "encdec": _encdec_npz}[kind](npz, rng)
    calib = tmp_path / "calib.bin"
    mio.save_calibration(calib, rng.normal(0.0, 1.0, size=(8, 16, n_feat)))
    out = tmp_path / "model.irnn"
    code, _ = _run(
        capsys, "quantize", str(npz), "--calib", str(calib), "--out", str(out), *extra
    )
    assert code == 0
    return out


class TestTable:
    def test_golden_rows(self, capsys):
        code, out = _run(capsys, "table")
        assert code == 0
        assert out.strip().splitlines() == _TABLE_GOLDEN

    def test_widest_table(self, capsys):
        # 1022 is the widest width whose every entry is a finite float64; at
        # 1023 the top row's unsigned high is inf, a usage error
        # (test_bad_input_exits_cleanly)
        code, out = _run(capsys, "table", "--bits", "1022")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 1024
        assert rows[1].split(",")[4:] == ["0.0", repr(2.0**1023)]
        assert rows[-1].split(",")[:2] == ["2^-1022", repr(2.0**-1022)]


class TestQuantizeRunCompare:
    def test_lstm_pipeline(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        code, out = _run(capsys, "run", str(model), "--synth", "3", "--seq-len", "10")
        assert code == 0 and "lstm" in out
        code, out = _run(capsys, "compare", str(model), "--synth", "4")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["layers"]["out"]["mean_abs_err"] <= report["tolerance"]
        assert set(report["layers"]) == {"main", "out"}

    def test_bilstm_pipeline(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path, kind="bilstm", n_feat=10)
        code, out = _run(capsys, "compare", str(model), "--synth", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert set(report["layers"]) == {"fwd", "bwd", "out"}

    def test_encdec_pipeline_with_attend(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path, kind="encdec", n_feat=8)
        code, _ = _run(capsys, "run", str(model), "--attend", "--synth", "2")
        assert code == 0
        code, out = _run(capsys, "compare", str(model), "--synth", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert set(report["layers"]) == {"enc", "att", "dec", "out"}

    def test_madnorm_and_16bit_flags(self, capsys, tmp_path):
        model = _quantize(
            capsys, tmp_path,
            extra=("--madnorm", "--cell-bits", "16", "--preact-bits", "16"),
        )
        code, out = _run(capsys, "compare", str(model), "--synth", "3")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_pwl_piece_budgets_both_run(self, capsys, tmp_path):
        for pieces in ("8", "32"):
            model = _quantize(
                capsys, tmp_path, extra=("--pwl-pieces", pieces)
            )
            code, _ = _run(capsys, "run", str(model), "--synth", "2", "--seq-len", "6")
            assert code == 0

    def test_compare_report_deterministic(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        _, first = _run(capsys, "compare", str(model), "--synth", "3", "--seed", "7")
        _, again = _run(capsys, "compare", str(model), "--synth", "3", "--seed", "7")
        assert first == again

    def test_compare_fails_on_tampered_model(self, capsys, tmp_path):
        path = _quantize(capsys, tmp_path)
        model = mio.load_file(path)
        cell = model.cells["main"]
        p = cell.sites["sum1"]
        # shift the gate grid out from under the frozen knot codes
        sum1 = QuantParams(p.bitwidth, p.scale, max(0, p.zero_point - int(3.0 / p.scale)))
        sites = {**cell.sites, "sum1": sum1}
        tables = {
            name: PwlTable(cell.tables[name].q_knots, cell.tables[name].values, *grids)
            for name, grids in IntLstmCell.table_grids(sites).items()
        }
        model = dataclasses.replace(model, cells={"main": IntLstmCell(cell.weights, sites, tables)})
        mio.save_file(model, path)
        code, out = _run(capsys, "compare", str(path), "--synth", "3")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_run_csv_output(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        out = tmp_path / "h.csv"
        code, _ = _run(
            capsys, "run", str(model), "--synth", "2", "--seq-len", "5",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:2] == ["seq", "t"]
        assert len(rows) == 1 + 2 * 5

    def test_run_input_file(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        data = tmp_path / "xs.csv"
        rng = np.random.default_rng(3)
        mio.save_calibration(data, rng.normal(size=(7, 12)))
        code, out = _run(capsys, "run", str(model), "--input", str(data))
        assert code == 0 and "1 x 7" in out


class TestDeterminism:
    def test_threads_do_not_change_outputs(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        outs = []
        for threads in ("1", "4"):
            path = tmp_path / f"out{threads}.bin"
            code, _ = _run(
                capsys, "run", str(model), "--synth", "4", "--seq-len", "12",
                "--threads", threads, "--out", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_repeated_quantize_byte_identical(self, capsys, tmp_path):
        a = _quantize(capsys, tmp_path)
        blob_a = a.read_bytes()
        b = _quantize(capsys, tmp_path)
        assert blob_a == b.read_bytes()


class TestApprox:
    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("fn", sorted(ACTIVATIONS))
    def test_csv_round_trips_losslessly(self, capsys, tmp_path, fn, bits):
        out = tmp_path / f"{fn}.csv"
        code, knots = _run(
            capsys, "approx", "--fn", fn, "--bits", str(bits), "--pieces", "16",
            "--out", str(out),
        )
        assert code == 0
        lines = knots.strip().splitlines()
        assert lines[0] == "q_knot,x_knot,f_knot"
        assert len(lines) == 1 + 17
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "f", "g", "abs_err"]
        assert len(rows) == 1 + 2**bits
        for x, fv, gv, err in rows[1:]:
            assert float(err) == abs(float(fv) - float(gv))
        # each knot line is the csv row at its code, x and f alike
        for line in lines[1:]:
            q, x, fv = line.split(",")
            assert rows[1 + int(q)][:2] == [x, fv]

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("fn", ["exp", "gelu", "tanh"])
    def test_output_of_reduce_of_full(self, capsys, tmp_path, monkeypatch, fn, bits):
        # fit writes the bytes and prints the knots of the pair it replaces
        runs = []
        for name in ("fit", "pair"):
            if name == "pair":
                monkeypatch.setattr(
                    "irnn.cli.fit", lambda f, p_in, p_out, n: reduce(build_full(f, p_in, p_out), n)
                )
            out = tmp_path / f"{name}.csv"
            code, knots = _run(
                capsys, "approx", "--fn", fn, "--bits", str(bits), "--pieces", "16",
                "--out", str(out),
            )
            assert code == 0
            runs.append((out.read_bytes(), knots))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bits", [8, 16])
    def test_activation_evaluated_once(self, capsys, tmp_path, monkeypatch, bits):
        # fit takes the values already computed on its own grid, so the
        # output is that of a fit that evaluates the activation again
        fn, default_range = ACTIVATIONS["gelu"]
        calls = []

        def counted(x):
            calls.append(len(x))
            return fn(x)

        monkeypatch.setitem(ACTIVATIONS, "gelu", (counted, default_range))
        runs = []
        for name in ("given", "again"):
            if name == "again":
                monkeypatch.setattr("irnn.cli.fit", lambda _, *rest: fit(counted, *rest))
            out = tmp_path / f"{name}.csv"
            code, knots = _run(
                capsys, "approx", "--fn", "gelu", "--bits", str(bits), "--pieces", "16",
                "--out", str(out),
            )
            assert code == 0
            runs.append((out.read_bytes(), knots))
        assert calls == [2**bits] * 3
        assert runs[0] == runs[1]

    def test_more_pieces_tighter(self, capsys, tmp_path):
        errs = {}
        for pieces in (4, 16):
            out = tmp_path / f"tanh{pieces}.csv"
            _run(capsys, "approx", "--fn", "tanh", "--pieces", str(pieces),
                 "--out", str(out))
            with open(out, newline="") as f:
                rows = list(csv.reader(f))[1:]
            errs[pieces] = max(float(r[3]) for r in rows)
        assert errs[16] < errs[4]

    def test_exp_on_shifted_domain(self, capsys, tmp_path):
        out = tmp_path / "exp.csv"
        code, _ = _run(
            capsys, "approx", "--fn", "exp", "--range", "-10", "0",
            "--pieces", "32", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))[1:]
        # abs_err folds in the 8-bit output grid (step 1/255), not just the
        # piecewise fit; measured 0.0132 at 32 pieces
        assert max(float(r[3]) for r in rows) < 0.02

    def test_negative_exponent_range_operands(self, capsys, tmp_path):
        # argparse reads -1e1 as an option unless it is rewritten first,
        # after the flag or an abbreviation of it
        for fn, spelled, plain in (
            ("exp", ("--range", "-1e1", "0"), ("--range", "-10", "0")),
            ("tanh", ("--ran", "-2.5e-1", "2.5e-1"), ("--range", "-0.25", "0.25")),
        ):
            csvs = []
            for name, rng in (("spelled", spelled), ("plain", plain)):
                out = tmp_path / f"{fn}_{name}.csv"
                code, knots = _run(capsys, "approx", "--fn", fn, *rng, "--out", str(out))
                assert code == 0
                csvs.append((out.read_bytes(), knots))
            assert csvs[0] == csvs[1]

    def test_unknown_function_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["approx", "--fn", "sinh", "--out", str(tmp_path / "x.csv")])
        assert ei.value.code == 2

    def test_zero_excluded_range_is_usage_error(self, capsys, tmp_path):
        code, _ = _run(
            capsys, "approx", "--fn", "exp", "--range", "1", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestBench:
    def test_report_fields(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        code, out = _run(
            capsys, "bench", str(model), "--seq-len", "8", "--runs", "10",
            "--warmup", "2",
        )
        assert code == 0
        report = json.loads(out)
        t = report["timings"]
        assert t["int_step_ns"] > 0 and t["float_step_ns"] > 0
        assert t["float_over_int"] > 0
        assert t["runs"] == 10 and t["warmup"] == 2
        assert t["pwl_eval_ns"] > 0
        assert t["load_ns"] > 0
        assert report["size_ratio"] > 0

    def test_small_table_not_slower(self, capsys, tmp_path):
        # the same cell's sigmoid table with 8 vs 32 pieces, evaluated as
        # `irnn bench` does; the two sides alternate call by call, so a
        # shift in host speed hits both medians alike
        tables = {}
        for pieces in ("8", "32"):
            path = _quantize(capsys, tmp_path, extra=("--pwl-pieces", pieces))
            cell = mio.load_file(path).cells["main"]
            tables[pieces] = cell.tables["sigmoid"]
        p_in = tables["8"].in_params
        codes = np.random.default_rng(42).integers(
            p_in.qmin, p_in.qmax + 1, size=4 * cell.hidden_size
        ).astype(np.int64)
        samples = {pieces: [] for pieces in tables}
        for rnd in range(305):
            for pieces, table in tables.items():
                t0 = time.perf_counter_ns()
                eval_int(table, codes)
                if rnd >= 5:
                    samples[pieces].append(time.perf_counter_ns() - t0)
        evals = {pieces: statistics.median(ns) for pieces, ns in samples.items()}
        assert evals["8"] <= evals["32"] * 1.3


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """A quantized lstm plus malformed data files and containers, by name."""
    d = tmp_path_factory.mktemp("bad")
    rng = np.random.default_rng(42)
    names = {"npz": "model.npz", "calib": "calib.bin", "model": "model.irnn", "nan": "nan.bin",
             "nan_npz": "nan.npz", "truncated": "truncated.bin", "out": "out.csv",
             "v1": "v1.irnn", "v2": "v2.irnn", "v3": "v3.irnn"}
    files = {k: d / name for k, name in names.items()}
    _lstm_npz(files["npz"], rng)
    mio.save_calibration(files["calib"], rng.normal(0.0, 1.0, size=(4, 8, 12)))
    argv = ["quantize", str(files["npz"]), "--calib", str(files["calib"])]
    assert main(argv + ["--out", str(files["model"])]) == 0
    nan = rng.normal(0.0, 1.0, size=(2, 8, 12))
    nan[1, 3, 5] = np.nan
    mio.save_calibration(files["nan"], nan)
    _lstm_npz(files["nan_npz"], rng)
    with np.load(files["nan_npz"]) as archive:
        weights = dict(archive)
    weights["wh"][2, 1] = np.nan
    np.savez(files["nan_npz"], **weights)
    weights["wh"][2, 1] = 0.0
    # float archives whose arrays break the lstm layout [4m x n], [4m x m],
    # [4m], or whose finite weights overflow the float run or a multiplier
    probes = {
        "wh_cols": {"wh": weights["wh"][:, :-1]},
        "wx_rows": {"wx": weights["wx"][:-1]},
        "bias_5": {"bias": weights["bias"][:5]},
        "wx_rank3": {"wx": weights["wx"][..., None]},
        "wx_0d": {"wx": np.float32(1.0)},
        "wx_no_columns": {"wx": weights["wx"][:, :0]},
        "wx_1e308": {"wx": np.full(weights["wx"].shape, 1e308)},
        "tiny": {k: v.astype(np.float64) * 1e-300 for k, v in weights.items()},
    }
    for name, change in probes.items():
        files[name] = d / f"{name}.npz"
        np.savez(files[name], **{**weights, **change})
    files["npy"] = d / "wx.npy"
    np.save(files["npy"], weights["wx"])
    files["cut_npz"] = d / "cut.npz"
    files["cut_npz"].write_bytes(files["npz"].read_bytes()[:-100])
    # rank 3 but only one of the three dims
    files["truncated"].write_bytes(struct.pack("<IQ", 3, 2))
    for name, shape in (("no_seqs", (0, 4, 12)), ("no_steps", (1, 0, 12)),
                        ("no_steps_2d", (0, 12)), ("rank1", (12,)), ("rank4", (1, 2, 4, 12)),
                        ("calib5", (2, 8, 5))):
        files[name] = d / f"{name}.bin"
        mio.save_calibration(files[name], np.zeros(shape))
    # a container cut inside its 20-byte header, and one whose manifest
    # length runs past its last byte under a valid CRC32
    files["short"] = d / "short.irnn"
    files["short"].write_bytes(files["model"].read_bytes()[:19])
    files["long_manifest"] = d / "long_manifest.irnn"
    long_manifest = with_length(files["model"].read_bytes(), files["model"].stat().st_size)
    files["long_manifest"].write_bytes(long_manifest)
    for version in (1, 2, 3):
        old = bytearray(files["model"].read_bytes())
        old[4:8] = struct.pack("<I", version)
        files[f"v{version}"].write_bytes(bytes(old))
    tables = "cells/main/tables"
    edits = {
        "no_site": lambda man: man["cells"]["main"]["sites"].pop("sum1"),
        "no_cells": lambda man: man.pop("cells"),
        # the xprod multiplier no longer fits its fixed-point form
        "x_scale": lambda man: man["cells"]["main"]["sites"]["x"].update(scale=2.0**40),
        # QuantParams fields of the wrong type or value
        "float_bits": lambda man: man["cells"]["main"]["sites"]["h"].update(bitwidth=8.0),
        "frac_zero": lambda man: man["cells"]["main"]["sites"]["h"].update(zero_point=3.5),
        "nan_scale": lambda man: man["cells"]["main"]["sites"]["h"].update(scale=float("nan")),
        "bool_zero": lambda man: man["cells"]["main"]["sites"]["c"].update(zero_point=True),
        "inf_scale": lambda man: man["cells"]["main"]["sites"]["c"].update(scale=float("inf")),
        # a grid is bitwidth, scale and zero point; a stored range is refused
        "site_min": lambda man: man["cells"]["main"]["sites"]["x"].update(min=-1.0),
        # no build makes a 32-bit cell state, and no table spans one
        "c_32": lambda man: man["cells"]["main"]["sites"]["c"].update(bitwidth=32),
        # blobs retagged: the bytes stay valid, the dtype does not
        "float_knots": lambda man: man["blobs"][f"{tables}/sigmoid/q_knots"].update(dtype="float64"),
        "int_values": lambda man: man["blobs"][f"{tables}/sigmoid/values"].update(dtype="int32"),
        # meta must be a JSON object: the float export copies it into a dict
        "meta_str": lambda man: man.update(meta="x"),
        "meta_num": lambda man: man.update(meta=5),
        "meta_null": lambda man: man.update(meta=None),
        "meta_list": lambda man: man.update(meta=[1]),
        # fields save does not write, which a load once dropped silently
        "extra_key": lambda man: man.update(bogus=1),
        "ghost_cell": lambda man: man["cells"].update(ghost={"sites": {}}),
        "cell_field": lambda man: man["cells"]["main"].update(foo=1),
    }
    # edits that leave the container's CRC32 as it was: a weight's zero
    # point, a site's scale, a dropped bias (its blob's entry deleted)
    old_crc = {
        "zp_edit": lambda man: man["cells"]["main"]["wx"].update(zero_point=0),
        "scale_edit": lambda man: man["cells"]["main"]["sites"]["h"].update(
            scale=man["cells"]["main"]["sites"]["h"]["scale"] * 1.01
        ),
        "bias_edit": lambda man: man["blobs"].pop("cells/main/bias"),
    }
    data = files["model"].read_bytes()
    for name, mutate in edits.items():
        files[name] = d / f"{name}.irnn"
        files[name].write_bytes(reseal(data, mutate))
    for name, mutate in old_crc.items():
        files[name] = d / f"{name}.irnn"
        files[name].write_bytes(unsealed(data, mutate))
    # JSON nested deeper than the parser recurses, under a valid checksum
    files["nested"] = d / "nested.irnn"
    files["nested"].write_bytes(with_manifest(data, b"[" * 200_000))
    files["nested_npz"] = d / "nested_npz.npz"
    np.savez(files["nested_npz"], **weights, meta_json=np.array("[" * 200_000))
    files["list_meta_npz"] = d / "list_meta.npz"
    np.savez(files["list_meta_npz"], **weights, meta_json=np.array("[1, 2]"))
    # an encdec container whose exp table maps every code to 0, so that no
    # softmax denominator is positive
    _encdec_npz(d / "encdec.npz", rng)
    mio.save_calibration(d / "calib8.bin", rng.normal(0.0, 1.0, size=(4, 8, 8)))
    argv = ["quantize", str(d / "encdec.npz"), "--calib", str(d / "calib8.bin")]
    assert main(argv + ["--out", str(d / "encdec.irnn")]) == 0
    files["zero_exp"] = d / "zero_exp.irnn"
    zeroed = blob_zeroed((d / "encdec.irnn").read_bytes(), "att/tables/exp/values")
    files["zero_exp"].write_bytes(zeroed)
    # an encdec container whose query projection grid is 16-bit: the score
    # table spans two 8-bit projection grids only
    files["qproj_16"] = d / "qproj_16.irnn"
    wide = lambda man: man["attention"]["sites"]["qproj"].update(bitwidth=16)
    files["qproj_16"].write_bytes(reseal((d / "encdec.irnn").read_bytes(), wide))
    # preact paired wrongly with ws: a decoder without it, an encoder with
    # one on its sum1 grid, so that its tables read as they were stored
    enc_sites = lambda man: man["cells"]["enc"]["sites"]
    wirings = {
        "dec_no_preact": lambda man: man["cells"]["dec"]["sites"].pop("preact"),
        "enc_preact": lambda man: enc_sites(man).update(preact=enc_sites(man)["sum1"]),
    }
    for name, mutate in wirings.items():
        files[name] = d / f"{name}.irnn"
        files[name].write_bytes(reseal((d / "encdec.irnn").read_bytes(), mutate))
    return {k: str(v) for k, v in files.items()}


_BAD_INPUTS = {
    "run-synth-0": (["run", "{model}", "--synth", "0"], 2),
    "compare-synth-0": (["compare", "{model}", "--synth", "0"], 2),
    "run-seq-len-0": (["run", "{model}", "--seq-len", "0"], 2),
    "bench-seq-len-0": (["bench", "{model}", "--seq-len", "0"], 2),
    "bench-runs-0": (["bench", "{model}", "--runs", "0"], 2),
    "bench-warmup-negative": (["bench", "{model}", "--warmup", "-3"], 2, "at least 0"),
    "quantize-pwl-pieces-0": (
        ["quantize", "{npz}", "--calib", "{calib}", "--out", "{out}", "--pwl-pieces", "0"], 2
    ),
    "approx-pieces-0": (["approx", "--fn", "tanh", "--pieces", "0", "--out", "{out}"], 2),
    "approx-exp-overflows": (
        ["approx", "--fn", "exp", "--range", "-1", "1000", "--out", "{out}"], 2
    ),
    # a zero-width range would approximate over the identity grid, 0..255
    "approx-range-zero-width": (
        ["approx", "--fn", "tanh", "--range", "0", "0", "--out", "{out}"], 2, "degenerate-range"
    ),
    # -1e400 is -inf: the same refusal as an overflowing HI, not argparse's
    # "expected 2 arguments" for an operand it takes for an option
    "approx-range-lo-overflows": (
        ["approx", "--fn", "exp", "--range", "-1e400", "0", "--out", "{out}"], 2,
        "range bounds must be finite",
    ),
    "approx-range-lo-minus-inf": (
        ["approx", "--fn", "exp", "--range", "-inf", "0", "--out", "{out}"], 2,
        "range bounds must be finite",
    ),
    "approx-range-hi-minus-nan": (
        ["approx", "--fn", "exp", "--range", "-1", "-nan", "--out", "{out}"], 2,
        "range bounds must be finite",
    ),
    "table-bits-1": (["table", "--bits", "1"], 2),
    "table-bits-1023": (["table", "--bits", "1023"], 2, "at most 1022"),
    "table-bits-1025": (["table", "--bits", "1025"], 2, "at most 1022"),
    "table-bits-2000": (["table", "--bits", "2000"], 2, "at most 1022"),
    "run-truncated-raw-header": (["run", "{model}", "--input", "{truncated}"], 3),
    "run-nan-input": (["run", "{model}", "--input", "{nan}"], 3),
    "compare-nan-input": (["compare", "{model}", "--input", "{nan}"], 3),
    "quantize-nan-calib": (["quantize", "{npz}", "--calib", "{nan}", "--out", "{out}"], 3),
    "quantize-nan-weights": (["quantize", "{nan_npz}", "--calib", "{calib}", "--out", "{out}"], 3),
    "quantize-npy-archive": (
        ["quantize", "{npy}", "--calib", "{calib}", "--out", "{out}"], 3, "not an .npz archive"
    ),
    "quantize-truncated-archive": (
        ["quantize", "{cut_npz}", "--calib", "{calib}", "--out", "{out}"], 3, "archive is corrupt"
    ),
    "quantize-wh-columns": (
        ["quantize", "{wh_cols}", "--calib", "{calib}", "--out", "{out}"], 3, "float-model-shape: wh"
    ),
    "quantize-wx-rows": (
        ["quantize", "{wx_rows}", "--calib", "{calib}", "--out", "{out}"], 3, "float-model-shape: wx"
    ),
    "quantize-bias-length-5": (
        ["quantize", "{bias_5}", "--calib", "{calib}", "--out", "{out}"], 3,
        "float-model-shape: bias",
    ),
    "quantize-wx-rank-3": (
        ["quantize", "{wx_rank3}", "--calib", "{calib}", "--out", "{out}"], 3,
        "float-model-shape: wx",
    ),
    "quantize-wx-0d": (
        ["quantize", "{wx_0d}", "--calib", "{calib}", "--out", "{out}"], 3, "float-model-shape: wx"
    ),
    "quantize-wx-no-columns": (
        ["quantize", "{wx_no_columns}", "--calib", "{calib}", "--out", "{out}"], 3,
        "float-model-shape: wx",
    ),
    "quantize-float-run-overflows": (
        ["quantize", "{wx_1e308}", "--calib", "{calib}", "--out", "{out}"], 3, "cannot calibrate"
    ),
    "quantize-multiplier-overflows": (
        ["quantize", "{tiny}", "--calib", "{calib}", "--out", "{out}"], 3, "cannot calibrate"
    ),
    "run-v1-container": (["run", "{v1}"], 3),
    "run-v2-container": (["run", "{v2}"], 3),
    "run-v3-container": (["run", "{v3}"], 3, "unsupported-version"),
    "run-edited-zero-point": (["run", "{zp_edit}"], 3, "checksum-mismatch"),
    "run-edited-scale": (["run", "{scale_edit}"], 3, "checksum-mismatch"),
    "run-dropped-bias-entry": (["run", "{bias_edit}"], 3, "checksum-mismatch"),
    "run-32-bit-cell-state": (["run", "{c_32}"], 3),
    "run-float-knot-codes": (["run", "{float_knots}"], 3),
    "run-int-knot-values": (["run", "{int_values}"], 3),
    "run-no-sequences": (["run", "{model}", "--input", "{no_seqs}"], 3),
    "run-no-timesteps": (["run", "{model}", "--input", "{no_steps}"], 3),
    "run-no-timesteps-2d": (["run", "{model}", "--input", "{no_steps_2d}"], 3),
    "compare-no-sequences": (["compare", "{model}", "--input", "{no_seqs}"], 3),
    "compare-no-timesteps": (["compare", "{model}", "--input", "{no_steps}"], 3),
    "quantize-no-sequences": (["quantize", "{npz}", "--calib", "{no_seqs}", "--out", "{out}"], 3),
    "quantize-no-timesteps": (["quantize", "{npz}", "--calib", "{no_steps}", "--out", "{out}"], 3),
    "quantize-no-timesteps-2d": (
        ["quantize", "{npz}", "--calib", "{no_steps_2d}", "--out", "{out}"], 3
    ),
    "run-rank-1-input": (["run", "{model}", "--input", "{rank1}"], 3,
                         "must be [T x n] or [N x T x n]"),
    "run-rank-4-input": (["run", "{model}", "--input", "{rank4}"], 3,
                         "must be [T x n] or [N x T x n]"),
    "quantize-calib-width-5": (["quantize", "{npz}", "--calib", "{calib5}", "--out", "{out}"], 2,
                               "dimension mismatch"),
    "run-short-header": (["run", "{short}"], 3, "missing header"),
    "run-manifest-past-payload": (["run", "{long_manifest}"], 3, "manifest exceeds payload"),
    "run-threads-0": (["run", "{model}", "--threads", "0"], 2),
    "run-threads-negative": (["run", "{model}", "--threads", "-3"], 2),
    "compare-threads-0": (["compare", "{model}", "--threads", "0"], 2),
    "run-manifest-missing-site": (["run", "{no_site}"], 3),
    "run-manifest-missing-cells": (["run", "{no_cells}"], 3),
    "run-multiplier-overflows": (["run", "{x_scale}"], 3),
    "run-float-bitwidth": (["run", "{float_bits}"], 3),
    "run-fractional-zero-point": (["run", "{frac_zero}"], 3),
    "run-nan-scale": (["run", "{nan_scale}"], 3),
    "run-bool-zero-point": (["run", "{bool_zero}"], 3),
    "run-inf-scale": (["run", "{inf_scale}"], 3),
    "run-site-with-range": (["run", "{site_min}"], 3),
    "compare-meta-string": (["compare", "{meta_str}"], 3),
    "compare-meta-number": (["compare", "{meta_num}"], 3),
    "compare-meta-null": (["compare", "{meta_null}"], 3),
    "compare-meta-list": (["compare", "{meta_list}"], 3),
    "run-nested-manifest": (["run", "{nested}"], 3, "malformed manifest"),
    "run-manifest-extra-key": (["run", "{extra_key}"], 3, "unknown manifest field 'bogus'"),
    "run-manifest-extra-cell": (["run", "{ghost_cell}"], 3, "unknown lstm cell 'ghost'"),
    "run-manifest-extra-cell-field": (["run", "{cell_field}"], 3, "unknown cells/main field 'foo'"),
    # synthetic inputs past numpy's size limit (2^40 x 2^20 x 12 float64s)
    # or past the 47-bit address space (>= 1 PiB), so none commits memory
    "run-synth-past-size-limit": (
        ["run", "{model}", "--synth", "1099511627776", "--seq-len", "1048576"], 2, "too large"
    ),
    "compare-synth-past-address-space": (
        ["compare", "{model}", "--synth", "1000000000", "--seq-len", "1000000"], 2, "too large"
    ),
    "bench-seq-len-past-address-space": (
        ["bench", "{model}", "--seq-len", "100000000000000"], 2, "too large"
    ),
    "bench-seq-len-past-size-limit": (
        ["bench", "{model}", "--seq-len", "1000000000000000000"], 2, "too large"
    ),
    "run-zero-exp-table": (["run", "{zero_exp}"], 3, "softmax-denominator"),
    "run-16-bit-qproj": (["run", "{qproj_16}"], 3, "score-table"),
    "run-decoder-without-preact": (["run", "{dec_no_preact}"], 3, "uncalibrated-tensor: preact"),
    "run-encoder-with-preact": (["run", "{enc_preact}"], 3, "unread-site: the cell reads no preact"),
    "quantize-nested-meta": (
        ["quantize", "{nested_npz}", "--calib", "{calib}", "--out", "{out}"], 3, "malformed meta"
    ),
    "quantize-list-meta": (
        ["quantize", "{list_meta_npz}", "--calib", "{calib}", "--out", "{out}"], 3,
        "not a JSON object",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_cleanly(case, bad_files, capsys):
    # usage errors exit 2 and unreadable data or containers exit 3, each
    # with an error line (naming the fault, where a case gives it); exit 1
    # stays reserved for tolerance failure
    argv, expected, *fault = _BAD_INPUTS[case]
    try:
        code = main([arg.format(**bad_files) for arg in argv])
    except SystemExit as e:  # argparse rejects the argument
        code = e.code
    err = capsys.readouterr().err
    assert code == expected
    assert "error:" in err and "Traceback" not in err
    assert all(f in err for f in fault)


def test_runtime_overflow_exits_4(bad_files, capsys, monkeypatch):
    # with the int32 GEMV bound lowered, the cells load with a per-call
    # accumulator check, which the first step then fails
    monkeypatch.setattr(quant, "_INT32_MAX", 1000)
    for cmd in ("run", "compare"):
        assert main([cmd, bad_files["model"], "--synth", "1", "--seq-len", "3"]) == 4
        err = capsys.readouterr().err
        assert "error: arithmetic overflow" in err and "Traceback" not in err


class TestExitCodes:
    def test_missing_model_is_io_error(self, capsys, tmp_path):
        code, _ = _run(capsys, "run", str(tmp_path / "none.irnn"))
        assert code == 3

    def test_missing_calib_is_io_error(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        npz = tmp_path / "m.npz"
        _lstm_npz(npz, rng)
        code, _ = _run(
            capsys, "quantize", str(npz), "--calib", str(tmp_path / "none.bin"),
            "--out", str(tmp_path / "m.irnn"),
        )
        assert code == 3

    def test_corrupt_model_is_io_error(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        blob = bytearray(model.read_bytes())
        blob[-10] ^= 0xFF
        model.write_bytes(bytes(blob))
        code, _ = _run(capsys, "run", str(model))
        assert code == 3

    def test_dimension_mismatch_is_usage_error(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        bad = tmp_path / "bad.csv"
        mio.save_calibration(bad, np.zeros((5, 3)))
        code, _ = _run(capsys, "run", str(model), "--input", str(bad))
        assert code == 2

    def test_stored_tied_site_is_io_error(self, capsys, tmp_path):
        # bwd.h is fwd.h's grid and stored once, with fwd; a container that
        # stores a second, differing copy is refused at load
        path = _quantize(capsys, tmp_path, kind="bilstm", n_feat=10)
        h = {"bitwidth": 8, "scale": 4.0 / 255, "zero_point": 128}
        stored = lambda man: man["cells"]["bwd"]["sites"].update(h=h)
        path.write_bytes(reseal(path.read_bytes(), stored))
        code = main(["run", str(path), "--synth", "2", "--seq-len", "5"])
        assert code == 3
        assert "tied site stored twice: bwd.h" in capsys.readouterr().err

    def test_unread_site_is_io_error(self, capsys, tmp_path):
        # a site the cell does not read, added to its manifest entry
        path = _quantize(capsys, tmp_path)
        bogus = {"bitwidth": 8, "scale": 0.01, "zero_point": 128}
        stored = lambda man: man["cells"]["main"]["sites"].update(bogus=bogus)
        path.write_bytes(reseal(path.read_bytes(), stored))
        code = main(["run", str(path), "--synth", "2", "--seq-len", "5"])
        assert code == 3
        assert "unread-site: the cell reads no bogus" in capsys.readouterr().err

    def test_attend_needs_encdec(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        code, _ = _run(capsys, "run", str(model), "--attend")
        assert code == 2

    def test_bidirectional_input_width_is_io_error(self, capsys, tmp_path):
        # every cell reads the model input, so a backward cell of another
        # width is a malformed archive, whatever the data's width
        rng = np.random.default_rng(42)
        npz, calib = tmp_path / "m.npz", tmp_path / "c.bin"
        _bilstm_npz(npz, rng)
        with np.load(npz) as archive:
            arrays = dict(archive)
        np.savez(npz, **{**arrays, "bwd_wx": arrays["bwd_wx"][:, :-1]})
        mio.save_calibration(calib, rng.normal(0.0, 1.0, size=(2, 5, 10)))
        out = tmp_path / "m.irnn"
        code = main(["quantize", str(npz), "--calib", str(calib), "--out", str(out)])
        assert code == 3
        assert "float-model-shape: bwd_wx is (40, 9)" in capsys.readouterr().err

    def test_closed_pipe_exits_141_silently(self):
        # a reader that leaves early is not an I/O error: no error line, no
        # shutdown message, and 128 + SIGPIPE, which no other outcome uses
        path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        # about 1 MB of rows, far more than a pipe buffers
        with subprocess.Popen(
            [sys.executable, "-m", "irnn.cli", "table", "--bits", "1022"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(b"scaling,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_log_env_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IRNN_LOG", "debug")
        code, out = _run(capsys, "table")
        assert code == 0
        assert out.strip().splitlines() == _TABLE_GOLDEN


def _leaves(node, path=()):
    """The path of every leaf of a JSON tree (dict keys and list indices)."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


_EXTREMES = (0, -1, 2**31, 2**63, -(2**63), 2**100, 1e308, -1e308, 1e-308, 0.5,
             float("inf"), float("nan"), True, None, "x", [], {})


def _mutate(data: bytes, rng) -> bytes:
    """One seeded mutation: a manifest leaf set to an extreme value,
    retyped or deleted (under a recomputed CRC32), a flipped bit, or a
    truncation."""
    kind = int(rng.integers(5))
    if kind == 3:
        out = bytearray(data)
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == 4:
        return data[: int(rng.integers(len(data)))]
    manifest = manifest_of(data)
    leaves = list(_leaves(manifest))
    path = leaves[int(rng.integers(len(leaves)))]

    def edit(man):
        *parent, key = path
        for k in parent:
            man = man[k]
        if kind == 0:
            man[key] = _EXTREMES[int(rng.integers(len(_EXTREMES)))]
        elif kind == 1:
            man[key] = (str(man[key]), [man[key]])[int(rng.integers(2))]
        else:
            del man[key]

    # resealed, so the mutation reaches the field checks past the CRC32
    return reseal(data, edit)


def _fuzz_arrays(kind: str, rng) -> dict:
    """The float arrays of a small model of each graph kind, n = 3, m = 4."""
    n, m = 3, 4
    cell = lambda prefix: {
        prefix + "wx": rng.normal(0.0, 0.3, size=(4 * m, n)),
        prefix + "wh": rng.normal(0.0, 0.3, size=(4 * m, m)),
        prefix + "bias": rng.normal(0.0, 0.1, size=4 * m),
    }
    arrays = {
        "lstm": lambda: cell(""),
        "bilstm": lambda: {**cell("fwd_"), **cell("bwd_")},
        "encdec": lambda: {
            **cell("enc_"), **cell("dec_"),
            "dec_ws": rng.normal(0.0, 0.3, size=(4 * m, m)),
            "att_wq": rng.normal(0.0, 0.4, size=(m, m)),
            "att_wk": rng.normal(0.0, 0.4, size=(m, m)),
            "att_v": rng.normal(0.0, 0.4, size=m),
        },
    }
    return arrays[kind]()


def _fuzz_model(kind: str, rng) -> mio.IrnnModel:
    """A small model of each graph kind: lstm with MadNorm, bilstm, encdec."""
    cfg = CellConfig(use_madnorm=kind == "lstm", pwl_pieces=4)
    arrays = _fuzz_arrays(kind, rng)
    return build_model(mio.FloatModel(kind, arrays), rng.normal(size=(2, 5, 3)), cfg)


@pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
def test_mutated_containers_exit_cleanly(kind, tmp_path, capsys):
    # 400 seeded mutations of one small container of each graph kind, each
    # through `irnn run` and `irnn compare`: every one exits with a
    # documented code, and every failure with an error line instead of a
    # traceback (compare may also exit 1, a tolerance failure)
    rng = np.random.default_rng(42)
    data = mio.save(_fuzz_model(kind, rng))
    path = tmp_path / "fuzz.irnn"
    codes = Counter()
    for _ in range(400):
        path.write_bytes(_mutate(data, rng))
        for cmd, passed in (("run", (0,)), ("compare", (0, 1))):
            code = main([cmd, str(path), "--synth", "1", "--seq-len", "2"])
            err = capsys.readouterr().err
            assert code in passed + (2, 3, 4)
            assert "Traceback" not in err
            assert code in passed or err.startswith("error:")
            if cmd == "run":
                codes[code] += 1
    # most mutations break the container; some (a `meta` value, a scale or
    # zero point that still compiles) do not
    assert codes[3] > codes[0] > 0


# values a raw data header's rank or dims are set to
_HEADER_EXTREMES = (0, 1, 2, 3, 4, 5, 2**31, 2**32 - 1)
_DIM_EXTREMES = (0, 1, 2**31, 2**32, 2**63, 2**64 - 1)
# fields a CSV cell is set to
_CSV_EXTREMES = (b"", b"x", b"nan", b"-inf", b"1e999", b"1e38", b"-1e308", b"0x10", b",", b"\n")


def _mutate_data(data: bytes, csv_file: bool, rng) -> bytes:
    """One seeded mutation of a data file: a flipped bit, a truncation, or
    (raw) its rank or one dim set to an extreme, or (CSV) one field set to
    an extreme."""
    kind = int(rng.integers(3))
    if kind == 0:
        out = bytearray(data)
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == 1:
        return data[: int(rng.integers(len(data)))]
    if csv_file:
        fields = data.split(b",")
        at = int(rng.integers(len(fields)))
        fields[at] = _CSV_EXTREMES[int(rng.integers(len(_CSV_EXTREMES)))]
        return b",".join(fields)
    (ndim,) = struct.unpack_from("<I", data)
    at = int(rng.integers(ndim + 1))
    if at == 0:
        value = _HEADER_EXTREMES[int(rng.integers(len(_HEADER_EXTREMES)))]
        return struct.pack("<I", value) + data[4:]
    value = _DIM_EXTREMES[int(rng.integers(len(_DIM_EXTREMES)))]
    pos = 4 + 8 * (at - 1)
    return data[:pos] + struct.pack("<Q", value) + data[pos + 8 :]


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_mutated_data_files_exit_cleanly(suffix, bad_files, tmp_path, capsys):
    # 40 seeded mutations of a small raw and a small CSV data file, each
    # through `irnn run --input`, `irnn compare --input` and `irnn quantize
    # --calib`: every one exits 0, 1 (compare only), 2 or 3, and every
    # failure with an error line instead of a traceback
    rng = np.random.default_rng(42)
    clean = tmp_path / f"clean{suffix}"
    mio.save_calibration(clean, rng.normal(0.0, 1.0, size=(1 if suffix == ".csv" else 2, 4, 12)))
    data = clean.read_bytes()
    path, out = tmp_path / f"fuzz{suffix}", str(tmp_path / "fuzz.irnn")
    commands = {
        "run": (["run", bad_files["model"], "--input", str(path)], (0,)),
        "compare": (["compare", bad_files["model"], "--input", str(path)], (0, 1)),
        "quantize": (
            ["quantize", bad_files["npz"], "--calib", str(path), "--out", out, "--pwl-pieces", "4"],
            (0,),
        ),
    }
    codes = Counter()
    for _ in range(40):
        path.write_bytes(_mutate_data(data, suffix == ".csv", rng))
        for cmd, (argv, passed) in commands.items():
            code = main(argv)
            captured = capsys.readouterr()
            assert code in passed + (2, 3), (cmd, captured.err)
            assert "Traceback" not in captured.err
            assert code in passed or captured.err.startswith("error:")
            codes[code] += 1
    assert codes[3] > codes[0] > 0


# what a float archive's array is filled with, retyped to, or reshaped by
_WEIGHT_EXTREMES = (0.0, 1e308, -1e308, 1e30, 1e-300, 1e-320, np.nan, -np.inf)
_WEIGHT_DTYPES = (np.int8, np.bool_, np.float16, np.complex64, np.str_)
_RESHAPES = (
    lambda a: a[None], lambda a: a.reshape(-1), lambda a: a[:-1], lambda a: a.T,
    lambda a: a.reshape(-1)[:1].reshape(()),
)


def _mutate_archive(arrays: dict, rng) -> bytes:
    """One seeded mutation of a float model archive: a flipped bit or a
    truncation of its bytes; one array filled with an extreme value,
    retyped, reshaped (an axis added, dropped or shortened, or the array
    transposed or made 0-d) or deleted; or a `kind` or `meta_json` tag."""
    buf = io.BytesIO()
    kind = int(rng.integers(7))
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    arrays = dict(arrays)
    key = pick(sorted(arrays))
    if kind == 2:
        arrays[key] = np.full(arrays[key].shape, pick(_WEIGHT_EXTREMES))
    elif kind == 3:
        arrays[key] = arrays[key].astype(pick(_WEIGHT_DTYPES))
    elif kind == 4:
        arrays[key] = pick(_RESHAPES)(arrays[key])
    elif kind == 5:
        del arrays[key]
    elif kind == 6:
        arrays[pick(("kind", "meta_json"))] = pick(("lstm", "bilstm", "encdec", "gru", "{", "[]"))
    np.savez(buf, **arrays)
    data = buf.getvalue()
    if kind == 0:
        out = bytearray(data)
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
        return bytes(out)
    return data[: int(rng.integers(len(data)))] if kind == 1 else data


@pytest.mark.parametrize("kind", ["lstm", "bilstm", "encdec"])
def test_mutated_float_archives_exit_cleanly(kind, tmp_path, capsys):
    # 40 seeded mutations of a small float archive of each graph kind, each
    # through `irnn quantize`: every one exits 0 or 3, and every failure
    # with an error line instead of a traceback (a warning fails the test)
    rng = np.random.default_rng(42)
    arrays = _fuzz_arrays(kind, rng)
    calib, path, out = tmp_path / "calib.bin", tmp_path / "fuzz.npz", str(tmp_path / "fuzz.irnn")
    mio.save_calibration(calib, rng.normal(size=(2, 5, 3)))
    codes = Counter()
    for _ in range(40):
        path.write_bytes(_mutate_archive(arrays, rng))
        code = main(["quantize", str(path), "--calib", str(calib), "--out", out,
                     "--pwl-pieces", "4"])
        err = capsys.readouterr().err
        assert code in (0, 3), err
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error:")
        codes[code] += 1
    assert codes[3] > codes[0] > 0
