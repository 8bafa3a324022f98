"""CLI subcommands: quantize/run/compare/bench/approx/table, exit codes."""

import csv
import json
import statistics
import struct
import time

import numpy as np
import pytest

from irnn import model_io as mio
from irnn.cli import main
from irnn.pwl import eval_int
from irnn.quant import QuantParams, derive_params
from irnn.rnn import IntLstmCell

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
        # shift the gate grid out from under the frozen tables
        sum1 = QuantParams(
            p.min + 3.0, p.max + 3.0, p.bitwidth, p.scale,
            max(0, p.zero_point - int(3.0 / p.scale)),
        )
        model.cells["main"] = IntLstmCell(
            cell.weights, cell.cfg, {**cell.sites, "sum1": sum1}, cell.tables
        )
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
    def test_csv_round_trips_losslessly(self, capsys, tmp_path):
        out = tmp_path / "tanh.csv"
        code, knots = _run(
            capsys, "approx", "--fn", "tanh", "--pieces", "16", "--out", str(out)
        )
        assert code == 0
        assert knots.splitlines()[0] == "q_knot,x_knot,f_knot"
        assert len(knots.strip().splitlines()) == 1 + 17
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "f", "g", "abs_err"]
        assert len(rows) == 1 + 256
        for x, fv, gv, err in rows[1:]:
            assert float(err) == abs(float(fv) - float(gv))

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


def _edit_manifest(path, mutate):
    """Rewrite a container's manifest in place; the blobs stay where they are."""
    head, align = struct.Struct("<4sIQ"), lambda n: (n + 63) // 64 * 64
    data = path.read_bytes()
    magic, version, mlen = head.unpack_from(data)
    manifest = json.loads(data[head.size : head.size + mlen])
    mutate(manifest)
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    pad = b"\0" * (align(head.size + len(body)) - head.size - len(body))
    blobs = data[align(head.size + mlen) :]
    path.write_bytes(head.pack(magic, version, len(body)) + body + pad + blobs)


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """A quantized lstm plus malformed data files and containers, by name."""
    d = tmp_path_factory.mktemp("bad")
    rng = np.random.default_rng(42)
    names = {"npz": "model.npz", "calib": "calib.bin", "model": "model.irnn", "nan": "nan.bin",
             "nan_npz": "nan.npz", "truncated": "truncated.bin", "out": "out.csv"}
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
    # rank 3 but only one of the three dims
    files["truncated"].write_bytes(struct.pack("<IQ", 3, 2))
    edits = {
        "fx_hprod": lambda man: man["cells"]["main"]["fx_hprod"].update(raw=12345),
        "no_site": lambda man: man["cells"]["main"]["sites"].pop("sum1"),
        "no_cells": lambda man: man.pop("cells"),
    }
    for name, mutate in edits.items():
        files[name] = d / f"{name}.irnn"
        files[name].write_bytes(files["model"].read_bytes())
        _edit_manifest(files[name], mutate)
    return {k: str(v) for k, v in files.items()}


_BAD_INPUTS = {
    "run-synth-0": (["run", "{model}", "--synth", "0"], 2),
    "compare-synth-0": (["compare", "{model}", "--synth", "0"], 2),
    "run-seq-len-0": (["run", "{model}", "--seq-len", "0"], 2),
    "bench-seq-len-0": (["bench", "{model}", "--seq-len", "0"], 2),
    "bench-runs-0": (["bench", "{model}", "--runs", "0"], 2),
    "quantize-pwl-pieces-0": (
        ["quantize", "{npz}", "--calib", "{calib}", "--out", "{out}", "--pwl-pieces", "0"], 2
    ),
    "approx-pieces-0": (["approx", "--fn", "tanh", "--pieces", "0", "--out", "{out}"], 2),
    "table-bits-1": (["table", "--bits", "1"], 2),
    "run-truncated-raw-header": (["run", "{model}", "--input", "{truncated}"], 3),
    "run-nan-input": (["run", "{model}", "--input", "{nan}"], 3),
    "compare-nan-input": (["compare", "{model}", "--input", "{nan}"], 3),
    "quantize-nan-calib": (["quantize", "{npz}", "--calib", "{nan}", "--out", "{out}"], 3),
    "quantize-nan-weights": (["quantize", "{nan_npz}", "--calib", "{calib}", "--out", "{out}"], 3),
    "run-edited-fx-hprod": (["run", "{fx_hprod}"], 3),
    "run-manifest-missing-site": (["run", "{no_site}"], 3),
    "run-manifest-missing-cells": (["run", "{no_cells}"], 3),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_cleanly(case, bad_files, capsys):
    # usage errors exit 2 and unreadable data or containers exit 3, each
    # with an error line; exit 1 stays reserved for tolerance failure
    argv, expected = _BAD_INPUTS[case]
    try:
        code = main([arg.format(**bad_files) for arg in argv])
    except SystemExit as e:  # argparse rejects the argument
        code = e.code
    err = capsys.readouterr().err
    assert code == expected
    assert "error:" in err and "Traceback" not in err


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

    def test_concat_params_mismatch_is_usage_error(self, capsys, tmp_path):
        path = _quantize(capsys, tmp_path, kind="bilstm", n_feat=10)
        model = mio.load_file(path)
        bwd = model.cells["bwd"]
        model.cells["bwd"] = IntLstmCell(
            bwd.weights, bwd.cfg, {**bwd.sites, "h": derive_params(-2.0, 2.0, 8)}, bwd.tables
        )
        mio.save_file(model, path)
        code = main(["run", str(path), "--synth", "2", "--seq-len", "5"])
        assert code == 2
        assert "concat-params-mismatch" in capsys.readouterr().err

    def test_attend_needs_encdec(self, capsys, tmp_path):
        model = _quantize(capsys, tmp_path)
        code, _ = _run(capsys, "run", str(model), "--attend")
        assert code == 2

    def test_log_env_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IRNN_LOG", "debug")
        code, out = _run(capsys, "table")
        assert code == 0
        assert out.strip().splitlines() == _TABLE_GOLDEN
