"""Command-line front end.

Subcommands: quantize (calibrate a float model into .irnn), approx (PWL
table CSV), run (integer inference), compare (integer vs float report),
bench (timing report), table (fixed-point format table).

Exit codes: 0 success, 1 tolerance failure, 2 usage error, 3 I/O error.
The IRNN_LOG environment variable (debug/info/warning/error) sets log
verbosity.  All randomness sits behind --seed; bench timings are the only
nondeterministic output.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import graph
from . import model_io as mio
from .fixedpoint import format_table
from .pwl import ACTIVATIONS, activation_registry, build_full, eval_float, eval_int, reduce
from .quant import Observer, derive_params
from .rnn import CellConfig

__all__ = [
    "RunReport",
    "build_model",
    "main",
    "run_model_int",
    "run_model_ref",
]

log = logging.getLogger("irnn")

# frozen per-configuration output tolerances used by `compare`; the gate is
# on MEAN absolute error: recurrent feedback makes the max a heavy-tailed
# statistic (closed-loop trajectories occasionally diverge at one element
# before re-converging), while the mean stays two orders tighter
_MEAN_TOLERANCES = {8: 0.02, 16: 0.01}
_MADNORM_MEAN_TOLERANCE = 0.08


class CliError(Exception):
    exit_code = 2


class CliIOError(CliError):
    exit_code = 3


@dataclass
class RunReport:
    """What compare/bench print: per-layer errors, timings, sizes."""

    layers: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    model_bytes: int = 0
    float_bytes: int = 0
    size_ratio: float = 0.0
    tolerance: float | None = None
    passed: bool | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


# ---------------------------------------------------------------- building


def _cell_tolerance(cell) -> float:
    if cell.cfg.use_madnorm:
        return _MADNORM_MEAN_TOLERANCE
    return _MEAN_TOLERANCES[cell.cfg.cell_bits]


def model_tolerance(model: mio.IrnnModel) -> float:
    return max(_cell_tolerance(c) for c in model.cells.values())


def build_model(
    fm: mio.FloatModel, seqs: np.ndarray, cfg: CellConfig, meta: dict | None = None
) -> mio.IrnnModel:
    """Calibrate a float model over [N x T x n] sequences (see graph.calibrate)."""
    model = graph.calibrate(fm, seqs, cfg)
    model.meta.update(meta or {})
    log.info("calibrated %s model, %d parameters", model.kind, model.num_params())
    return model


# ---------------------------------------------------------------- running


def run_model_int(model: mio.IrnnModel, seqs, threads: int = 1) -> dict:
    """Batch integer inference; sequences are independent, so any thread
    count produces bitwise-identical results."""
    return graph.run_batch(graph.run_int, model, seqs, threads)


def run_model_ref(fm: mio.FloatModel, seqs, threads: int = 1) -> dict:
    """Batch float64 oracle with the traces of run_model_int."""
    return graph.run_batch(graph.run_ref, fm, seqs, threads)


# ---------------------------------------------------------------- plumbing


def _read(load, what: str, path):
    """load(path), with an unreadable or malformed file as an I/O error."""
    try:
        return load(path)
    except OSError as e:
        raise CliIOError(f"cannot read {what} {path!r}: {e}") from e
    except ValueError as e:
        raise CliIOError(f"cannot load {what} {path!r}: {e}") from e


def _gather_inputs(args, model: mio.IrnnModel) -> np.ndarray:
    n_in = model.input_cell.input_size
    if args.input is not None:
        seqs = _read(mio.load_calibration, "data", args.input)
        if seqs.shape[2] != n_in:
            raise CliError(
                f"dimension mismatch: model expects {n_in} features, "
                f"data has {seqs.shape[2]}"
            )
        return seqs
    rng = np.random.default_rng(args.seed)
    return rng.normal(0.0, 1.0, size=(args.synth, args.seq_len, n_in))


def _write_outputs(path, outs: np.ndarray) -> None:
    if str(path).lower().endswith(".csv"):
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["seq", "t"] + [f"y{i}" for i in range(outs.shape[2])])
            for i in range(outs.shape[0]):
                for t in range(outs.shape[1]):
                    wr.writerow([i, t] + [repr(float(v)) for v in outs[i, t]])
    else:
        mio.save_calibration(path, outs)


def _layer_stats(int_traces: dict, ref_traces: dict) -> dict:
    stats = {}
    for key in sorted(int_traces):
        if key == "out":
            continue
        err = np.abs(int_traces[key] - ref_traces[key])
        stats[key] = {
            "mean_abs_err": float(err.mean()),
            "max_abs_err": float(err.max()),
        }
    return stats


# ---------------------------------------------------------------- commands


def cmd_quantize(args) -> int:
    fm = _read(mio.load_float, "float model", args.float_model)
    seqs = _read(mio.load_calibration, "data", args.calib)
    cfg = CellConfig(
        cell_bits=args.cell_bits,
        preact_bits=args.preact_bits,
        use_madnorm=args.madnorm,
        pwl_pieces=args.pwl_pieces,
    )
    model = build_model(fm, seqs, cfg, meta={"seed": args.seed})
    try:
        mio.save_file(model, args.out)
    except OSError as e:
        raise CliIOError(f"cannot write {args.out!r}: {e}") from e
    size = os.path.getsize(args.out)
    print(f"wrote {args.out} ({model.kind}, {model.num_params()} params, {size} bytes)")
    return 0


def cmd_approx(args) -> int:
    fn, default_range = activation_registry(args.fn)
    lo, hi = args.range if args.range is not None else default_range
    try:
        p_in = derive_params(lo, hi, args.bits)
    except ValueError as e:
        raise CliError(str(e)) from e
    grid = np.arange(p_in.qmax + 1)
    xs = p_in.scale * (grid.astype(np.float64) - p_in.zero_point)
    p_out = Observer().observe(fn(xs)).finalize(args.bits)
    table = reduce(build_full(fn, p_in, p_out), args.pieces)
    f_vals = fn(xs)
    g_vals = eval_float(table, xs)
    try:
        with open(args.out, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["x", "f", "g", "abs_err"])
            for x, fv, gv in zip(xs, f_vals, g_vals):
                wr.writerow(
                    [repr(float(x)), repr(float(fv)), repr(float(gv)),
                     repr(abs(float(fv) - float(gv)))]
                )
    except OSError as e:
        raise CliIOError(f"cannot write {args.out!r}: {e}") from e
    print("q_knot,x_knot,f_knot")
    for q, x in zip(table.q_knots, table.knots):
        print(f"{int(q)},{float(x)!r},{float(fn(x))!r}")
    log.info("%s: %d pieces over [%g, %g]", args.fn, table.pieces, lo, hi)
    return 0


def cmd_run(args) -> int:
    model = _read(mio.load_file, "model", args.model)
    if args.attend and model.kind != "encdec":
        raise CliError("--attend requires an encoder-decoder model")
    seqs = _gather_inputs(args, model)
    outs = run_model_int(model, seqs, threads=args.threads)["out"]
    if args.out is not None:
        try:
            _write_outputs(args.out, outs)
        except OSError as e:
            raise CliIOError(f"cannot write {args.out!r}: {e}") from e
        print(f"wrote {args.out} ({outs.shape[0]} sequences)")
    else:
        print(
            f"{model.kind}: {outs.shape[0]} x {outs.shape[1]} steps, "
            f"output mean {outs.mean():.6f}, std {outs.std():.6f}"
        )
    return 0


def cmd_compare(args) -> int:
    model = _read(mio.load_file, "model", args.model)
    fm = mio.export_float(model)
    seqs = _gather_inputs(args, model)
    int_traces = run_model_int(model, seqs, threads=args.threads)
    ref_traces = run_model_ref(fm, seqs)
    tol = model_tolerance(model)
    out_abs = np.abs(int_traces["out"] - ref_traces["out"])
    model_bytes = len(mio.save(model))
    float_bytes = len(mio.save_float(fm))
    report = RunReport(
        layers=_layer_stats(int_traces, ref_traces),
        model_bytes=model_bytes,
        float_bytes=float_bytes,
        size_ratio=float_bytes / model_bytes,
        tolerance=tol,
        passed=float(out_abs.mean()) <= tol,
    )
    report.layers["out"] = {
        "mean_abs_err": float(out_abs.mean()),
        "max_abs_err": float(out_abs.max()),
    }
    print(report.to_json())
    return 0 if report.passed else 1


def _median_ns(fn, runs: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return float(statistics.median(samples))


def cmd_bench(args) -> int:
    model = _read(mio.load_file, "model", args.model)
    fm = mio.export_float(model)
    rng = np.random.default_rng(args.seed)
    cell = model.input_cell
    xs = rng.normal(0.0, 1.0, size=(args.seq_len, cell.input_size))

    int_ns = _median_ns(lambda: graph.run_int(model, xs), args.runs, args.warmup)
    float_ns = _median_ns(lambda: graph.run_ref(fm, xs), args.runs, args.warmup)

    table = cell.tables["sigmoid"]
    codes = rng.integers(
        table.in_params.qmin, table.in_params.qmax + 1, size=4 * cell.hidden_size
    ).astype(np.int64)
    pwl_ns = _median_ns(lambda: eval_int(table, codes), args.runs, args.warmup)

    model_bytes = len(mio.save(model))
    float_bytes = len(mio.save_float(fm))
    report = RunReport(
        timings={
            "int_step_ns": int_ns / args.seq_len,
            "float_step_ns": float_ns / args.seq_len,
            "float_over_int": float_ns / int_ns if int_ns else float("nan"),
            "pwl_eval_ns": pwl_ns,
            "pwl_pieces": table.pieces,
            "seq_len": args.seq_len,
            "runs": args.runs,
            "warmup": args.warmup,
        },
        model_bytes=model_bytes,
        float_bytes=float_bytes,
        size_ratio=float_bytes / model_bytes,
    )
    print(report.to_json())
    return 0


def cmd_table(args) -> int:
    print("scaling,precision,signed_low,signed_high,unsigned_low,unsigned_high")
    for i, row in enumerate(format_table(args.bits)):
        e = 1 - i
        slo, shi = row["signed"]
        ulo, uhi = row["unsigned"]
        print(
            f"2^{e},{row['precision']!r},{slo!r},{shi!r},{ulo!r},{uhi!r}"
        )
    return 0


# ---------------------------------------------------------------- parser


def _at_least(lo: int):
    """argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="irnn",
        description="Integer-only inference for quantized LSTM/attention models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="calibrate a float model into .irnn")
    q.add_argument("float_model", help="float weights archive (.npz)")
    q.add_argument("--calib", required=True, help="calibration sequences (CSV or raw)")
    q.add_argument("--out", required=True, help="output .irnn path")
    q.add_argument("--cell-bits", type=int, choices=(8, 16), default=8)
    q.add_argument("--preact-bits", type=int, choices=(8, 16), default=8)
    q.add_argument("--pwl-pieces", type=_at_least(1), default=32)
    q.add_argument("--madnorm", action="store_true", help="normalize gate products")
    q.add_argument("--seed", type=int, default=42)
    q.set_defaults(func=cmd_quantize)

    a = sub.add_parser("approx", help="emit a PWL approximation as CSV")
    a.add_argument("--fn", required=True, choices=sorted(ACTIVATIONS))
    a.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"))
    a.add_argument("--bits", type=int, choices=(8, 16), default=8)
    a.add_argument("--pieces", type=_at_least(1), default=16)
    a.add_argument("--out", required=True, help="CSV path for (x, f, g, abs_err)")
    a.set_defaults(func=cmd_approx)

    r = sub.add_parser("run", help="integer inference over input sequences")
    r.add_argument("model", help=".irnn model path")
    src = r.add_mutually_exclusive_group()
    src.add_argument("--input", help="input sequences (CSV or raw)")
    src.add_argument("--synth", type=_at_least(1), default=4, help="synthesize N sequences")
    r.add_argument("--seq-len", type=_at_least(1), default=32, help="length of synthetic input")
    r.add_argument("--out", help="write outputs (CSV or raw)")
    r.add_argument("--threads", type=int, default=1)
    r.add_argument("--attend", action="store_true", help="require the encoder-decoder graph")
    r.add_argument("--seed", type=int, default=42)
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="integer vs float error report")
    c.add_argument("model", help=".irnn model path")
    src = c.add_mutually_exclusive_group()
    src.add_argument("--input", help="input sequences (CSV or raw)")
    src.add_argument("--synth", type=_at_least(1), default=4)
    c.add_argument("--seq-len", type=_at_least(1), default=32)
    c.add_argument("--threads", type=int, default=1)
    c.add_argument("--seed", type=int, default=42)
    c.set_defaults(func=cmd_compare)

    b = sub.add_parser("bench", help="median step timings")
    b.add_argument("model", help=".irnn model path")
    b.add_argument("--seq-len", type=_at_least(1), default=128)
    b.add_argument("--runs", type=_at_least(1), default=100)
    b.add_argument("--warmup", type=int, default=5)
    b.add_argument("--seed", type=int, default=42)
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("table", help="fixed-point format table as CSV")
    t.add_argument("--bits", type=_at_least(2), default=8)
    t.set_defaults(func=cmd_table)
    return p


def _configure_logging() -> None:
    name = os.environ.get("IRNN_LOG", "").strip().lower()
    levels = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }
    logging.basicConfig(
        level=levels.get(name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, graph.GraphError) as e:
        # a graph error is a model or input the graph cannot run: usage
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 2)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
