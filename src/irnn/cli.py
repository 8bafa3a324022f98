"""Command-line front end.

Subcommands: quantize (calibrate a float model into .irnn), approx (PWL
table CSV), run (integer inference), compare (integer vs float report),
bench (timing report), table (fixed-point format table).

Exit codes: 0 success, 1 tolerance failure, 2 usage error, 3 I/O error,
4 arithmetic overflow (a bound that depends on the input failed at run
time: a matmul accumulator whose int32 bound was not proven when the model
was compiled, or the attention context over a too-long source), 141 when
the reader of standard output closed it early (128 + SIGPIPE).
The IRNN_LOG environment variable (debug/info/warning/error) sets log
verbosity.  All randomness sits behind --seed; bench timings are the only
nondeterministic output.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from decimal import Decimal

import numpy as np

from . import graph
from . import model_io as mio
from .fixedpoint import format_table
from .pwl import ACTIVATIONS, activation_registry, eval_float, eval_int, fit
from .quant import Observer, dequantize, derive_params
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
    if cell.use_madnorm:
        return _MADNORM_MEAN_TOLERANCE
    # the tanh(c) table bounds the c grid to 8 or 16 bits
    return _MEAN_TOLERANCES[cell.sites["c"].bitwidth]


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


def run_model_ref(fm: mio.FloatModel, seqs) -> dict:
    """Batch float64 oracle with the traces of run_model_int."""
    return graph.run_batch(graph.run_ref, fm, seqs)


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
    return _normal(np.random.default_rng(args.seed), (args.synth, args.seq_len, n_in))


def _normal(rng, shape: tuple) -> np.ndarray:
    """Standard normal synthetic input of the shape given; a shape past
    numpy's size limit or the memory available is a usage error."""
    try:
        return rng.normal(0.0, 1.0, size=shape)
    except (ValueError, MemoryError) as e:
        raise CliError(f"synthetic input of shape {shape} is too large: {e}") from e


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
    """The mean and max absolute error of every trace, out included."""
    stats = {}
    for key in sorted(int_traces):
        err = np.abs(int_traces[key] - ref_traces[key])
        stats[key] = {
            "mean_abs_err": float(err.mean()),
            "max_abs_err": float(err.max()),
        }
    return stats


def _sizes(container: bytes, fm: mio.FloatModel) -> dict:
    """RunReport's size fields: the container's and the float archive's bytes."""
    floats = len(mio.save_float(fm))
    return dict(model_bytes=len(container), float_bytes=floats, size_ratio=floats / len(container))


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
    try:
        model = build_model(fm, seqs, cfg, meta={"seed": args.seed})
    except graph.GraphError:
        raise
    except (ValueError, OverflowError) as e:
        # finite weights near float64's limits overflow the float run or a multiplier
        raise CliIOError(f"cannot calibrate {args.float_model!r}: {e}") from e
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
    if lo >= hi:
        # derive_params(0, 0) is the identity grid of a dead channel
        raise CliError(f"degenerate-range: --range needs LO < HI, got {lo!r} {hi!r}")
    try:
        p_in = derive_params(lo, hi, args.bits)
        xs = dequantize(np.arange(p_in.qmax + 1), p_in)
        # an overflow gives a non-finite value, which the observer rejects
        with np.errstate(over="ignore", invalid="ignore"):
            f_vals = fn(xs)
        p_out = Observer().observe(f_vals).finalize(args.bits)
    except ValueError as e:
        raise CliError(str(e)) from e
    # xs is fit's own input grid, so fit takes fn's values there as they are
    table = fit(lambda _: f_vals, p_in, p_out, args.pieces)
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
    for q, x, v in zip(table.q_knots, table.knots, table.values):
        print(f"{int(q)},{float(x)!r},{float(v)!r}")
    log.info("%s: %d pieces over [%g, %g]", args.fn, table.pieces, lo, hi)
    return 0


def cmd_run(args) -> int:
    model = _read(mio.load_file, "model", args.model)
    if args.attend and not graph.graph_for(model.kind).attend:
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
    layers = _layer_stats(int_traces, ref_traces)
    report = RunReport(
        layers=layers,
        **_sizes(mio.save(model), fm),
        tolerance=tol,
        passed=layers["out"]["mean_abs_err"] <= tol,
    )
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
    xs = _normal(rng, (args.seq_len, cell.input_size))

    container = mio.save(model)
    load_ns = _median_ns(lambda: mio.load(container), args.runs, args.warmup)
    int_ns = _median_ns(lambda: graph.run_int(model, xs), args.runs, args.warmup)
    float_ns = _median_ns(lambda: graph.run_ref(fm, xs), args.runs, args.warmup)

    table = cell.tables["sigmoid"]
    codes = rng.integers(
        table.in_params.qmin, table.in_params.qmax + 1, size=4 * cell.hidden_size
    ).astype(np.int64)
    pwl_ns = _median_ns(lambda: eval_int(table, codes), args.runs, args.warmup)

    report = RunReport(
        timings={
            "int_step_ns": int_ns / args.seq_len,
            "float_step_ns": float_ns / args.seq_len,
            "float_over_int": float_ns / int_ns if int_ns else float("nan"),
            "pwl_eval_ns": pwl_ns,
            "pwl_pieces": table.pieces,
            "load_ns": load_ns,
            "seq_len": args.seq_len,
            "runs": args.runs,
            "warmup": args.warmup,
        },
        **_sizes(container, fm),
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


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer no smaller than lo (and no larger than hi)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _plain_range(argv: list[str]) -> list[str]:
    """argv with each --range operand (the flag possibly abbreviated, as
    argparse allows) that is a negative float literal, which argparse takes
    for an option in exponent form (-1e1, -2.5e-1) or as -inf or -nan, in a
    form argparse reads as a number: the exact decimal of its double, which
    float() reads back as the same double.  A non-finite value has no
    decimal, so cmd_approx refuses what float() reads back: "nan", or
    -10^309, which overflows to -inf as -1e400 does."""
    flags = [i for i, arg in enumerate(argv) if len(arg) > 2 and "--range".startswith(arg)]
    ops = {i + k for i in flags for k in (1, 2)}
    return [_plain(a) if i in ops and a.startswith("-") else a for i, a in enumerate(argv)]


def _plain(arg: str) -> str:
    try:
        v = float(arg)
    except ValueError:  # an option, or no number: argparse reports it
        return arg
    if math.isfinite(v):
        return format(Decimal(v), "f")
    return "nan" if math.isnan(v) else "-1" + "0" * 309


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
    q.add_argument("--pwl-pieces", type=_int_in(1), default=32)
    q.add_argument("--madnorm", action="store_true", help="normalize gate products")
    q.add_argument("--seed", type=int, default=42)
    q.set_defaults(func=cmd_quantize)

    a = sub.add_parser("approx", help="emit a PWL approximation as CSV")
    a.add_argument("--fn", required=True, choices=sorted(ACTIVATIONS))
    a.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"))
    a.add_argument("--bits", type=int, choices=(8, 16), default=8)
    a.add_argument("--pieces", type=_int_in(1), default=16)
    a.add_argument("--out", required=True, help="CSV path for (x, f, g, abs_err)")
    a.set_defaults(func=cmd_approx)

    r = sub.add_parser("run", help="integer inference over input sequences")
    r.add_argument("model", help=".irnn model path")
    src = r.add_mutually_exclusive_group()
    src.add_argument("--input", help="input sequences (CSV or raw)")
    src.add_argument("--synth", type=_int_in(1), default=4, help="synthesize N sequences")
    r.add_argument("--seq-len", type=_int_in(1), default=32, help="length of synthetic input")
    r.add_argument("--out", help="write outputs (CSV or raw)")
    r.add_argument("--threads", type=_int_in(1), default=1)
    r.add_argument("--attend", action="store_true", help="require the encoder-decoder graph")
    r.add_argument("--seed", type=int, default=42)
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="integer vs float error report")
    c.add_argument("model", help=".irnn model path")
    src = c.add_mutually_exclusive_group()
    src.add_argument("--input", help="input sequences (CSV or raw)")
    src.add_argument("--synth", type=_int_in(1), default=4)
    c.add_argument("--seq-len", type=_int_in(1), default=32)
    c.add_argument("--threads", type=_int_in(1), default=1)
    c.add_argument("--seed", type=int, default=42)
    c.set_defaults(func=cmd_compare)

    b = sub.add_parser("bench", help="median step timings")
    b.add_argument("model", help=".irnn model path")
    b.add_argument("--seq-len", type=_int_in(1), default=128)
    b.add_argument("--runs", type=_int_in(1), default=100)
    b.add_argument("--warmup", type=_int_in(0), default=5)
    b.add_argument("--seed", type=int, default=42)
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("table", help="fixed-point format table as CSV")
    # the widest table whose largest entry, (2^b - 1) * 2^1, is a finite float64
    t.add_argument("--bits", type=_int_in(2, sys.float_info.max_exp - 2), default=8)
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
    args = parser.parse_args(_plain_range(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        # a closed pipe can surface only here, when buffered output is flushed
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early: no error line, and stdout points at
        # devnull so that the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CliError, graph.GraphError) as e:
        # a graph error is a model or input the graph cannot run: usage
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 2)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:
        # FxOverflow: a bound that depends on the input failed mid-run
        print(f"error: arithmetic overflow: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
