"""irnn benchmark: closed-loop integer inference checked against the float64 oracle.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the engine is imported from its `src/`.
One run, in one process:

1. generates the workload's float model, calibration set and input pool
   (workloads.py);
2. builds with `cli.build_model`, loads the container with `model_io.load`,
   runs the float64 oracle `cli.run_model_ref` over the pool, then makes one
   untimed `cli.run_model_int` call per input and checks those outputs
   against the oracle within the frozen `cli.model_tolerance`;
3. for --seconds, interleaves one operation at a time: a
   `cli.run_model_int` call on the latest loaded model (closed loop, one
   client), an oracle call, a `model_io.load` of the latest container or a
   `cli.build_model`.  The next operation is the kind furthest behind its
   share of the time (SHARES), so every kind is sampled across the whole
   run.  A fixed reference kernel runs between any two operations, and
   each operation's time is rescaled to the reference host speed
   (hostspeed.py).  Every timed call must return output bit-identical to
   the untimed call on the same input; a call that raises or differs
   counts as failed and the loop goes on.

How each timing is taken from its samples is set out in `timings`.
The last stdout line is the result.  With --trace 0 it carries every
end-to-end metric of BENCHMARK.json.  With --trace 1 the schedule runs for
half the time, then a traced build, load, closed loop and oracle pass
follow (tracer.py); the line carries every per-layer metric and the spans
are written to perfbench/out/.  The line before the result records the
machine, the seed, the raw wall-clock timings with their sample counts,
the reference kernel's median time, the rescaled latency p90, failed_frac
and the sha256 of the untimed outputs, which must equal
perfbench/golden.json at the default seed.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads, so the oracle's float GEMVs
# do not contend with the engine's own thread pool on a small machine.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from hostspeed import Clock
from tracer import TRACED, Summary, Tracer, resolve
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
MODULES = ("cli", "model_io", "rnn", "quant", "fixedpoint", "pwl", "madnorm", "attention")

# Names the benchmark calls, by irnn module.  Each must stay in its
# module's __all__; a refactor that moves one updates this table in a
# benchmark change of its own.  The traced functions (tracer.TRACED) must
# stay importable under the same names.
EXPORTED = {
    "cli": ("build_model", "run_model_int", "run_model_ref"),
    "model_io": ("FloatModel", "export_float", "load", "save"),
    "rnn": ("CellConfig",),
}
# public but absent from __all__: the frozen output tolerance table
UNLISTED = {"cli": ("model_tolerance",)}

# Share of the measuring time each kind of operation gets.  A 16-bit build
# or load takes 1-2 s, so their shares buy 6-10 samples a run; the oracle
# needs little time for hundreds.  An operation counts as at least
# MIN_OP_S, so a kind of very short operations (an 8-bit load takes 5 ms)
# stops at a few hundred samples and leaves its time to the others.
SHARES = {"int": 0.4, "ref": 0.05, "load": 0.25, "build": 0.3}
MIN_OP_S = 0.02


class BenchError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


def import_engine() -> dict:
    src = ROOT / "src"
    if not (src / "irnn" / "__init__.py").is_file():
        raise BenchError(f"no engine sources at {src}; run from the root of an irnn checkout")
    sys.path.insert(0, str(src))
    mods = {k: importlib.import_module(f"irnn.{k}") for k in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"irnn was imported from {mods['cli'].__file__}, not {src}")
    problems = []
    for short, names in EXPORTED.items():
        exported = getattr(mods[short], "__all__", ())
        problems += [
            f"irnn.{short}.{n} is not in irnn.{short}.__all__"
            for n in names
            if n not in exported or not hasattr(mods[short], n)
        ]
    for short, names in UNLISTED.items():
        problems += [f"irnn.{short}.{n} is missing" for n in names if not hasattr(mods[short], n)]
    for short, names in TRACED.items():
        for n in names:
            try:
                resolve(mods[short], n)
            except AttributeError:
                problems.append(f"irnn.{short}.{n} (traced) is missing")
    if problems:
        raise BenchError("public API check failed:\n  " + "\n  ".join(problems))
    return mods


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    spec = json.loads(path.read_text())
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {sorted(declared)} != {sorted(WORKLOADS)}")
    return spec


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


class WorkloadRun:
    """One workload's generated inputs plus the measurements taken on them."""

    def __init__(self, mods, w, seed):
        self.cli, self.mio = mods["cli"], mods["model_io"]
        arrays, self.calib, self.pool = generate(w, seed)
        self.fm = self.mio.FloatModel(w.kind, arrays)
        self.cfg = mods["rnn"].CellConfig(w.cell_bits, w.preact_bits, w.madnorm, w.pieces)
        self.clock = Clock()
        # (wall seconds, clock tick) per operation, in order
        self.samples = {k: [] for k in SHARES}
        self.containers = set()
        self.ref_outs = []
        self.int_calls = self.ref_calls = 0
        # set once the untimed outputs are checked, in `run`
        self.firsts, self.outputs_ok = None, False
        self.failed = 0

    def _timed(self, kind, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.samples[kind].append((time.perf_counter() - t0, self.clock.tick()))
        return out

    def build(self) -> bytes:
        """Time one build; return its container."""
        built = self._timed("build", self.cli.build_model, self.fm, self.calib, self.cfg)
        blob = self.mio.save(built)
        self.containers.add(blob)
        return blob

    def load(self, blob):
        return self._timed("load", self.mio.load, blob)

    def ref_call(self, fm):
        """One oracle call on the next input; the first pass is kept."""
        k = self.ref_calls % len(self.pool)
        self.ref_calls += 1
        out = self._timed("ref", self.cli.run_model_ref, fm, self.pool[k])["out"]
        if len(self.ref_outs) < len(self.pool):
            self.ref_outs.append(out)

    def wall(self, kind) -> list:
        return [dt for dt, _ in self.samples[kind]]

    def scaled(self, kind) -> list:
        return self.clock.scale(self.samples[kind])

    def int_call(self, model, samples):
        """One closed-loop call on the next input, timed into `samples`.

        It passes when its output is bit-identical to the untimed output on
        the same input and those outputs passed the oracle check.
        """
        k = self.int_calls % len(self.pool)
        self.int_calls += 1
        t0 = time.perf_counter()
        try:
            out = self.cli.run_model_int(model, self.pool[k])["out"]
        except Exception:
            # a call that raises is a failed call; the loop keeps running
            self.clock.tick()
            if self.failed == 0:
                traceback.print_exc()
            self.failed += 1
            return
        samples.append((time.perf_counter() - t0, self.clock.tick()))
        if not (self.outputs_ok and np.array_equal(out, self.firsts[k])):
            self.failed += 1

    def schedule(self, model, blob, oracle, seconds):
        """Interleave operations for `seconds`, each kind near its share.

        Every kind runs at least once, however short `seconds` is.
        """
        spent = dict.fromkeys(SHARES, 0.0)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or not all(spent.values()):
            kind = min(SHARES, key=lambda k: spent[k] / SHARES[k])
            t0 = time.perf_counter()
            if kind == "int":
                self.int_call(model, self.samples["int"])
            elif kind == "ref":
                self.ref_call(oracle)
            elif kind == "load":
                model = self.load(blob)
            else:
                blob = self.build()
            spent[kind] += max(time.perf_counter() - t0, MIN_OP_S)
        return model


def timings(w, wr) -> dict:
    """Timing metrics: the median of each kind's samples at reference host speed.

    A whole run can fall in one of the host's slow modes.  In ten-seed sets
    of 45 s runs whose median kernel time ranged from 1.7 to 3.55 ms, the
    raw latency median spread 0.22-0.37 (interquartile range over median)
    and the rescaled one (hostspeed.py) 0.01-0.06; raw builds spread
    0.17-0.24 and rescaled ones 0.07-0.10.
    """
    med = {k: statistics.median(wr.scaled(k)) for k in SHARES}
    return {
        "setup_s": med["load"],
        "build_s": med["build"],
        "steps_per_s": w.seq_len / med["int"],
        "latency_ms.p50": med["int"] * 1e3,
        "ref_steps_per_s": w.seq_len / med["ref"],
    }


def layer_metrics(s: Summary, w, useful: float, overhead: float) -> dict:
    INT, REF = "cli.run_model_int", "cli.run_model_ref"
    BUILD, LOAD = "cli.build_model", "model_io.load"
    steps = s.root_calls(INT) * w.seq_len
    ref_steps = s.root_calls(REF) * w.seq_len
    m = {
        "cli.build_model.total_s": s.stat(BUILD, BUILD)[2] / 1e9,
        "model_io.load.self_s": s.stat(LOAD, LOAD)[1] / 1e9,
        "rnn.IntLstmCell.__init__.total_s": s.stat(LOAD, "rnn.IntLstmCell.__init__")[2] / 1e9,
        # multiply-accumulates per ns of step self time = GMAC/s
        "rnn.gate_gmac_per_s": w.gate_macs_per_step * steps
        / s.stat(INT, "rnn.IntLstmCell.step")[1],
        "rnn.lstm_step_ref.self_us": s.stat(REF, "rnn.lstm_step_ref")[1] / ref_steps / 1e3,
        "attention.attention_ref.self_us": s.stat(REF, "attention.attention_ref")[1]
        / ref_steps / 1e3,
        "attention.calibrate_attention.total_s": s.stat(BUILD, "attention.calibrate_attention")[2]
        / 1e9,
        "pwl.build_full.build_calls": s.stat(BUILD, "pwl.build_full")[0],
        "pwl.build_full.load_calls": s.stat(LOAD, "pwl.build_full")[0],
        "pwl.reduce.build_calls": s.stat(BUILD, "pwl.reduce")[0],
        "pwl.reduce.load_calls": s.stat(LOAD, "pwl.reduce")[0],
        "pwl.reduce.build_total_s": s.stat(BUILD, "pwl.reduce")[2] / 1e9,
        "pwl.reduce.load_total_s": s.stat(LOAD, "pwl.reduce")[2] / 1e9,
        "pwl.load_tables_useful_ratio": useful,
        "trace.overhead_steps_per_s": overhead,
        # share of call time spent inside the wrapped functions below the
        # call, i.e. attributed to a module; the rest is cli.run_model_int's own
        "trace.attributed_ratio": 1 - s.stat(INT, INT)[1] / s.root_ns(INT),
    }
    for name in (
        "rnn.IntLstmCell.step",
        "quant.requantize",
        "quant.qmul",
        "quant.qadd_diff",
        "quant.quantize_tensor",
        "fixedpoint.requant_multiplier",
        "fixedpoint.to_fixed",
        "pwl.eval_int",
        "madnorm.madnorm_int",
    ):
        m[f"{name}.calls"] = s.stat(INT, name)[0] / steps
    for name in (
        "cli.run_model_int",
        "rnn.IntLstmCell.step",
        "rnn.IntLstmCell.run",
        "quant.requantize",
        "quant.qmul",
        "quant.qadd_diff",
        "quant.quantize_tensor",
        "fixedpoint.rounded_shift",
        "fixedpoint.round_half_away",
        "fixedpoint.fx_apply",
        "pwl.eval_int",
        "madnorm.madnorm_int",
        "attention.project_keys",
        "attention.attention_intermediates",
        "attention.integer_softmax_weights",
    ):
        m[f"{name}.self_us"] = s.stat(INT, name)[1] / steps / 1e3
    for module in ("rnn", "quant", "fixedpoint", "pwl", "attention"):
        m[f"{module}.self_us"] = s.module_self_ns(INT, module) / steps / 1e3
    return m


def run(mods, w, seed: int, seconds: float, trace: bool):
    cli, mio = mods["cli"], mods["model_io"]
    problems = []
    wr = WorkloadRun(mods, w, seed)
    blob = wr.build()
    model = wr.load(blob)
    oracle = mio.export_float(model)
    for _ in wr.pool:
        wr.ref_call(oracle)

    # The frozen tolerance gates the mean error over a set of sequences, as
    # `irnn compare` applies it: single closed-loop trajectories are
    # heavy-tailed, and one 32-step sequence of stream-lstm64-q16-mn can
    # exceed the 0.08 MadNorm tolerance while the mean stays near 0.025.
    tol = cli.model_tolerance(model)
    wr.firsts = [cli.run_model_int(model, xs)["out"] for xs in wr.pool]
    maes = [float(np.abs(o - r).mean()) for o, r in zip(wr.firsts, wr.ref_outs)]
    out_mae = statistics.fmean(maes)
    wr.outputs_ok = out_mae <= tol
    if not wr.outputs_ok:
        problems.append(f"mean abs error {out_mae:.5g} exceeds tolerance {tol}")
    digest = hashlib.sha256(
        b"".join(np.ascontiguousarray(o, dtype="<f8").tobytes() for o in wr.firsts)
    ).hexdigest()
    golden = "not checked: seed is not the default"
    if seed == DEFAULT_SEED:
        expected = json.loads((HERE / "golden.json").read_text()).get(w.name)
        golden = "match" if digest == expected else f"MISMATCH: expected {expected}"
        if digest != expected:
            problems.append(f"output sha256 {digest} != golden {expected}")

    # the set-up above warmed every path up; timing starts here
    for samples in wr.samples.values():
        samples.clear()
    gc.collect()
    model = wr.schedule(model, blob, oracle, seconds / 2 if trace else seconds)
    lat = wr.wall("int")
    if not lat:
        raise BenchError("every call raised; nothing was measured")
    attempted = wr.int_calls
    if len(wr.containers) != 1:
        problems.append("repeated builds gave different containers")
    if mio.save(model) not in wr.containers:
        problems.append("save(load(container)) differs from the container")
    info = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "calls": len(lat),
        "failed_frac": wr.failed / attempted,
        # Wall-clock figures, as measured.  They mix the host's fast and slow
        # modes, so they are recorded here, not bounded (see `timings`).
        "wall": {
            "latency_ms.p50": statistics.median(lat) * 1e3,
            # only from 100 samples up, so that ten lie beyond it
            "latency_ms.p90": statistics.quantiles(lat, n=10)[-1] * 1e3
            if len(lat) >= 100
            else None,
            "latency_ms.min": min(lat) * 1e3,
            "latency_samples": len(lat),
            "setup_s.median": statistics.median(wr.wall("load")),
            "loads": len(wr.samples["load"]),
            "build_s.median": statistics.median(wr.wall("build")),
            "builds": len(wr.samples["build"]),
            "ref_ms.median": statistics.median(wr.wall("ref")) * 1e3,
            "oracle_calls": len(wr.samples["ref"]),
            "kernel_ms.median": statistics.median(wr.clock.kernels) * 1e3,
        },
        # the p90 of the rescaled latencies, with its sample count
        "latency_ms.p90": statistics.quantiles(wr.scaled("int"), n=10)[-1] * 1e3
        if len(lat) >= 100
        else None,
        "tolerance": tol,
        "max_input_mae": max(maes),
        "out_sha256": digest,
        "golden": golden,
        "problems": problems,
    }

    if not trace:
        metrics = {
            **timings(w, wr),
            "out_mae": out_mae,
            "container_bytes": len(blob),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return info, metrics, attempted, wr.failed, problems

    t_samples = []
    with Tracer() as tr:
        traced_model = mio.load(mio.save(cli.build_model(wr.fm, wr.calib, wr.cfg)))
        end = time.perf_counter() + SHARES["int"] * seconds / 2
        wr.clock.tick()  # restart the kernel/operation alternation
        first = wr.int_calls
        while wr.int_calls == first or time.perf_counter() < end:
            wr.int_call(traced_model, t_samples)
        for xs in wr.pool:
            cli.run_model_ref(oracle, xs)
    gc.collect()
    summary = Summary(tr.spans)
    # the loaded model is still referenced, so live tables are the kept ones
    useful = summary.kept_ratio(tr.kept, "model_io.load")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"trace-{w.name}.jsonl.gz")
    info["traced_calls"] = len(t_samples)
    info["spans"] = len(tr.spans)
    info["untraced_steps_per_s"] = w.seq_len / statistics.median(wr.scaled("int"))
    info["traced_steps_per_s"] = w.seq_len / statistics.median(wr.clock.scale(t_samples))
    overhead = info["untraced_steps_per_s"] - info["traced_steps_per_s"]
    metrics = layer_metrics(summary, w, useful, overhead)
    return info, metrics, wr.int_calls, wr.failed, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        mods = import_engine()
        w = WORKLOADS[args.workload]
        info, values, attempted, failed, problems = run(
            mods, w, args.seed, seconds, bool(args.trace)
        )
        declared = spec["per_layer" if args.trace else "end_to_end"]
        if set(values) != {d["name"] for d in declared}:
            raise BenchError(
                f"computed metrics differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ {d['name'] for d in declared})}"
            )
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
