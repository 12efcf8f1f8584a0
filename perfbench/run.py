#!/usr/bin/env python3
"""End-to-end benchmark of the symreach CLI.

    python3 perfbench/run.py --workload robot-matrix|rotated-tr|unbounded-verify \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``symreach`` from ``src/``
and reads ``scenarios/``.  Each operation is one in-process call of
``symreach.cli.main`` (closed loop, one client); a pass runs the
workload's operations once, in an order drawn from the seed.  Passes
repeat while another one, as long as the last, fits in ``--seconds``.  Every operation's files
are checked outside the timed span (see ``checks.py``).  Every timed span
is scaled by the host's speed, probed during it (see ``HostSpeed``).

With ``--trace 0`` the result reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result reports
the per-layer metrics of ``tracing.py``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Per-run details (records, timings, controls, spans) go to
``perfbench/results/``.
"""

import os

# one computing thread: numpy must not start a BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 9
# Timings are reported in seconds of a host that runs probe() in
# PROBE_REF_S; see HostSpeed.
PROBE_REF_S = 0.003
PROBE_INTERVAL_S = 0.25
SETUP_PROBES = 20    # probes before and after each set-up interpreter

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "segments_per_s": "1/s",
             "peak_rss_mb": "MB"}

# set-up in a fresh interpreter: import symreach, then load and build every
# scenario of the workload (scenario, automaton, map, virtual automaton)
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dataclasses import replace
import symreach
from symreach.abstraction import construct_virtual_model
from symreach.scenarios import build_automaton, build_map, load_scenario
for spec in sys.argv[2:]:
    path, method, map_kind = spec.rsplit(":", 2)
    s = replace(load_scenario(path), method=method, map_kind=map_kind)
    construct_virtual_model(build_automaton(s), build_map(s, s.dyn()))
print(time.perf_counter() - t0)
"""


def probe() -> float:
    """Seconds this process takes for a fixed 3 ms of work that never
    touches symreach, in the mix the program runs: steps on a small numpy
    array, a pure-Python dict loop and float formatting."""
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 300).reshape(100, 3)
    for _ in range(100):
        a = a + 0.001 * np.sin(a) - 0.0005 * a
    d = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i
    buf = io.StringIO()
    for i in range(500):
        x = i * 0.1234567
        buf.write(",".join(repr(v) for v in (x, x + 1.0, 2.0 * x)) + "\n")
    return time.perf_counter() - t0


class HostSpeed:
    """Samples probe() every PROBE_INTERVAL_S of wall time inside timed
    spans, from a SIGALRM handler that runs between the program's bytecodes.

    The host is shared, and its speed drifts by up to 1.6x in phases of
    seconds to minutes, for the probe and the program alike.  A pass's time,
    less its probes, is scaled by PROBE_REF_S over the mean probe of the
    pass, which divides the drift out.  A change to symreach leaves the
    probe as it was, so it moves the scaled time in proportion to the wall
    time."""

    def __init__(self):
        self.samples = []
        self.active = False
        # installed for the whole run: a SIGALRM still pending when a span
        # ends must find this handler, not the default one, which exits
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.active:
            self.samples.append(probe())

    def start(self) -> None:
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.active = False


def measure_setup(specs):
    """Set-up seconds of SETUP_REPEATS fresh interpreters, raw and scaled by
    the SETUP_PROBES probes taken before and after each."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, SRC]
    argv += [f"{p}:{m}:{k}" for p, m, k in specs]
    raw, scaled = [], []
    before = [probe() for _ in range(SETUP_PROBES)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, check=True)
        after = [probe() for _ in range(SETUP_PROBES)]
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * PROBE_REF_S / statistics.mean(before + after))
        before = after
    return raw, scaled


def fingerprint(out: str, exit_code: int) -> tuple:
    """Everything the checks read: the exit code, each report.json but for
    its wall-time column, and the SHA-256 of each reachtube.csv."""
    parts = [exit_code]
    for dirpath, _, files in sorted(os.walk(out)):
        rel = os.path.relpath(dirpath, out)
        if "report.json" in files:
            with open(os.path.join(dirpath, "report.json")) as fh:
                report = json.load(fh)
            report.pop("time", None)
            parts.append((rel, json.dumps(report, sort_keys=True)))
        if "reachtube.csv" in files:
            with open(os.path.join(dirpath, "reachtube.csv"), "rb") as fh:
                parts.append((rel, hashlib.sha256(fh.read()).hexdigest()))
    return tuple(parts)


class Runner:
    def __init__(self, cli, ctx, tracer, speed):
        self.cli, self.ctx, self.tracer, self.speed = cli, ctx, tracer, speed
        self.n_out = 0
        self.attempted = self.failed = 0
        self.errors, self.failures = [], []
        self.controls = {}
        # the checks are a function of what fingerprint() reads, so outputs
        # identical to ones already checked reuse that verdict instead of
        # parsing tens of MB of CSV again
        self.checked = {}

    def op(self, op, traced: bool, controls: bool):
        """Time one CLI call while probing the host's speed, then check its
        files; returns (wall seconds, seconds spent in probes, record or
        None)."""
        self.n_out += 1
        out = os.path.join(self.ctx.work, f"out-{self.n_out}")
        sink_out, sink_err = io.StringIO(), io.StringIO()
        gc.collect()
        close = self.tracer.op_span(op.name) if traced else None
        failure = None
        n_probes = len(self.speed.samples)
        t0 = time.perf_counter()
        self.speed.start()
        try:
            with contextlib.redirect_stdout(sink_out), \
                    contextlib.redirect_stderr(sink_err):
                code = self.cli.main(op.argv + ["--out", out])
        except Exception:  # the operation failed; record it and go on
            failure = traceback.format_exc()
        finally:
            self.speed.stop()
        seconds = time.perf_counter() - t0
        if close is not None:
            close()
        probed = sum(self.speed.samples[n_probes:])
        self.attempted += 1
        failure = failure or sink_err.getvalue() or None
        record = None
        if failure:
            self.failed += 1
            self.failures.append(f"{op.name}: {failure}")
        else:
            key = (op.name, fingerprint(out, code))
            if key in self.checked and not controls:
                record, errs = self.checked[key]
                ctl = {}
            else:
                try:
                    record, errs, ctl = op.check(out, code, controls)
                except Exception:
                    record, errs, ctl = None, [traceback.format_exc()], {}
                self.checked[key] = record, errs
            self.errors += [f"{op.name}: {e}" for e in errs]
            self.controls.update({f"{op.name}/{k}": v for k, v in ctl.items()})
        shutil.rmtree(out, ignore_errors=True)
        return seconds, probed, record

    def run_pass(self, ops, traced: bool, first: bool) -> dict:
        """Run every operation once; each operation's time, less its
        probes, is scaled by PROBE_REF_S over the mean probe of the pass."""
        t0 = time.perf_counter()
        n_probes = len(self.speed.samples)
        times, probed, records = {}, {}, {}
        if traced:
            self.tracer.install()
        try:
            for op in ops:
                times[op.name], probed[op.name], records[op.name] = \
                    self.op(op, traced, first)
        finally:
            if traced:
                self.tracer.uninstall()
        probe_mean = statistics.mean(self.speed.samples[n_probes:])
        scaled = {k: (times[k] - probed[k]) * PROBE_REF_S / probe_mean
                  for k in times}
        p = {"traced": traced, "op_wall_s": times, "op_probe_s": probed,
             "probes": len(self.speed.samples) - n_probes,
             "probe_mean_s": probe_mean, "op_s": scaled,
             "wall_timed_s": sum(times.values()),
             "timed_s": sum(scaled.values()),
             "records": records, "wall_s": time.perf_counter() - t0}
        if traced:
            p["layers"], p["spans"] = self.tracer.take_pass()
        return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "symreach", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "scenarios"))):
        print(f"no symreach sources under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    import symreach
    from symreach import cli
    if os.path.dirname(os.path.dirname(os.path.abspath(symreach.__file__))) != SRC:
        print(f"symreach was imported from {symreach.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    ctx = Context(ROOT, tempfile.mkdtemp(dir=WORK), args.seed)
    try:
        wl = WORKLOADS[args.workload](ctx)
        setup_raw, setup = ([], []) if args.trace else \
            measure_setup(wl.setup_specs())
        ops = wl.ops()
        random.Random(args.seed).shuffle(ops)
        runner = Runner(cli, ctx, Tracer(), HostSpeed())
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(runner.run_pass(ops, traced, first=not passes))
            # stop when another pass like the last one would overrun
            elapsed = time.perf_counter() - start
            if len(passes) >= 1 + args.trace and \
                    elapsed + passes[-1]["wall_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    # every pass must reproduce the first pass's records
    first = passes[0]["records"]
    mismatches = [f"pass {k}: {name} differs from pass 0"
                  for k, p in enumerate(passes[1:], 1)
                  for name, rec in p["records"].items()
                  if rec is not None and first.get(name) is not None
                  and rec != first[name]]
    bad_controls = sorted(k for k, caught in runner.controls.items()
                          if not caught)
    correct = not (runner.errors or mismatches or bad_controls) \
        and bool(runner.controls)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    plain_s = statistics.median(p["timed_s"] for p in plain)
    if args.trace:
        values = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(
            p["timed_s"] for p in traced) - plain_s)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in values.items()}
    else:
        segments = sum(r["segments"] for p in plain
                       for rec in p["records"].values() if rec
                       for r in rec["rows"].values())
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": plain_s,
            "segments_per_s": segments / sum(p["timed_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "order": [op.name for op in ops], "probe_ref_s": PROBE_REF_S,
        "setup_s_samples": setup, "setup_wall_s_samples": setup_raw,
        "passes": [{k: v for k, v in p.items() if k not in ("records", "spans")}
                   for p in passes],
        "records": first, "errors": runner.errors, "failures": runner.failures,
        "mismatches": mismatches, "controls": runner.controls,
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if traced:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([p["spans"] for p in traced], fh)
    for line in runner.errors + mismatches + runner.failures:
        print(line, file=sys.stderr)
    for k in bad_controls:
        print(f"negative control passed its check: {k}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
