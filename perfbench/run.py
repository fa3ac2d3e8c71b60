"""Benchmark of the eulerdisc CLI pipelines.

    python3 perfbench/run.py --workload {pad,disc,psi} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Every op is a fresh
`python -m eulerdisc.cli` process on the checkout's `src`, run one at a
time, so each op pays the cold start a CLI user pays.  The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` (timed ops)
and `metrics`.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import yaml

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ladder  # noqa: E402
import tracer  # noqa: E402

WORK_DIR = ".perfbench_work"


@dataclass
class Outcome:
    op: ladder.Op
    returncode: int
    cpu_s: float
    wall_s: float
    rss_mb: float
    failure: Optional[str]  # None when the op counts ok
    wrong_output: bool = False  # exited as expected but failed its check

    @property
    def ok(self):
        return self.failure is None


def classify(op, returncode, report):
    """(failure reason or None, wrong_output) for one finished op.

    A timed op is ok when it exits with its expected code and, for exit 0,
    its report passes the op's check.  A probe is ok when it exits 0 with
    a correct report or exits 3 (a clean size-limit refusal).  An op killed
    by a signal, including by its CPU or memory budget, has failed.
    """
    if returncode < 0:
        return f"killed by signal {-returncode}", False
    if op.probe and returncode == 3:
        return None, False
    if returncode != op.expect_exit:
        return f"exit {returncode}, expected {op.expect_exit}", False
    if returncode != 0 or op.check is None:
        return None, False
    try:
        reason = op.check(ladder.structured(report))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        reason = f"unreadable report: {exc!r}"
    return reason, reason is not None


def ok_frac(passes, probes):
    """Share of the ladder's ops that are ok, timed ops and probes alike.

    Each pass's timed ops count together with the probes, which run once
    per run; the result is the median over the passes, so it does not
    depend on how many passes fit in the run.
    """
    n = len(passes[0]) + len(probes)
    ok_probes = sum(o.ok for o in probes)
    return statistics.median((sum(o.ok for o in p) + ok_probes) / n for p in passes)


def spawn(argv, env, cpu_limit=None, as_limit=None):
    """Run one child to completion; return (returncode, cpu_s, wall_s, rss_mb).

    CPU and peak RSS come from wait4's rusage of that child alone.
    """

    def limits():
        if cpu_limit is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit, cpu_limit))
        if as_limit is not None:
            resource.setrlimit(resource.RLIMIT_AS, (as_limit, as_limit))

    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            preexec_fn=limits)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, cpu, wall, usage.ru_maxrss / 1024


class Runner:
    def __init__(self, root, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.count = 0
        self.trace_errors = 0

    def cli(self, trace_base=None):
        if trace_base is None:
            return [sys.executable, "-m", "eulerdisc.cli"]
        return [sys.executable, tracer.__file__, trace_base]

    def run(self, op, trace=False):
        """Run one op; with trace, also return its per-layer summary."""
        self.count += 1
        for fname, doc in op.inputs.items():
            with open(os.path.join(self.work, fname), "w") as fh:
                yaml.safe_dump(doc, fh)
        report_path = os.path.join(self.work, f"report{self.count}.txt")
        base = os.path.join(self.work, f"trace{self.count}") if trace else None
        args = [os.path.join(self.work, a) if a in op.inputs else a for a in op.args]
        rc, cpu, wall, rss = spawn(self.cli(base) + args + ["-o", report_path], self.env,
                                   op.cpu_limit, op.as_limit)
        report = ""
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = fh.read()
            os.remove(report_path)
        failure, wrong = classify(op, rc, report)
        outcome = Outcome(op, rc, cpu, wall, rss, failure, wrong)
        print(f"{op.name:28s} exit {rc:3d}  cpu {cpu:7.2f}s  wall {wall:7.2f}s  "
              f"rss {rss:7.1f}MB  {'ok' if failure is None else 'FAILED: ' + failure}",
              file=sys.stderr)
        summary = None
        if trace and rc >= 0:
            try:
                summary = tracer.summarize(base, cpu)
            except (OSError, ValueError) as exc:
                self.trace_errors += 1
                print(f"{op.name}: bad trace ({exc})", file=sys.stderr)
        return outcome, summary

    def version_cpu(self):
        """CPU of one `eulerdisc --version`: start-up and imports only."""
        rc, cpu, _, _ = spawn(self.cli() + ["--version"], self.env)
        if rc != 0:
            raise RuntimeError(f"eulerdisc --version exited {rc}")
        return cpu


def pass_metrics(outcomes):
    """End-to-end metrics of one pass over the timed ops."""
    return {
        "cpu_s": sum(o.cpu_s for o in outcomes),
        "wall_s": sum(o.wall_s for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


UNITS = {"cpu_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
         "ok_frac": "ratio"}


def measure(runner, ops, seconds):
    """Passes over the timed ops, one at least, then more while a pass as
    long as the last one still ends within `seconds`; then each probe once.

    A `--version` start follows every op, so the set-up samples spread over
    the whole run; one unmeasured start first writes the bytecode caches.
    """
    runner.version_cpu()
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        done = []
        for op in ops:
            if not op.probe:
                done.append(runner.run(op)[0])
                setup.append(runner.version_cpu())
        passes.append(done)
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            break
    probes = []
    for op in ops:
        if op.probe:
            probes.append(runner.run(op)[0])
            setup.append(runner.version_cpu())
    per_pass = [pass_metrics(p) for p in passes]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["setup_s"] = statistics.median(setup)
    metrics["ok_frac"] = ok_frac(passes, probes)
    print(f"{len(passes)} pass(es), {len(probes)} probe(s)", file=sys.stderr)
    outcomes = [o for p in passes for o in p] + probes
    return outcomes, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


# Per-layer metrics of the traced run, by how each is derived from the spans.
LAYER_SPANS = [
    "lattice.subdiagram_volume", "lattice.normalized_volume", "lattice.f_vector",
    "kernels.batch_normals", "graphs", "symcore.det", "symcore.mul", "symcore.add",
    "symcore.try_div", "symcore.nondiv_cert", "symcore.str", "symcore.poly_gcd",
    "symcore.coprime_basis", "symcore.eval", "matroid.signed_euler_char",
    "matroid.generic_euler_char", "discriminant.all_minors",
    "discriminant.witness_point", "discriminant.euler_disc",
    "discriminant.pad_sparse", "cosmo.wavefunction", "cosmo.coefficient_family",
    "formats.load",
]
CALL_COUNTS = [
    "lattice.subdiagram_volume", "kernels.batch_normals", "graphs", "symcore.det",
    "symcore.mul", "symcore.try_div", "symcore.nondiv_cert", "symcore.poly_gcd",
    "symcore.eval", "matroid.signed_euler_char", "discriminant.witness_point",
]
SUMMED_COUNTERS = [
    "kernels.batch_normals.sets", "symcore.str.chars", "symcore.coprime_basis.inputs",
    "symcore.coprime_basis.factors", "discriminant.all_minors.minors",
]
RATIOS = {  # metric: (numerator counter, denominator counter or span calls)
    "symcore.try_div.exact_frac": ("symcore.try_div.exact", "symcore.try_div"),
    "symcore.nondiv_cert.certified_frac": ("symcore.nondiv_cert.certified",
                                           "symcore.nondiv_cert.tested"),
    "discriminant.witness_point.found_frac": ("discriminant.witness_point.found",
                                              "discriminant.witness_point"),
}


def per_layer(summaries, traced_cpu, untraced_cpu):
    """Sum the traced ops' summaries into the per-layer metrics."""
    self_s, calls, counters, memo = {}, {}, {}, {}
    residue = cli_self = 0.0
    for (op_self, op_calls, op_counters, op_memo, op_residue), op_cpu in summaries:
        for d, src in ((self_s, op_self), (calls, op_calls), (memo, op_memo)):
            for k, v in src.items():
                d[k] = d.get(k, 0) + v
        for k, v in op_counters.items():
            if k.endswith(".max_out_terms"):
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v
        residue += op_residue
        cli_self += op_cpu - sum(v for k, v in op_self.items() if k != tracer.ROOT)
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SUMMED_COUNTERS:
        out[name] = (counters.get(name, 0), "count")
    out["symcore.mul.max_out_terms"] = (counters.get("symcore.mul.max_out_terms", 0), "count")
    for name, (num, den) in RATIOS.items():
        d = counters.get(den, calls.get(den, 0))
        out[name] = (counters.get(num, 0) / d if d else 0.0, "ratio")
    for k in ("hits", "misses", "size"):
        out[f"matroid.beta_memo.{k}"] = (memo.get(k, 0), "count")
    out["cli.self_s"] = (cli_self, "s")
    out["trace.residue_s"] = (residue, "s")
    out["trace.overhead_cpu_s"] = (traced_cpu - untraced_cpu, "s")
    out["trace.spans"] = (sum(calls.values()), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def trace_run(runner, ops):
    """One untraced and one traced pass over the timed ops (no probes)."""
    timed = [op for op in ops if not op.probe]
    plain = [runner.run(op)[0] for op in timed]
    traced, summaries = [], []
    for op in timed:
        outcome, summary = runner.run(op, trace=True)
        traced.append(outcome)
        if summary is not None:
            summaries.append((summary, outcome.cpu_s))
    metrics = per_layer(summaries, pass_metrics(traced)["cpu_s"],
                        pass_metrics(plain)["cpu_s"])
    return plain + traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ladder.LADDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its current child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eulerdisc", "cli.py")):
        print("perfbench: run from the root of an eulerdisc checkout "
              "(src/eulerdisc/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        runner = Runner(root, work)
        ops = ladder.LADDERS[args.workload](args.seed)
        if args.trace:
            outcomes, metrics = trace_run(runner, ops)
        else:
            outcomes, metrics = measure(runner, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    timed = [o for o in outcomes if not o.op.probe]
    failed = sum(not o.ok for o in timed)
    correct = (failed == 0 and runner.trace_errors == 0
               and not any(o.wrong_output for o in outcomes))
    print(json.dumps({"correct": correct, "attempted": len(timed), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
