"""gcwaves benchmark: one op is one in-process `gcwaves.cli.dispatch` pass
over a workload's subcommands at a pinned size (see bench/README.md).

    python3 bench/run.py --workload calculus --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the set-up time
(median of this process and two fresh child processes), ops per second over
the timed phase, peak RSS, and the share of ops that pass every output check.
The run record keeps every op's latency and their median.  --trace 1
replays each workload's library calls inside spans and prints the per-layer
metrics.  The last stdout line is the JSON result.  The run record, and with --trace 1 the spans, go to
.bench_out/ at the checkout root.
"""

import time

T_START = time.perf_counter()  # set-up is timed from before numpy is imported

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
# pinned before numpy loads so every run uses one BLAS/OpenMP thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_SETUPS = 2
# per-layer metrics every workload's ops produce; a traced run reports them
# for its own workload, and every other per-layer metric from the workload
# that exercises that layer
OWN_METRICS = ("cli.dispatch.s", "cli.self_s", "cli.artifact_bytes", "trace.overhead_s")


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("pinned", "tiny"), default="pinned",
                   help="tiny: the smoke test's sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import gcwaves from this checkout's src/ only; exit if it is absent."""
    src = ROOT / "src"
    if not (src / "gcwaves" / "__init__.py").is_file():
        sys.exit(f"bench: no gcwaves sources under {src}")
    sys.path.insert(0, str(src))
    import gcwaves
    import workloads

    if Path(gcwaves.__file__).resolve().parent != (src / "gcwaves").resolve():
        sys.exit(f"bench: imported gcwaves from {gcwaves.__file__}, not {src}")
    return workloads


def cli_args(sub, flags, out):
    args = [sub]
    for key, value in flags.items():
        args += [f"--{key}", str(value)]
    return args + ["--out", str(out)]


def artifacts(dirs):
    """sha256 and byte count of every file a pass wrote, manifests excepted
    (they carry wall times)."""
    digest, size = hashlib.sha256(), 0
    for d in dirs:
        for path in sorted(d.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                data = path.read_bytes()
                digest.update(str(path.relative_to(d.parent)).encode() + b"\0" + data)
                size += len(data)
    return digest.hexdigest(), size


class Op:
    """One dispatch pass over a workload's steps, then its output checks."""

    def __init__(self, cli, name, plan, base, tracer=None):
        shutil.rmtree(base, ignore_errors=True)
        self.name = name
        self.plan = [(e, [base / f"{e.name}-{i}-{sub}" for i, (sub, _) in enumerate(steps)])
                     for e, steps in plan]
        self.failures = []
        span = tracer.span("cli.dispatch") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()):
            for (_, steps), (_, dirs) in zip(plan, self.plan):
                for (sub, flags), d in zip(steps, dirs):
                    try:
                        code = cli.dispatch(cli_args(sub, flags, d))
                    except Exception as exc:  # a crash is a failed op, not a failed run
                        code = f"raised {exc!r}"
                    if code != 0:
                        self.failures.append(f"{d.name}: exit {code}")
        self.latency = time.perf_counter() - t0

    def check(self, reference=None):
        for e, dirs in self.plan:
            if self.failures:
                break
            try:
                self.failures += e.check(dirs)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.failures.append(f"{e.name}: unreadable artifact: {exc!r}")
        self.sha, self.bytes = artifacts([d for _, dirs in self.plan for d in dirs])
        if reference is not None and self.sha != reference:
            self.failures.append("artifacts differ from the first op's")
        for msg in self.failures:
            print(f"bench: {self.name}: {msg}", file=sys.stderr)
        return not self.failures


def setup(args):
    """Import, seeded inputs and one untimed warm-up op (fills lazy caches)."""
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")
    from gcwaves import cli

    plan = wl.WORKLOADS[args.workload].plan(args.seed, args.size == "tiny")
    where = "child" if args.setup_only else "warm"
    warm = Op(cli, args.workload, plan, OUT / args.workload / where)
    return wl, cli, plan, warm


def child_setups(args):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-only"]
    out = []
    for _ in range(CHILD_SETUPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=900)
        out.append(float(proc.stdout.split()[-1]))
    return out


def untraced(args, cli, plan, warm, setup_main):
    ok_warm = warm.check()
    setup_s = statistics.median([setup_main] + child_setups(args))
    lat, failed = [], 0
    t0 = time.perf_counter()
    while True:
        op = Op(cli, args.workload, plan, OUT / args.workload / "op")
        failed += not op.check(warm.sha)
        lat.append(op.latency)
        elapsed = time.perf_counter() - t0
        if elapsed >= args.seconds:
            break
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (len(lat) - failed) / len(lat),
    }
    return (ok_warm and failed == 0, len(lat), failed, metrics,
            {"op_s": lat, "op_s_p50": statistics.median(lat)})


def traced(args, wl, cli, plan, warm):
    """The named workload repeats for --seconds (at least once) after its
    warm-up; every other workload runs one traced op, its dispatch pass
    warming the caches for its replay."""
    from tracing import Tracer, dur

    tr = Tracer()
    ok = warm.check()
    per_op = defaultdict(list)
    attempted = failed = 0
    for name, w in sorted(wl.WORKLOADS.items(), key=lambda kv: kv[0] != args.workload):
        own = name == args.workload
        pl = plan if own else w.plan(args.seed, args.size == "tiny")
        reference = warm.sha if own else None
        t0 = time.perf_counter()
        while True:
            direct_dir = OUT / name / "direct"
            shutil.rmtree(direct_dir, ignore_errors=True)
            for e, _ in pl:
                (direct_dir / e.name).mkdir(parents=True)
            m = {}
            with tr.span("op", workload=name) as op_span:
                op = Op(cli, name, pl, OUT / name / "op", tr)
                with tr.span("direct") as direct_span:
                    for e, steps in pl:
                        m.update(e.direct(tr, steps, direct_dir / e.name))
                with tr.span("probe"):
                    for e, steps in pl:
                        if e.probe:
                            m.update(e.probe(tr, steps))
            passed = op.check(reference)
            reference = reference or op.sha
            attempted += 1
            failed += not passed
            m["cli.dispatch.s"] = op.latency
            m["cli.self_s"] = op.latency - dur(direct_span)
            m["cli.artifact_bytes"] = op.bytes
            m["trace.overhead_s"] = dur(op_span) - op.latency
            per_op[name].append(m)
            if not own or time.perf_counter() - t0 >= args.seconds:
                break
    values = defaultdict(list)
    for name, ops in per_op.items():
        for m in ops:
            for key, v in m.items():
                if name == args.workload or key not in OWN_METRICS:
                    values[key].append(v)
    metrics = {k: statistics.median_low(v) for k, v in values.items()}
    return ok and failed == 0, attempted, failed, metrics, {"tracer": tr}


def git_sha():
    if not (ROOT / ".git").exists():  # keep git from searching parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, wl, n_ops):
    import numpy

    names = list(wl.WORKLOADS) if args.trace else [args.workload]
    flags = {n: [cli_args(sub, f, "<out>") for _, steps in
                 wl.WORKLOADS[n].plan(args.seed, args.size == "tiny") for sub, f in steps]
             for n in names}
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "traced": bool(args.trace),
            "flags": flags, "ops": n_ops}


def result_line(spec, correct, attempted, failed, metrics):
    units = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                   for k in units}})


def main(argv=None):
    args = parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    spec = json.loads(SPEC.read_text())
    wl, cli, plan, warm = setup(args)
    if args.setup_only:
        print(time.perf_counter() - T_START)
        return
    setup_main = time.perf_counter() - T_START
    if args.trace:
        correct, attempted, failed, metrics, extra = traced(args, wl, cli, plan, warm)
        line = result_line(spec["per_layer"], correct, attempted, failed, metrics)
    else:
        correct, attempted, failed, metrics, extra = untraced(args, cli, plan, warm, setup_main)
        line = result_line(spec["end_to_end"], correct, attempted, failed, metrics)
    record = run_record(args, wl, attempted)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    name = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        extra["tracer"].dump(name, record=record, result=json.loads(line))
    else:
        name.write_text(json.dumps({"record": record, "result": json.loads(line),
                                    **extra}, indent=1, sort_keys=True) + "\n")
    print(line)


if __name__ == "__main__":
    main()
