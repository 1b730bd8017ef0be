#!/usr/bin/env python3
"""sldstab benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (``src/sldstab`` and ``models/`` must
be there).  The launcher starts each workload in its own Python process with
BLAS/OpenMP pinned to one thread; that process imports sldstab from
``src/``, makes its inputs from ``--seed`` and runs whole rounds of
operations through ``sldstab.cli.main`` (one client, closed loop): at least
three rounds, and more until ``--seconds`` of operation CPU time have
passed.  Operations are timed on the process CPU clock, which leaves out the
time the hypervisor takes the core away.  Before every operation the worker
also times a fixed reference computation (``reference.py``), and every time
it reports is scaled to the reference speed, so that the shared machine's
slow phases largely cancel out.  With
``--trace 0`` set-up-only processes run first, so that ``setup_s`` is a
median of several set-ups.

The last line of standard output is the result:
``{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The line before it is ``{"info": …}``: versions, CPU, the exact counters per
round, failures and any check problem.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "simulate", "posreal")
# setup_s is the median of 5 to 7 set-ups: more while they take under 3 s in all.
SETUP_SAMPLES = (5, 7, 3.0)
MIN_ROUNDS = 3  # so that each operation's median has three samples at least
SETUP_REF_SAMPLES = 15  # reference samples right after set-up, to scale setup_s
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# launcher


def spawn(args, extra, deadline):
    """Run one worker process to completion; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ] + extra
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def launch(args) -> int:
    missing = [p for p in ("src/sldstab/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        print(f"not a sldstab source checkout: {ROOT} lacks {missing}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups, raw = [], []
    least, most, budget = SETUP_SAMPLES
    while args.trace == 0 and len(setups) < most - 1 and (
        len(setups) < least - 1 or sum(raw) < budget
    ):
        res, _ = spawn(args, ["--setup-only"], deadline)
        setups.append(res["setup_s"])
        raw.append(res["setup_wall_s"])
    result, info = spawn(args, [], deadline)
    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        doc = json.loads(info[-1])
        doc["info"]["setup_s_samples"] = setups
        doc["info"]["setup_wall_s_samples"] = raw + [doc["info"]["setup_wall_s"]]
        info[-1] = json.dumps(doc)
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# worker


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def digest(op, rcs, texts) -> str:
    h = hashlib.sha256(repr((rcs, texts)).encode())
    for path in op.outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def work(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import sldstab
    from sldstab import cli

    if not pathlib.Path(sldstab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sldstab imported from {sldstab.__file__}, not from {ROOT / 'src'}")
    import instrument
    import reference
    import workloads

    inst = instrument.Instrument(spans=bool(args.trace))
    inst.install()
    scratch = ROOT / ".perfbench"
    wdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    wdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, wdir, args.seed, cli)
        wl.setup()
        setup_cpu_s = time.process_time()  # since the process started
        setup_wall_s = time.monotonic() - args.t0
        ref = reference.Reference()
        for _ in range(SETUP_REF_SAMPLES):
            ref.sample()
        setup_s = setup_cpu_s * ref.factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        inst.reset()

        durations, failures, problems, per_round = [], [], [], []
        timed = []  # (label, wall start, wall end, CPU time, wall time) of every operation
        samples = 0
        first = None
        rounds = 0
        statuses = {workloads.OK: 0, workloads.FAILED: 0, workloads.WRONG: 0}
        while rounds < MIN_ROUNDS or sum(durations) < args.seconds:
            results, digests = [], []
            before = inst.counters()
            for i, op in enumerate(wl.ops):
                ref.sample()
                hidden, start, cpu = inst.hidden_s, time.perf_counter(), time.process_time()
                rcs, texts = zip(*(workloads.call(cli, argv) for argv in op.argvs))
                cpu, end = time.process_time() - cpu, time.perf_counter()
                # the traced run's extra budget=0 solves are not the operation's time
                durations.append(cpu - (inst.hidden_s - hidden))
                timed.append((op.label, start, end, durations[-1], end - start))
                with inst.suspended():
                    digests.append(digest(op, rcs, texts))
                    if first is not None and digests[-1] == first[i]:
                        status, note = first_status[i]  # same outputs, same verdict
                    else:
                        status, note = op.judge(rcs, texts)
                statuses[status] += 1
                results.append((status, rcs, texts))
                if status != workloads.OK and rounds == 0:
                    failures.append(f"{op.label}: {status}: {note}")
                samples += sum(int(t.split("samples: ")[1].split(",")[0]) for t in texts if "samples: " in t)
            after = inst.counters()
            per_round.append({k: after[k] - before[k] for k in after})
            with inst.suspended():
                if first is None:
                    first = digests
                    first_status = [(st, "") for st, _, _ in results]
                    problems += wl.check(results)
                else:
                    problems += [
                        f"{op.label}: output differs from the first round"
                        for op, a, b in zip(wl.ops, first, digests) if a != b
                    ]
            rounds += 1
        ref.sample()  # the window of the last operation needs a sample after it

        scaled = {op.label: [] for op in wl.ops}
        cpu = {op.label: [] for op in wl.ops}
        wall = {op.label: [] for op in wl.ops}
        for label, start, end, took, walled in timed:
            scaled[label].append(ref.scale(took, start, end))
            cpu[label].append(took)
            wall[label].append(walled)
        median = {k: statistics.median(v) for k, v in scaled.items()}

        def typical(by_label):
            return statistics.geometric_mean(statistics.median(v) for v in by_label.values())

        op_s = statistics.geometric_mean(median.values())
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "rounds": rounds,
            "ops_per_round": len(wl.ops),
            "op_s": op_s,
            "op_cpu_s": typical(cpu),
            "op_wall_s": typical(wall),
            "setup_cpu_s": setup_cpu_s,
            "setup_wall_s": setup_wall_s,
            "ref_chunk_s": {
                "nominal": reference.REF_CHUNK_S,
                "median": statistics.median(ref.chunks),
                "min": min(ref.chunks),
                "max": max(ref.chunks),
            },
            "median_s_by_label": median,
            "counters_per_round": per_round[0],
            "counters_repeat": all(c == per_round[0] for c in per_round),
            "failures": failures,
            "problems": problems,
            "env": environment(),
        }
        if samples:
            info["samples_per_s"] = samples / sum(durations)
        if args.trace:
            metrics = inst.per_layer(rounds, ref.factor())
            inst.write_spans(scratch / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_s": {"value": op_s, "unit": "s"},
                "ops_per_s": {"value": len(wl.ops) / sum(median.values()), "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": statuses[workloads.WRONG] == 0 and not problems,
            "attempted": len(durations),
            "failed": statuses[workloads.FAILED],
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(wdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return work(args)
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
