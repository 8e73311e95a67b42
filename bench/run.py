"""islt benchmark: seeded, closed-loop, single-process workloads.

Run from the repository root:

    python3 bench/run.py --workload prove-corpus --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own process, one operation at a time, on inputs
made from ``--seed`` during set-up. Set-up runs several times and its
median is ``setup_s``; then operations run until their timed work reaches
``--seconds``, and every output is verified outside the timed calls.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see metrics.py). The last line of standard output is one JSON
object; the exit code is 1 when any output was wrong, 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-up runs at least SETUP_REPEATS times, and a cheap one more often, up
# to SETUP_MAX_REPEATS, until the runs add up to SETUP_SECONDS
SETUP_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 3, 15, 2.0
WALL_LIMIT_S = 120  # per pass; a run must end within 180 s
WORKLOAD_NAMES = ("prove-corpus", "certify", "semantics", "cli")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import islt from this checkout's src/, never from anywhere else."""
    if not (SRC / "islt" / "__init__.py").is_file():
        _fail(f"no islt package under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import islt

    if not Path(islt.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported islt from {islt.__file__}, not from {SRC}")


def _environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "islt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _loop(op, timer, seconds=None, count=None) -> dict:
    """Run op(i, timer) for i = 0, 1, ... until the timed work reaches
    seconds, or count operations have run. Operations that fail before
    any timed call add no timed work, so wall time is capped as well."""
    from workloads import Outcome

    latencies: list[float] = []
    failed = wrong = 0
    notes: list[str] = []
    i = 0
    give_up = perf_counter() + WALL_LIMIT_S
    while ((timer.elapsed < seconds) if count is None else (i < count)) and perf_counter() < give_up:
        before = timer.elapsed
        try:
            out = op(i, timer)
        except Exception as e:  # the loop must go on and report it
            out = Outcome("wrong", f"operation {i} raised {type(e).__name__}: {e}")
        latencies.append(timer.elapsed - before)
        if out.status != "ok":
            failed += 1
            wrong += out.status == "wrong"
            if len(notes) < 5:
                notes.append(out.note)
        i += 1
    return {"ops": i, "work_s": timer.elapsed, "latencies": latencies,
            "failed": failed, "wrong": wrong, "notes": notes}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from metrics import END_TO_END, beyond, block_rate, per_layer, percentile
    from tracer import Tracer
    from workloads import WORKLOADS, Timer

    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        w = WORKLOADS[name](seed, seconds, workdir)
        setups = []
        while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS):
            start = perf_counter()
            w.setup()
            setups.append(perf_counter() - start)
        # the inputs live until the end: keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        info = {"workload": name, "seconds": seconds, "trace": int(trace),
                "setup_runs_s": [round(x, 4) for x in setups]}
        if not trace:
            res = _loop(w.op, Timer(), seconds=seconds)
            lat = sorted(res["latencies"])
            q = w.tail_percentile
            who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            values = {
                "setup_s": median(setups),
                "ops_per_s": block_rate(res["latencies"]),
                "latency_p50_ms": percentile(lat, 50) * 1e3,
                "latency_tail_ms": percentile(lat, q) * 1e3,
                "ok_share": 1 - res["failed"] / res["ops"],
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}
            info.update(tail_percentile=q, tail_samples_beyond=beyond(len(lat), q),
                        failed_share=res["failed"] / res["ops"], mean_ops_per_s=res["ops"] / res["work_s"],
                        latency_ms={f"p{p:g}": round(percentile(lat, p) * 1e3, 4) for p in (90, 99, 99.9, 100)})
        else:
            tracer = Tracer()
            tracer.install()
            try:
                res = _loop(w.traced_op, Timer(tracer), seconds=seconds)
            finally:
                tracer.uninstall()
            # the same operations again, untraced but for prove durations;
            # cli commands run as processes now, far slower than in-process
            clock = Tracer(only={"prove"}, bare=True)
            clock.install()
            try:
                if name == "cli":
                    plain = _loop(w.op, Timer(clock), seconds=seconds)
                else:
                    plain = _loop(w.op, Timer(clock), count=res["ops"])
            finally:
                clock.uninstall()
            cli_times = None
            if name == "cli":
                # the traced pass ran cli.main in-process; compare like with like
                mains = [w.main_seconds(i) for i in range(res["ops"])]
                cli_times = (median(mains), median(plain["latencies"]) - median(mains))
                base = sum(mains)
            else:
                base = plain["work_s"]
            overhead = res["work_s"] - base
            metrics = per_layer(tracer, res["ops"], overhead, overhead / base if base else 0.0,
                                clock.prove_ms, cli_times)
            info.update(untraced_work_s=round(base, 4), missing=tracer.missing)
            for key in ("failed", "wrong"):
                res[key] += plain[key]
            res["notes"] += plain["notes"]
        info.update(attempted=res["ops"], work_s=round(res["work_s"], 4), failed=res["failed"],
                    wrong=res["wrong"], counters=w.counters, notes=res["notes"])
        return {"correct": res["wrong"] == 0, "attempted": res["ops"], "failed": res["failed"],
                "metrics": metrics, "info": info}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_report(result: dict) -> None:
    info = result["info"]
    print(f"workload {info['workload']}: {info['attempted']} operations attempted, "
          f"{info['failed']} failed ({info['wrong']} wrong), {info['work_s']} s of timed work")
    for name, m in result["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{info['tail_percentile']:g}, {info['tail_samples_beyond']} samples beyond)"
        print(f"  {name:34s} {value:>14s} {m['unit']}{extra}")
    if "failed_share" in info:
        print(f"  {'failed_share':34s} {info['failed_share']:>14.6g} ratio")
    for note in info["notes"]:
        print(f"  failure: {note}")


def _run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        got = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = got.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(got.stderr)
        if got.returncode not in (0, 1) or not lines:
            _fail(f"workload {name} exited {got.returncode}")
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_program()
    env = _environment(args.seed)
    print("islt-bench " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["info"].update(env)
    _print_report(result)
    print("info " + json.dumps(result.pop("info"), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
