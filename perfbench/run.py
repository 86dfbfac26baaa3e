"""psombor benchmark: time to a validated result for two CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Each workload runs in its own process and calls psombor.cli.run in-process
with --format json --out <file>, repeating passes over the workload's items
until --seconds have elapsed, and checks every output. Between passes it
times a fixed reference loop, so that pass times can be given in units of
the machine's speed during the run. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

# One BLAS thread: the load is one single-threaded caller, and idle OpenBLAS
# workers spinning on the second core of a small machine would perturb the
# pass that follows a check. Set before numpy is first imported (by checks);
# the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from inputs import ROOT, SRC, import_psombor  # noqa: E402

SETUP_REPEATS = 9
# Reference-loop samples: rotation rounds and tuples per sample (about
# 0.3 s on a shared two-core Xeon VM), and reference-loop time taken per
# second of pass time.
REF_ROUNDS = 120
REF_TUPLES = 16000
REF_SHARE = 0.25
REFERENCE = HERE / "reference.json"


# ---------------------------------------------------------------------------
# set-up

def setup_samples(workload: str, seed: int, scratch: str) -> list[float]:
    samples = []
    for i in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(prefix=f"setup{i}_", dir=scratch)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), workdir],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# machine-speed reference

def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python workload that shares no code with
    psombor.

    Half of it is the inner loop of a Jacobi rotation on nested lists
    (interpreted float arithmetic and indexing, where the pure backend spends
    its time); its values stay near 1, so no sample meets overflow or
    subnormals. The other half builds, counts and sorts small tuples (object
    churn, as in tree enumeration, canonical keys and the check logic). The
    mix tracked pass times better than either half alone; see README.md.
    """
    t0 = time.perf_counter()
    n = 24
    rows = [[1.0 / (1 + i + j) for j in range(n)] for i in range(n)]
    s, tau = 0.01, 0.005
    for _ in range(REF_ROUNDS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                for row in rows:
                    akp = row[p]
                    akq = row[q]
                    row[p] = akp - s * (akq + tau * akp)
                    row[q] = akq + s * (akp - tau * akq)
    rng = random.Random(1)
    counts: dict = {}
    for _ in range(REF_TUPLES):
        key = tuple(sorted(rng.randrange(8) for _ in range(6)))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    """One pass over the workload's items: wall time, and per item the exit
    code and the warning messages raised."""

    wall: float
    codes: list[int]
    warned: list[list[str]]


def run_pass(cli, items: list[dict]) -> Pass:
    """Call cli.run once per item; wall time spans the first call to the last."""
    codes, warned = [], []
    t0 = time.perf_counter()
    for item in items:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # cli.run is looked up on every call so a traced pass sees the wrapper.
            codes.append(cli.run(item["argv"] + ["--format", "json", "--out", item["out"]]))
        warned.append([str(w.message) for w in caught])
    wall = time.perf_counter() - t0
    return Pass(wall, codes, warned)


class Tally:
    """Items attempted and failed, the failure reasons, and oracle errors."""

    def __init__(self, workload: str, refs: dict):
        self.check = checks.CHECKS[workload]
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.eig_err = 0.0
        self.output_bytes = 0

    def judge(self, items: list[dict], result: Pass) -> None:
        """Check each item's output, then delete it so no pass can read a
        file an earlier pass wrote."""
        self.output_bytes = 0
        for item, rc, messages in zip(items, result.codes, result.warned):
            self.attempted += 1
            out = Path(item["out"])
            if out.exists():
                data = out.read_bytes()
                out.unlink()
                self.output_bytes += len(data)
                res = self.check(item, rc, data, self.refs)
            else:
                res = checks.CheckResult()
                res.fail(f"exit code {rc} and no output")
            for m in messages:
                res.fail(f"unexpected warning: {m}")
            self.eig_err = max(self.eig_err, res.eig_err)
            if not res.ok:
                self.failed += 1
                self.reasons.extend(f"{item['argv'][0]}: {r}" for r in res.reasons)


def fits(deadline: float, step: float) -> bool:
    """Whether one more step as long as the last one ends by the deadline, so
    that a run lasts at most `seconds` once its first step is done."""
    return time.perf_counter() + step <= deadline


def measure(cli, items, tally: Tally, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced passes for `seconds`, with reference-loop samples after each
    pass until they add up to REF_SHARE of the pass time so far. Returns
    (pass wall times, reference-loop times)."""
    walls, refs = [], [reference_loop()]
    deadline = time.perf_counter() + seconds
    step = 0.0
    while not walls or fits(deadline, step):
        t0 = time.perf_counter()
        result = run_pass(cli, items)
        walls.append(result.wall)
        tally.judge(items, result)
        while sum(refs) < REF_SHARE * sum(walls):
            refs.append(reference_loop())
        step = time.perf_counter() - t0
    return walls, refs


def measure_traced(cli, items, tally: Tally, seconds: float):
    """Alternate untraced and traced passes for `seconds`.

    Returns (untraced walls, traced walls, per-pass layer metrics, per-pass
    work counts, oracle error over the first traced pass's decompositions).
    """
    from layers import Tracer

    plain, traced, layer_metrics, counts = [], [], [], []
    eig_err = None
    deadline = time.perf_counter() + seconds
    step = 0.0
    while not traced or fits(deadline, step):
        t0 = time.perf_counter()
        result = run_pass(cli, items)
        plain.append(result.wall)
        tally.judge(items, result)
        with Tracer(capture_spectra=eig_err is None) as tracer:
            result = run_pass(cli, items)
        traced.append(result.wall)
        tally.judge(items, result)
        layer_metrics.append(tracer.metrics())
        counts.append(tracer.counts())
        if eig_err is None:
            eig_err = tracer.eig_err_scaled()
        step = time.perf_counter() - t0
    return plain, traced, layer_metrics, counts, eig_err


# ---------------------------------------------------------------------------
# run record

def run_metadata(psombor) -> dict:
    import numpy

    sha = "none"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "psombor").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "backend": psombor.backend_name(),
        "psombor_pure_env": os.environ.get("PSOMBOR_PURE", ""),
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}"


# ---------------------------------------------------------------------------
# entry points

def run_workload(args) -> int:
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=scratch_root)
    try:
        setups = setup_samples(args.workload, args.seed, scratch)
        psombor = import_psombor()
        from psombor import cli

        items = inputs.generate(args.workload, args.seed, tempfile.mkdtemp(dir=scratch))
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
        tally = Tally(args.workload, refs)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "items_per_pass": len(items), **run_metadata(psombor)}
        if args.workload == "verify_all":
            record["corpus_seed"] = items[0]["corpus_seed"]
        if args.trace:
            plain, traced, per_pass, counts, eig_err = measure_traced(
                cli, items, tally, args.seconds)
            # Times are medians over traced passes; counts and ratios come
            # from the first traced pass.
            metrics = {name: statistics.median(m[name] for m in per_pass)
                       if name.endswith("_s") else value
                       for name, value in per_pass[0].items()}
            metrics["spectral.eig_err_scaled"] = eig_err
            metrics["cli.output_bytes"] = tally.output_bytes
            metrics["trace.wall_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            record.update(untraced_walls=plain, traced_walls=traced, work_counts=counts[0],
                          work_counts_repeat=all(c == counts[0] for c in counts))
        else:
            walls, refs = measure(cli, items, tally, args.seconds)
            metrics = {
                "wall_ref": statistics.median(walls) / statistics.median(refs),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(walls=walls, reference_loops=refs,
                          wall_s=statistics.median(walls),
                          reference_loop_s=statistics.median(refs))
        record.update(setup_samples=setups, attempted=tally.attempted, failed=tally.failed,
                      error_rate=tally.failed / tally.attempted,
                      eig_err_scaled=tally.eig_err if args.workload != "verify_all" else None,
                      failures=tally.reasons[:20])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run still uses it
            pass
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    record["metrics"] = metrics = {name: metrics[name] for name in units}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {record['backend']}  items/pass {record['items_per_pass']}")
    if args.trace:
        print(f"  untraced pass wall_s: {_quartiles(record['untraced_walls'])}")
        print(f"  traced pass wall_s:   {_quartiles(record['traced_walls'])}")
        print(f"  work counts repeat across traced passes: {record['work_counts_repeat']}")
    else:
        print(f"  pass wall_s: {_quartiles(record['walls'])}")
        print(f"  reference loop s: {_quartiles(record['reference_loops'])}")
    print(f"  setup_s samples: {_quartiles(setups)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value!r:>24} {units[name]}")
    if not args.trace:
        print(f"  {'wall_s':<44} {record['wall_s']!r:>24} s (median pass; not bounded, "
              f"see README.md)")
    print(f"  {'error_rate':<44} {record['error_rate']!r:>24} "
          f"ratio ({tally.failed}/{tally.attempted} items)")
    eig = record["eig_err_scaled"]
    print(f"  {'eig_err_scaled':<44} {('n/a' if eig is None else repr(eig)):>24} "
          f"ratio (tolerance {checks.EIG_TOL:g})")
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(args) -> int:
    """Every workload in its own process; a summary table at the end."""
    rows, status = [], 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2][len("record "):])
        rows.append(record)
    print()
    for rec in rows:
        cells = [f"{name}={rec['metrics'][name]:.4g}" for name in rec["metrics"]][:6]
        print(f"{rec['workload']:<15} error_rate={rec['error_rate']} "
              f"eig_err_scaled={rec['eig_err_scaled']} " + " ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psombor" / "__init__.py").is_file():
        print(f"error: psombor sources not found under {SRC}", file=sys.stderr)
        return 2
    # A user tolerance would change every bound check and the reference reports.
    os.environ.pop("PSOMBOR_TOL", None)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
