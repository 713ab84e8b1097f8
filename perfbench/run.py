"""coxkit benchmark: one workload, run as a closed loop for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-manifest

Run from the root of a coxkit checkout; coxkit is imported from `src/`.
Set-up generates the workload's inputs from `--seed` in a fresh process,
several times, and checks that every repetition writes identical files.
Then one client in this process runs the workload's coxkit commands back to
back, through `coxkit.cli.main`, until starting another iteration would pass
`--seconds`, and at least twice. Every iteration's artifacts must be
byte-identical to the first one's, and the first one's quality figures must
pass the workload's checks.

`--trace 0` reports the end-to-end metrics. Their times are scaled to a
reference host speed sampled while the work runs (see steady.py); the raw
wall times are printed and stored beside them. `--trace 1` alternates untraced
and traced iterations and reports the per-layer metrics of the traced ones
(see layers.py); their difference is the tracing overhead. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Full results, with the environment, go to `.bench_results/`.

`--write-manifest` regenerates BENCHMARK.json from the definitions here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from steady import REFERENCE_S, SpeedSampler, keep_heap
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, reference_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 20
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60
# One BLAS thread: the speed sampler sees only the thread it interrupts, and
# the host's cores change speed independently of each other.
BLAS_THREADS = 1

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ref_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.01),
    ("cindex", "C", "higher", 0.15),
]


def units() -> dict[str, str]:
    """Every metric name, end-to-end and per-layer, with its unit."""
    return {name: unit for name, unit, _, _ in END_TO_END} | layers.per_layer_units()


def manifest() -> dict:
    higher = {"optim.fold_ok_ratio", "trace.coverage"}
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name in higher else "lower"}
            for name, unit in layers.per_layer_units().items()
        ],
    }


class Gate:
    """Counts checked operations; every miss is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr)


def digest_tree(top: Path) -> dict[str, tuple[str, int]]:
    """Relative path -> (sha256, size) for every file under `top`."""
    out = {}
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[str(path.relative_to(top))] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def set_up(workload, seed: int, work: Path, gate: Gate,
           tracer: Tracer | None) -> list[tuple[float, float]]:
    """Generate inputs SETUP_REPS times in fresh processes; keep the first.

    Returns (wall seconds, mean host speed) per repetition; the set-up
    process samples its own speed. With a tracer, set-up runs once more in
    this process, traced as the request "setup", for the set-up layers'
    per-layer metrics.
    """
    times, first = [], None
    for rep in range(SETUP_REPS):
        where = work if rep == 0 else work / f"setup-{rep}"
        where.mkdir(parents=True)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), workload.name, str(seed)],
            cwd=where, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - start
        times.append((wall, json.loads(done.stdout.splitlines()[-1])["speed"]))
        digest = digest_tree(where / "in")
        if first is None:
            first = digest
        else:
            gate.check(digest == first, f"set-up repetition {rep} wrote different inputs")
            shutil.rmtree(where)
    if tracer is not None:
        import setup_inputs

        where = work / "setup-traced"
        where.mkdir()
        tracer.request = "setup"
        layers.install(tracer)
        os.chdir(where)
        try:
            code = setup_inputs.main([workload.name, str(seed)])
        finally:
            tracer.restore()
            os.chdir(work)
        gate.check(code == 0 and digest_tree(where / "in") == first,
                   "traced set-up wrote different inputs")
        shutil.rmtree(where)
    return times


def run_command(cli, argv: list[str]) -> int:
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except Exception:  # a crash is a failed command; keep measuring the rest
        traceback.print_exc()
        return -1


def run_iteration(cli, workload, gate: Gate) -> tuple[float, float, dict[str, float]]:
    """One pass over the timed commands: (start, end, seconds per command)."""
    shutil.rmtree("out", ignore_errors=True)
    per_command: dict[str, float] = {}
    start = time.perf_counter()
    for argv in workload.timed:
        t0 = time.perf_counter()
        code = run_command(cli, argv)
        per_command[argv[0]] = per_command.get(argv[0], 0.0) + time.perf_counter() - t0
        gate.check(code == 0, f"`coxkit {' '.join(argv)}` exited {code}")
    return start, time.perf_counter(), per_command


def check_quality(workload, seed: int, gate: Gate) -> dict:
    try:
        quality = workload.quality()
    except (OSError, KeyError, ValueError) as exc:
        gate.check(False, f"cannot read quality figures: {exc!r}")
        return {}
    for ok, message in workload.checks(quality) + reference_checks(workload.name, seed, quality):
        gate.check(ok, message)
    return quality


def layer_metrics(tracer: Tracer, request: int, wall: float, artifact_bytes: int) -> dict:
    summary = tracer.summary(request)
    out = {}
    for name in layers.ITERATION_SPANS:
        entry = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in ("calls", "s", "self_s"):
            out[f"{name}.{field}"] = entry[field]
    counts = tracer.request_counts(request)
    for key in layers.COUNTERS:
        out[key] = counts.get(key, 0.0)
    out["cli.artifact_bytes"] = artifact_bytes
    out["trace.coverage"] = sum(e["self_s"] for e in summary.values()) / wall
    return out


def measure(cli, workload, args, gate: Gate, tracer: Tracer | None) -> dict:
    """The closed loop, in the current directory (the workload's work dir).

    Untraced runs sample the host's speed throughout; traced runs do not,
    so that no probe time lands in a span.
    """
    round_size = 2 if tracer else 1
    samples: list[dict] = []
    first_digest, quality = None, None
    with contextlib.nullcontext() if tracer else SpeedSampler() as sampler:
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(samples) % 2 == 1
            if traced:
                tracer.request = len(samples)
                layers.install(tracer)
            try:
                start, end, per_command = run_iteration(cli, workload, gate)
            finally:
                if traced:
                    tracer.restore()
            wall = end - start
            digest = digest_tree(Path("out"))
            if first_digest is None:
                first_digest = digest
                quality = check_quality(workload, args.seed, gate)
            else:
                what = "traced" if traced else "untraced"
                gate.check(digest == first_digest,
                           f"{what} iteration {len(samples)} artifacts differ from the first")
            sample = {"traced": traced, "wall_s": wall, "per_command_s": per_command}
            if sampler is not None:
                sample["speed"] = sampler.speed(start, end)
            if traced:
                artifact_bytes = sum(size for _, size in digest.values())
                sample["layers"] = layer_metrics(tracer, len(samples), wall, artifact_bytes)
            samples.append(sample)
            # at least two iterations, so every run checks one against another
            if len(samples) >= 2 and len(samples) % round_size == 0:
                elapsed = time.perf_counter() - begin
                if elapsed + elapsed / (len(samples) // round_size) > args.seconds:
                    break
    return {"samples": samples, "quality": quality}


def _median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(setup_times, run, gate: Gate) -> dict[str, float]:
    untraced = [s for s in run["samples"] if not s["traced"]]
    return {
        "setup_s": statistics.median(wall * speed for wall, speed in setup_times),
        "ref_wall_s": statistics.median(s["wall_s"] * s["speed"] for s in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_frac": 1.0 - len(gate.failures) / gate.attempted,
        "cindex": run["quality"].get("cindex", 0.0),
    }


def per_layer(run, tracer: Tracer) -> dict[str, float]:
    traced = [s for s in run["samples"] if s["traced"]]
    untraced = [s for s in run["samples"] if not s["traced"]]
    out = {
        key: statistics.median(s["layers"][key] for s in traced)
        for key in traced[0]["layers"]
    }
    setup = tracer.summary("setup")
    for name in layers.SETUP_SPANS:
        out[f"setup.{name}.s"] = setup.get(name, {"s": 0.0})["s"]
    out["trace.overhead_s"] = _median_of(traced, "wall_s") - _median_of(untraced, "wall_s")
    return out


def command_medians(workload, run) -> dict[str, float]:
    """Per-command seconds and training epochs per second, untraced.

    Seconds are scaled by their iteration's host speed when it was sampled.
    """
    untraced = [s for s in run["samples"] if not s["traced"]]
    out = {
        f"{command}_s": statistics.median(
            s["per_command_s"][command] * s.get("speed", 1.0) for s in untraced
        )
        for command in untraced[0]["per_command_s"]
    }
    training = out.get("train_s", 0.0) + out.get("search_s", 0.0)
    if workload.epochs and training:
        out["epochs_per_s"] = workload.epochs / training
    return out


def _read_first(path: Path, default: str = "unknown") -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return default


def _cpu_model() -> str:
    for line in _read_first(Path("/proc/cpuinfo"), "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read_first(index / "level", "0")
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), f"L{level} {_read_first(index / 'size')}")
    return best[1]


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(workload, seed: int, nproc: int, kept_heap: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "speed_probe_reference_s": REFERENCE_S,
        "malloc": "one untrimmed heap, no mmap" if kept_heap else "default",
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "seed": seed,
        "git_commit": _git_commit(),
        "workload": {"name": workload.name, "n": workload.n, "d": workload.d,
                     "epochs": workload.epochs},
    }


def _spread(values) -> str:
    values = list(values)
    if len(values) < 4:
        return f"min {min(values):.6g} max {max(values):.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g}"


def report(workload, args, setup_times, run, metrics, extras) -> None:
    untraced = [s for s in run["samples"] if not s["traced"]]
    unit = units()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"iterations={len(run['samples'])}")
    samples = {
        "setup_s": [wall * speed for wall, speed in setup_times],
        "ref_wall_s": [s["wall_s"] * s.get("speed", 1.0) for s in untraced],
    }
    for name, value in metrics.items():
        values = samples.get(name, [value])
        print(f"  {name:<44} {value:>14.6g} {unit[name]:<6} "
              f"{_spread(values)} n={len(values)}")
    for name, value in extras.items():
        print(f"  {name:<44} {value:>14.6g}")
    raw = {"raw setup wall_s": [wall for wall, _ in setup_times],
           "raw iteration wall_s": [s["wall_s"] for s in untraced]}
    if not args.trace:
        raw["host speed"] = [s["speed"] for s in untraced]
    for name, values in raw.items():
        print(f"  {name:<44} {statistics.median(values):>14.6g}        "
              f"{_spread(values)} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "coxkit" / "__init__.py").is_file():
        print(f"perfbench: no coxkit sources under {SRC}", file=sys.stderr)
        return 2

    # Cap BLAS threads before numpy is first imported, here and in the
    # set-up processes, which inherit the environment.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    kept_heap = keep_heap()
    sys.path.insert(0, str(SRC))
    from coxkit import cli

    workload = WORKLOADS[args.workload]
    args.results = ROOT / ".bench_results"
    args.results.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    gate = Gate()
    tracer = Tracer() if args.trace else None
    home = os.getcwd()
    try:
        setup_times = set_up(workload, args.seed, work, gate, tracer)
        os.chdir(work)
        run = measure(cli, workload, args, gate, tracer)
    except subprocess.SubprocessError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tracer.write_jsonl(args.results / f"{workload.name}-seed{args.seed}-spans.jsonl")
    metrics = per_layer(run, tracer) if tracer else end_to_end(setup_times, run, gate)
    extras = command_medians(workload, run)
    env = environment(workload, args.seed, nproc, kept_heap)
    report(workload, args, setup_times, run, metrics, extras)
    print("env " + json.dumps(env, sort_keys=True))
    unit = units()
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }
    details = {**result, "env": env, "failures": gate.failures,
               "setup": [{"wall_s": wall, "speed": speed} for wall, speed in setup_times],
               "quality": run["quality"], "commands": extras, "samples": run["samples"]}
    path = args.results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
