#!/usr/bin/env python3
"""paydev benchmark.

    python3 perfbench/run.py --workload study_cv --seed 1 --seconds 20 --trace 0

Run from the repository root. It generates the workload's inputs from the
seed, then repeats the workload's chain of `paydev` commands until
`--seconds` have passed and checks every output.

--trace 0 runs each command as a fresh `python -m paydev.cli` process, one at
a time, and reports the end-to-end metrics: the chain's wall time, input
commits per second and child CPU time (from wait4), each at reference host
speed (below); peak child RSS; the median start-up time of a fresh
interpreter importing `paydev.cli` (which selects the split kernel); and the
share of chains that ran and passed the checks.

Reference host speed: the sandboxes this runs in share their cores, and
their speed drifts by tens of percent over minutes, which moves every time
alike. So before every pass the run also times a probe that runs no paydev
code (a fresh interpreter importing numpy), and scales the chain's wall and
CPU time by PROBE_REF_S / (median probe time). The raw figures are in the
detail line.

--trace 1 spends half the time on untraced chains and half on chains that
call `paydev.cli.main` in-process with every layer wrapped (see tracing.py),
and reports per-layer medians, the one-node split-kernel timings, and the
tracing overhead: traced wall minus untraced median wall. The untraced wall
includes each command's interpreter start-up; the traced one does not.

The last stdout line is the result object; the line before it holds the
environment stamp, input and output digests and every check's failures.
Spans are written to .perfbench/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 170  # every child is killed once the run is this old
SETUP = ("-c", "import paydev.cli")
PROBE = ("-c", "import numpy")  # host-speed probe; runs no paydev code
PROBE_REF_S = 0.2  # the probe's median on an idle 2-core sandbox
SAMPLES = 5  # set-up and probe samples per run, at least; one of each per pass
KERNEL_SIZES = {"1k": 1_000, "10k": 10_000, "100k": 100_000}


def _median(xs):
    return float(statistics.median(xs))


class Spawner:
    """Client of spawn.py, which starts every timed child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, cwd, env, deadline):
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(cwd / "stderr.txt"),
                   "timeout": max(1.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_chain(spawner, chain, workdir, env, deadline):
    """One untraced pass: (error or None, per-command wall_s and cpu_s, peak_rss_mb)."""
    walls, cpus, rss = [], [], 0.0
    for argv in chain:
        r = spawner.run([sys.executable, "-m", "paydev.cli", *argv], workdir, env, deadline)
        walls.append(r["wall_s"])
        cpus.append(r["cpu_s"])
        rss = max(rss, r["maxrss_kb"] / 1024.0)
        if r["code"] != 0:
            tail = (workdir / "stderr.txt").read_text(errors="replace").strip()[-300:]
            return f"paydev {argv[0]} exited {r['code']}: {tail}", walls, cpus, rss
    return None, walls, cpus, rss


def fits(until, pass_walls):
    """Whether a pass of the median length so far ends before `until`, so
    a run lasts about --seconds instead of overrunning by up to a pass."""
    return time.perf_counter() + _median(pass_walls) <= until


def chain_median(runs, key):
    """Sum over the chain's commands of each command's median over passes.

    On a host whose speed changes from second to second, this is steadier
    than the median of whole-chain sums: a slow spell that hits one command
    of a pass does not make the whole pass an outlier.
    """
    longest = max(len(r[key]) for r in runs)
    return sum(_median([r[key][i] for r in runs if len(r[key]) > i]) for i in range(longest))


def run_traced(chain, tracer):
    """One in-process pass with every layer wrapped; returns an error or None."""
    from paydev import cli

    main = tracer.wrap("cli", cli.main)
    with tracer.installed(), open(os.devnull, "w") as sink:
        for argv in chain:
            with redirect_stdout(sink), redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            if code != 0:
                return f"paydev {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"
    return None


def start_seconds(spawner, args, workdir, env, deadline):
    """Wall time of a fresh interpreter running `args`."""
    r = spawner.run([sys.executable, *args], workdir, env, deadline)
    if r["code"] != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {r['code']}")
    return r["wall_s"]


def kernel_metrics(errors):
    """One-node timings of the active split kernel (median of 5 calls) on
    random problems with 16 features; every available backend must return
    the same split."""
    import numpy as np

    from paydev.ml import kernels

    rng = np.random.default_rng(0)
    out = {}
    for label, n in KERNEL_SIZES.items():
        X = np.ascontiguousarray(rng.normal(size=(n, 16)))
        y = (rng.random(n) < 0.5).astype(np.int8)
        args = (X, y, np.arange(n, dtype=np.int64), np.arange(16, dtype=np.int64))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            kernels.best_split(*args)
            times.append(time.perf_counter() - t0)
        out[f"ml.kernels.one_node_{label}.ms"] = _median(times) * 1e3
        results = {name: fn(*args) for name, fn in kernels.available_backends().items()}
        if len(set(results.values())) != 1:
            errors.append(f"split backends disagree at n={n}: {results}")
    return out


def environment():
    import numpy

    from paydev.ml import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.BACKEND,
        "machine": platform.machine(),
    }


def check_pins(workload, seed, inputs, out, errors):
    """Compare the digests that must not change between commits with
    pins.json; returns them and whether this corpus seed is pinned there."""
    import workloads

    got = {f"input.{k}": v for k, v in inputs.digests().items()}
    got.update(workloads.pinned_digests(workload, out))
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    expected = pins.get(workload.name, {}).get(str(seed))
    if expected is None:
        return got, False
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            errors.append(f"seed {seed}: pinned digest {key} changed")
    return got, True


class Corpus:
    """One generated input set, its command chain and its first outputs."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.dir = workload, seed, workdir
        self.inputs = workload.generate(seed)
        workdir.mkdir(parents=True)
        for fname, data in self.inputs.files.items():
            (workdir / fname).write_bytes(data)
        self.chain = workload.chain(seed, lambda f: str(workdir / f))
        self.outputs = self.pins = self.pinned = None

    def outputs_ok(self, errors, tag):
        """Check the outputs fully after the first pass, then for identical bytes."""
        import workloads

        out = {f: (self.dir / f).read_bytes() for f in self.workload.outputs}
        digests = {f: workloads.sha256(data) for f, data in out.items()}
        if self.outputs is None:
            self.outputs = digests
            found = self.workload.check(out, self.inputs)
            self.pins, self.pinned = check_pins(self.workload, self.seed, self.inputs, out, found)
            errors.extend(f"seed {self.seed}: {e}" for e in found)
            return not found
        changed = sorted(f for f in digests if digests[f] != self.outputs[f])
        if changed:
            errors.append(f"seed {self.seed} {tag}: outputs differ from its first pass: {changed}")
        return not changed


def benchmark(spawner, name, seed, seconds, trace):
    """Untraced passes rotate over the workload's corpora, so a run measures
    more than one generated input; traced passes all use the first corpus,
    so their counts repeat exactly."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    deadline = time.monotonic() + BUDGET_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{name}-{seed}-{os.getpid()}"
    try:
        n = 1 if trace else workload.corpora
        corpora = [Corpus(workload, seed * n + k, workdir / str(k)) for k in range(n)]
        errors, runs, failed, setups, probes = [], [], 0, [], []

        def sample():
            setups.append(start_seconds(spawner, SETUP, workdir, env, deadline))
            probes.append(start_seconds(spawner, PROBE, workdir, env, deadline))

        t0 = time.perf_counter()
        untraced_until = t0 + (seconds / 2 if trace else seconds)
        while len(runs) < n or fits(untraced_until, [sum(r["wall_s"]) for r in runs]):
            if not trace:  # samples sit among the passes, so they see the same host
                sample()
            corpus = corpora[len(runs) % n]
            error, walls, cpus, rss = run_chain(spawner, corpus.chain, corpus.dir, env, deadline)
            if error:
                errors.append(error)
            if error or not corpus.outputs_ok(errors, f"pass {len(runs)}"):
                failed += 1
            runs.append({"corpus": corpus.seed, "commits": corpus.inputs.commits,
                         "wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss})

        tracers, traced_walls = [], []
        while trace and (not tracers or fits(t0 + seconds, traced_walls)):
            tracer = tracing.Tracer(run=len(tracers))
            t1 = time.perf_counter()
            error = run_traced(corpora[0].chain, tracer)
            if error:
                errors.append(error)
            if error or not corpora[0].outputs_ok(errors, f"traced pass {tracer.run}"):
                failed += 1
            tracers.append(tracer)
            traced_walls.append(time.perf_counter() - t1)

        while not trace and len(setups) < SAMPLES:
            sample()
        attempted = len(runs) + len(tracers)
        wall = chain_median(runs, "wall_s")
        raw = {}
        if trace:
            metrics = layer_metrics(tracers, wall, errors)
            metrics.update(kernel_metrics(errors))
            with open(scratch / f"trace-{name}-{seed}.jsonl", "w") as f:
                for tracer in tracers:
                    tracer.dump(f)
        else:
            commits, cpu = _median([r["commits"] for r in runs]), chain_median(runs, "cpu_s")
            raw = {"wall_s": wall, "commits_per_s": commits / wall, "cpu_s": cpu,
                   "probe_s": _median(probes)}
            scale = PROBE_REF_S / raw["probe_s"]
            metrics = {
                "wall_ref_s": wall * scale,
                "commits_per_ref_s": commits / (wall * scale),
                "cpu_ref_s": cpu * scale,
                "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
                "setup_s": _median(setups),
                "success_rate": (attempted - failed) / attempted,
            }
        detail = {
            "workload": name,
            "seed": seed,
            "env": environment(),
            "corpora": {
                c.seed: {"commits": c.inputs.commits, "inputs": c.inputs.digests(),
                         "outputs": c.outputs, "pinned": c.pinned}
                for c in corpora
            },
            "pins": {c.seed: c.pins for c in corpora},
            "raw": raw,
            "passes": runs,
            "setup_samples": setups,
            "probe_samples": probes,
            "traced_passes": len(tracers),
            "errors": errors,
        }
        return detail, metrics, attempted, failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracers, untraced_wall, errors):
    """Median of each per-layer time over the traced passes; counts must
    repeat exactly from pass to pass."""
    import tracing

    per_pass = [t.metrics() for t in tracers]
    out = {}
    for key, unit in tracing.metric_units().items():
        values = [m.get(key, 0) for m in per_pass]
        if unit == "s":
            out[key] = _median(values)
        else:
            out[key] = values[0]
            if len(set(values)) != 1:
                errors.append(f"count {key} differs between traced passes: {values}")
    for m in per_pass:
        if abs(m["self_sum_error_s"]) > 1e-6:
            errors.append(f"self times miss the traced wall by {m['self_sum_error_s']} s")
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def prepare():
    """Put the checkout's src/ and tests/ (for the oracles) on sys.path."""
    needed = [ROOT / "src" / "paydev" / "cli.py", ROOT / "tests" / "oracle_features.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a paydev checkout; missing {missing}", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spawner = Spawner()  # before anything large is loaded; see spawn.py
    try:
        return _main(parser, args, spawner)
    finally:
        spawner.close()


def _main(parser, args, spawner):
    if not prepare():
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    detail, metrics, attempted, failed = benchmark(
        spawner, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not detail["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
