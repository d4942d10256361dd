"""clubcomb benchmark: one workload, timed end to end, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--update]

Run it from anywhere inside a checkout; it imports clubcomb from the
checkout's src/.  Workloads: small-cli, verify-ladder (see
bench/README.md for what each measures and why).

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with per-layer spans, and prints the per-layer metrics;
spans go to bench/out/.  --smoke runs the smallest rung of each workload and
compares its work counts exactly with bench/counts.json (--update rewrites
that file after a deliberate change).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COUNTS_FILE = BENCH / "counts.json"
SETUP_LAUNCHES = 21
FRONTIER_RUNGS = (48, 64, 128)
PROBE_TIMEOUT_S = 60


class Pass:
    """What one timed pass measured and checked.

    Every request of the mix is sent once per pass, and a pass is repeated
    over the run.  A request's latency is the fastest of its repeats: other
    tenants of a shared machine slow it in bursts of seconds, which moved the
    plain median by up to a third from one run to the next, while the
    fastest repeat moved by a few percent.
    """

    def __init__(self):
        self.latencies: list[int] = []  # ns, one per attempted request
        self.best: dict[int, int] = {}  # mix index -> fastest latency, ns
        self.failed = 0
        self.failed_inputs: set[int] = set()
        self.failures: dict[str, int] = {}  # reason -> requests
        self.passes = 0
        self.work: dict[str, dict] = {}  # per distinct input, from the first pass
        self.peak_rss_mb = 0.0

    def record(self, index: int, ns: int) -> None:
        self.latencies.append(ns)
        self.best[index] = min(self.best.get(index, ns), ns)

    def fail(self, index: int, reason: str, requests: int = 1) -> None:
        self.failed += requests
        self.failed_inputs.add(index)
        self.failures[reason] = self.failures.get(reason, 0) + requests

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self) -> dict:
        ms = [t / 1e6 for t in self.best.values()]
        correct = len(ms) - len(self.failed_inputs)
        return {
            "requests_per_s": correct / (sum(ms) / 1e3),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
            "peak_rss_mb": self.peak_rss_mb,
        }


def timed_pass(wl, mix, seconds: float, tracer=None, dag: bool = False, launcher=None) -> Pass:
    """Closed loop, one caller: whole passes over the mix for about `seconds` of wall time.

    Each request is timed alone; its output is checked outside the timed
    region.  Where the workload asks for it (wl.collect), a full garbage
    collection runs before each request, also outside the timed region, so
    every request starts from the collector state of a one-shot call and
    not from whatever the request before it left.  The run stops at the
    pass boundary nearest the time budget.  Between passes the launcher, if
    any, takes its share of set-up timings, so they sample the machine over
    the whole run.
    """
    out = Pass()
    state: dict = {}
    budget = seconds * 1e9
    start = perf_counter_ns()
    while True:
        for index, req in enumerate(mix):
            if tracer is not None:
                tracer.current_request = out.attempted
            if wl.collect:
                gc.collect()
            t0 = perf_counter_ns()
            try:
                result = wl.call(req)
            except Exception as e:  # a crash is a failed request, not a crashed benchmark
                out.record(index, perf_counter_ns() - t0)
                out.fail(index, f"{req.label}: {type(e).__name__}")
                continue
            out.record(index, perf_counter_ns() - t0)
            try:
                work = wl.check(req, result, state, dag)
            except Exception as e:
                out.fail(index, f"{req.label}: {type(e).__name__}: {e}")
                continue
            finally:
                del result
            if work is not None:
                out.work[req.label] = work
        out.passes += 1
        spent = perf_counter_ns() - start
        if launcher is not None:
            launcher.run_until(spent / budget if budget else 1.0)
        if spent + spent / out.passes / 2 >= budget:
            break
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for label in wl.finish(mix, state):
        for index, req in enumerate(mix):
            if req.label == label:
                out.fail(index, f"{label}: reference check", out.passes)
    return out


class Launcher:
    """Wall times of fresh interpreters running `code`, with src/ on their path."""

    def __init__(self, code: str, count: int = SETUP_LAUNCHES):
        self.code = code
        self.count = count
        self.times: list[float] = []

    def run_until(self, fraction: float) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        while len(self.times) < min(self.count, math.ceil(self.count * fraction)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", self.code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            self.times.append(perf_counter() - t0)

    def median_s(self) -> float:
        self.run_until(1.0)
        return statistics.median(self.times)


def work_counts(p: Pass, tracer, mix_size: int) -> dict:
    """Deterministic work of one pass over the mix."""
    counts = {"requests.attempted": mix_size, "requests.failed": p.failed // p.passes}
    for name in ("finord.gens_t", "finord.gens_s", "finord.gens_d", "comb.normalize.steps"):
        counts[name] = 0
    for req, name, amount in tracer.counts:
        if req < mix_size:
            counts[name] += amount
    counts["compiler.witness_leaves"] = sum(w["leaves"] for w in p.work.values())
    counts["compiler.witness_dag_nodes"] = sum(w["dag_nodes"] for w in p.work.values())
    return counts


def per_layer(wl, mix, untraced: Pass, traced: Pass, tracer, setup_s: float) -> dict:
    m = {}
    n_req = traced.attempted
    totals = tracer.totals()
    self_ns = {layer: t for (layer, _), t in totals["self_ns"].items()}
    calls = {layer: c for (layer, _), c in totals["calls"].items()}

    for name, unit in per_layer_units().items():
        layer, _, what = name.rpartition(".")
        if what in ("self_ms", "self_us"):
            m[name] = self_ns.get(layer, 0) / n_req / (1e6 if unit == "ms" else 1e3)
    m["cli.calls"] = calls.get("cli.main", 0)

    counts = work_counts(traced, tracer, len(mix))
    m.update(counts)
    leaves = counts["compiler.witness_leaves"]
    m["compiler.sharing_ratio"] = counts["compiler.witness_dag_nodes"] / leaves if leaves else 0.0
    all_steps = sum(a for _, name, a in tracer.counts if name == "comb.normalize.steps")
    m["comb.us_per_step"] = self_ns.get("comb.normalize", 0) / 1e3 / all_steps if all_steps else 0.0

    # Per-rung breakdowns on the verify ladder: us/step and sharing.
    def rung_of(req: int) -> int | None:
        return mix[req % len(mix)].rung if req >= 0 else None

    by_rung = tracer.totals(rung_of)["self_ns"]
    steps_by_rung: dict = {}
    for req, name, amount in tracer.counts:
        if name == "comb.normalize.steps":
            steps_by_rung[rung_of(req)] = steps_by_rung.get(rung_of(req), 0) + amount
    for rung, steps in steps_by_rung.items():
        if rung is not None and steps:
            m[f"comb.us_per_step.n{rung}"] = by_rung.get(("comb.normalize", rung), 0) / 1e3 / steps
    for rung in {req.rung for req in mix if req.label in traced.work}:
        work = [traced.work[req.label] for req in mix if req.rung == rung and req.label in traced.work]
        rung_leaves = sum(w["leaves"] for w in work)
        m[f"compiler.sharing_ratio.n{rung}"] = sum(w["dag_nodes"] for w in work) / rung_leaves

    # Share of the timed wall time that the listed layers' self times cover.
    m["trace.self_coverage"] = sum(self_ns.values()) / sum(traced.latencies)
    # Tracing overhead: traced minus untraced end-to-end numbers.
    t, u = traced.end_to_end(), untraced.end_to_end()
    for key in ("requests_per_s", "latency_p50_ms", "latency_p90_ms"):
        m[f"trace.delta.{key}"] = t[key] - u[key]
    m["import.clubcomb_ms"] = (setup_s - Launcher("pass").median_s()) * 1e3
    return m


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    from workloads import SHAPES, WORKLOADS
    units = {"cli.main.self_ms": "ms", "cli.calls": "count"}
    for layer in ("poly.parse", "poly.usage", "finord.minimal_club", "finord.factor"):
        units[f"{layer}.self_us"] = "us"
    units.update({f"finord.gens_{k}": "count" for k in "tsd"})
    units.update({
        "compiler.compile_bracketing.self_ms": "ms",
        "compiler.compile.self_ms": "ms",
        "compiler.witness_leaves": "count",
        "compiler.witness_dag_nodes": "count",
        "compiler.sharing_ratio": "ratio",
    })
    units.update({f"compiler.sharing_ratio.n{n}": "ratio" for n in WORKLOADS["verify-ladder"].rungs})
    units.update({
        "comb.normalize.self_ms": "ms",
        "comb.normalize.steps": "count",
        "comb.us_per_step": "us",
    })
    units.update({f"comb.us_per_step.n{n}": "us" for n in WORKLOADS["verify-ladder"].rungs})
    units.update({
        "comb.format_comb.self_ms": "ms",
        "comb.parse_comb.self_us": "us",
        "import.clubcomb_ms": "ms",
        "trace.self_coverage": "ratio",
        "trace.delta.requests_per_s": "1/s",
        "trace.delta.latency_p50_ms": "ms",
        "trace.delta.latency_p90_ms": "ms",
    })
    units.update({f"frontier.{s}.{u}.max_verified": "count"
                  for s in SHAPES for u in WORKLOADS["verify-ladder"].usages})
    return units


def frontier(seed: int) -> dict:
    """Verification probed above the ladder, each probe in its own interpreter.

    For each shape x usage family: the highest rung that verifies (40, the
    ladder's top, if no probe does) and the exception at the first that fails.
    """
    from workloads import SHAPES, VerifyLadder
    out = {}
    for shape in SHAPES:
        for usage in VerifyLadder.usages:
            family = {"max_verified": VerifyLadder.rungs[-1], "first_failure": None}
            for n in FRONTIER_RUNGS:
                cmd = [sys.executable, str(BENCH / "probe.py"), str(n), shape, usage, str(seed)]
                try:
                    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                          timeout=PROBE_TIMEOUT_S)
                    lines = done.stdout.strip().splitlines()
                    verdict = json.loads(lines[-1]) if done.returncode == 0 and lines else \
                        {"error": f"exit {done.returncode}"}
                except subprocess.TimeoutExpired:
                    verdict = {"error": "Timeout"}
                if verdict.get("verified"):
                    family["max_verified"] = n
                    continue
                family["first_failure"] = {"n": n, "error": verdict.get("error", "not verified")}
                break
            out[f"{shape}.{usage}"] = family
    return out


def smoke(update: bool) -> int:
    """Smallest rung of each workload, one traced pass, work counts compared exactly."""
    from tracing import Tracer
    from workloads import WORKLOADS
    got = {}
    for name, wl in WORKLOADS.items():
        mix = wl.mix(1, smallest=True)
        tracer = Tracer()
        tracer.install()
        try:
            p = timed_pass(wl, mix, 0, tracer=tracer, dag=True)
        finally:
            tracer.uninstall()
        got[name] = work_counts(p, tracer, len(mix))
    if update:
        COUNTS_FILE.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {COUNTS_FILE.relative_to(ROOT)}")
        return 0
    want = json.loads(COUNTS_FILE.read_text())
    bad = [(w, k, want.get(w, {}).get(k), v) for w in got for k, v in got[w].items()
           if want.get(w, {}).get(k) != v]
    bad += [(w, k, v, None) for w in want for k, v in want[w].items() if k not in got.get(w, {})]
    for w, k, expected, actual in bad:
        print(f"{w} {k}: expected {expected}, got {actual}")
    print("smoke: counts match" if not bad else f"smoke: {len(bad)} counts differ")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("small-cli", "verify-ladder"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    if not (SRC / "clubcomb" / "__init__.py").is_file():
        print(f"error: no clubcomb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.update)
    if args.workload is None:
        parser.error("--workload is required")

    from tracing import Tracer
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    setup = Launcher("import clubcomb.cli")
    mix = wl.mix(args.seed)
    wl.call(mix[0])  # warm-up, untimed

    if not args.trace:
        p = timed_pass(wl, mix, args.seconds, launcher=setup)
        passes = [p]
        metrics = dict(p.end_to_end(), setup_s=setup.median_s())
        units = {"requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    else:
        untraced = timed_pass(wl, mix, args.seconds / 2, launcher=setup)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(wl, mix, args.seconds / 2, tracer=tracer, dag=True)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        metrics = per_layer(wl, mix, untraced, traced, tracer, setup.median_s())
        found = frontier(args.seed) if wl.name == "verify-ladder" else {}
        for family, verdict in found.items():
            metrics[f"frontier.{family}.max_verified"] = verdict["max_verified"]
        units = per_layer_units()
        metrics = {name: metrics.get(name, 0) for name in units}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = dict(tracer.dump(), workload=wl.name, seed=args.seed, frontier=found,
                     labels=[r.label for r in mix])
        (out_dir / f"trace-{wl.name}-{args.seed}.json").write_text(json.dumps(spans))
        for family, verdict in found.items():
            print(f"frontier {family}: {json.dumps(verdict)}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for reason, n in sorted(p.failures.items()):
            print(f"FAILED {n}x {reason}")
    print(f"workload {wl.name} seed {args.seed}: {attempted} requests in "
          f"{sum(p.passes for p in passes)} passes of {len(mix)}, "
          f"failed_share {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:34} {value:14.6f} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "count")}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
