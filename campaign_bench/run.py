"""Campaign benchmark: cold and cached figure runs, end to end and per layer.

Run from the repository root:

    python3 campaign_bench/run.py --workload spray_healthy --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: repeated cold passes of
the workload (fresh store each, serial backend) for ``--seconds`` and
the set-up time of separate processes, in seconds scaled to a fixed
machine speed (``bench_clock``).  One cached re-run that also renders
REPRODUCTION.md and campaign.json checks the store round trip.
``--trace 1`` runs one untraced and one traced cold pass (plus a traced
cached pass), reports the per-layer metrics and writes a per-task cost
ledger to ``.bench_work/``.  ``--workload all`` runs every workload in
its own process.  The last line of standard output is one JSON object.
See NOTES.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from statistics import median  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from bench_check import (  # noqa: E402
    campaign_cells,
    canonical,
    failed_ids,
    load_reference,
    pin_reference,
    reference_path,
    same_content,
    task_id,
)
from bench_clock import (  # noqa: E402
    ScaledTimer,
    kernel_samples,
    speed_factor,
)
from bench_trace import LayerTracer, leftover_wrappers  # noqa: E402
from bench_workloads import DEFAULT_SEED, WORKLOADS, get_workload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: timed set-up processes per ``--trace 0`` run, after one untimed
SETUP_PROBES = 7
#: wall-clock limit for one set-up process
PROBE_TIMEOUT_S = 60

#: end-to-end metric -> unit (``--trace 0``)
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
}

#: per-layer metric -> unit (``--trace 1``)
LAYER_UNITS = {
    "sim.network.build_s": "s",
    "sim.network.builds": "count",
    "sim.engine.run_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.slots_crossed": "count",
    "sim.engine.events_per_slot": "1/slot",
    "sim.port.enqueue_calls": "count",
    "sim.port.enqueue_self_s": "s",
    "sim.port.drops": "count",
    "sim.port.ecn_marks": "count",
    "sim.port.trims": "count",
    "sim.switch.receive_calls": "count",
    "sim.switch.receive_self_s": "s",
    "sim.transport.on_data_calls": "count",
    "sim.transport.on_ack_calls": "count",
    "sim.transport.self_s": "s",
    "sim.transport.timeouts": "count",
    "sim.transport.retransmissions": "count",
    "sim.transport.useful_ratio": "ratio",
    "sim.transport.pkts_per_s": "1/s",
    "lb.next_entropy_calls": "count",
    "lb.feedback_calls": "count",
    "lb.self_s": "s",
    "harness.sweep.execute_task_s": "s",
    "harness.sweep.task_key_s": "s",
    "harness.sweep.tasks_cached": "count",
    "harness.store.open_s": "s",
    "harness.store.put_s": "s",
    "harness.store.get_s": "s",
    "harness.store.puts": "count",
    "harness.store.gets": "count",
    "harness.store.bytes": "B",
    "harness.backends.overhead_s": "s",
    "scenarios.registry.build_s": "s",
    "scenarios.registry.check_s": "s",
    "report.render_s": "s",
    "models.load_imbalance_s": "s",
    "models.ev_hashes": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def prepare_program() -> None:
    """Point the process at ``src/repro`` at smoke scale, or exit."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    # the benchmark fixes scale, store format and backend itself
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_BENCH_SCALE"] = "smoke"
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def layers():
    """The program's public modules the benchmark drives."""
    import repro.harness.campaign as campaign
    import repro.harness.store as store
    import repro.report as report
    import repro.scenarios  # noqa: F401  (loads the registry)

    return campaign, store, report


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    #: host seconds scaled to the reference speed (see bench_clock)
    wall_s: float
    #: host seconds as measured
    raw_s: float
    campaign: object
    cells: Dict[str, Optional[dict]]
    failed: List[str]
    store_dir: str


class Bench:
    """One benchmark process: a workload at a seed, and its tallies."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.campaign_mod, self.store_mod, self.report_mod = layers()
        self.specs = workload.specs(seed)
        self.expected = {spec.fig_id: [task_id(spec.fig_id, key)
                                       for key in spec.build()]
                         for spec in self.specs}
        self.all_ids = [i for ids in self.expected.values() for i in ids]
        self.reference = None
        self.problems: List[str] = []
        if seed == DEFAULT_SEED and os.path.exists(
                reference_path(workload.name)):
            self.reference = load_reference(workload.name)
            if set(self.reference) != set(self.all_ids):
                self.problems.append(
                    "reference task set differs from the workload's")
        elif seed == DEFAULT_SEED:
            self.problems.append(
                f"no reference at {reference_path(workload.name)}")
        self.attempted = 0
        self.failed = 0
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload.name}-",
                                     dir=WORK_ROOT)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def new_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.work)

    def cold(self, specs=None, sampled: bool = True) -> Pass:
        """One cold pass on a fresh store, checked inside the timing.

        ``sampled`` runs the speed kernel inside the pass; traced passes
        run it before and after the pass instead, so no span holds
        kernel time.
        """
        store_dir = self.new_dir()
        store = self.store_mod.open_store(store_dir)
        gc.collect()
        timer = ScaledTimer() if sampled else None
        around = [] if sampled else kernel_samples()
        with timer or contextlib.nullcontext():
            start = time.perf_counter()
            campaign = self.campaign_mod.run_campaign(
                specs or self.specs, store=store, backend="serial")
            cells = campaign_cells(campaign, self.expected)
            failed = failed_ids(cells, self.all_ids, self.reference)
            raw = time.perf_counter() - start
        if timer is not None:
            raw, scaled = timer.raw_s, timer.scaled_s
        else:
            scaled = raw * speed_factor(around + kernel_samples())
        self.attempted += len(self.all_ids)
        self.failed += len(failed)
        return Pass(scaled, raw, campaign, cells, failed, store_dir)

    def warm(self, store_dir: str, specs=None):
        """A fully cached re-run plus both report artifacts (the loop a
        user runs while editing claims); host seconds and campaign."""
        gc.collect()
        start = time.perf_counter()
        store = self.store_mod.open_store(store_dir)
        campaign = self.campaign_mod.run_campaign(
            specs or self.specs, store=store, backend="serial")
        self.report_mod.write_campaign_report(
            campaign,
            report_path=os.path.join(self.work, "REPRODUCTION.md"),
            json_path=os.path.join(self.work, "campaign.json"))
        return time.perf_counter() - start, campaign

    def agree(self, first: Pass, cells: Dict[str, Optional[dict]],
              what: str, failed: List[str] = ()) -> None:
        """Count tasks whose content differs from the first pass (those
        in ``failed`` are already counted)."""
        diff = [i for i in same_content(first.cells, cells)
                if i not in failed]
        if diff:
            self.failed += len(diff)
            self.problems.append(f"{what}: {len(diff)} task(s) differ, "
                                 f"e.g. {diff[0]}")

    def payloads(self, run: Pass) -> Dict[str, str]:
        """Canonical stored payload bytes of every task of a pass."""
        store = self.store_mod.open_store(run.store_dir)
        out = {}
        for outcome in run.campaign:
            if outcome.result is not None:
                for result in outcome.result.sweep:
                    out[result.key] = canonical(store.get(result.key))
        return out

    def verdicts(self, campaign) -> str:
        counts = campaign.counts()
        return ", ".join(f"{k} {v}" for k, v in counts.items() if v)


def setup_probe(workload_name: str, seed: int) -> List[float]:
    """Import, registry, figure matrices and store open, timed from
    process start (run as a separate process); host seconds followed
    by kernel samples taken right after."""
    _, store_mod, _ = layers()
    specs = get_workload(workload_name).specs(seed)
    for spec in specs:
        spec.build()
    os.makedirs(WORK_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="setup-", dir=WORK_ROOT)
    try:
        store_mod.open_store(tmp)
        raw = time.perf_counter() - _T0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [raw] + kernel_samples()


def measure_setup(workload_name: str,
                  seed: int) -> Tuple[List[float], List[float]]:
    """Host seconds of each timed set-up process, and the kernel
    samples they took."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    times, samples = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                             text=True, timeout=PROBE_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr}")
        if i:  # the first one warms caches and is not counted
            raw, *kernel = map(float, out.stdout.split())
            times.append(raw)
            samples += kernel
    return times, samples


# ----------------------------------------------------------------------
# the two run kinds
# ----------------------------------------------------------------------
def end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    setup, setup_kernel = measure_setup(bench.workload.name, bench.seed)
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        run = bench.cold()
        if passes:
            bench.agree(passes[0], run.cells, f"cold pass {len(passes) + 1}",
                        run.failed)
            shutil.rmtree(passes[-1].store_dir, ignore_errors=True)
        passes.append(run)
        if len(passes) == 1:
            peak_rss = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = passes[-1]
    warm, campaign = bench.warm(last.store_dir)
    if campaign.executed:
        bench.problems.append(
            f"cached pass executed {campaign.executed} task(s)")
    bench.agree(last, campaign_cells(campaign, bench.expected),
                "cached pass")
    print(f"{bench.workload.name}: {len(bench.all_ids)} tasks, verdicts "
          f"{bench.verdicts(last.campaign)}")
    print("cold passes (scaled/host s): " + " ".join(
        f"{p.wall_s:.4f}/{p.raw_s:.4f}" for p in passes))
    print(f"set-up (host s, speed {speed_factor(setup_kernel):.3f}): "
          + " ".join(f"{t:.4f}" for t in setup))
    print(f"host medians (s): wall {median([p.raw_s for p in passes]):.4f}"
          f" setup {median(setup):.4f} cached pass {warm:.4f}")
    # printed, not a metric: it depends on when the garbage collector
    # runs (see NOTES.md)
    print(f"peak RSS after the first cold pass: {peak_rss:.1f} MB")
    return {
        "wall_s": median([p.wall_s for p in passes]),
        "setup_s": median(setup) * speed_factor(setup_kernel),
    }


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def per_layer(bench: Bench) -> Dict[str, float]:
    plain = bench.cold()
    tracer = LayerTracer()
    specs = [replace(spec, build=tracer.wrap("scenarios.registry.build",
                                             spec.build))
             for spec in bench.specs]
    tracer.install()
    saved = tracer.patched()
    try:
        traced = bench.cold(specs, sampled=False)
        store_bytes = dir_bytes(traced.store_dir)
        _, warm = bench.warm(traced.store_dir, specs)
    finally:
        tracer.uninstall()
    if leftover_wrappers() or not all(vars(owner)[attr] is original
                                      for owner, attr, original in saved):
        bench.problems.append("tracer left a wrapper installed")
    if bench.payloads(plain) != bench.payloads(traced):
        bench.problems.append("traced payloads differ from untraced")
    bench.agree(plain, traced.cells, "traced pass", traced.failed)
    write_ledger(bench, tracer)
    print(f"{bench.workload.name}: untraced {plain.wall_s:.3f} s, traced "
          f"{traced.wall_s:.3f} s, verdicts "
          f"{bench.verdicts(plain.campaign)}")
    return layer_metrics(tracer, plain, traced, store_bytes,
                         traced.campaign.cached + warm.cached)


def layer_metrics(tracer, plain: Pass, traced: Pass, store_bytes: int,
                  cached: int) -> Dict[str, float]:
    spans = tracer.spans()
    counts = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    transport = ("sim.transport.on_data", "sim.transport.on_ack",
                 "sim.transport.on_nack", "sim.transport.start")
    run_s = incl("sim.engine")
    events = counts.get("events", 0)
    pkts = counts.get("pkts_sent", 0)
    slots = counts.get("slots_crossed", 0)
    return {
        "sim.network.build_s": incl("sim.network"),
        "sim.network.builds": calls("sim.network"),
        "sim.engine.run_s": run_s,
        "sim.engine.self_s": own("sim.engine"),
        "sim.engine.events": events,
        "sim.engine.events_per_s": ratio(events, run_s),
        "sim.engine.slots_crossed": slots,
        "sim.engine.events_per_slot": ratio(events, slots),
        "sim.port.enqueue_calls": calls("sim.port"),
        "sim.port.enqueue_self_s": own("sim.port"),
        "sim.port.drops": sum(counts.get(k, 0) for k in (
            "drops_overflow", "drops_link_down", "drops_ber")),
        "sim.port.ecn_marks": counts.get("ecn_marks", 0),
        "sim.port.trims": counts.get("trims", 0),
        "sim.switch.receive_calls": calls("sim.switch"),
        "sim.switch.receive_self_s": own("sim.switch"),
        "sim.transport.on_data_calls": calls("sim.transport.on_data"),
        "sim.transport.on_ack_calls": calls("sim.transport.on_ack"),
        "sim.transport.self_s": own(*transport),
        "sim.transport.timeouts": counts.get("timeouts", 0),
        "sim.transport.retransmissions": counts.get("retransmissions", 0),
        "sim.transport.useful_ratio":
            ratio(counts.get("data_pkts_needed", 0), pkts),
        "sim.transport.pkts_per_s": ratio(pkts, run_s),
        "lb.next_entropy_calls": calls("lb.next_entropy"),
        "lb.feedback_calls": calls("lb.feedback"),
        "lb.self_s": own("lb.next_entropy", "lb.feedback"),
        "harness.sweep.execute_task_s": incl("harness.sweep.execute_task"),
        "harness.sweep.task_key_s": incl("harness.sweep.task_key"),
        "harness.sweep.tasks_cached": cached,
        "harness.store.open_s": incl("harness.store.open"),
        "harness.store.put_s": incl("harness.store.put"),
        "harness.store.get_s": incl("harness.store.get"),
        "harness.store.puts": calls("harness.store.put"),
        "harness.store.gets": calls("harness.store.get"),
        "harness.store.bytes": store_bytes,
        "harness.backends.overhead_s": incl("harness.sweep.run_sweep")
        - incl("harness.sweep.execute_task", "harness.store.get",
               "harness.store.put"),
        "scenarios.registry.build_s": incl("scenarios.registry.build"),
        "scenarios.registry.check_s": incl("scenarios.registry.check"),
        "report.render_s": incl("report.render"),
        "models.load_imbalance_s": incl("models.load_imbalance"),
        "models.ev_hashes": counts.get("ev_hashes", 0),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.overhead_ratio": ratio(traced.wall_s - plain.wall_s,
                                      plain.wall_s),
    }


def write_ledger(bench: Bench, tracer, top: int = 5) -> None:
    """One JSON line per executed task of the traced cold pass."""
    path = os.path.join(WORK_ROOT, f"ledger-{bench.workload.name}-seed"
                                   f"{bench.seed}.jsonl")
    with open(path, "w") as fh:
        for record in tracer.ledger:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"ledger: {len(tracer.ledger)} tasks -> "
          f"{os.path.relpath(path, ROOT)}; most expensive:")
    for rec in sorted(tracer.ledger, key=lambda r: -r["wall_s"])[:top]:
        extra = " " + json.dumps(rec.get("params", {}))
        if "events" in rec:
            extra = (f" events={rec['events']} pkts={rec['pkts_sent']} "
                     f"timeouts={rec['timeouts']} "
                     f"retx={rec['retransmissions']} "
                     f"ev/pkt={rec['events_per_pkt']} flows="
                     f"{rec['flows_completed']}/{rec['flows_total']}")
        print(f"  {rec['wall_s']:8.3f} s  {rec['figure']}: "
              f"{rec['label']}{extra}")


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_one(args) -> int:
    workload = get_workload(args.workload)
    bench = Bench(workload, args.seed)
    try:
        if args.pin_reference:
            if args.seed != DEFAULT_SEED:
                raise SystemExit("--pin-reference needs the default seed")
            bench.reference = None
            run = bench.cold()
            path = pin_reference(workload.name, campaign_cells(
                run.campaign, bench.expected))
            print(f"pinned {len(run.cells)} tasks -> {path}")
            return 0
        if args.trace:
            metrics, units = per_layer(bench), LAYER_UNITS
        else:
            metrics, units = end_to_end(bench, args.seconds), E2E_UNITS
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {bench.failed / max(1, bench.attempted):.6g} "
          f"({bench.failed}/{bench.attempted} tasks)")
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then a summary."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise SystemExit(f"workload {name} exited {out.returncode}")
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    if args.trace:
        zero = [m for m in LAYER_UNITS if not any(
            r["metrics"][m]["value"] for r in results.values())]
        print(f"per-layer metrics that read 0 on every workload: {zero}")
    else:
        print(f"{'workload':16s}" + "".join(
            f"{m + ' (' + u + ')':>18s}" for m, u in E2E_UNITS.items()))
        for name, r in results.items():
            print(f"{name:16s}" + "".join(
                f"{r['metrics'][m]['value']:18.4f}" for m in E2E_UNITS))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin-reference", action="store_true",
                        help="rewrite the workload's reference from one "
                             "cold pass at the default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    prepare_program()
    if args.setup_probe:
        print(" ".join(f"{v:.6f}" for v in setup_probe(args.workload,
                                                        args.seed)))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
