"""torsionlab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload point_base --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up (import, instance generation from the seed, one
untimed warm-up call) is timed in this process and in CHILD_SETUPS fresh
child processes that do the same and exit, and the median is reported,
because the first call of a process is slow in a minority of processes.
The timed part runs whole passes over the workload's pool of rounds
until ``--seconds`` have elapsed; each operation is timed on its own and
checked afterwards, outside the timed region.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, which alternates untraced and traced passes to measure
its own overhead and writes its spans to ``bench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("point_base", "form_valued", "exact_routes")
CHILD_SETUPS = 2
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def setup(name, seed, start):
    """Import, build the seeded pool and make the warm-up call.

    Returns (workload, seconds since ``start``, warm-up ms)."""
    import workloads

    wl = workloads.build(name, seed, OUT)
    t0 = time.perf_counter()
    wl.warmup.run()
    first_call_ms = 1e3 * (time.perf_counter() - t0)
    return wl, time.perf_counter() - start, first_call_ms


def child_setups(args):
    """Set-up times of CHILD_SETUPS fresh processes, run one after another."""
    out = []
    for _ in range(CHILD_SETUPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Tally:
    """Per-operation records of a set of passes."""

    def __init__(self):
        self.walls, self.cpus, self.digits = [], [], []
        self.attempted = self.failed = self.wrong = self.rounds = 0
        self.failures = {}

    def add(self, other):
        self.walls += other.walls
        self.cpus += other.cpus
        self.digits += other.digits
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.rounds += other.rounds
        for key, n in other.failures.items():
            self.failures[key] = self.failures.get(key, 0) + n


def run_pass(wl, oracles):
    """One pass over the pool: every round, every item, in order."""
    tally = Tally()
    for items in wl.rounds:
        for item in items:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = item.run()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            t1 = time.perf_counter()
            c1 = time.process_time()
            tally.walls.append(t1 - t0)
            tally.cpus.append(c1 - c0)
            tally.attempted += 1
            if error is None and not item.verdict(result):
                error = "report verdict fail"
            if error is not None:
                tally.failed += 1
                key = f"{item.kind}: {type(error).__name__ if isinstance(error, Exception) else error}"
                tally.failures[key] = tally.failures.get(key, 0) + 1
                continue
            checks = item.check(result)
            if all(abs(err) < tol for _, err, tol in checks):
                for name, err, tol in checks:
                    if name == item.accuracy:
                        tally.digits.append(oracles.digits(err, tol))
            else:
                tally.wrong += 1
                bad = [(n, float(abs(e)), t) for n, e, t in checks if not abs(e) < t]
                print(f"wrong result: {item.kind} {bad}", file=sys.stderr)
        tally.rounds += 1
    return tally


def end_to_end(tally, setups):
    verified = tally.attempted - tally.failed - tally.wrong
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "items_per_s": (verified / sum(tally.walls), "1/s"),
        "item_ms.p50": (1e3 * statistics.median(tally.walls), "ms"),
        "cpu_ms_per_item": (1e3 * sum(tally.cpus) / tally.attempted, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits": (statistics.median(tally.digits), "log10"),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    if importlib.util.find_spec("torsionlab") is None:
        print("torsionlab not found: run from the root of a source checkout "
              "(src/torsionlab)", file=sys.stderr)
        return 2

    if args.setup_only:
        wl, setup_s, first_call_ms = setup(args.workload, args.seed, _START)
        wl.close()
        print(json.dumps({"setup_s": setup_s, "first_call_ms": first_call_ms}))
        return 0

    c0 = time.perf_counter()
    setups = child_setups(args)
    children_s = time.perf_counter() - c0
    wl, setup_s, first_call_ms = setup(args.workload, args.seed, _START)
    setups.append({"setup_s": setup_s - children_s, "first_call_ms": first_call_ms})

    import oracles
    import tracing

    try:
        total = Tally()
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = Tally(), Tally()
            start = time.perf_counter()
            while True:
                plain.add(run_pass(wl, oracles))
                tracer.install()
                try:
                    traced.add(run_pass(wl, oracles))
                finally:
                    tracer.uninstall()
                if time.perf_counter() - start >= args.seconds:
                    break
            total.add(plain)
            total.add(traced)
            metrics = tracer.metrics(
                traced.rounds,
                first_call_ms=statistics.median(s["first_call_ms"] for s in setups),
                untraced_round_ms=1e3 * sum(plain.walls) / plain.rounds,
                traced_round_ms=1e3 * sum(traced.walls) / traced.rounds)
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                         {"workload": args.workload, "seed": args.seed,
                          "rounds": traced.rounds})
        else:
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                total.add(run_pass(wl, oracles))
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in end_to_end(total, setups).items()}
    finally:
        wl.close()

    for key, n in sorted(total.failures.items()):
        print(f"failed: {key} x{n}", file=sys.stderr)
    print(f"rounds {total.rounds}, attempted {total.attempted}, failed {total.failed}, "
          f"wrong {total.wrong}", file=sys.stderr)
    print(json.dumps({"correct": total.wrong == 0 and total.attempted > 0,
                      "attempted": total.attempted, "failed": total.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
