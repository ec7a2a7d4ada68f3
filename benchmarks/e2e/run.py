"""One command for every end-to-end and per-layer metric.

    PYTHONPATH=src python -m benchmarks.e2e.run [--workload NAME] [--seed S]
        [--seconds N] [--trace] [--smoke] [--verify-oracle] [--out DIR]

(``python3 benchmarks/e2e/run.py ...`` is the same thing and finds ``src/``
itself.)  Each workload replays its fixed op list in ``seconds / 3`` passes,
each pass a fresh interpreter (and, for ``serve_*``, a fresh server; for
``join_*``, one pinned replica per CPU at once); every metric is printed by
name with its unit, answers are checked, and the last line of standard
output is one JSON object.  The exit code is non-zero when
any answer is wrong, any op failed or a server process was left behind.

Without ``--trace`` the JSON line carries the end-to-end metrics; with it, a
separate traced pass yields the per-layer metrics (and one untraced pass
gives the tracing overhead).  End-to-end numbers never come from a traced
pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"the benchmark measures the program under {ROOT / 'src'}, "
             f"which is missing")
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Sequence  # noqa: E402

from benchmarks.e2e import oracle, serving, workloads  # noqa: E402
from benchmarks.e2e.workloads import DEFAULT_SEED, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Nominal length of one pass; ``--seconds`` buys ``seconds / 3`` passes.
PASS_SECONDS = 3.0
PASS_TIMEOUT = 150.0


def load_contract() -> tuple[dict, dict]:
    """``BENCHMARK.json`` (what the driver reads) and ``catalogue.json``
    (what it has no keys for: moves, floors, digests, baseline)."""
    return (json.loads((ROOT / "BENCHMARK.json").read_text()),
            json.loads((HERE / "catalogue.json").read_text()))


_SUFFIX_UNITS = (("_ops_s", "ops/s"), ("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                 ("_mb", "MB"), ("_share", "share"), (".bytes", "B"),
                 ("_skew", "ratio"), ("_unsharded", "ratio"))


def unit_of(name: str) -> str:
    """A metric's unit, which its name ends with (anything else counts)."""
    return next((unit for suffix, unit in _SUFFIX_UNITS
                 if name.endswith(suffix)), "count")


def tail_of(samples: list[float], passes: int) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    ``samples`` pools ``passes`` replays of the same ops, so only one pass's
    worth is independent: the percentile is chosen for that many.
    """
    ordered = sorted(samples)
    independent = len(ordered) // passes
    for percent in (99, 95, 90, 75):
        if independent * (100 - percent) // 100 >= 10:
            beyond = len(ordered) * (100 - percent) // 100
            return f"p{percent}", ordered[len(ordered) - beyond - 1]
    return "p50", statistics.median(ordered)


def run_passes(workload: Workload, seed: int, smoke: bool, trace: bool = False,
               cpus: Sequence[int | None] = (None,)) -> list[dict]:
    """One pass per entry of ``cpus``, started together, each pinned to its
    CPU (``None``: not pinned) in a fresh interpreter that leads a session
    of its own, so whatever it leaves behind can be found and is killed."""
    children: list[subprocess.Popen] = []
    leaked: list[int] = []
    try:
        for cpu in cpus:
            command = [sys.executable, "-m", "benchmarks.e2e.passes",
                       "--workload", workload.name, "--seed", str(seed),
                       "--t0", repr(time.time())]
            command += ["--smoke"] * smoke + ["--trace"] * trace
            if cpu is not None:
                command += ["--cpu", str(cpu)]
            children.append(subprocess.Popen(
                command, cwd=ROOT, env=serving.program_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                start_new_session=True))
        outputs = [child.communicate(timeout=PASS_TIMEOUT)[0]
                   for child in children]
    except BaseException:  # timeout, Ctrl-C: let each pass reap its server
        for child in children:
            child.terminate()
        for child in children:
            try:
                child.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
        raise
    finally:
        for child in children:
            leaked += serving.pids_in("session", child.pid)
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    results = []
    for child, out in zip(children, outputs):
        if child.returncode != 0:
            raise RuntimeError(f"pass of {workload.name} exited with "
                               f"{child.returncode}")
        results.append({**json.loads(out.splitlines()[-1]),
                        "leaked_pids": leaked})
    return results


def answer_digest(answers: list) -> str:
    return hashlib.sha256(
        json.dumps(answers, separators=(",", ":")).encode()).hexdigest()


class Check:
    """Counts operations attempted and failed, and why a run is not correct."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str, failed: int = 1) -> None:
        self.failed += failed
        self.problems.append(message)


def wrong_writes(inputs: workloads.Inputs, answers: list[list]) -> int:
    """Inserts must return the next id, deletes of live ids ``True``."""
    wrong = 0
    for stream, stream_answers in zip(inputs.streams, answers):
        next_id = len(inputs.strings)
        for payload, answer in zip(stream, stream_answers):
            if payload["op"] == "insert":
                wrong += answer is not None and answer != next_id
                next_id += 1
            elif payload["op"] == "delete":
                wrong += answer is False
    return wrong


def check_pass(workload: Workload, inputs: workloads.Inputs, result: dict,
               first: dict, check: Check, rng: random.Random,
               full: bool) -> None:
    """Failed ops, then the oracle for the first pass and equality with the
    first pass for the others (every pass replays the same op list)."""
    answers = result["answers"]
    if workload.kind == "join":
        check.attempted += 1  # one join call
    else:
        for stream, stream_answers in zip(inputs.streams, answers):
            check.attempted += len(stream) * workload.batch
            lost = sum(answer is None for answer in stream_answers)
            if lost:
                check.problem(f"{lost} request lines failed or timed out",
                              lost * workload.batch)
        if result.get("server_clean") is False:
            check.problem("the server did not shut down cleanly")
    if result is not first:
        if answers != first["answers"]:
            check.problem("answers differ between passes of one run")
    elif workload.kind == "join":
        checked, wrong = oracle.check_join(workload, inputs, answers, rng, full)
        if wrong:
            check.problem(f"{wrong} of {checked} brute-forced pairs differ")
    else:
        checked, wrong = oracle.check_serve(workload, inputs, answers, rng,
                                            full)
        wrong += wrong_writes(inputs, answers)
        if wrong:
            check.problem(f"{wrong} answers differ from the oracle "
                          f"({checked} reads brute-forced)", wrong)
    if result.get("depth_disagreements"):
        check.problem(f"{result['depth_disagreements']} answers differ "
                      f"between replay depths",
                      result["depth_disagreements"])
    if result["leaked_pids"]:
        check.problem(f"leaked processes {result['leaked_pids']}")


def end_to_end(workload: Workload, passes: list[dict],
               ) -> tuple[dict[str, float], dict[str, float], str]:
    """The bounded metrics, the metrics only printed, and a note on samples.

    The host's vCPUs each flip between two speeds about 1.5x apart, so a
    pass is either undisturbed or slowed, never sped up: throughput is that
    of the least-disturbed pass.  Latency percentiles pool every pass.
    """
    best = max(passes, key=lambda result: result["ops"] / result["wall_s"])
    reads = [ms for result in passes for ms in result["latency_ms"]["read"]]
    writes = [ms for result in passes for ms in result["latency_ms"]["write"]]
    pooled = len(passes)
    if workload.kind == "join":  # one read per pass: report the best pass's
        reads, pooled = best["latency_ms"]["read"], 1
    label, tail = tail_of(reads, pooled)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "throughput_ops_s": best["ops"] / best["wall_s"],
        "read_p50_ms": statistics.median(reads),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    printed = {"read_tail_ms": tail}
    note = f"read_tail_ms is {label} of {len(reads)} reads"
    if workload.kind == "join":
        printed["join_s"] = best["wall_s"]
    if writes:
        label, tail = tail_of(writes, len(passes))
        printed["write_p50_ms"] = statistics.median(writes)
        printed["write_tail_ms"] = tail
        note += f"; write_tail_ms is {label} of {len(writes)} writes"
    return metrics, printed, note


def header() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "load1": os.getloadavg()[0]}


def print_metrics(values: dict) -> None:
    for name, value in values.items():
        print(f"   {name:<44}{value:>16.4f} {unit_of(name)}"
              if isinstance(value, (int, float))
              else f"   {name:<44}{value:>16}")


def collect(workload: Workload, args: argparse.Namespace,
            ) -> tuple[list[dict], dict | None]:
    """The untraced passes and, with ``--trace``, the traced one."""
    if args.trace:
        return (run_passes(workload, args.seed, args.smoke),
                run_passes(workload, args.seed, args.smoke, trace=True)[0])
    # pass_join is single-threaded and the host slows each vCPU on its own,
    # so a join round is one pinned replica per CPU at once: twice the
    # chances of an undisturbed pass in the same wall time.
    cpus = (sorted(os.sched_getaffinity(0)) if workload.kind == "join"
            else [None])
    rounds = 1 if args.smoke else max(1, round(args.seconds / PASS_SECONDS))
    return [result for _ in range(rounds)
            for result in run_passes(workload, args.seed, args.smoke,
                                     cpus=cpus)], None


def verify(workload: Workload, inputs: workloads.Inputs, checked: list[dict],
           args: argparse.Namespace, catalogue: dict) -> Check:
    """Check every pass; at the default seed also the pinned digests."""
    check = Check()
    rng = random.Random(f"{args.seed}:{workload.name}:oracle")
    for result in checked:
        check_pass(workload, inputs, result, checked[0], check, rng,
                   args.verify_oracle)
    input_digest = inputs.digest()
    answers_digest = answer_digest(checked[0]["answers"])
    print(f"   input_digest={input_digest}")
    print(f"   answer_digest={answers_digest}")
    if args.seed == DEFAULT_SEED:  # generator drift, or a changed result set
        pinned = catalogue["digests"][workload.name]
        prefix = "smoke_" if args.smoke else ""
        if input_digest != pinned[f"{prefix}input"]:
            check.problem("inputs drifted from the pinned digest")
        if answers_digest != pinned[f"{prefix}expected"]:
            check.problem("answers changed from the pinned digest")
    return check


def measure(workload: Workload, args: argparse.Namespace, contract: dict,
            catalogue: dict) -> dict:
    """Run, check and print one workload; return its record (the driver's
    JSON object plus the raw passes)."""
    passes, traced = collect(workload, args)
    print(f"## {workload.name}  seed={args.seed}  passes={len(passes)}"
          f"{'  +1 traced' if traced else ''}"
          f"{'  (smoke)' if args.smoke else ''}")
    print(f"   why: {workload.why}")
    if "server_command" in passes[0]:
        print(f"   server: {' '.join(passes[0]['server_command'])}")
        counters = passes[0]["counters"]
        if counters.get("shard_backend"):
            print(f"   shards: {workload.shards} {counters['shard_backend']} "
                  f"workers on {os.cpu_count()} CPUs, rows "
                  f"{counters['shards']}")
    check = verify(workload, workloads.generate(workload, args.seed,
                                                args.smoke),
                   passes if traced is None else [passes[0], traced],
                   args, catalogue)

    if traced is None:
        emitted, printed, note = end_to_end(workload, passes)
        print_metrics(emitted)
        print_metrics(printed)
        print(f"   ({note})")
    else:
        layers = traced["layers"]
        layers["trace.overhead_share"] = (
            traced["wall_s"] / passes[0]["wall_s"] - 1.0)
        print_metrics(dict(sorted(layers.items())))
        emitted = {entry["name"]: layers[entry["name"]]
                   for entry in contract["per_layer"]}
        printed = {name: value for name, value in layers.items()
                   if name not in emitted and isinstance(value, (int, float))}
        if not 0.9 <= layers["trace.coverage_share"] <= 1.1:
            print("   WARNING: layers do not sum to the end-to-end figure "
                  "within 10%")
    print(f"   failed_share={check.failed / max(check.attempted, 1):.6f}  "
          f"sent={check.attempted}  "
          f"succeeded={max(check.attempted - check.failed, 0)}  "
          f"failed={check.failed}")
    for message in check.problems:
        print(f"   INCORRECT: {message}")

    def with_units(values: dict) -> dict:
        return {name: {"value": value, "unit": unit_of(name)}
                for name, value in values.items()}

    return {"workload": workload.name, "seed": args.seed,
            "smoke": args.smoke, "trace": bool(args.trace),
            "correct": not check.problems, "attempted": check.attempted,
            "failed": min(check.failed, check.attempted),
            "metrics": with_units(emitted), "printed": with_units(printed),
            "passes": passes, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    contract, catalogue = load_contract()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="one workload (default: all six, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass")
    parser.add_argument("--verify-oracle", action="store_true",
                        help="brute-force every answer, not a sample (slow)")
    parser.add_argument("--out", type=Path,
                        help="directory for raw samples, spans and "
                             "results.jsonl")
    args = parser.parse_args(argv)
    serving.exit_on_sigterm()  # unwinds through run_passes, which reaps

    head = header()
    print("# benchmarks.e2e  " + "  ".join(f"{key}={value}"
                                           for key, value in head.items()))
    if head["load1"] > 0.5:
        print(f"# WARNING: 1-min load average {head['load1']:.2f} > 0.5; "
              f"timings will be noisy")
    chosen = ([workloads.BY_NAME[args.workload]] if args.workload
              else list(workloads.WORKLOADS))
    correct = True
    for workload in chosen:
        record = measure(workload, args, contract, catalogue)
        correct &= record["correct"]
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            summary = {key: value for key, value in record.items()
                       if key not in ("passes", "traced")}
            with open(args.out / "results.jsonl", "a") as results:
                results.write(json.dumps(summary) + "\n")
            tag = "trace" if args.trace else "e2e"
            (args.out / f"{workload.name}.{args.seed}.{tag}.json").write_text(
                json.dumps({"header": head, **record}))
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
