#!/usr/bin/env python3
"""Decision benchmark for ncplush.

    python3 perfbench/run.py --workload certify_deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one caller, a closed loop: each input is decided only after
the previous verdict came back.  Every verdict is checked outside the timed
region (see oracle.py).  With --trace 0 the last line of output is a JSON
object with the end-to-end metrics; with --trace 1 each input is decided
twice, untraced and traced in alternating order, and the metrics are the
per-layer numbers from the traced calls.  Spans are written to
.bench_out/ under the repository root.  See README.md for the workloads.
"""

from __future__ import annotations

import os

# before numpy is imported: one BLAS thread, here and in the set-up launches
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "ncplush" / "__init__.py").is_file():
    sys.exit(f"error: no ncplush sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from ncplush import NcPoly, SamplePolicy, classify, cli  # noqa: E402

import oracle  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS, cases  # noqa: E402

SETUP_LAUNCHES = 9
WARMUP_SECONDS = 2.0
WARMUP_MIN_INPUTS = 3
SELF_TIME_TOL = 1e-7  # seconds a decision's self times may miss its wall time
# Every refute_boundary input has hessian degree 6, whose default witness
# search tries sizes 1..4 with 200 samples each.  40 per size finds nearly the
# same witnesses (the default spends most samples on inputs it never decides)
# and fits enough inputs in a run for steady figures; see README.md.
REFUTE_POLICY = SamplePolicy((1, 2, 3, 4), 40)

PATHS = ("mixed_block", "hereditary_violation", "odd_degree", "degree_bound",
         "obstruction", "numeric_sample")
SCREEN_KINDS = ("odd_degree", "mixed_block", "hereditary_violation", "degree_bound")
COUNTS = ("ldlt.pivots", "ldlt.zero_pivots", "ldlt.negative_pivots",
          "ldlt.obstructions", "mmr.border_A", "mmr.border_At", "mmr.border_mixed",
          "calculus.hessian_terms", "freealg.polymul.calls",
          "freealg.polymul.term_pairs", "numeval.samples", "numeval.witnesses")
CALL_COUNTS = ("calculus.complex_hessian", "wed.antiderivative",
               "classify.find_witness", "freealg.evaluate")
VERDICTS = ("plush", "not_plush", "inconclusive")


@dataclass
class Outcome:
    """How one call ended: decided, inconclusive, wrong or error."""

    status: str
    kind: str = ""
    path: str = ""
    reason: str = ""


def judge(case, kind: str, certificate, witness, path: str) -> Outcome:
    """Check a verdict against the known answer and the independent checks.

    `certificate` is (weights_f, fs, weights_k, ks, F) as word dicts and
    `witness` is (X, H, eigenvalue); each is used only for its verdict."""
    if kind == "inconclusive":
        return Outcome("inconclusive", kind)
    if kind == "plush":
        reason = oracle.certificate_error(case.p, *certificate)
    elif kind == "not_plush":
        reason = oracle.witness_error(case.p, case.g, *witness)
    else:
        reason = f"unknown verdict {kind!r}"
    if reason is None and case.expected is not None and kind != case.expected:
        reason = f"verdict {kind}, known answer {case.expected}"
    return Outcome("wrong" if reason else "decided", kind, path, reason or "")


class ApiRunner:
    """decide_plush(p, policy) through the library API."""

    root_name = "classify.decide_plush"

    def __init__(self, policy: Optional[SamplePolicy]) -> None:
        self.call = classify.decide_plush
        self.policy = policy

    def prepare(self, case):
        return NcPoly(case.g, case.p)

    def wrap_call(self, decide: Callable) -> Callable:
        policy = self.policy
        return lambda poly: decide(poly, policy=policy)

    def judge(self, case, verdict) -> Outcome:
        certificate = witness = None
        path = ""
        if verdict.decomposition is not None:
            dec = verdict.decomposition
            certificate = (dec.weights_f, [f.terms for f in dec.fs],
                           dec.weights_k, [k.terms for k in dec.ks], dec.F.terms)
        if verdict.counterexample is not None:
            cex = verdict.counterexample
            path = cex.path
            witness = (np.stack(cex.X.entries), np.stack(cex.H.entries), cex.eigenvalue)
        return judge(case, verdict.kind, certificate, witness, path)


class CliRunner:
    """`ncplush classify --json` through cli.main, in this process."""

    root_name = "cli.main"
    exit_codes = {"plush": 0, "not_plush": 2, "inconclusive": 3}

    def __init__(self) -> None:
        self.call = cli.main

    def prepare(self, case):
        # --expr=… because "-e -x1'*x1" is read as a missing argument
        return ["classify", "--json", "--vars", str(case.g), f"--expr={case.text}"]

    @staticmethod
    def wrap_call(main: Callable) -> Callable:
        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        return call

    def judge(self, case, result) -> Outcome:
        code, out, err = result
        if code == 1:
            return Outcome("error", reason=err.strip())
        data = json.loads(out)
        kind = data["verdict"]
        if self.exit_codes.get(kind) != code:
            return Outcome("wrong", kind, reason=f"exit code {code} for {kind}")
        certificate = witness = None
        path = ""
        if "decomposition" in data:
            dec = data["decomposition"]
            certificate = ([Fraction(s) for s in dec["weights_f"]],
                           [oracle.parse_text(s) for s in dec["fs"]],
                           [Fraction(s) for s in dec["weights_k"]],
                           [oracle.parse_text(s) for s in dec["ks"]],
                           oracle.parse_text(dec["F"]))
        if "counterexample" in data:
            cex = data["counterexample"]
            path = cex["path"]
            witness = (cex["X"], cex["H"], cex["eigenvalue"])
        return judge(case, kind, certificate, witness, path)


def runner_for(workload: str):
    if workload == "cli_mixed":
        return CliRunner()
    return ApiRunner(REFUTE_POLICY if workload == "refute_boundary" else None)


def attempt(call: Callable, arg) -> tuple[float, object, Optional[BaseException]]:
    """One decision, timed; an exception is returned, not raised."""
    start = perf_counter()
    try:
        result = call(arg)
    except Exception as exc:  # the loop must go on; the failure is counted
        return perf_counter() - start, None, exc
    return perf_counter() - start, result, None


class Tally:
    """Verdict counts and the first few failure reasons of a run."""

    def __init__(self) -> None:
        self.status: Counter = Counter()
        self.kinds: Counter = Counter()
        self.paths: Counter = Counter()
        self.reasons: list[str] = []

    def add(self, runner, case, result, exc) -> None:
        if exc is not None:
            outcome = Outcome("error", reason=f"{type(exc).__name__}: {exc}")
        else:
            try:
                outcome = runner.judge(case, result)
            except (ValueError, KeyError, TypeError) as bad:  # unreadable output
                outcome = Outcome("wrong", reason=f"unreadable result: {bad}")
        self.status[outcome.status] += 1
        self.kinds[outcome.kind] += 1
        if outcome.path:
            self.paths[outcome.path] += 1
        if outcome.reason and len(self.reasons) < 5:
            self.reasons.append(f"{outcome.status}: {outcome.reason} [{case.text or case.g}]")

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        return self.status["error"] + self.status["wrong"]


def warm_up(workload: str, seed: int, runner, call: Callable) -> None:
    spent, n = 0.0, 0
    for case in cases(workload, seed, stream=1):
        spent += attempt(call, runner.prepare(case))[0]
        n += 1
        if spent >= WARMUP_SECONDS and n >= WARMUP_MIN_INPUTS:
            return


class SetupProbe:
    """Wall time of a fresh interpreter importing ncplush.cli, which every CLI
    call pays.  The launches are spread evenly over the measured time, so a
    burst of load on the machine moves only some of them; the median is
    reported."""

    def __init__(self, seconds: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", "import ncplush.cli"]
        self.every = seconds / (SETUP_LAUNCHES - 1)
        self.due = 0.0
        self.times: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=60)  # compile

    def launch(self) -> None:
        start = perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=60)
        self.times.append(perf_counter() - start)

    def poll(self, spent: float) -> None:
        """Launch once when `spent` measured seconds reach the next mark."""
        if spent >= self.due and len(self.times) < SETUP_LAUNCHES:
            self.launch()
            self.due += self.every

    def median(self) -> float:
        while len(self.times) < SETUP_LAUNCHES:
            self.launch()
        return statistics.median(self.times)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    runner = runner_for(workload)
    call = runner.wrap_call(runner.call)
    warm_up(workload, seed, runner, call)
    setup = SetupProbe(seconds)
    tally, times = Tally(), []
    spent = 0.0
    for case in cases(workload, seed):
        setup.poll(spent)
        elapsed, result, exc = attempt(call, runner.prepare(case))
        times.append(elapsed)
        spent += elapsed
        tally.add(runner, case, result, exc)
        if spent >= seconds:
            break
    metrics = {
        "decide_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "decide_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3
                          if len(times) > 1 else times[0] * 1e3, "ms"),
        "decisions_per_s": (len(times) / spent, "1/s"),
        "decided_share": (tally.status["decided"] / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup.median(), "s"),
    }
    notes = {"decisions": len(times), "beyond_p90": sum(t > metrics["decide_p90_ms"][0] / 1e3
                                                        for t in times)}
    return metrics, tally, notes


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    runner = runner_for(workload)
    tracer = tracing.Tracer()
    root = runner.wrap_call(tracer.wrap(runner.root_name, runner.call))
    plain = runner.wrap_call(runner.call)
    warm_up(workload, seed, runner, plain)
    tally = Tally()
    untraced = traced = 0.0
    for i, case in enumerate(cases(workload, seed)):
        arg = runner.prepare(case)
        tracer.decision = i
        for traced_turn in ((False, True) if i % 2 else (True, False)):
            if traced_turn:
                with tracing.installed(tracer):
                    elapsed, result, exc = attempt(root, arg)
                traced += elapsed
                tally.add(runner, case, result, exc)
            else:
                untraced += attempt(plain, arg)[0]
        if untraced + traced >= seconds:
            break

    spans = tracer.spans
    n = tally.attempted
    own = tracing.self_times(spans)
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        self_ms[s.name] += own[s.span_id] * 1e3
        calls[s.name] += 1
    counts = tracer.counts
    metrics = {f"{name}.self_ms": (self_ms[name] / n, "ms") for name in tracing.SPAN_NAMES}
    metrics.update({f"{name}.calls": (calls[name], "count") for name in CALL_COUNTS})
    metrics.update({name: (counts[name], "count") for name in COUNTS})
    metrics["numeval.witness_yield"] = (
        counts["numeval.witnesses"] / counts["numeval.samples"]
        if counts["numeval.samples"] else 0.0, "ratio")
    metrics.update({f"classify.path.{p}": (tally.paths[p], "count") for p in PATHS})
    metrics.update({f"classify.screen.{k}": (counts[f"classify.screen.{k}"], "count")
                    for k in SCREEN_KINDS})
    metrics.update({f"verdict.{k}": (tally.kinds[k], "count") for k in VERDICTS})
    metrics["decisions"] = (n, "count")
    metrics["decision.traced_ms"] = (traced / n * 1e3, "ms")
    metrics["trace_overhead_share"] = (traced / untraced - 1, "ratio")

    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans-{workload}-{seed}.json.gz", "wt", compresslevel=1) as fh:
        json.dump({"fields": list(tracing.Span._fields), "spans": spans}, fh)
    notes = {"spans": len(spans), "self_time_mismatch_s": tracing.self_time_mismatch(spans)}
    return metrics, tally, notes


def environment(args) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": 1, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def run_one(args) -> int:
    measure_fn = measure_traced if args.trace else measure
    metrics, tally, notes = measure_fn(args.workload, args.seed, args.seconds)
    print("# env " + json.dumps(environment(args)))
    print("# verdicts " + json.dumps({**{k: tally.kinds[k] for k in VERDICTS},
                                      "wrong_verdicts": tally.status["wrong"],
                                      "errors": tally.status["error"], **notes}))
    for reason in tally.reasons:
        print(f"# {reason}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and notes.get("self_time_mismatch_s", 0) <= SELF_TIME_TOL,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
