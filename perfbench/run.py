#!/usr/bin/env python3
"""The repository benchmark: batch extraction and `cmr serve`, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat K

Run from the repository root (any checkout of it). The script builds the
shipped `cmr` binary and the benchmark's helper (`perfbench/src`) with
cargo into $CARGO_TARGET_DIR (default `.bench_build`), generates the
workload's notes from the seed, drives `cmr`, checks every output, and
prints each metric by name and unit. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer metrics of a separate
traced run. `--repeat K` measures K seeds (N, N+1, ...) and reports each
metric's spread: the quartile distance over the median.

Exit codes: 0 on a run whose outputs all check; 1 when an output is wrong
or missing, a run of `cmr` fails, or a reply other than 429 is not the
expected 200 (the JSON then says "correct": false, and stderr says what
failed); 2 when the benchmark cannot run (bad arguments, the repository
is not there, the build fails). An open-loop phase whose generator fell
behind is marked INVALID and its latency left out, but does not fail the
run: the host, not `cmr`, made it late.
"""

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NPROC = os.cpu_count() or 1

# Each workload is one input mix, measured through both entry points:
# batch `cmr extract --ndjson` at --jobs 1 and --jobs nproc, and
# `cmr serve --jobs nproc`, driven closed loop and then open loop at
# RATE_FRACTIONS of the closed loop's throughput. The workload's primary
# path decides what set-up, CPU and memory mean; `p99_limit_ms` is the
# open-loop latency limit behind `max_ok_rps`.
WORKLOADS = {
    # Warm path: closed vocabulary, so nearly every sentence shape is a
    # parse-cache hit and text, tagging, distances, terms, serialization
    # and the journal carry the cost.
    "clean-corpus": {
        "records": 2000,
        "noisy_every": 0,
        "journal": True,
        "primary": "batch",
        "p99_limit_ms": 50.0,
    },
    # Cold path: every note corrupted at noise level 0.3, so link parsing
    # of unseen shapes dominates, salvage serves fields and OCR
    # confusions grow the interner. Unjournaled.
    "noisy-corpus": {
        "records": 200,
        "noisy_every": 1,
        "journal": False,
        "primary": "batch",
        "p99_limit_ms": 50.0,
    },
    # Service path: mostly clean notes plus every 20th corrupted, on a
    # cold server, so p50 follows the warm path and the tail the cold
    # parses of the corrupted share and the requests queued behind them.
    "serve-mixed": {
        "records": 2000,
        "noisy_every": 20,
        "journal": False,
        "primary": "serve",
        "p99_limit_ms": 100.0,
    },
}

# Journaled batch runs compact the journal every this many records.
COMPACT_EVERY = 64
# Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 9
# Share of --seconds spent in the batch leg, in the closed-loop serve
# phase (whole passes over the corpus, each one CPU sample) and in each
# open-loop serve phase. The gated metrics come from the first two; the
# open loop's latency is printed only.
BATCH_SHARE = 0.6
CLOSED_SHARE = 0.15
PHASE_SHARES = (0.05, 0.1, 0.05)
# Open-loop rates as fractions of the run's closed-loop replies per
# second: a light load, the middle rate whose latency is reported, and an
# overload past what the server answered closed loop. Fractions rather
# than fixed rates, because that throughput moves with the host (it
# spread 477-1,631 replies/s over ten clean-corpus runs on one 2-vCPU VM).
RATE_FRACTIONS = (0.25, 0.5, 1.25)
# Share of --seconds of the closed loop that sets the rate of a traced run.
TRACED_CLOSED_SHARE = 0.05
# Fewest batch runs per --jobs setting, and fewest closed-loop passes,
# whatever --seconds says.
MIN_BATCH_RUNS = 3
MIN_CLOSED_PASSES = 3
# A phase is invalid when the generator's median lateness exceeds this,
# over at least LATENESS_SAMPLES requests whose thread was idle when they
# fell due. Under overload nearly every request waits for a busy
# connection instead, and a median of the few left says nothing. An
# invalid phase's latency is printed as INVALID and left out of
# max_ok_rps; it fails no run, because only a late host makes it (the
# gated metrics do not come from the open loop).
GENERATOR_LATE_MS = 2.0
LATENESS_SAMPLES = 20


class BenchError(Exception):
    """The benchmark itself cannot run (exit 2)."""


class ProgramFailed(Exception):
    """`cmr` crashed or never became ready: the run is incorrect (exit 1)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds `cmr` and the helper; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no cmr workspace at {ROOT} (Cargo.toml and crates/ missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "cmr"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run cargo: {e}")
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "cmr", release / "cmr-perfbench"


def environment(seed):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    return {
        "nproc": NPROC,
        "commit": out(["git", "rev-parse", "--short", "HEAD"]),
        "rustc": out(["rustc", "--version"]),
        "profile": "release",
        "seed": seed,
    }


def tool(helper, *args):
    done = subprocess.run([str(helper), *map(str, args)], capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"cmr-perfbench {args[0]}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed(cmd):
    """Runs cmd to completion: (exit code, wall s, cpu s, maxrss MB)."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            log(err.read().decode(errors="replace"))
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def median(xs):
    return statistics.median(xs) if xs else float("nan")


# --- batch -----------------------------------------------------------------


def extract_cmd(cmr, corpus, out, jobs, cfg, work, metrics=None):
    cmd = [str(cmr), "extract", "--ndjson", str(corpus), "--jobs", str(jobs), "--out", str(out)]
    if cfg["journal"]:
        journal = work / f"journal-{jobs}"
        journal.unlink(missing_ok=True)
        cmd += ["--journal", str(journal), "--compact-every", str(COMPACT_EVERY)]
    if metrics:
        cmd += ["--metrics", str(metrics)]
    return cmd


def batch_setup(cmr, cfg, work):
    """(wall, CPU) seconds of the batch command on a zero-record file."""
    empty = work / "empty.ndjson"
    empty.write_text("")
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, cpu, _ = timed(extract_cmd(cmr, empty, work / "empty.out", 1, cfg, work))
        if code != 0:
            raise ProgramFailed(f"zero-record extract exited {code}")
        samples.append((wall, cpu))
    return samples


def error_lines(data):
    """Output lines that report a failed record instead of a result."""
    return sum(1 for line in data.splitlines() if line.startswith(b'{"error"'))


def batch_leg(cmr, corpus, records, cfg, work, budget_s, check, tally):
    """Alternates --jobs 1 and --jobs nproc runs over the corpus until the
    budget is spent; each run is one sample. Every run's output must be
    byte-identical to the first, which is kept as `check`. A run that
    exits non-zero or writes the wrong number of lines (a missing file
    counts as empty) raises ProgramFailed, so a broken `cmr` is never
    re-run. Returns the samples per jobs setting and whether all outputs
    were identical."""
    runs = {1: [], NPROC: []}
    reference = None
    identical = True
    start = time.perf_counter()
    while (min(len(v) for v in runs.values()) < MIN_BATCH_RUNS
           or time.perf_counter() - start < budget_s):
        for jobs in (1, NPROC):
            out = work / f"batch-{jobs}.out"
            out.unlink(missing_ok=True)
            code, wall, cpu, rss = timed(extract_cmd(cmr, corpus, out, jobs, cfg, work))
            data = out.read_bytes() if out.exists() else b""
            lines = data.count(b"\n")
            if code != 0 or lines != records:
                count(tally, attempted=records, mismatched=records)
                raise ProgramFailed(f"cmr extract --jobs {jobs} exited {code} with "
                                    f"{lines} of {records} lines")
            count(tally, attempted=records, mismatched=error_lines(data))
            if reference is None:
                reference = data
                check.write_bytes(data)
            elif data != reference:
                identical = False
                count(tally, mismatched=records)
            runs[jobs].append({"wall": wall, "cpu": cpu, "rss": rss})
    return runs, identical


# --- serve -----------------------------------------------------------------


class Server:
    """A `cmr serve` child on an ephemeral port, ready once /health is 200."""

    def __init__(self, cmr):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(cmr), "serve", "--addr", "127.0.0.1:0", "--jobs", str(NPROC)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        marker = "serving on "
        if marker not in line:
            self.stop()
            raise ProgramFailed(f"cmr serve did not start: {line.strip()}")
        self.addr = line.split(marker, 1)[1].split()[0]
        self.host, port = self.addr.rsplit(":", 1)
        self.port = int(port)
        deadline = self.started + 30
        while True:
            if self.get("/health") is not None:
                break
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                raise ProgramFailed("cmr serve never answered /health")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - self.started
        self.setup_cpu_s = self.cpu_s()

    def get(self, path):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            return json.loads(body) if resp.status == 200 else None
        except (OSError, http.client.HTTPException, ValueError):
            return None
        finally:
            conn.close()

    def cpu_s(self):
        """CPU time of all the server's threads so far, in seconds (Linux
        schedstat, nanosecond resolution)."""
        total = 0
        try:
            for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
                total += int((task / "schedstat").read_text().split()[0])
        except (OSError, IndexError, ValueError):
            return float("nan")
        return total / 1e9

    def stop(self):
        """SIGTERM (drain), wait; returns peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, _, usage = os.wait4(self.proc.pid, 0)
            rss = usage.ru_maxrss / 1024.0
        except ChildProcessError:
            rss = float("nan")
        self.proc.wait()
        self.proc.stderr.close()
        return rss


def service_totals(server):
    ext = (server.get("/metrics") or {}).get("service", {}).get("extract", {})
    return ext.get("total_nanos", 0), ext.get("count", 0)


def serve_phase(server, helper, corpus, expected, rate, seconds, seed, limit_ms):
    """One open-loop phase against a running server."""
    ns0, n0 = service_totals(server)
    report = tool(helper, "drive", "--addr", server.addr, "--corpus", corpus,
                  "--expected", expected, "--rate", rate, "--seconds", seconds,
                  "--conns", NPROC, "--seed", seed, "--limit-ms", limit_ms)
    ns1, n1 = service_totals(server)
    report["handle_us"] = (ns1 - ns0) / max(n1 - n0, 1) / 1e3
    report["valid"] = (report["sent"] - report["queued"] < LATENESS_SAMPLES
                       or (report["late_p50_ms"] or 0) <= GENERATOR_LATE_MS)
    report["meets_limit"] = (report["failed"] == 0 and not report["backlog_growing"]
                             and report["p99_ms"] is not None
                             and report["p99_ms"] <= limit_ms)
    return report


def serve_leg(cmr, helper, corpus, expected, cfg, closed_s, phases, seed):
    """A closed-loop phase of whole passes over the corpus, each in an order
    shuffled by the seed and each one CPU sample, until `closed_s` seconds
    and MIN_CLOSED_PASSES passes are done; then open-loop phases at
    (fraction of the closed loop's correct replies per second, seconds).
    Returns the closed phase's report, with the warm-up's requests folded
    in, and the open phases'. A serve-primary workload gets a fresh server
    per pass and per phase, so each starts cold and times one more set-up;
    a batch-primary workload shares one server, first warmed with every
    note of the corpus so its parse cache holds every sentence shape."""
    shared = None if cfg["primary"] == "serve" else Server(cmr)
    closed = {"sent": 0, "failed": 0, "rejected_429": 0}
    reports = []
    try:
        if shared:
            closed = tool(helper, "closed", "--addr", shared.addr, "--corpus", corpus,
                          "--expected", expected, "--conns", NPROC)
        runs, fresh = [], []
        start = time.perf_counter()
        while len(runs) < MIN_CLOSED_PASSES or time.perf_counter() - start < closed_s:
            server = shared or Server(cmr)
            try:
                cpu0 = server.cpu_s()
                run = tool(helper, "closed", "--addr", server.addr, "--corpus", corpus,
                           "--expected", expected, "--conns", NPROC, "--seed", seed + len(runs))
                run["cpu_ms"] = (server.cpu_s() - cpu0) * 1e3 / max(run["sent"], 1)
            finally:
                if not shared:
                    fresh.append(((server.setup_s, server.setup_cpu_s), server.stop()))
            runs.append(run)
        if fresh:
            closed["setups"] = [setup for setup, _ in fresh]
            closed["rss_mb"] = median([rss for _, rss in fresh])
        closed["cpu_ms_per_request"] = median([r["cpu_ms"] for r in runs])
        closed["ok_per_s"] = (sum(r["sent"] - r["failed"] for r in runs)
                              / sum(r["elapsed_s"] for r in runs))
        closed["passes"] = len(runs)
        closed["failures"] = [closed.get("first_failure")] + [r["first_failure"] for r in runs]
        for key in ("sent", "failed", "rejected_429"):
            closed[key] += sum(r[key] for r in runs)
        for i, (fraction, seconds) in enumerate(phases):
            # Three decimals keep the rate a plain number; at least one
            # request falls due in the phase.
            rate = round(max(fraction * closed["ok_per_s"], 1.0 / seconds), 3)
            server = shared or Server(cmr)
            try:
                report = serve_phase(server, helper, corpus, expected, rate, seconds,
                                     seed + i, cfg["p99_limit_ms"])
            finally:
                if not shared:
                    server.stop()
            report["setup"] = (server.setup_s, server.setup_cpu_s)
            reports.append(report)
    finally:
        if shared:
            closed["rss_mb"] = shared.stop()
    return closed, reports


# --- one measured run -------------------------------------------------------


def measure(name, seed, seconds, trace, cmr, helper, work):
    """One run: (metrics, attempted, failed, mismatched, text lines,
    invalid). When `cmr` fails outright, the metrics are all null and the
    run counts as mismatched."""
    cfg = WORKLOADS[name]
    corpus = work / "corpus.ndjson"
    tool(helper, "gen", "--records", cfg["records"], "--seed", seed,
         "--noisy-every", cfg["noisy_every"], "--out", corpus)
    tally = {"attempted": 0, "failed": 0, "mismatched": 0}
    text = []
    kind = "per_layer" if trace else "end_to_end"
    try:
        run = measure_traced if trace else measure_untraced
        metrics, invalid = run(cfg, seed, seconds, cmr, helper, work, corpus, tally, text)
    except ProgramFailed as e:
        text.append(f"FAILED: {e}")
        for k in tally:
            tally[k] = max(tally[k], 1)
        metrics, invalid = None, False
    return (report(metrics, kind), tally["attempted"], tally["failed"], tally["mismatched"],
            text, invalid)


def count(tally, attempted=0, failed=0, mismatched=0):
    """Adds to a run's tally; every mismatch is also a failure."""
    tally["attempted"] += attempted
    tally["failed"] += failed + mismatched
    tally["mismatched"] += mismatched


def measure_untraced(cfg, seed, seconds, cmr, helper, work, corpus, tally, text):
    records = cfg["records"]
    check = work / "check.out"
    batch_setups = batch_setup(cmr, cfg, work)
    runs, identical = batch_leg(cmr, corpus, records, cfg, work, seconds * BATCH_SHARE,
                                check, tally)
    ref = tool(helper, "verify", "--corpus", corpus, "--output", check)
    count(tally, mismatched=ref["mismatched"])
    first = ref["first_mismatch"]
    text.append(f"reference check: {ref['checked']} lines vs in-process Pipeline::extract, "
                f"{ref['mismatched']} mismatched"
                + ("" if first is None else f", first at line {first + 1}"))
    text.append(f"batch runs over {records} notes: {len(runs[1])} at --jobs 1, "
                f"{len(runs[NPROC])} at --jobs {NPROC}, all outputs byte-identical: {identical}")

    plan = [(f, round(seconds * share, 3)) for f, share in zip(RATE_FRACTIONS, PHASE_SHARES)]
    closed, phases = serve_leg(cmr, helper, corpus, check, cfg,
                               round(seconds * CLOSED_SHARE, 3), plan, seed)
    serve_count(tally, closed, phases)
    text.append(f"serve closed loop, {NPROC} connections: {closed['passes']} passes, "
                f"{closed['sent']} requests (warm-up included), {closed['failed']} failed, "
                f"{closed['rejected_429']} of them 429, "
                f"{closed['ok_per_s']:.1f} correct replies/s")
    text += failures("serve closed loop", closed.get("failures", []))
    for phase in phases:
        text.append(
            f"serve {phase['rate']:>9.3f} rps: sent {phase['sent']} ok {phase['ok']} "
            f"429 {phase['rejected_429']} failed {phase['failed']} "
            f"p50 {phase['p50_ms']} p90 {phase['p90_ms']} p99 {phase['p99_ms']} "
            f"max {phase['max_ms']} ms, queued {phase['queued']}, "
            f"generator late p50/p99 {phase['late_p50_ms']}/{phase['late_p99_ms']} ms "
            f"backlog {phase['backlog_growing']} meets limit {phase['meets_limit']}"
            + ("" if phase["valid"] else " INVALID"))
        text += failures(f"serve {phase['rate']:.3f} rps", [phase["first_failure"]])
    mid = phases[1]
    invalid = [p["rate"] for p in phases if not p["valid"]]

    if cfg["primary"] == "batch":
        setups = batch_setups
        rss = median([r["rss"] for r in runs[NPROC]])
    else:
        setups = closed["setups"] + [p["setup"] for p in phases]
        while len(setups) < SETUP_SAMPLES:
            extra = Server(cmr)
            extra.stop()
            setups.append((extra.setup_s, extra.setup_cpu_s))
        rss = closed["rss_mb"]
    passing = [p for p in phases if p["meets_limit"] and p["valid"]]
    max_ok = max((p["ok_within_limit"] / p["elapsed_s"] for p in passing), default=0.0)
    metrics = {
        "setup_s": median([cpu for _, cpu in setups]),
        "cpu_ms_per_note.serial": median([r["cpu"] * 1e3 / records for r in runs[1]]),
        "cpu_ms_per_note.jobs_nproc": median([r["cpu"] * 1e3 / records for r in runs[NPROC]]),
        "serve_cpu_ms_per_request": closed["cpu_ms_per_request"],
        "peak_rss_mb": rss,
    }
    text.append(f"printed, not gated (wall clock, see perfbench/README.md); latency at "
                f"{mid['rate']:.3f} rps over {mid['sent']} requests, p99 limit "
                f"{cfg['p99_limit_ms']} ms" + ("" if mid["valid"] else " (INVALID phase)") + ":")
    for name, value, unit in (("setup_wall_s", median([wall for wall, _ in setups]), "s"),
                              ("notes_per_s.serial",
                               median([records / r["wall"] for r in runs[1]]), "1/s"),
                              ("notes_per_s.jobs_nproc",
                               median([records / r["wall"] for r in runs[NPROC]]), "1/s"),
                              ("serve_requests_per_s", closed["ok_per_s"], "1/s"),
                              ("latency_p50_ms", mid["p50_ms"], "ms"),
                              ("latency_p90_ms", mid["p90_ms"], "ms"),
                              ("latency_p99_ms", mid["p99_ms"], "ms"),
                              ("max_ok_rps", max_ok, "1/s"),
                              ("failed_share",
                               tally["failed"] / max(tally["attempted"], 1), "ratio")):
        text.append(f"{name:<28} {number(value):>14.6g} {unit}")
    if invalid:
        text.append(f"INVALID: generator fell behind by more than {GENERATOR_LATE_MS} ms "
                    f"(median) at {invalid} rps; latency there is not the server's")
    return metrics, bool(invalid)


def failures(where, firsts):
    """Text lines naming the first wrong reply of each serve sample."""
    return [f"{where}: first wrong reply, note {f['note']} of the corpus, status "
            f"{f['status']} (0: no reply)" for f in firsts if f]


def serve_count(tally, closed, phases):
    """Adds the serve leg's requests: a 429 is a failure, every other
    failure (a wrong body, another status, no reply) a mismatch."""
    count(tally, attempted=closed["sent"], failed=closed["rejected_429"],
          mismatched=closed["failed"] - closed["rejected_429"])
    for phase in phases:
        count(tally, attempted=phase["sent"], failed=phase["rejected_429"],
              mismatched=phase["mismatched"])


def measure_traced(cfg, seed, seconds, cmr, helper, work, corpus, tally, text):
    records = cfg["records"]
    check = work / "check.out"
    args = ["trace", "--corpus", corpus, "--spans", work / "spans.jsonl"]
    if cfg["journal"]:
        args += ["--journal", work / "trace-journal", "--compact-every", COMPACT_EVERY]
    tr = tool(helper, *args)
    m = dict(tr["metrics"])
    tally["attempted"] += records * 5

    # Pool-level counters come from the shipped binary at --jobs nproc.
    mpath = work / "engine-metrics.json"
    code, _, _, _ = timed(extract_cmd(cmr, corpus, check, NPROC, cfg, work, metrics=mpath))
    tally["attempted"] += records
    if code != 0 or not check.exists() or not mpath.exists():
        count(tally, mismatched=records)
        raise ProgramFailed(f"cmr extract --jobs {NPROC} --metrics exited {code}")
    em = json.loads(mpath.read_text())
    m["linkgram.shared_hits"] = em["parse_cache"].get("shared_hits", 0)
    m["linkgram.shard_contention"] = em.get("cache_shard_contention", 0)
    m["engine.channel_wait_ms"] = em.get("channel_wait_nanos", 0) / 1e6
    m["engine.reorder_high_water"] = em.get("reorder_buffer_high_water", 0)
    ref = tool(helper, "verify", "--corpus", corpus, "--output", check)
    count(tally, mismatched=ref["mismatched"] + error_lines(check.read_bytes()))

    # A short closed loop sets the middle open-loop rate.
    closed, phases = serve_leg(cmr, helper, corpus, check, cfg,
                               round(seconds * TRACED_CLOSED_SHARE, 3),
                               [(RATE_FRACTIONS[1], round(seconds * PHASE_SHARES[1], 3))], seed)
    serve_count(tally, closed, phases)
    phase = phases[0]
    m["serve.handle_us"] = phase["handle_us"]
    m["serve.outside_us"] = phase["mean_ok_us"] - phase["handle_us"]
    m["serve.rejected_429"] = phase["rejected_429"]

    text.append(f"traced run: {tr['notes']} notes, traced wall {tr['traced_wall_ms']:.1f} ms, "
                f"untraced {tr['untraced_wall_ms']:.1f} ms, {tr['spans']} spans")
    text.append(f"{'row':<28} {'kind':<46} {'total ms':>10} {'ns/note':>11} {'share':>7}")
    for row in tr["table"]:
        text.append(f"{row['row']:<28} {row['kind']:<46} {row['total_ms']:>10.2f} "
                    f"{row['ns_per_note']:>11.0f} {row['share_of_wall']:>7.3f}")
    text.append(f"side pass: {tr['side']['sentences']} sentences, {tr['side']['lookups']} "
                f"parse lookups, {tr['side']['cold_parses']} not in the traced cache")
    text.append(f"layer separation: parse-cache hit ratio {m['linkgram.hit_ratio']:.4f}; "
                f"cold parse {m['linkgram.cold_parse.ns'] / m['engine.record_wall.ns']:.3f} "
                f"of traced wall; journal append {m['engine.journal_append.ns']:.0f} ns/note; "
                f"unattributed {m['engine.unattributed_share']:.4f} of traced wall; "
                f"traced/untraced wall {m['trace.overhead_ratio']:.3f}")
    text.append(f"serve at {phase['rate']:.3f} rps: handle {phase['handle_us']:.1f} us, outside "
                f"{m['serve.outside_us']:.1f} us, 429s {phase['rejected_429']}"
                + ("" if phase["valid"] else
                   f" INVALID: generator fell behind by more than {GENERATOR_LATE_MS} ms "
                   "(median), so outside time includes the generator's lateness"))
    text += failures("serve closed loop", closed["failures"])
    text += failures(f"serve {phase['rate']:.3f} rps", [phase["first_failure"]])
    return m, not phase["valid"]


def report(measured, kind):
    """The metrics BENCHMARK.json at the repository root lists under
    `kind`, with their units: a run reports exactly these (all null when
    `measured` is None, a run in which `cmr` failed)."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"reading BENCHMARK.json: {e}")
    out = {}
    for metric in spec[kind]:
        if measured is None:
            out[metric["name"]] = {"value": None, "unit": metric["unit"]}
            continue
        if metric["name"] not in measured:
            raise BenchError(f"no measurement for {kind} metric {metric['name']}")
        value = measured[metric["name"]]
        if value is not None and not math.isfinite(value):
            value = None
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def number(value):
    """A measured value as a float; NaN when there is none (a latency
    percentile of a phase whose every request failed)."""
    return float("nan") if value is None else float(value)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()
    if args.seconds <= 0 or args.repeat < 1:
        ap.error("--seconds and --repeat must be positive")
    # A SIGTERM unwinds like an error, so every child process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        cmr, helper = build()
        results = []
        for i in range(args.repeat):
            seed = args.seed + i
            work = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                results.append((seed, *measure(args.workload, seed, args.seconds, args.trace,
                                               cmr, helper, work.resolve())))
            finally:
                shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    bad = False
    for seed, metrics, attempted, failed, mismatched, text, invalid in results:
        print(f"== {args.workload} seed {seed} trace {args.trace}")
        print("env: " + json.dumps(environment(seed)))
        for line in text:
            print(line)
        for k, v in metrics.items():
            print(f"{k:<28} {number(v['value']):>14.6g} {v['unit']}")
        # stderr carries the account of a failed or partly invalid run.
        if mismatched > 0:
            log(f"perfbench: seed {seed}: {mismatched} mismatched of {attempted}")
            for line in text:
                log(f"perfbench: {line}")
        elif invalid:
            for line in text:
                if "INVALID" in line:
                    log(f"perfbench: seed {seed}: {line}")
        bad |= mismatched > 0
    if args.repeat > 1:
        print(f"spread over {args.repeat} seeds (quartile distance / median):")
        for k in results[0][1]:
            vals = [number(r[1][k]["value"]) for r in results]
            print(f"{k:<28} median {statistics.median(vals):>12.6g}  spread {spread(vals):.4f}")
    print(json.dumps({
        "correct": all(r[4] == 0 for r in results),
        "attempted": sum(r[2] for r in results),
        "failed": sum(r[3] for r in results),
        "metrics": results[-1][1],
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
