"""The processes behind ``run.py``: input generation, set-up, measurement.

Invoked by the harness, never imported by it::

    workloads.py gen    --workload W --seed N --dir D [--smoke]
    workloads.py run    --workload W --seed N --seconds S --dir D
                        [--trace] [--probe] [--smoke]
    workloads.py daemon --spans DIR -- serve ARGS...   (traced daemon)
    workloads.py regen                                 (expected.json)

``run`` prints ``READY`` on stdout when set-up is done (the harness
times set-up from spawn to that line; ``--probe`` exits right there),
then measures for ``--seconds`` and prints ``RESULT <json>``.  Every
result the program returns is checked against ``expected.json``, which
``regen`` builds through the reference configuration (no snapshots,
static policy, inline execution).
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Fuzz seeds ``0..POOL_FUZZ_SEEDS-1`` per bug are the artifacts any
#: workload can draw; ``expected.json`` holds the digest of every one.
POOL_FUZZ_SEEDS = 48
#: Light bugs for ``--smoke`` (same code paths, smaller inputs).
SMOKE_BUGS = ("SYZ-05", "CVE-2017-2671", "CVE-2017-2636", "CVE-2017-10661")

TRIAGE_PER_BUG = 6        #: artifacts per bug with a usable signature
TRIAGE_CLASSES = 3        #: distinct signatures drawn per bug, at most
TRIAGE_WARM = 40          #: warm re-triages after each cold cycle
TRIAGE_JOBS = 2           #: the program's own worker processes
TRIAGE_WINDOW = 10        #: warm re-triages per window

SERVE_RATE = 1000         #: open-loop duplicate submissions, req/s
SERVE_WINDOW_S = 1.0      #: duplicate latency is summarised per window
SERVE_FRESH_PER_BUG = 2   #: fresh signatures per bug
SERVE_FRESH_SPAN = 0.8    #: fresh arrivals are spread over this share
SERVE_POLL_S = 0.02       #: GET /job/<id> polling interval
SERVE_DRAIN_S = 60.0      #: grace for outstanding work

#: Host slowdowns come in bursts and only ever add time, so a timing is
#: read at this percentile over repeats of a like unit (one bug's
#: diagnoses, one window of warm re-triages or of requests), never over
#: a single sample.
REPEAT_Q = 0.25


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def pct(values, q: float) -> float:
    """Quantile ``q`` with linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def repeat_pct(windows, q: float) -> float:
    """Percentile ``q`` within each window, read at REPEAT_Q across them."""
    return pct([pct(window, q) for window in windows if window], REPEAT_Q)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its (waited-for) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def facts(diagnosis) -> dict:
    """What a diagnosis says: chain, root causes, undirected benign
    races, failure.  Benign races compare undirected because their
    observed direction follows whichever witness LIFS reproduced."""
    if not diagnosis.reproduced:
        return {"reproduced": False}
    ca = diagnosis.ca_result
    benign = sorted(sorted(sorted([r.first.instr_label,
                                   r.second.instr_label]) for r in u.races)
                    for u in ca.benign_units)
    return {"chain": diagnosis.chain.render(),
            "root_causes": sorted(str(u) for u in ca.root_cause_units),
            "benign": benign,
            "benign_count": ca.benign_race_count,
            "failure": str(diagnosis.lifs_result.failure_run.failure)}


class Tally:
    """Attempted/failed operations; the first mismatches go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                log(f"mismatch: {what}")
        return ok


def check_row(tally: Tally, row: dict, want: dict, what: str) -> None:
    """Check a triage/daemon result row against the oracle."""
    tally.check(bool(row) and row.get("reproduced") is True
                and row.get("chain") == want["chain"]
                and row.get("benign_excluded") == want["benign_count"], what)


def bug_ids(expected: dict, smoke: bool):
    return list(SMOKE_BUGS) if smoke else list(expected["pool"])


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Input generation (harness cost, reported as gen_s and never gated)

def round_trip(report):
    """``(artifact, parsed report, digest)``: the report as the service
    sees it — rendered to an artifact, parsed back, fingerprinted."""
    from repro.service.artifacts import CrashArtifact
    from repro.service.signature import signature_of

    artifact = CrashArtifact.from_report(report)
    parsed = CrashArtifact.parse(artifact.render()).to_report()
    return artifact, parsed, signature_of(parsed.crash).digest


def _artifact(bug, fuzz_seed, want_digest: str):
    from repro.trace.syzkaller import run_bug_finder

    artifact, _, digest = round_trip(run_bug_finder(bug, fuzz_seed=fuzz_seed))
    if digest != want_digest:
        raise SystemExit(f"gen: {bug.bug_id} fuzz seed {fuzz_seed} gave "
                         f"{digest}, expected.json says {want_digest}; "
                         f"run run.py --regen-expected")
    return artifact


def usable(expected: dict, digest: str) -> bool:
    """Whether the artifact diagnoses at all.  Some do not: the crash
    parser drops the location of a leak reported with an empty thread
    name, and such a report no longer reproduces.  Inputs skip them."""
    return expected["signatures"][digest].get("reproduced", True)


def _common(expected: dict, digests, count: int, skip=()):
    """The ``count`` signatures a bug's fuzzer hits most often (usable
    ones, not in ``skip``), each with the fuzz seeds that produce it.
    A fixed choice: which signatures, hence how much diagnosis work a
    workload holds, does not depend on the workload seed."""
    classes = collections.defaultdict(list)
    for fuzz_seed, digest in enumerate(digests):
        if usable(expected, digest) and digest not in skip:
            classes[digest].append(fuzz_seed)
    ranked = sorted(classes.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return ranked[:count]


def gen_triage(seed: int, directory: str, smoke: bool) -> None:
    """6 artifacts per bug, round-robin over its 3 most common
    signatures; the seed picks the fuzz seeds and the intake order."""
    from repro.corpus import registry

    registry.load()
    expected = load_expected()
    rng = random.Random(seed)
    per_bug = 2 if smoke else TRIAGE_PER_BUG
    picks = []
    for bug_id in bug_ids(expected, smoke):
        common = _common(expected, expected["pool"][bug_id]["fuzz"],
                         TRIAGE_CLASSES)
        left = {digest: rng.sample(seeds, len(seeds))
                for digest, seeds in common}
        for turn in range(per_bug if common else 0):
            digest = common[turn % len(common)][0]
            if left[digest]:
                picks.append((bug_id, left[digest].pop(), digest))
    rng.shuffle(picks)
    intake = os.path.join(directory, "intake")
    os.makedirs(intake)
    manifest = []
    for i, (bug_id, fuzz_seed, digest) in enumerate(picks):
        name = f"{i:03d}-{bug_id}-{fuzz_seed}.crash"
        _artifact(registry.get_bug(bug_id), fuzz_seed, digest).write(
            os.path.join(intake, name))
        manifest.append({"file": name, "bug": bug_id, "digest": digest})
    write_json(os.path.join(directory, "manifest.json"), manifest)


def gen_serve(seed: int, directory: str, smoke: bool) -> None:
    """Warm set: each bug's default artifact.  Fresh set: each bug's 2
    most common other signatures, in digest order (a fixed order keeps
    how fresh jobs queue behind each other the same on every seed); the
    seed picks their fuzz seeds and, in the run, the duplicate stream."""
    from repro.corpus import registry

    registry.load()
    expected = load_expected()
    rng = random.Random(seed)
    warm, fresh = [], []
    for bug_id in bug_ids(expected, smoke):
        bug = registry.get_bug(bug_id)
        pool = expected["pool"][bug_id]
        if usable(expected, pool["default"]):
            warm.append({"bug": bug_id, "digest": pool["default"],
                         "text": _artifact(bug, None,
                                           pool["default"]).render()})
        for digest, seeds in _common(expected, pool["fuzz"],
                                     SERVE_FRESH_PER_BUG,
                                     skip={pool["default"]}):
            fresh.append({"bug": bug_id, "digest": digest,
                          "text": _artifact(bug, rng.choice(seeds),
                                            digest).render()})
    fresh.sort(key=lambda entry: entry["digest"])
    write_json(os.path.join(directory, "manifest.json"),
               {"warm": warm, "fresh": fresh})


# ----------------------------------------------------------------------
# Measurement

def ready() -> None:
    print("READY", flush=True)


class Session:
    """One ``run`` invocation: tally, optional tracing, result assembly."""

    def __init__(self, args) -> None:
        self.args = args
        self.tally = Tally()
        self.tracing = None
        self.extra = {}
        #: Where every process of a traced run flushes its spans.
        self.spans_dir = os.path.join(args.dir, "spans")

    def start_tracing(self):
        """Traced runs only: spans + counters from here on."""
        if not self.args.trace:
            return None
        from spans import Tracing

        self.tracing = Tracing(self.spans_dir)
        return self.tracing

    def op(self):
        """A root span around one harness operation (traced runs); its
        self time is what no wrapped layer accounts for."""
        if self.tracing is None:
            return contextlib.nullcontext()
        return self.tracing.recorder.span("harness.op")

    def finish(self, e2e: dict, layers: dict) -> None:
        """Print the RESULT line: end-to-end metrics untraced, per-layer
        metrics traced (the traced run's e2e values become extras)."""
        e2e["peak_rss_mb"] = peak_rss_mb()
        if self.args.trace:
            if self.tracing is not None:
                self.tracing.flush()
            from spans import layer_metrics

            metrics, extra = layer_metrics(self.spans_dir)
            metrics.update(layers)
            self.extra.update(extra)
            self.extra.update({f"traced.{k}": [v, ""]
                               for k, v in e2e.items()})
        else:
            metrics = e2e
        print("RESULT " + json.dumps({
            "attempted": self.tally.attempted, "failed": self.tally.failed,
            "metrics": metrics, "extra": self.extra}), flush=True)


def deadline_loop(seconds: float):
    """Yield round numbers until ``seconds`` have passed (at least one)."""
    end = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < end:
        yield rounds
        rounds += 1


def run_corpus(session: Session, adaptive: bool) -> None:
    args = session.args
    from repro import api
    from repro.corpus import registry
    from repro.policy import ExperienceIndex

    registry.load()
    oracle = load_expected()
    expected = oracle["direct"]
    ids = bug_ids(oracle, args.smoke)
    bugs = {bug_id: registry.get_bug(bug_id) for bug_id in ids}
    trained = None
    if adaptive:
        index = ExperienceIndex()
        for bug_id in ids:
            diagnosis = api.diagnose(bugs[bug_id], policy="adaptive",
                                     experience=index)
            session.tally.check(facts(diagnosis) == _facts_of(
                expected[bug_id]), f"training {bug_id}")
        trained = index.snapshot()
    ready()
    if args.probe:
        return

    tracing = session.start_tracing()
    rng = random.Random(args.seed)
    passes, latency, sims = [], collections.defaultdict(list), {}
    with (tracing.instrument() if tracing else contextlib.nullcontext()):
        for _ in deadline_loop(args.seconds):
            order = ids[:]
            rng.shuffle(order)
            started = time.perf_counter()
            for bug_id in order:
                with session.op():
                    t0 = time.perf_counter()
                    if adaptive:
                        diagnosis = api.diagnose(
                            bugs[bug_id], policy="adaptive",
                            experience=ExperienceIndex.from_snapshot(
                                trained))
                    else:
                        diagnosis = api.diagnose(bugs[bug_id])
                    latency[bug_id].append(time.perf_counter() - t0)
                want = expected[bug_id]
                sim = (diagnosis.lifs_cost.seconds, diagnosis.ca_cost.seconds)
                session.tally.check(
                    facts(diagnosis) == _facts_of(want)
                    and sims.setdefault(bug_id, sim) == sim
                    and (adaptive or sim == (want["sim_lifs_s"],
                                             want["sim_ca_s"])),
                    f"{bug_id} diagnosis differs from expected.json")
            passes.append(time.perf_counter() - started)
    per_bug = [pct(latency[bug_id], REPEAT_Q) for bug_id in ids]
    session.extra.update({
        "passes": [len(passes), "count"],
        "diagnoses": [sum(len(v) for v in latency.values()), "count"],
        "analysis.sim_lifs_s": [sum(s[0] for s in sims.values()), "s"],
        "analysis.sim_ca_s": [sum(s[1] for s in sims.values()), "s"],
    })
    session.finish({"work_s": pct(passes, REPEAT_Q),
                    "op_p50_ms": pct(per_bug, 0.5) * 1000,
                    "op_p90_ms": pct(per_bug, 0.9) * 1000}, _zero_layers())


def _facts_of(entry: dict) -> dict:
    return {key: entry[key] for key in ("chain", "root_causes", "benign",
                                        "benign_count", "failure")}


def _zero_layers() -> dict:
    """The per-layer counts of layers a workload never reaches."""
    return {"service.cache_hits": 0, "service.deduped": 0,
            "service.jobs_failed": 0, "service.jobs_retried": 0,
            "daemon.shed": 0, "daemon.cache_hits_hot": 0}


def run_triage(session: Session) -> None:
    args = session.args
    from repro import api
    from repro.corpus import registry

    registry.load()
    expected = load_expected()["signatures"]
    with open(os.path.join(args.dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    intake = os.path.join(args.dir, "intake")
    unique = {entry["digest"] for entry in manifest}
    ready()
    if args.probe:
        return

    tracing = session.start_tracing()
    cold, warm, rates = [], [], []
    counters = collections.Counter()
    timings = collections.Counter()

    def absorb(summary) -> None:
        counters.update(summary.metrics.get("counters", {}))
        for stage, stats in summary.metrics.get("timings", {}).items():
            timings[stage] += stats["total_s"]

    def check(summary, outcome: str, what: str) -> None:
        session.tally.check(
            {r.digest for r in summary.results} == unique
            and sum(1 + r.duplicates for r in summary.results)
            == len(manifest), f"{what}: signature set differs")
        for r in summary.results:
            want = expected.get(r.digest)
            session.tally.check(
                r.outcome == outcome and want is not None
                and r.reproduced is True and r.chain == want["chain"],
                f"{what}: {r.bug_id} {r.digest} {r.outcome} {r.error}")

    with (tracing.instrument() if tracing else contextlib.nullcontext()):
        for cycle in deadline_loop(args.seconds):
            store = os.path.join(args.dir, f"store-{cycle}.jsonl")
            with session.op():
                t0 = time.perf_counter()
                summary = api.triage(intake, jobs=TRIAGE_JOBS, store=store)
                cold.append(time.perf_counter() - t0)
            rates.append(len(summary.results) / cold[-1])
            check(summary, "succeeded", f"cold cycle {cycle}")
            absorb(summary)
            for _ in range(2 if args.smoke else TRIAGE_WARM):
                with session.op():
                    t0 = time.perf_counter()
                    summary = api.triage(intake, jobs=TRIAGE_JOBS,
                                         store=store)
                    warm.append(time.perf_counter() - t0)
                check(summary, "cache_hit", f"warm cycle {cycle}")
                absorb(summary)
    session.extra.update({
        "cycles": [len(cold), "count"],
        "artifacts": [len(manifest), "count"],
        "unique_signatures": [len(unique), "count"],
        "triage_diag_per_s": [pct(rates, 1 - REPEAT_Q), "1/s"],
        "triage_warm_per_s": [len(manifest) / pct(warm, REPEAT_Q), "1/s"],
        "service.queue_wait_s": [timings["queue_wait"], "s"],
        "service.dispatch_s": [timings["dispatch"], "s"],
    })
    layers = _zero_layers()
    layers.update({"service.cache_hits": counters["cache_hits"],
                   "service.deduped": counters["reports_deduped"],
                   "service.jobs_failed": counters["jobs_failed"],
                   "service.jobs_retried": counters["jobs_retried"]})
    windows = [warm[i:i + TRIAGE_WINDOW]
               for i in range(0, len(warm), TRIAGE_WINDOW)]
    session.finish({"work_s": pct(cold, REPEAT_Q),
                    "op_p50_ms": repeat_pct(windows, 0.5) * 1000,
                    "op_p90_ms": repeat_pct(windows, 0.9) * 1000}, layers)


# -- serve-mixed ---------------------------------------------------------

def _request(method: str, path: str, body: bytes = b"") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


class Http:
    """One keep-alive connection; requests may be pipelined."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Http":
        return cls(*await asyncio.open_connection(host, port))

    async def recv(self):
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def call(self, method: str, path: str, body: bytes = b""):
        self.writer.write(_request(method, path, body))
        await self.writer.drain()
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Daemon:
    """``repro serve`` as a subprocess on an ephemeral port."""

    def __init__(self, directory: str, spans_dir=None) -> None:
        self.port_file = os.path.join(directory, "port")
        argv = ["serve", "--port", "0", "--port-file", self.port_file,
                "--data-dir", os.path.join(directory, "data")]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro"] + argv
        else:
            cmd = [sys.executable, os.path.abspath(__file__), "daemon",
                   "--spans", spans_dir, "--"] + argv
        self.log_path = os.path.join(directory, "daemon.log")
        with open(self.log_path, "w") as log_file:
            self.proc = subprocess.Popen(cmd, stdout=log_file,
                                         stderr=subprocess.STDOUT)
        self.host, self.port = self._wait_port()

    def _wait_port(self):
        deadline = time.monotonic() + 60
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                with open(self.log_path) as fh:
                    log(fh.read()[-2000:])
                raise SystemExit("daemon did not start")
            time.sleep(0.005)
        with open(self.port_file) as fh:
            host, _, port = fh.read().strip().rpartition(":")
        return host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


async def _poll_jobs(http: Http, jobs: dict, tally: Tally, expected: dict,
                     on_done=None) -> None:
    """One ``GET /job/<id>`` per job; terminal jobs are checked and
    removed from ``jobs`` (job id -> digest)."""
    for job_id in list(jobs):
        status, body = await http.call("GET", f"/job/{job_id}")
        payload = json.loads(body) if status == 200 else {}
        state = payload.get("status")
        if state in ("pending", "running"):
            continue
        digest = jobs.pop(job_id)
        check_row(tally, (payload.get("result") or {}).get("row"),
                  expected[digest], f"job {job_id} ended {state}")
        if on_done is not None:
            on_done(job_id)


async def _wait_jobs(http: Http, jobs: dict, tally: Tally, expected: dict,
                     on_done=None, timeout_s: float = SERVE_DRAIN_S) -> None:
    """Poll until every job is terminal (or ``timeout_s`` passes)."""
    deadline = time.perf_counter() + timeout_s
    while jobs:
        await _poll_jobs(http, jobs, tally, expected, on_done)
        if jobs and time.perf_counter() > deadline:
            for job_id in jobs:
                tally.check(False, f"job {job_id} not done in {timeout_s}s")
            return
        if jobs:
            await asyncio.sleep(SERVE_POLL_S)


async def _submit(http: Http, text: str, tally: Tally, digest: str):
    """POST one artifact that the daemon has never seen; returns job id."""
    status, body = await http.call("POST", "/submit", text.encode())
    payload = json.loads(body) if body else {}
    if tally.check(status == 202 and payload.get("status") == "accepted"
                   and payload.get("digest") == digest,
                   f"submit {digest}: {status} {payload.get('status')}"):
        return payload["job_id"]
    return None


async def _warm(daemon: Daemon, warm: list, tally: Tally,
                expected: dict) -> None:
    http = await Http.open(daemon.host, daemon.port)
    try:
        while (await http.call("GET", "/healthz"))[0] != 200:
            await asyncio.sleep(0.01)
        jobs = {}
        for entry in warm:
            job_id = await _submit(http, entry["text"], tally,
                                   entry["digest"])
            if job_id:
                jobs[job_id] = entry["digest"]
        await _wait_jobs(http, jobs, tally, expected)
    finally:
        await http.close()


async def _scrape(http: Http) -> dict:
    """``GET /metrics``, parsed to ``{sample name: value}``."""
    from repro.observe.export import parse_exposition

    return parse_exposition((await http.call("GET", "/metrics"))[1].decode())


def _histogram(metrics: dict, name: str) -> list:
    """``[(upper bound, cumulative count), ...]`` of one daemon histogram."""
    prefix = f"aitia_daemon_{name}_bucket{{le=\""
    return sorted((float(key[len(prefix):-2]), value)
                  for key, value in metrics.items() if key.startswith(prefix))


def _hist_quantile(before: dict, after: dict, name: str, q: float) -> float:
    """Quantile of one histogram's observations between two scrapes,
    interpolated linearly inside the bucket that holds it (seconds)."""
    delta = [(bound, count - old) for (bound, count), (_, old)
             in zip(_histogram(after, name), _histogram(before, name))]
    total = delta[-1][1] if delta else 0
    rank, lower, below = q * total, 0.0, 0
    for bound, count in delta:
        if total and count >= rank:
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (rank - below) / max(
                1, count - below)
        lower, below = bound, count
    return 0.0


def _counter_delta(before: dict, after: dict, name: str) -> int:
    key = f"aitia_daemon_{name}_total"
    return int(after.get(key, 0) - before.get(key, 0))


async def _measure_serve(session: Session, daemon: Daemon, manifest: dict,
                         expected: dict):
    """Open loop on two connections: warmed duplicates at SERVE_RATE,
    pipelined on one; fresh signatures evenly spaced on the other, which
    also polls their jobs.  Latency counts from when a request was due."""
    args = session.args
    tally = session.tally
    rng = random.Random(args.seed)
    warm, fresh = manifest["warm"], manifest["fresh"]
    bodies = [_request("POST", "/submit", e["text"].encode()) for e in warm]
    due = [j / SERVE_RATE for j in range(int(args.seconds * SERVE_RATE))]
    picks = [rng.randrange(len(warm)) for _ in due]
    span = SERVE_FRESH_SPAN * args.seconds
    arrivals = [(i + 0.5) * span / len(fresh) for i in range(len(fresh))]

    dup = await Http.open(daemon.host, daemon.port)
    ctl = await Http.open(daemon.host, daemon.port)
    fifo = collections.deque()
    verified = [set() for _ in warm]
    windows = collections.defaultdict(list)  # second -> latencies
    lateness, ttr, backlog = [], [], []
    before = await _scrape(ctl)
    t0 = time.perf_counter()

    async def send() -> None:
        i = 0
        while i < len(due):
            now = time.perf_counter()
            while i < len(due) and t0 + due[i] <= now:
                dup.writer.write(bodies[picks[i]])
                fifo.append(i)
                lateness.append(now - t0 - due[i])
                i += 1
            await dup.writer.drain()
            if i < len(due):
                await asyncio.sleep(max(0.0,
                                        t0 + due[i] - time.perf_counter()))
        backlog.append(len(fifo))  # sent, not yet answered

    async def receive() -> None:
        for _ in due:
            status, body = await dup.recv()
            i = fifo.popleft()
            windows[int(due[i] / SERVE_WINDOW_S)].append(
                time.perf_counter() - t0 - due[i])
            if body in verified[picks[i]]:
                tally.check(status == 200, f"duplicate got {status}")
                continue
            payload = json.loads(body) if body else {}
            want = warm[picks[i]]["digest"]
            if tally.check(status == 200
                           and payload.get("status") == "cache_hit"
                           and payload.get("digest") == want,
                           f"duplicate {want}: {status} "
                           f"{payload.get('status')}"):
                check_row(tally, payload["result"].get("row"),
                          expected[want], f"duplicate {want} row")
                verified[picks[i]].add(body)

    async def control() -> None:
        jobs, due_of = {}, {}
        pending = collections.deque(zip(arrivals, fresh))

        def done(job_id):
            ttr.append(time.perf_counter() - due_of.pop(job_id))

        while pending:
            while pending and t0 + pending[0][0] <= time.perf_counter():
                offset, entry = pending.popleft()
                job_id = await _submit(ctl, entry["text"], tally,
                                       entry["digest"])
                if job_id:
                    jobs[job_id] = entry["digest"]
                    due_of[job_id] = t0 + offset
            await _poll_jobs(ctl, jobs, tally, expected, done)
            await asyncio.sleep(SERVE_POLL_S)
        await _wait_jobs(ctl, jobs, tally, expected, done)

    try:
        await asyncio.wait_for(asyncio.gather(send(), receive(), control()),
                               args.seconds + SERVE_DRAIN_S)
    except asyncio.TimeoutError:
        tally.check(False, f"serve: {len(fifo)} responses outstanding")
    after = await _scrape(ctl)
    await dup.close()
    await ctl.close()

    latency = [x for window in windows.values() for x in window]
    session.extra.update({
        "fresh": [len(ttr), "count"],
        "fresh_ttr_p50_ms": [pct(ttr, 0.5) * 1000, "ms"],
        "serve_p99_ms": [pct(latency, 0.99) * 1000, "ms"],
        "serve_backlog": [backlog[0] if backlog else len(fifo), "count"],
        "serve.gen_late_p99_ms": [pct(lateness, 0.99) * 1000, "ms"],
    })
    for metric, name, q in (
            ("daemon.handle_p99_ms", "warm_handle_seconds", 0.99),
            ("daemon.queue_wait_p50_ms", "queue_wait_seconds", 0.5),
            ("daemon.diagnosis_p50_ms", "diagnosis_seconds", 0.5)):
        session.extra[metric] = [
            _hist_quantile(before, after, name, q) * 1000, "ms"]
    per_window = list(windows.values())
    e2e = {"work_s": pct(ttr, REPEAT_Q),
           "op_p50_ms": repeat_pct(per_window, 0.5) * 1000,
           "op_p90_ms": repeat_pct(per_window, 0.9) * 1000}
    layers = {"daemon.shed": sum(
        _counter_delta(before, after, f"shed_{why}")
        for why in ("rate", "quota", "queue_full", "stopping")),
        "daemon.cache_hits_hot": _counter_delta(before, after,
                                                "cache_hits_hot")}
    return e2e, layers


def run_serve(session: Session) -> None:
    args = session.args
    with open(os.path.join(args.dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    expected = load_expected()["signatures"]
    tag = "probe" if args.probe else "run"
    workdir = os.path.join(args.dir, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    daemon = Daemon(workdir, session.spans_dir if args.trace else None)
    try:
        asyncio.run(_warm(daemon, manifest["warm"], session.tally, expected))
        ready()
        if args.probe:
            return
        if args.trace:
            daemon.proc.send_signal(signal.SIGUSR1)  # drop warm-up spans
        e2e, layers = asyncio.run(
            _measure_serve(session, daemon, manifest, expected))
    finally:
        daemon.stop()
    merged = _zero_layers()
    merged.update(layers)
    session.finish(e2e, merged)


# ----------------------------------------------------------------------
# Traced daemon launcher and oracle regeneration

def daemon_main(spans_dir: str, argv) -> int:
    """Run ``repro <argv>`` with the layer wrappers installed; SIGUSR1
    drops what was recorded so far (the harness's warm-up)."""
    from spans import Tracing

    from repro.cli import main as cli_main

    tracing = Tracing(spans_dir)
    signal.signal(signal.SIGUSR1, lambda *_: tracing.forget())
    try:
        with tracing.instrument():
            return cli_main(list(argv))
    finally:
        tracing.flush()


def regen() -> None:
    """Build ``expected.json`` through the reference configuration."""
    from repro import api
    from repro.corpus import registry
    from repro.trace.syzkaller import run_bug_finder

    reference = {"snapshots": False, "policy": "static",
                 "executor": "inline"}
    registry.load()
    direct, signatures, pool = {}, {}, {}
    for bug in registry.all_bugs():
        diagnosis = api.diagnose(bug, **reference)
        direct[bug.bug_id] = dict(facts(diagnosis),
                                  sim_lifs_s=diagnosis.lifs_cost.seconds,
                                  sim_ca_s=diagnosis.ca_cost.seconds)
        seen = [round_trip(run_bug_finder(bug, fuzz_seed=s))[1:]
                for s in [None, *range(POOL_FUZZ_SEEDS)]]
        digests = [digest for _, digest in seen]
        pool[bug.bug_id] = {"default": digests[0], "fuzz": digests[1:]}
        for report, digest in seen:
            entry = dict(facts(api.diagnose(bug, report=report,
                                            **reference)), bug=bug.bug_id)
            if signatures.setdefault(digest, entry) != entry:
                raise SystemExit(f"regen: artifacts of signature {digest} "
                                 f"diagnose differently")
        lost = sorted(d for d in set(digests)
                      if not signatures[d].get("reproduced", True))
        log(f"regen: {bug.bug_id}: {len(set(digests))} signature(s)"
            + (f", not reproducible from the artifact: {lost}"
               if lost else ""))
    write_json(EXPECTED_PATH, {"pool_fuzz_seeds": POOL_FUZZ_SEEDS,
                               "direct": direct, "signatures": signatures,
                               "pool": pool})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="workloads.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("gen", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        p.add_argument("--smoke", action="store_true")
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", action="store_true")
            p.add_argument("--probe", action="store_true")
    daemon = sub.add_parser("daemon")
    daemon.add_argument("--spans", required=True)
    daemon.add_argument("argv", nargs=argparse.REMAINDER)
    sub.add_parser("regen")
    args = parser.parse_args(argv)

    if args.mode == "regen":
        regen()
        return 0
    if args.mode == "daemon":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return daemon_main(args.spans, rest)
    if args.mode == "gen":
        {"triage-reports": gen_triage, "serve-mixed": gen_serve}[
            args.workload](args.seed, args.dir, args.smoke)
        return 0
    session = Session(args)
    runner = {"corpus-static": lambda s: run_corpus(s, adaptive=False),
              "corpus-adaptive": lambda s: run_corpus(s, adaptive=True),
              "triage-reports": run_triage,
              "serve-mixed": run_serve}[args.workload]
    runner(session)
    return 0


if __name__ == "__main__":
    sys.exit(main())
