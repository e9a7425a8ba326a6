#!/usr/bin/env python3
"""The repository benchmark: what a user of `cfa` waits for.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the release `cfa`
binary and the `repobench` helper (into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's inputs from the seed, computes
expectations outside every timed phase, and then:

* with `--trace 0`, drives `cfa` from this one process and prints every
  end-to-end metric;
* with `--trace 1`, replays the same inputs in process (`repobench
  replay`) with a span around every call into a layer, and prints the
  per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Lines before it are a human-readable report: every metric by name and
unit, the output-check tally, and the recorded host. BENCHMARK.json
documents the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time

ANALYSES = ("k0", "k1", "k2", "m1", "m2", "p1", "p2")
FLAG = {"k": "--kcfa", "m": "--mcfa", "p": "--poly"}
# Artifact name of an analysis under tests/golden/ (see tests/snapshots.rs).
GOLDEN_SLUG = {"k": "k-{}", "m": "m-{}", "p": "poly-k-{}"}
# Race-report label of an analysis (RaceReport::analysis).
RACE_LABEL = {"k": "k={}", "m": "m={}", "p": "poly k={}"}

# Set-ups before each measured unit: at least SETUP_REPS, and until they
# took SETUP_MIN_S (the CLI inputs generate in ~5 ms, with an IQR of a
# quarter of that); setup_s is their median.
SETUP_REPS = 3
SETUP_MIN_S = 0.25
# A unit (a CLI pass, a serve session) during which the hypervisor gave
# more than this share of the VM's CPU time to other guests measured
# the host, not the program: it is invalid and is replaced while the run
# stays under RUN_CAP × --seconds. On the 2-CPU reference host a calm
# period steals 1-2 %, a busy one 5-13 %.
STEAL_MAX = 0.03
RUN_CAP = 1.5
# serve-open: Poisson arrivals at about a quarter of the burst
# throughput this mix reaches on the 2-CPU reference host (≈1200
# analyses/s). At half of it the open-loop tails spread across seeds by
# several times more (interleaved runs, 5 seeds: p99 IQR/median 1.2 at
# 600/s against 0.09 at 300/s).
SERVE_RATE = 300.0
SERVE_OPEN_SHARE = 0.6  # share of --seconds spent in the open loop
SERVE_BURST = 3000  # requests in the saturation burst, closed by EOF
SERVE_STATS_SHARE = 0.01
SERVE_HEAVY = ("interp", "scm2c")
# A run is a series of sessions, each against its own `cfa serve`: an
# open loop of SERVE_OPEN_SHARE / SERVE_SESSIONS × --seconds, then a
# SERVE_BURST / SERVE_SESSIONS burst. Per-session figures report their
# median. Sessions for invalid replacements are planned too.
SERVE_SESSIONS = 5
SERVE_PLANNED = math.ceil(SERVE_SESSIONS * RUN_CAP) + 1
# A generator whose p99 lateness exceeds this has not offered the planned
# schedule (its median lateness is ~0.1 ms on a calm host): the session
# is invalid and is replaced.
MAX_LAG_P99_MS = 20.0
SPAWN_PROBES = 30  # trivial invocations timed for cli.spawn_ms

WORKLOADS = ("cli-oneshot", "dump-parallel", "serve-open")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


# ---------------------------------------------------------------- build


def build(root, env):
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for args in (
        ["cargo", "build", "--release", "--offline", "-p", "cfa-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "repobench/Cargo.toml"],
    ):
        done = subprocess.run(args, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != 0:
            raise BenchError("build failed: %s\n%s" % (" ".join(args), done.stderr.decode(errors="replace")[-4000:]))
    release = os.path.join(root, target, "release")
    return os.path.join(release, "cfa"), os.path.join(release, "repobench")


def host_record(root, seed, pool_threads=None):
    commit = None
    try:
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, timeout=10)
        lines = got.stdout.decode().split()
        # Only this checkout's own repository names its commit.
        if got.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    if commit is None:
        # A checkout without git metadata: name the sources instead.
        h = hashlib.sha256()
        for top in ("crates", "Cargo.toml", "Cargo.lock"):
            for path in sorted(walk_files(os.path.join(root, top))):
                h.update(path[len(root):].encode() + b"\0")
                file_digest(path, h)
        commit = "no-git:sources-sha256:" + h.hexdigest()[:16]
    record = {
        "nproc": os.cpu_count(),
        "commit": commit,
        "profile": "release",
        "seed": seed,
    }
    if pool_threads is not None:
        record["pool_threads"] = pool_threads
        record["serve_rate_per_s"] = SERVE_RATE
    return record


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None:
        return 0.0
    steal, total = (b - a for a, b in zip(before, after))
    return steal / max(1, total)


def generator_peak_mb():
    """This process's peak RSS (VmHWM): the floor under every child's
    reported peak RSS (see ExactStream)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_generator_peak():
    """Lowers this process's peak RSS to its current RSS (Linux >= 4.0),
    so that the floor under the measured children's peaks is what
    measurement holds, not what input generation and the oracle held."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def measure_units(run_unit, seconds, valid):
    """Runs measurement units until valid ones cover `seconds`, to the
    nearest whole unit.

    `run_unit(index)` runs one unit; `valid(unit)` judges it once the
    unit's "seconds" and "steal" (the share of CPU time the host stole
    while it ran) are filled in. Invalid units are replaced while the
    run stays under RUN_CAP × `seconds`. If none is valid by then, the
    units that fit in `seconds` with the least steal stand in, and the
    report says so. A unit whose load generator fell behind
    (`"on_time": False`) never stands in: if every unit fell behind,
    the run fails. Returns (units to report, every unit run, whether
    all reported units are valid).
    """
    units = []
    start = time.perf_counter()
    while True:
        before = cpu_ticks()
        begun = time.perf_counter()
        unit = run_unit(len(units))
        unit["seconds"] = time.perf_counter() - begun
        unit["steal"] = steal_share(before, cpu_ticks())
        units.append(unit)
        good = [u for u in units if valid(u)]
        elapsed = time.perf_counter() - start
        typical = elapsed / len(units)
        if sum(u["seconds"] for u in good) + typical / 2 > seconds or elapsed + typical > RUN_CAP * seconds:
            break
    if good:
        return good, units, True
    calm = sorted((u for u in units if u.get("on_time", True)), key=lambda u: u["steal"])
    if not calm:
        raise BenchError("the load generator fell behind its schedule in every unit: nothing to report")
    log("no unit of the run was valid: reporting the calmest")
    return calm[: max(1, round(seconds / typical))], units, False


def setup_reps(repobench, seed, unique, work):
    """Times re-runs of input generation (see SETUP_MIN_S)."""
    dest = os.path.join(work, "setup-rep")
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        times.append(generate(repobench, seed, unique, dest))
    shutil.rmtree(dest)
    return times


def file_digest(path, h=None):
    """SHA-256 of a file, read in chunks (see ExactStream for why the
    generator holds no large file whole)."""
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h


def walk_files(top):
    if os.path.isfile(top):
        yield top
        return
    for dirpath, _, names in os.walk(top):
        for name in names:
            yield os.path.join(dirpath, name)


# --------------------------------------------------------------- inputs


def tree_digest(top):
    h = hashlib.sha256()
    for path in sorted(walk_files(top)):
        h.update(os.path.relpath(path, top).encode() + b"\0")
        file_digest(path, h)
    return h.hexdigest()


def generate(repobench, seed, unique, dest):
    """Writes the inputs for `seed` into `dest`; returns the seconds it took."""
    shutil.rmtree(dest, ignore_errors=True)
    start = time.perf_counter()
    done = subprocess.run(
        [repobench, "gen", "--seed", str(seed), "--unique", str(unique), "--out", dest],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError("input generation failed: " + done.stderr.decode(errors="replace"))
    return elapsed


def read_sources(inputs):
    """Stem → source bytes of every generated program (see gen.rs for
    the layout)."""
    sources = {}
    programs = os.path.join(inputs, "programs")
    for name in os.listdir(programs):
        if name.endswith(".scm"):
            with open(os.path.join(programs, name), "rb") as f:
                sources[name[: -len(".scm")]] = f.read()
    stem = None
    with open(os.path.join(programs, "unique.txt"), "rb") as f:
        for line in f:
            if line.startswith(b";;; "):
                stem = line[4:].rstrip(b"\n").decode()
                sources[stem] = b""
            else:
                sources[stem] += line
    return sources


def read_programs(inputs):
    programs = []
    with open(os.path.join(inputs, "programs.tsv")) as f:
        for line in f:
            stem, family, spawns = line.rstrip("\n").split("\t")
            programs.append({"stem": stem, "family": family, "spawns": spawns == "1"})
    return programs


def self_check_inputs(repobench, seed, unique, work):
    """Same seed → byte-identical inputs; another seed → another band."""
    first = os.path.join(work, "inputs")
    again = os.path.join(work, "inputs-again")
    generate(repobench, seed, unique, again)
    if tree_digest(again) != tree_digest(first):
        raise BenchError("input generation is not deterministic for seed %d" % seed)
    other = os.path.join(work, "inputs-other-seed")
    generate(repobench, seed + 1, unique, other)
    band = [p["stem"] for p in read_programs(first) if p["family"] in ("band", "unique")]
    fixed = [p["stem"] for p in read_programs(first) if p["family"] not in ("band", "unique")]
    mine, theirs = read_sources(first), read_sources(other)
    if all(mine[s] == theirs[s] for s in band):
        raise BenchError("seed %d and seed %d generate the same band" % (seed, seed + 1))
    if any(mine[s] != theirs[s] for s in fixed):
        raise BenchError("the fixed corpus depends on the seed")
    shutil.rmtree(again)
    shutil.rmtree(other)


# ---------------------------------------------------------- expectations


def golden_path(root, kind, stem, token):
    name = "%s--%s.json" % (stem, GOLDEN_SLUG[token[0]].format(token[1:]))
    path = os.path.join(root, "tests", "golden", kind, name)
    return path if os.path.exists(path) else None


class Oracle:
    """Expectations from the reference engine (`cfa dump --backend
    reference`, `cfa_core::reference`), cached in the checkout.

    The reference engine is deterministic, so a cached snapshot is
    keyed by the `cfa` binary that computed it, the program text and
    the analysis.
    """

    def __init__(self, root, cfa, inputs):
        self.cache = os.path.join(root, ".repobench", "oracle")
        os.makedirs(self.cache, exist_ok=True)
        self.cfa = cfa
        self.inputs = inputs
        self.sources = read_sources(inputs)
        self.binary = file_digest(cfa).hexdigest()
        self.wanted = {}
        self.targets = {}

    def key(self, stem, token):
        source = self.sources[stem]
        return hashlib.sha256(self.binary.encode() + token.encode() + b"\0" + source).hexdigest()[:40]

    def snapshot(self, stem, token):
        """Registers a job; returns the path of its snapshot."""
        path = os.path.join(self.cache, self.key(stem, token) + ".json")
        self.wanted[path] = (stem, token)
        return path

    def call_targets(self, stem, token):
        """Registers a job; returns the set `compute` fills with every λ
        the reference fixpoint's call graph calls."""
        return self.targets.setdefault(self.snapshot(stem, token), set())

    def compute(self, work):
        """Runs the jobs the cache lacks; returns how many it ran."""
        missing = [(path, job) for path, job in self.wanted.items() if not os.path.exists(path)]
        sources = os.path.join(work, "oracle-sources")
        os.makedirs(sources, exist_ok=True)
        for path, (stem, token) in missing:
            program = os.path.join(self.inputs, "programs", stem + ".scm")
            if not os.path.exists(program):
                # A unique serve program, which has no file of its own.
                program = os.path.join(sources, stem + ".scm")
                with open(program, "wb") as f:
                    f.write(self.sources[stem])
            partial = path + ".partial"
            done = subprocess.run(
                [self.cfa, "dump", "--backend", "reference", FLAG[token[0]], token[1:], "--out", partial, program],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            if done.returncode != 0:
                raise BenchError("reference engine failed on %s %s: %s" % (stem, token, done.stderr.decode(errors="replace")))
            os.replace(partial, path)
        shutil.rmtree(sources)
        for path, targets in self.targets.items():
            targets.update(snapshot_call_targets(path))
        return len(missing)


def snapshot_call_targets(path):
    """Every λ a canonical snapshot's call graph calls.

    Only the `"call_graph"` member is parsed: a whole snapshot can hold
    tens of MB of flow facts (`CanonSnapshot::to_json` writes every
    member on its own line, `"flow"` right after `"call_graph"`).
    """
    with open(path, "rb") as f:
        text = f.read()
    try:
        start = text.index(b'\n  "call_graph": ') + len(b'\n  "call_graph": ')
        graph = json.loads(text[start : text.index(b',\n  "flow": ', start)])
    except ValueError:
        raise BenchError("%s: no call graph in the reference snapshot" % path)
    return {callee for callees in graph.values() for callee in callees}


# ---------------------------------------------------------------- checks
#
# A check returns (ok, how): how is "exact" (byte-identical to a golden
# or reference output), "property" (a fact an independent source
# guarantees) or "unchecked" (well-formed, nothing independent to
# compare with).


class ExactStream:
    """Compares an output, chunk by chunk, with an expected file.

    Outputs are never held whole: Linux reports a child's peak RSS as
    at least this process's peak RSS when it spawned the child (exec
    records the peak of the address space it replaces), so a large
    resident load generator would inflate `peak_rss_mb`.
    """

    def __init__(self, path):
        self.f = open(path, "rb")
        self.ok = True

    def feed(self, chunk):
        if self.ok and self.f.read(len(chunk)) != chunk:
            self.ok = False

    def finish(self):
        rest = self.f.read(1)
        self.f.close()
        return self.ok and rest == b""


def exact_bytes(expected_path, suffix, data):
    with open(expected_path, "rb") as f:
        return data == f.read() + suffix


def check_races_json(data, token, expect, golden):
    """`cfa races --json`: golden when one exists, else race-count facts."""
    if golden is not None:
        return exact_bytes(golden, b"\n", data), "exact"
    try:
        report = json.loads(data)
    except ValueError:
        return False, "property"
    if report.get("analysis") != RACE_LABEL[token[0]].format(token[1:]):
        return False, "property"
    races = report.get("races")
    if not isinstance(races, list):
        return False, "property"
    if expect == "none":
        return len(races) == 0, "property"
    if expect == "some":
        return len(races) > 0, "property"
    return True, "unchecked"


def race_expectation(program):
    """What an independent source says about a program's races.

    A program with no `spawn` has one thread and no races. The golden
    racy programs each seed a race that a sound detector reports at
    every context depth (tests/races_golden.rs). Nothing independent
    fixes the count for the other concurrent programs.
    """
    if not program["spawns"]:
        return "none"
    if program["family"] == "racy":
        return "some"
    return "any"


def dot_callees(text):
    """λ labels of every edge target in a `CallGraph::to_dot` rendering."""
    if not text.startswith("digraph callgraph {\n") or not text.endswith("}\n"):
        return None
    labels = {}
    callees = set()
    for line in text.splitlines()[2:-1]:
        line = line.strip()
        if " -> " in line:
            callees.add(line.split(" -> ")[1].rstrip(";"))
        elif line.startswith("l") and '[label="λ' in line:
            node, rest = line.split(" ", 1)
            labels[node] = "λℓ" + rest.split('[label="λ', 1)[1].split(" ", 1)[0]
    try:
        return {labels[c] for c in callees}
    except KeyError:
        return None


def check_dot(text, targets):
    """Every callee the graph names is in `targets`, the λs the reference
    fixpoint calls."""
    callees = dot_callees(text)
    if callees is None:
        return False, "property"
    return callees <= targets, "property"


def check_serve_reply(req, header, payload):
    """One `cfa serve` reply against its request's expectation."""
    parts = header.split()
    if len(parts) < 3 or parts[0] != "ok" or parts[1] != str(req["id"]):
        return False, "property"
    kind = req["kind"]
    if kind == "stats":
        try:
            stats = json.loads(payload)
        except ValueError:
            return False, "property"
        fine = parts[2] == "stats" and stats["finished"] <= stats["activated"] <= stats["submitted"]
        return fine and stats["live"] == stats["queued"] + stats["active"], "property"
    text = payload.decode()
    if kind == "callgraph":
        fields = dict(p.split("=", 1) for p in parts[3:])
        if parts[2] != "callgraph" or fields.get("k") != str(req["k"]):
            return False, "property"
        return check_dot(text, req["cg"])
    fields = dict(p.split("=", 1) for p in parts[3:])
    if parts[2] != "races" or fields.get("k") != str(req["k"]):
        return False, "property"
    ok, how = check_races_json(payload, "k%d" % req["k"], req["expect"], req["golden"])
    if ok and how != "exact":
        ok = len(json.loads(text)["races"]) == int(fields["count"])
    return ok, how


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.how = {"exact": 0, "property": 0, "unchecked": 0}
        self.first_failures = []

    def add(self, ok, how, what):
        self.attempted += 1
        self.how[how] += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)


# ------------------------------------------------------------ CLI cells


def cli_cells(root, workload, programs, oracle):
    """Every invocation of one pass, with its expectation."""
    cells = []
    for p in programs:
        if p["family"] == "unique":
            continue
        stem = p["stem"]
        path = os.path.join("programs", stem + ".scm")
        for token in ANALYSES:
            flags = [FLAG[token[0]], token[1:]]
            dump_golden = golden_path(root, "snapshots", stem, token)
            dump_expect = dump_golden or oracle.snapshot(stem, token)
            if workload == "cli-oneshot":
                cells.append({
                    "cmd": "races", "token": token, "stem": stem,
                    "argv": ["races", *flags, "--json", path],
                    "check": ("races", token, race_expectation(p), golden_path(root, "races", stem, token)),
                })
                cells.append({
                    "cmd": "dump", "token": token, "stem": stem,
                    "argv": ["dump", *flags, path],
                    "check": ("exact", dump_expect),
                })
            else:
                cells.append({
                    "cmd": "pdump", "token": token, "stem": stem,
                    "argv": ["dump", *flags, "--backend", "sharded", "--threads", "2", path],
                    "check": ("exact", dump_expect),
                })
        if workload == "cli-oneshot":
            cells.append({
                "cmd": "dot", "token": "k1", "stem": stem,
                "argv": ["dot", path],
                "check": ("dot", oracle.call_targets(stem, "k1")),
            })
    for i, cell in enumerate(cells):
        cell["id"] = i
    return cells


def check_output(check, data):
    kind = check[0]
    if kind == "races":
        _, token, expect, golden = check
        return check_races_json(data, token, expect, golden)
    if kind == "dot":
        return check_dot(data.decode(errors="replace"), check[1])
    return exact_bytes(check[1], b"", data), "exact"


def invoke(cfa, cell, inputs, stderr_path):
    """Runs one `cfa` process; returns its sample and check verdict."""
    check = cell["check"]
    stream = ExactStream(check[1]) if check[0] == "exact" else None
    kept = []
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([cfa, *cell["argv"]], cwd=inputs, stdout=subprocess.PIPE, stderr=err)
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            if stream is not None:
                stream.feed(chunk)
            else:
                kept.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if stream is not None:
        ok, how = stream.finish(), "exact"
    else:
        ok, how = check_output(check, b"".join(kept))
    ok = ok and proc.returncode == 0
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "ok": ok,
        "how": how,
    }


def run_cli(cfa, cells, inputs, work, seed, seconds, tally, setup):
    """Closed loop, one caller: whole passes over the cells, each in a
    seeded order and after its set-ups (`setup()`)."""
    stderr_path = os.path.join(work, "stderr.txt")

    def one_pass(index):
        setups = setup()
        order = list(cells)
        random.Random("%d/order/%d" % (seed, index)).shuffle(order)
        samples = []
        for cell in order:
            s = invoke(cfa, cell, inputs, stderr_path)
            tally.add(s["ok"], s["how"], "%s %s %s" % (cell["cmd"], cell["token"], cell["stem"]))
            samples.append(s)
        return {"samples": samples, "setups": setups}

    passes, run, all_valid = measure_units(one_pass, seconds, valid=lambda u: u["steal"] <= STEAL_MAX)
    lat = [s["wall"] * 1e3 for p in passes for s in p["samples"]]
    walls = [sum(s["wall"] for s in p["samples"]) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(lat),
        "latency_p95_ms": percentile(lat, 0.95),
        "latency_p99_ms": percentile(lat, 0.99),
        "throughput_per_s": statistics.median(len(cells) / w for w in walls),
        "cpu_s": statistics.median(sum(s["cpu"] for s in p["samples"]) for p in passes),
        "peak_rss_mb": max(s["rss_mb"] for p in run for s in p["samples"]),
        "setup_s": statistics.median(t for p in passes for t in p["setups"]),
    }, {
        "passes": len(run),
        "passes_reported": len(passes),
        "all_reported_valid": all_valid,
        "unit_steal": [round(p["steal"], 4) for p in run],
    }


# ---------------------------------------------------------------- serve


# serve-open's request mix, as shares of the analysis requests; every
# run has exactly this composition, and the seed picks the order, the
# arrival times and the unique programs.
SERVE_MIX = (("light", 0.5), ("golden", 0.2), ("unique", 0.3))


def serve_deck(rng, count, groups):
    """`count` requests in the SERVE_MIX proportions, shuffled.

    Each group cycles through its (program, kind, k) combinations from
    a seeded offset, so a run's composition does not depend on chance.
    """
    stats = round(count * SERVE_STATS_SHARE)
    deck = [{"kind": "stats", "k": 0, "program": None} for _ in range(stats)]
    left = count - stats
    sizes = [round(left * share) for _, share in SERVE_MIX[:-1]]
    sizes.append(left - sum(sizes))
    for (group, _), n in zip(SERVE_MIX, sizes):
        combos = groups[group]
        offset = rng.randrange(len(combos))
        for j in range(n):
            program, kind, k = combos[(offset + j) % len(combos)]
            deck.append({"kind": kind, "k": k, "program": program() if callable(program) else program})
    rng.shuffle(deck)
    return deck


def serve_plan(root, programs, oracle, seed, seconds):
    """SERVE_SESSIONS sessions, each an open-loop schedule then a burst.

    Arrivals are a Poisson process conditioned on its count: SERVE_RATE
    × the session's open-loop seconds, at seeded uniform times. Request
    ids start at 1 in every session: request 0 is the set-up `stats`
    probe. Returns the sessions and the share of analysis requests that
    repeat an earlier program.
    """
    by_family = {}
    for p in programs:
        by_family.setdefault(p["family"], []).append(p)
    unique = iter(by_family["unique"])
    kinds = [(kind, k) for kind in ("callgraph", "races") for k in (0, 1)]
    groups = {
        # scm2c and interp are analyzed at k=0 only: at k=1 a request on
        # them costs 3-50x the next heaviest, so a handful of them would
        # set every tail percentile and its run-to-run spread.
        "light": [(p, kind, 0 if p["stem"] in SERVE_HEAVY else k)
                  for p in by_family["suite"] + by_family["extended"] for kind, k in kinds],
        "golden": [(p, kind, k) for p in by_family["racy"] + by_family["synchronized"] for kind, k in kinds],
        "unique": [(lambda: next(unique), kind, k) for kind, k in kinds],
    }
    open_seconds = seconds * SERVE_OPEN_SHARE / SERVE_SESSIONS
    n_open = round(SERVE_RATE * open_seconds)
    sessions = []
    seen = set()
    repeats = analyses = 0
    for index in range(SERVE_PLANNED):
        rng = random.Random("%d/serve/%d" % (seed, index))
        dues = sorted(rng.uniform(0.0, open_seconds) for _ in range(n_open))
        requests = serve_deck(rng, n_open, groups) + serve_deck(rng, SERVE_BURST // SERVE_SESSIONS, groups)
        for i, req in enumerate(requests):
            req["id"] = i + 1
            req["due"] = dues[i] if i < n_open else None
            program = req["program"]
            if program is None:
                continue
            stem = program["stem"]
            token = "k%d" % req["k"]
            analyses += 1
            repeats += stem in seen
            seen.add(stem)
            if req["kind"] == "callgraph":
                req["cg"] = oracle.call_targets(stem, token)
            else:
                req["expect"] = race_expectation(program)
                req["golden"] = golden_path(root, "races", stem, token)
        sessions.append({"requests": requests, "n_open": n_open, "burst_due": open_seconds})
    return sessions, repeats / analyses


def request_bytes(req, sources):
    """A request as `cfa serve` reads it: header, source, `.` line."""
    if req["program"] is None:
        return b"stats\n.\n"
    source = sources[req["program"]["stem"]]
    return ("%s k=%d\n" % (req["kind"], req["k"])).encode() + source.rstrip(b"\n") + b"\n.\n"


def serve_unique_count(seconds):
    """Unique programs the planned sessions send (an upper bound)."""
    per_session = (SERVE_RATE * seconds * SERVE_OPEN_SHARE + SERVE_BURST) / SERVE_SESSIONS
    return int(per_session * SERVE_PLANNED * 0.31) + 10


class ReplyReader:
    """Splits `cfa serve` output into replies: header, payload, `.`."""

    def __init__(self):
        self.buf = b""
        self.header = None
        self.payload = []
        self.replies = []

    def feed(self, chunk, now):
        lines = (self.buf + chunk).split(b"\n")
        self.buf = lines.pop()
        for line in lines:
            if self.header is None:
                self.header = line.decode(errors="replace")
            elif line == b".":
                payload = b"".join(l + b"\n" for l in self.payload)
                self.replies.append((self.header, payload, now))
                self.header, self.payload = None, []
            else:
                self.payload.append(line)


def spawn_serve(cfa, work):
    err = open(os.path.join(work, "serve-stderr.txt"), "ab")
    proc = subprocess.Popen([cfa, "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
    err.close()
    return proc


def first_stats(proc, start):
    """Sends the set-up `stats` probe; returns (seconds since `start`,
    pool threads from the reply)."""
    proc.stdin.write(b"stats\n.\n")
    proc.stdin.flush()
    header = proc.stdout.readline()
    body = proc.stdout.readline()
    dot = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not header.startswith(b"ok 0 stats") or dot != b".\n":
        raise BenchError("cfa serve did not answer the stats probe: %r" % header)
    return elapsed, json.loads(body)["threads"]


def reap(proc):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_serve_session(proc, session, payloads):
    """One process, one thread: sends each open-loop request (its bytes
    are `payloads[i]`) at its due time and the burst at the end of the
    open-loop window, reading replies as they come. Nothing is sent to
    flush held replies."""
    requests, n_open, burst_due = session["requests"], session["n_open"], session["burst_due"]
    stdin_fd, stdout_fd = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(stdin_fd, False)
    os.set_blocking(stdout_fd, False)
    # select(2) takes a microsecond timeout; epoll and poll round up to
    # whole milliseconds, which would make every send ~0.5 ms late.
    sel = selectors.SelectSelector()
    sel.register(stdout_fd, selectors.EVENT_READ)
    reader = ReplyReader()
    out = bytearray()
    origin = time.perf_counter() + 0.05
    due_at = {}
    lags = []
    next_req = 0
    burst_start = None
    writing = False
    stdin_open = True
    eof = False
    while not eof:
        now = time.perf_counter()
        while next_req < n_open and origin + requests[next_req]["due"] <= now:
            req = requests[next_req]
            due = origin + req["due"]
            lags.append((now - due) * 1e3)
            due_at[req["id"]] = due
            out += payloads[next_req]
            next_req += 1
        if next_req == n_open and burst_start is None and now >= origin + burst_due:
            burst_start = now
            for payload in payloads[n_open:]:
                out += payload
            next_req = len(requests)
        if out and stdin_open:
            try:
                n = os.write(stdin_fd, out)
                del out[:n]
            except BlockingIOError:
                pass
        if not out and burst_start is not None and stdin_open:
            proc.stdin.close()
            stdin_open = False
        want_write = bool(out) and stdin_open
        if want_write != writing:
            if want_write:
                sel.register(stdin_fd, selectors.EVENT_WRITE)
            else:
                sel.unregister(stdin_fd)
            writing = want_write
        if next_req < n_open:
            timeout = max(0.0, origin + requests[next_req]["due"] - time.perf_counter())
        elif burst_start is None:
            timeout = max(0.0, origin + burst_due - time.perf_counter())
        else:
            timeout = None
        for key, _ in sel.select(timeout):
            if key.fd == stdout_fd:
                chunk = os.read(stdout_fd, 1 << 16)
                if not chunk:
                    eof = True
                else:
                    reader.feed(chunk, time.perf_counter())
    sel.close()
    return reader.replies, due_at, lags, burst_start


def serve_session(cfa, session, sources, work, tally):
    """One session against its own `cfa serve`; every reply is checked.

    The requests' bytes exist only while the session runs, and only
    after `cfa serve` has started: they add nothing to the floor under
    its reported peak RSS (see ExactStream).
    """
    start = time.perf_counter()
    proc = spawn_serve(cfa, work)
    try:
        probe, threads = first_stats(proc, start)
        payloads = [request_bytes(req, sources) for req in session["requests"]]
        replies, due_at, lags, burst_start = run_serve_session(proc, session, payloads)
        del payloads
    except BaseException:
        proc.kill()
        reap(proc)
        raise
    usage = reap(proc)
    if proc.returncode != 0:
        raise BenchError("cfa serve exited with %d" % proc.returncode)
    by_id = {int(h.split()[1]): (h, payload, t) for h, payload, t in replies if len(h.split()) > 1}
    burst_end = burst_start
    latencies = []
    for req in session["requests"]:
        got = by_id.get(req["id"])
        if got is None:
            tally.add(False, "property", "serve request %d: no reply" % req["id"])
            continue
        header, payload, arrived = got
        ok, how = check_serve_reply(req, header, payload)
        tally.add(ok, how, "serve request %d (%s)" % (req["id"], header[:60]))
        if req["due"] is not None:
            latencies.append((arrived - due_at[req["id"]]) * 1e3)
        else:
            burst_end = max(burst_end, arrived)
    lag_p99 = percentile(lags, 0.99)
    if lag_p99 > MAX_LAG_P99_MS:
        log("serve-open: generator lag p99 %.2f ms > %.2f ms: session invalid" % (lag_p99, MAX_LAG_P99_MS))
    return {
        "probe": probe,
        "threads": threads,
        "latencies": latencies,
        "lag_p99": lag_p99,
        "on_time": lag_p99 <= MAX_LAG_P99_MS,
        "burst_wall": burst_end - burst_start,
        "burst": len(session["requests"]) - session["n_open"],
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_serve(cfa, sessions, sources, work, seconds, tally, setup):
    """Sessions, each after SETUP_REPS set-ups, until valid ones cover
    `seconds`. Per-session figures (median and p95 latency, burst wall
    and throughput, CPU) report their median over sessions; the p99
    pools the sessions' open-loop requests."""
    plans = iter(sessions)

    def one_session(_):
        plan = next(plans, None)
        if plan is None:
            raise BenchError("serve-open: the run needs more sessions than were planned")
        setups = setup()
        unit = serve_session(cfa, plan, sources, work, tally)
        unit["setups"] = setups
        return unit

    used, run, all_valid = measure_units(
        one_session, seconds, valid=lambda u: u["steal"] <= STEAL_MAX and u["on_time"]
    )
    latencies = [x for u in used for x in u["latencies"]]
    metrics = {
        "wall_s": statistics.median(u["burst_wall"] for u in used),
        "latency_p50_ms": statistics.median(statistics.median(u["latencies"]) for u in used),
        "latency_p95_ms": statistics.median(percentile(u["latencies"], 0.95) for u in used),
        # Too few samples per session: the p99 pools the sessions.
        "latency_p99_ms": percentile(latencies, 0.99),
        "throughput_per_s": statistics.median(u["burst"] / u["burst_wall"] for u in used),
        "cpu_s": statistics.median(u["cpu"] for u in used),
        "peak_rss_mb": max(u["rss_mb"] for u in run),
        "setup_s": statistics.median(t for u in used for t in u["setups"])
        + statistics.median(u["probe"] for u in used),
    }
    info = {
        "sessions": len(run),
        "sessions_reported": len(used),
        "all_reported_valid": all_valid,
        "unit_steal": [round(u["steal"], 4) for u in run],
        "open_loop_requests": len(latencies),
        "loadgen_lag_p99_ms": max(u["lag_p99"] for u in used),
        "pool_threads": run[0]["threads"],
    }
    return metrics, info


# ---------------------------------------------------------------- trace


def write_plan(path, workload, plan):
    """The plan `repobench replay` reads: `cell` lines for a CLI
    workload; for serve-open, per session a `session` line, `req` lines
    and a `burst DUE` line before the first burst request."""
    with open(path, "w") as f:
        if workload != "serve-open":
            for cell in plan:
                f.write("cell %d %s %s %s\n" % (cell["id"], cell["cmd"], cell["token"], cell["stem"]))
            return
        for session in plan:
            f.write("session\n")
            for i, req in enumerate(session["requests"]):
                if i == session["n_open"]:
                    f.write("burst %d\n" % int(session["burst_due"] * 1e6))
                stem = req["program"]["stem"] if req["program"] else "-"
                due_us = int(req["due"] * 1e6) if req["due"] is not None else 0
                f.write("req %d %d %s %d %s\n" % (req["id"], due_us, req["kind"], req["k"], stem))


def plan_items(workload, plan):
    """The plan's cells or requests, in the order the replay answers them."""
    if workload != "serve-open":
        return plan
    return [req for session in plan for req in session["requests"]]


def check_replay_outputs(path, workload, items, tally):
    """Checks the replay's outputs, which come in plan order, with the
    checks the `cfa` binary's outputs get. Returns their total bytes."""
    total = 0
    with open(path, "rb") as f:
        for item in items:
            line = f.readline()
            if not line:
                tally.add(False, "property", "replay: no output for %d" % item["id"])
                continue
            rid, size = (int(x) for x in line.split())
            data = f.read(size)
            total += size
            if rid != item["id"] or data.startswith(b"ERROR "):
                tally.add(False, "property", "replay %d: %s" % (rid, data[:200]))
                continue
            if workload == "serve-open":
                header, _, payload = data.partition(b"\n")
                ok, how = check_serve_reply(item, header.decode(), payload[: -len(b".\n")])
            else:
                ok, how = check_output(item["check"], data)
            tally.add(ok, how, "replay %d" % rid)
    return total


def run_replay(repobench, workload, inputs, plan, work, traced, chrome=None):
    outputs = os.path.join(work, "replay-outputs-%d.bin" % traced)
    args = [repobench, "replay", "--workload", workload, "--programs", os.path.join(inputs, "programs"),
            "--plan", plan, "--traced", str(traced), "--outputs", outputs]
    if chrome:
        args += ["--chrome", chrome]
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise BenchError("replay failed: " + done.stderr.decode(errors="replace"))
    return json.loads(done.stdout.decode().strip().splitlines()[-1]), outputs


def spawn_cost_ms(cfa, work):
    tiny = os.path.join(work, "tiny.scm")
    with open(tiny, "w") as f:
        f.write("(define (id x) x) (id 1)\n")
    walls = []
    for _ in range(SPAWN_PROBES):
        start = time.perf_counter()
        done = subprocess.run([cfa, "cps", tiny], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append((time.perf_counter() - start) * 1e3)
        if done.returncode != 0:
            raise BenchError("cfa cps failed on a one-line program")
    return statistics.median(walls)


# ----------------------------------------------------------------- main


def metric_units(root, key):
    """Name → unit of the `key` metrics BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[key]}


def measure_end_to_end(args, root, cfa, repobench, work, inputs, tally, report):
    """The untraced run: `cfa` driven from this process."""
    serve = args.workload == "serve-open"
    unique = serve_unique_count(args.seconds) if serve else 0
    generate(repobench, args.seed, unique, inputs)
    # Outside every timed phase: the input self-check and the oracle.
    self_check_inputs(repobench, args.seed, unique, work)
    programs = read_programs(inputs)
    oracle = Oracle(root, cfa, inputs)
    # Set-up, timed before every unit: input generation, plus for serve
    # the session's spawn → first `stats` reply.
    def setup():
        return setup_reps(repobench, args.seed, unique, work)

    if not serve:
        cells = cli_cells(root, args.workload, programs, oracle)
        report["oracle_jobs_computed"] = oracle.compute(work)
        reset_generator_peak()
        metrics, info = run_cli(cfa, cells, inputs, work, args.seed, args.seconds, tally, setup)
        report.update(info)
        return metrics, host_record(root, args.seed)
    sessions, repeat_share = serve_plan(root, programs, oracle, args.seed, args.seconds)
    report["oracle_jobs_computed"] = oracle.compute(work)
    reset_generator_peak()
    metrics, info = run_serve(cfa, sessions, oracle.sources, work, args.seconds, tally, setup)
    report.update(info, repeat_share=round(repeat_share, 4))
    return metrics, host_record(root, args.seed, info["pool_threads"])


def measure_layers(args, root, cfa, repobench, work, inputs, tally, report, units):
    """The traced run: the seed's inputs for every workload, replayed in
    process, so every layer is measured where it does work; the
    tracing overhead is measured on `--workload`'s own plan."""
    unique = serve_unique_count(args.seconds)
    generate(repobench, args.seed, unique, inputs)
    self_check_inputs(repobench, args.seed, unique, work)
    programs = read_programs(inputs)
    oracle = Oracle(root, cfa, inputs)
    plans = {}
    for workload in WORKLOADS:
        if workload == "serve-open":
            plans[workload] = serve_plan(root, programs, oracle, args.seed, args.seconds)[0][:SERVE_SESSIONS]
        else:
            plans[workload] = cli_cells(root, workload, programs, oracle)
    report["oracle_jobs_computed"] = oracle.compute(work)

    sums = {}
    walls = {}
    output_bytes = 0
    for workload in WORKLOADS:
        plan = os.path.join(work, "plan-%s.txt" % workload)
        write_plan(plan, workload, plans[workload])
        items = plan_items(workload, plans[workload])
        chrome = os.path.join(work, "trace-%s.json" % workload)
        traced, outputs = run_replay(repobench, workload, inputs, plan, work, 1, chrome)
        output_bytes += check_replay_outputs(outputs, workload, items, tally)
        for name, value in traced["metrics"].items():
            sums[name] = sums.get(name, 0.0) + value
        if workload == args.workload:
            bare, outputs = run_replay(repobench, workload, inputs, plan, work, 0)
            check_replay_outputs(outputs, workload, items, tally)
            walls = {"traced": traced["wall_s"], "bare": bare["wall_s"]}
    # The generator's lateness is a property of the untraced run: one
    # session against the real `cfa serve`.
    session = serve_session(cfa, plans["serve-open"][0], oracle.sources, work, tally)
    sums["loadgen.lag_p99_ms"] = session["lag_p99"]
    metrics = {name: sums.get(name, 0.0) for name in units}
    metrics["engine.join_yield"] = sums["engine.facts"] / sums["engine.value_joins"]
    pops = sums["fabric.iterations"] + sums["fabric.skipped"]
    metrics["fabric.gate_skip_ratio"] = sums["fabric.skipped"] / pops
    metrics["trace.coverage"] = sums["trace.layer_ms"] / sums["trace.root_ms"]
    metrics["trace.overhead"] = walls["traced"] / walls["bare"]
    metrics["cli.spawn_ms"] = spawn_cost_ms(cfa, work)
    metrics["cli.output_bytes"] = float(output_bytes)
    report["chrome_traces"] = sorted(os.path.relpath(os.path.join(work, "trace-%s.json" % w), root) for w in WORKLOADS)
    return metrics, host_record(root, args.seed, session["threads"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "Cargo.toml", "Cargo.lock", os.path.join("crates", "cli", "src", "main.rs"),
                   os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError("run from the repository root: %s is missing" % needed)
    cfa, repobench = build(root, dict(os.environ))
    work = os.path.join(root, ".repobench", "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = os.path.join(work, "inputs")
    tally = Tally()
    report = {}
    ticks = cpu_ticks()
    if args.trace == 0:
        units = metric_units(root, "end_to_end")
        metrics, host = measure_end_to_end(args, root, cfa, repobench, work, inputs, tally, report)
    else:
        units = metric_units(root, "per_layer")
        metrics, host = measure_layers(args, root, cfa, repobench, work, inputs, tally, report, units)

    # The floor under every child's reported peak RSS (see ExactStream):
    # a peak at the floor would be this process's, not `cfa`'s.
    floor = generator_peak_mb()
    report["generator_peak_rss_mb"] = round(floor, 1)
    if "peak_rss_mb" in metrics and metrics["peak_rss_mb"] <= floor:
        raise BenchError("peak_rss_mb %.1f MB does not exceed the load generator's own peak RSS %.1f MB"
                         % (metrics["peak_rss_mb"], floor))
    if ticks is not None:
        # CPU time the hypervisor gave to other guests while this run
        # measured: the host's share in any run-to-run spread.
        steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
        report["host_steal_share"] = round(steal / max(1, total), 4)
    for name in sorted(units):
        print("%-28s %16.4f %s" % (name, metrics[name], units[name]))
    print("checks: %d attempted, %d failed (failed_ratio %.4f); exact %d, property %d, unchecked %d"
          % (tally.attempted, tally.failed, tally.failed / max(1, tally.attempted),
             tally.how["exact"], tally.how["property"], tally.how["unchecked"]))
    for what in tally.first_failures:
        print("  failed: %s" % what)
    print("run: " + json.dumps(report, sort_keys=True))
    print("host: " + json.dumps(host, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log("repobench: %s" % e)
        sys.exit(2)
