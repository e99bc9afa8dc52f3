#!/usr/bin/env python3
"""Reach gate and smoke harness: run every command and example at
smoke scale, check what each run must print, and fail when a function
that no run reaches is not on the allow-list, or when a listed function
is reached.

Run from the root of a checkout (or through `make reach`):

    python3 scripts/reach.py

It builds every command under cmd/ and every example under examples/
with `go build -cover -coverpkg=<module>/...` into a temporary
directory outside the checkout ($TMPDIR), then runs a fixed set of
smoke-scale invocations with GOCOVERDIR set: every figure, the fault,
client-cache and QoS sweeps with every observability flag, the suite,
livemem, -seeds, -csv, both live backends on both clocks, one -serve
run, iogen with every pattern and format plus -layout, bpstrace plain,
replayed, multi-stack, fault-injected and on blkparse text, bpsd over
HTTP (every endpoint, the jobs API, SIGTERM, a Darshan log, a local
stack), and the examples. The smoke checks: the fig9 attribution,
livemem, multi-stack replay, multiapp and whatif outputs equal their
goldens under testdata/ byte for byte, the osfs wall-clock run prints
a nonzero BPS and a well-formed windows CSV, the suite prints
headroom, CIs and the composite and writes ceilings to its JSON, and
bpsd serves bps_window_bps on /metrics, activates the
QoS throttle, reports itself healthy and exits 0 on SIGTERM.
cmd/benchguard is left out of the build and the scan: it is the
bench-regression tool `make bench-check` runs, and its one job,
running the benchmarks, takes minutes.

It merges the profiles with `go tool covdata textfmt` and computes
function-level reach: a function is reached when any coverage block in
its body ran (so empty bodies count too, unlike `go tool cover -func`).
Functions are the top-level declarations of every non-test Go file
`go list ./...` compiles on this platform, found with the layout gofmt
guarantees. Each is keyed by file and Recv.Func, without line numbers.

The allow-list (scripts/reach_allow.txt) holds one unreached function
per line, `file<TAB>Recv.Func<TAB>reason`, where reason is one of
`perfbench`, `public-api`, `test-double`, `engine-primitive` or
`test-only <TestName>`. The gate fails on any unreached function not
listed, and on any listed function that is reached or no longer
exists, so the list only shrinks. A `test-only` entry must name a
test, fuzz target or benchmark that reaches the function: the gate
builds each package holding such a test once with `go test -c -cover
-coverpkg=<module>/...`, runs the binary once per listed test with its
own coverage directory, and fails when that run leaves the function
unreached. On failure it prints each unlisted unreached function as
`file<TAB>Recv.Func`, the allow-list's own key. Scratch files are
removed at exit.
"""

import difflib
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

ALLOW = os.path.join("scripts", "reach_allow.txt")
TOOLS = {"cmd/benchguard"}
REASONS = {"perfbench", "public-api", "test-double", "engine-primitive"}
SCALE = "0.002"
RUN_TIMEOUT = 300

# A blkparse sample: two completed reads, a write, an ignored queue
# event, and one issue that never completes.
BLKPARSE = """\
  8,0    1        1     0.000100000  4510  Q   R 1000 + 8 [app]
  8,0    1        2     0.000123456  4510  D   R 1000 + 8 [app]
  8,0    1        3     0.000323456     0  C   R 1000 + 8 [0]
  8,0    1        4     0.000400000  4511  D   W 2048 + 16 [app]
  8,0    1        5     0.000900000     0  C   W 2048 + 16 [0]
  8,0    1        6     0.001000000  4510  D   R 4096 + 8 [app]
  8,0    1        7     0.001500000     0  C   R 4096 + 8 [0]
  8,0    1        8     0.002000000  4512  D   R 9000 + 8 [app]
"""


def sh(argv, **kw):
    return subprocess.run(argv, check=True, text=True, capture_output=True, **kw).stdout


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def build(mod, bindir):
    """Builds every command and example with coverage; returns the
    binary paths by name."""
    pkgs = sh(["go", "list", "./cmd/...", "./examples/..."]).split()
    bins = {}
    for pkg in pkgs:
        if pkg[len(mod) + 1:] in TOOLS:
            continue
        name = pkg.rsplit("/", 1)[1]
        out = os.path.join(bindir, name)
        sh(["go", "build", "-cover", "-coverpkg=" + mod + "/...", "-o", out, "./" + pkg[len(mod) + 1:]])
        bins[name] = out
    return bins


def run(argv, cwd, env):
    """Runs one smoke invocation and returns its stdout."""
    p = subprocess.run(argv, cwd=cwd, env=env, text=True, capture_output=True, timeout=RUN_TIMEOUT)
    if p.returncode != 0:
        sys.exit("reach: %s exited %d\n%s" % (" ".join(argv), p.returncode, p.stderr[-4000:]))
    return p.stdout


def expect(ok, what, detail=""):
    if not ok:
        sys.exit("reach: %s\n%s" % (what, detail[-4000:]))


def golden(out, repo, name):
    """Fails unless out equals testdata/<name> byte for byte."""
    with open(os.path.join(repo, "testdata", name)) as f:
        want = f.read()
    if out != want:
        diff = difflib.unified_diff(want.splitlines(True), out.splitlines(True), "testdata/" + name, "got")
        sys.exit("reach: output differs from testdata/%s\n%s" % (name, "".join(diff)[-4000:]))


def http(method, url, body=None):
    """Returns (status, body) of one request to the local daemon."""
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def wait_for(cond, what, timeout=60):
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            if cond():
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.1)
    sys.exit("reach: timed out waiting for " + what)


def bpsd_session(argv, cwd, env, jobs):
    """Starts bpsd, drives its HTTP surface, then SIGTERMs it and
    requires a clean exit."""
    port = free_port()
    base = "http://127.0.0.1:%d" % port
    log = open(os.path.join(cwd, "bpsd.log"), "w+")
    p = subprocess.Popen(argv[:1] + ["-addr", "127.0.0.1:%d" % port] + argv[1:], cwd=cwd, env=env,
                         stdout=log, stderr=subprocess.STDOUT)

    def serving():
        if p.poll() is not None:
            sys.exit("reach: bpsd exited %d before serving" % p.returncode)
        return '"windows":[{' in http("GET", base + "/windows")[1]

    try:
        wait_for(serving, "bpsd to publish windows")
        for path in ("/", "/windows", "/forecast", "/roofline", "/healthz"):
            http("GET", base + path)
        metrics = http("GET", base + "/metrics")[1]
        expect(re.search(r"^bps_window_bps", metrics, re.M), "bpsd: /metrics missing bps_window_bps", metrics)
        with urllib.request.urlopen(base + "/stream", timeout=10) as r:
            r.readline()  # the first server-sent event
        if jobs:
            for body in ('{"tenant":"alpha","priority":1,"bps_floor":1e8,"procs":2,"mb":4}',
                         '{"tenant":"beta","procs":2,"mb":1,"record_bytes":4096}'):
                status, text = http("POST", base + "/jobs", body.encode())
                if status != 202:
                    sys.exit("reach: bpsd refused a job: %d %s" % (status, text))
            wait_for(lambda: all('"state":"done"' in http("GET", base + "/jobs/%d" % i)[1] for i in (1, 2)),
                     "bpsd jobs to finish")
            http("GET", base + "/jobs")
            http("DELETE", base + "/jobs/1")
            # alpha's floor is unmeetable, so the controller must act.
            qos = http("GET", base + "/qos")[1]
            expect(re.search(r'"activations":[1-9]', qos), "bpsd: QoS throttle never activated", qos)
            health = http("GET", base + "/healthz")[1]
            expect('"status":"ok"' in health, "bpsd: unhealthy", health)
        p.send_signal(signal.SIGTERM)
        p.wait(timeout=60)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        log.seek(0)
        out = log.read()
        log.close()
    if p.returncode != 0:
        sys.exit("reach: bpsd exited %d after SIGTERM\n%s" % (p.returncode, out[-4000:]))


def exercise(bins, repo, work, env):
    """Runs the fixed smoke-scale set."""
    b = bins["bpsbench"]

    def obs(prefix):
        return ["-trace-out", prefix + ".json", "-metrics-out", prefix + ".csv",
                "-attrib-out", prefix + ".folded", "-windows", "0.01",
                "-windows-out", prefix + ".windows.csv", "-forecast"]

    live = ["-live-procs", "2", "-live-mb", "4", "-live-record", "65536"]
    osdir = os.path.join(work, "osdir")
    os.mkdir(osdir)
    for argv in (
        [b, "-fig", "all", "-scale", SCALE, "-q"],
        [b, "-fig", "fig4", "-scale", SCALE, "-q", "-csv"],
        [b, "-fig", "fig4", "-scale", SCALE, "-q", "-seeds", "2"],
        [b, "-fig", "faults", "-scale", SCALE, "-q", "-fault-rates", "0,0.016,0.064"] + obs("faults"),
        [b, "-fig", "clientcache", "-scale", SCALE, "-q"] + obs("clientcache"),
        [b, "-fig", "qos", "-scale", SCALE, "-q"] + obs("qos"),
        [b, "-fig", "fig4", "-scale", SCALE, "-q", "-serve", "127.0.0.1:%d" % free_port()],
        [b, "-backend", "mem"] + live + ["-metrics-out", "mem.csv", "-windows-out", "mem.windows.csv", "-forecast"],
        [b, "-backend", "mem", "-wall"] + live,
        [b, "-backend", "os", "-dir", osdir] + live,
    ):
        run(argv, work, env)

    # The blame table pins the attribution sweep and the simulation.
    # Regenerate the golden after an intended change:
    #   go run ./cmd/bpsbench -fig fig9 -scale 0.002 -q -attrib-out attrib_fig9.folded > testdata/attrib_fig9.golden
    golden(run([b, "-fig", "fig9", "-scale", SCALE, "-q", "-attrib-out", "fig9.folded"], work, env),
           repo, "attrib_fig9.golden")
    # Regenerate after an intended change:
    #   go run ./cmd/bpsbench -fig livemem -scale 0.002 -q > testdata/livemem.golden
    golden(run([b, "-fig", "livemem", "-scale", SCALE, "-q"], work, env), repo, "livemem.golden")

    out = run([b, "-fig", "suite", "-scale", SCALE, "-q", "-seeds", "2", "-roofline-out", "suite.json"], work, env)
    for want in ("headroom", "95% CI", "Composite"):
        expect(want in out, "suite: output lacks " + want, out)
    with open(os.path.join(work, "suite.json")) as f:
        expect('"ceiling_bps"' in f.read(), "suite: JSON lacks ceiling_bps")

    out = run([b, "-backend", "os", "-dir", osdir, "-wall"] + live +
              ["-metrics-out", "os.csv", "-windows-out", "os.windows.csv"], work, env)
    expect(re.search(r"BPS: *[1-9]", out), "livefs: osfs run reported no BPS", out)
    with open(os.path.join(work, "os.windows.csv")) as f:
        rows = f.read().splitlines()
    expect(rows[:1] == ["start_s,end_s,ops,blocks,busy_s,bps,bw_bytes_per_s,iops,arpt_s,utilization"],
           "livefs: malformed windows CSV", "\n".join(rows[:3]))
    expect(len(rows) > 1, "livefs: windows CSV has no rows")

    g = bins["iogen"]
    for pattern in ("sequential", "concurrent", "bursty", "random"):
        for fmt in ("binary", "csv", "jsonl"):
            run([g, "-pattern", pattern, "-format", fmt, "-procs", "4", "-ops", "50",
                 "-out", "%s.%s" % (pattern, fmt)], work, env)
    run([g, "-pattern", "random", "-procs", "2", "-ops", "20", "-out", "layout.bin",
         "-layout", os.path.join(work, "layout")], work, env)

    t = bins["bpstrace"]
    with open(os.path.join(work, "trace.blk"), "w") as f:
        f.write(BLKPARSE)
    for argv in (
        [t, "-latency", "-per-pid", "-window", "0.01", "-exec", "1", "-moved", "1000000", "bursty.binary"],
        [t, "-format", "csv", "concurrent.csv"],
        [t, "-format", "jsonl", "random.jsonl"],
        [t, "sequential.csv", "sequential.jsonl"],
        [t, "-trace-out", "app.json", "bursty.binary"],
        [t, "-replay", "hddx4"] + obs("replay") + ["bursty.binary"],
        [t, "-replay", "hddx2", "-fault-rate", "0.05", "random.binary"],
        [t, "-format", "blkparse", "-latency", "trace.blk"],
    ):
        run(argv, work, env)

    # The record replay (workload.RecordAccesses into ReplayIO) on a
    # local disk and a cluster. Regenerate after an intended change:
    #   go run ./cmd/iogen -pattern concurrent -format binary -procs 4 -ops 50 -out concurrent.binary
    #   go run ./cmd/bpstrace -replay hdd,ssdx2 concurrent.binary > testdata/replay_multi.golden
    golden(run([t, "-replay", "hdd,ssdx2", "concurrent.binary"], work, env), repo, "replay_multi.golden")

    d = bins["bpsd"]
    bpsd_session([d, "-procs", "2", "-mb", "8", "-batch-wait", "500ms"], work, env, jobs=True)
    bpsd_session([d, "-jobs=false", os.path.join(repo, "testdata", "darshan_sample.csv")], work, env, jobs=False)
    bpsd_session([d, "-jobs=false", "-stack", "hdd", "-procs", "2", "-mb", "4"], work, env, jobs=False)

    # multiapp runs applications as tenants (SimulateTenants, zero
    # QoSConfig); whatif replays records on three stacks (ReplayTrace).
    # Regenerate after an intended change:
    #   go run ./examples/multiapp > testdata/multiapp.golden
    #   go run ./examples/whatif > testdata/whatif.golden
    for name in sorted(bins):
        if name in ("multiapp", "whatif"):
            golden(run([bins[name]], work, env), repo, name + ".golden")
        elif name not in ("bpsbench", "bpstrace", "bpsd", "iogen"):
            run([bins[name]], work, env)


def reached_blocks(profile, mod):
    """Returns {file: [(start line, count)]} from a textfmt profile,
    files relative to the module root."""
    blocks = {}
    with open(profile) as f:
        for line in f:
            if line.startswith("mode:"):
                continue
            m = re.match(r"(.+):(\d+)\.\d+,\d+\.\d+ \d+ (\d+)$", line.strip())
            if not m:
                sys.exit("reach: bad profile line " + line)
            name = m.group(1)
            if name.startswith(mod + "/"):
                name = name[len(mod) + 1:]
            blocks.setdefault(name, []).append((int(m.group(2)), int(m.group(3))))
    return blocks


FUNC = re.compile(r"func\s*(?:\(\s*(?:\w+\s+)?\*?\s*(\w+)(?:\[[^\]]*\])?\s*\)\s*)?(\w+)")


def functions(mod):
    """Yields (file, key, first line, last line) for every top-level
    function declaration in the non-test files go list compiles. gofmt
    puts each at column 0 as `func ...`; a body that spans lines ends
    at the next line that is exactly `}`, a one-line body on the line
    that closes it."""
    out = sh(["go", "list", "-f", "{{.ImportPath}}\t{{join .GoFiles \" \"}}", "./..."])
    for line in out.splitlines():
        pkg, _, files = line.partition("\t")
        if pkg[len(mod) + 1:] in TOOLS:
            continue
        rel = "" if pkg == mod else pkg[len(mod) + 1:] + "/"
        for name in files.split():
            path = rel + name
            with open(path) as f:
                lines = f.read().split("\n")
            i = 0
            while i < len(lines):
                if not lines[i].startswith("func "):
                    i += 1
                    continue
                m = FUNC.match(lines[i])
                key = (m.group(1) + "." if m.group(1) else "") + m.group(2)
                first = i
                while True:
                    text = lines[i].rstrip()
                    if text.endswith("{"):
                        i += 1
                        while lines[i] != "}":
                            i += 1
                        break
                    if text.endswith("}"):
                        break
                    i += 1
                yield path, key, first + 1, i + 1
                i += 1


def ran(blocks, path, span):
    """Reports whether any block of path starting in the line span ran."""
    first, last = span
    return any(c > 0 and first <= s <= last for s, c in blocks.get(path, ()))


def unreached(mod, profile):
    """Returns every function's line span, keyed by (file, key), and
    the set of unreached ones."""
    blocks = reached_blocks(profile, mod)
    spans, zero = {}, set()
    for path, key, first, last in functions(mod):
        spans[(path, key)] = (first, last)
        if not ran(blocks, path, (first, last)):
            zero.add((path, key))
    return spans, zero


def load_allow(tests):
    allow, bad = {}, []
    with open(ALLOW) as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                bad.append("%s:%d: want file<TAB>Recv.Func<TAB>reason: %r" % (ALLOW, n, line))
                continue
            path, key, reason = parts
            if reason not in REASONS:
                m = re.fullmatch(r"test-only ((?:Test|Fuzz|Benchmark)\w*)", reason)
                if not m:
                    bad.append("%s:%d: unknown reason %r" % (ALLOW, n, reason))
                elif m.group(1) not in tests:
                    bad.append("%s:%d: no test named %s" % (ALLOW, n, m.group(1)))
            if (path, key) in allow:
                bad.append("%s:%d: duplicate entry %s %s" % (ALLOW, n, path, key))
            allow[(path, key)] = reason
    return allow, bad


def test_dirs():
    """Returns the module's tests, fuzz targets and benchmarks
    (perfbench/ excluded), each mapped to the package directories that
    declare it."""
    dirs = {}
    decl = re.compile(r"^func ((?:Test|Fuzz|Benchmark)\w*)\(", re.M)
    for root, subdirs, files in os.walk("."):
        subdirs[:] = [d for d in subdirs if not d.startswith(".") and d not in ("testdata", "perfbench")]
        for f in files:
            if f.endswith("_test.go"):
                with open(os.path.join(root, f)) as fh:
                    for name in decl.findall(fh.read()):
                        dirs.setdefault(name, set()).add(os.path.normpath(root))
    return dirs


def test_only_unreached(mod, allow, tests, spans, tmp):
    """Returns the test-only entries whose named test does not reach
    the listed function. Each package declaring a listed test is built
    once as a coverage-instrumented test binary; each listed test runs
    alone, in its package directory, with its own coverage directory."""
    bins, bad = {}, []
    for (path, key), reason in sorted(allow.items()):
        if not reason.startswith("test-only ") or (path, key) not in spans:
            continue
        name = reason.split()[1]
        reached = False
        for d in sorted(tests.get(name, ())):
            if d not in bins:
                bins[d] = os.path.join(tmp, "tests", d.replace(os.sep, "_") + ".test")
                sh(["go", "test", "-c", "-cover", "-coverpkg=" + mod + "/...", "-o", bins[d], "./" + d])
            cov = tempfile.mkdtemp(dir=tmp)
            if name.startswith("Benchmark"):
                flags = ["-test.run=^$", "-test.bench=^%s$" % name, "-test.benchtime=1x"]
            else:
                flags = ["-test.run=^%s$" % name]
            p = subprocess.run([bins[d]] + flags + ["-test.gocoverdir=" + cov], cwd=d, text=True,
                               capture_output=True, timeout=RUN_TIMEOUT)
            if p.returncode != 0:
                sys.exit("reach: %s in %s failed\n%s" % (name, d, (p.stdout + p.stderr)[-4000:]))
            profile = cov + ".txt"
            sh(["go", "tool", "covdata", "textfmt", "-i=" + cov, "-o", profile])
            if ran(reached_blocks(profile, mod), path, spans[(path, key)]):
                reached = True
                break
        if not reached:
            bad.append("listed test-only but %s does not reach it: %s\t%s" % (name, path, key))
    return bad


def main():
    repo = os.getcwd()
    mod = sh(["go", "list", "-m"]).strip()
    tests = test_dirs()
    allow, problems = load_allow(tests)
    tmp = tempfile.mkdtemp(prefix="bps-reach-")
    try:
        bindir, cov, work = (os.path.join(tmp, d) for d in ("bin", "cov", "work"))
        for d in (bindir, cov, work, os.path.join(tmp, "tests")):
            os.mkdir(d)
        bins = build(mod, bindir)
        env = dict(os.environ, GOCOVERDIR=cov)
        exercise(bins, repo, work, env)
        profile = os.path.join(tmp, "profile.txt")
        sh(["go", "tool", "covdata", "textfmt", "-i=" + cov, "-o", profile])
        spans, zero = unreached(mod, profile)
        problems += test_only_unreached(mod, allow, tests, spans, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for entry in sorted(zero - allow.keys()):
        problems.append("unreached and not listed: %s\t%s" % entry)
    for entry in sorted(allow.keys() & spans.keys() - zero):
        problems.append("listed but reached (delete the entry): %s\t%s" % entry)
    for entry in sorted(allow.keys() - spans.keys()):
        problems.append("listed but no such function (delete the entry): %s\t%s" % entry)
    print("reach: %d functions unreached, %d listed" % (len(zero), len(allow)))
    if problems:
        print("\n".join(problems))
        sys.exit(1)
    print("reach OK")


if __name__ == "__main__":
    main()
