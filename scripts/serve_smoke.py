#!/usr/bin/env python3
"""Closed-loop smoke test of `cfa serve`.

Sends every suite program to one `cfa serve` as `callgraph` and `races`
requests at k=0 and k=1, one request at a time: the next request goes
out only once the previous reply has arrived, and each reply may take
at most REPLY_TIMEOUT_S. Stdin stays open until the last reply is in.
Fails unless every reply is `ok` with its request's id, in request
order, and the server exits 0 once stdin closes.

usage: serve_smoke.py CFA INPUTS
  CFA     the `cfa` binary
  INPUTS  a directory written by `repobench gen` (programs.tsv and
          programs/STEM.scm)
"""
import os
import select
import subprocess
import sys
import time

REPLY_TIMEOUT_S = 10.0


def fail(proc, message):
    proc.kill()
    proc.wait()
    sys.exit("serve smoke: " + message)


def read_reply(proc, buf):
    """Reads until `buf` holds a whole reply (up to its lone `.` line);
    returns the reply and the bytes after it."""
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    fd = proc.stdout.fileno()
    while True:
        end = buf.find(b"\n.\n")
        if end >= 0:
            return buf[: end + 3], buf[end + 3 :]
        left = deadline - time.monotonic()
        if left <= 0:
            fail(proc, "no reply within %.0f s (read %r)" % (REPLY_TIMEOUT_S, buf[:200]))
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                fail(proc, "cfa serve closed stdout mid-session (read %r)" % buf[:200])
            buf += chunk


def main():
    cfa, inputs = sys.argv[1:]
    with open(os.path.join(inputs, "programs.tsv")) as index:
        stems = [row.split("\t")[0] for row in index if row.split("\t")[1] == "suite"]
    assert stems, "no suite programs in %s" % inputs
    requests = []
    for stem in stems:
        with open(os.path.join(inputs, "programs", stem + ".scm"), "rb") as f:
            source = f.read().rstrip(b"\n")
        for kind in ("callgraph", "races"):
            for k in (0, 1):
                requests.append((stem, kind, k, b"%s k=%d\n%s\n.\n" % (kind.encode(), k, source)))

    proc = subprocess.Popen([cfa, "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    buf = b""
    slowest = (0.0, None)
    for i, (stem, kind, k, request) in enumerate(requests):
        start = time.monotonic()
        proc.stdin.write(request)
        proc.stdin.flush()
        reply, buf = read_reply(proc, buf)
        took = time.monotonic() - start
        slowest = max(slowest, (took, "%s %s k=%d" % (stem, kind, k)))
        header = reply.split(b"\n", 1)[0].decode(errors="replace")
        expected = "ok %d %s k=%d" % (i, kind, k)
        if not header.startswith(expected + " "):
            fail(proc, "request %d (%s %s k=%d): expected %r, got %r" % (i, stem, kind, k, expected, header))
        if buf:
            fail(proc, "reply %d came with unrequested bytes %r" % (i, buf[:200]))
    proc.stdin.close()
    try:
        code = proc.wait(timeout=REPLY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(proc, "cfa serve did not exit once stdin closed")
    if code != 0:
        sys.exit("serve smoke: cfa serve exited with %d" % code)
    if proc.stdout.read():
        sys.exit("serve smoke: output after the last reply")
    print("serve smoke ok: %d closed-loop replies in order, slowest %.0f ms (%s)"
          % (len(requests), slowest[0] * 1e3, slowest[1]))


if __name__ == "__main__":
    main()
