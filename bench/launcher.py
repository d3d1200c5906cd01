"""Starts the benchmark's children from a small process and reaps them.

A forked child inherits its parent's resident set, and Linux carries that
high-water mark through ``exec`` into the child's ``ru_maxrss``.  Children
forked from ``run.py``, which holds references and outputs, would report
at least its size; forked from this process (started with ``-S``,
importing almost nothing) they report their own peak.

Protocol, one JSON line each way per child::

    in:  {"argv": [...], "env": {...}, "cwd": "...", "stdout": "...",
          "stderr": "...", "memory_limit": bytes, "cpu_limit": seconds}
    out: [exit_code, ru_maxrss_kb, wall_s]

``exit_code`` is negative for a child killed by a signal.  The wall time
runs from just before ``fork`` to the return of ``wait4``.  The process
exits when its standard input closes.
"""

import json
import os
import resource
import sys
import time


def _exec_child(job) -> None:
    try:
        resource.setrlimit(resource.RLIMIT_AS, (job["memory_limit"], job["memory_limit"]))
        cpu = job["cpu_limit"]
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 10))
        os.chdir(job["cwd"])
        stdin = os.open(os.devnull, os.O_RDONLY)
        out = os.open(job["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(job["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, target in ((stdin, 0), (out, 1), (err, 2)):
            os.dup2(fd, target)
        os.execve(job["argv"][0], job["argv"], job["env"])
    finally:
        os._exit(127)


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            _exec_child(job)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = [os.waitstatus_to_exitcode(status), usage.ru_maxrss, wall]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
