#!/usr/bin/env python3
"""Kill-and-resume smoke test (runs standalone and under pytest/CI).

1. Run ``repro bench sweep_smoke`` uninterrupted → reference rows.
2. Start the same bench with a journal, SIGKILL it once at least one
   sweep point is journaled, then kill its process group so the sweep's
   pool workers do not outlive it.
3. Rerun with ``--resume`` against a *cold* cache, so any skipped work
   can only have come from the journal.
4. Require the resumed table to equal the reference byte for byte.

Exit 0 on success, 1 with a diagnostic on any mismatch.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_ID = "kill-resume-smoke"
EXPERIMENT = "sweep_smoke"


def bench_env(base: str, cache_name: str) -> dict:
    env = os.environ.copy()
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = os.path.join(base, cache_name)
    env.pop("REPRO_BENCH_JSON_DIR", None)
    return env


def bench_cmd(base: str, json_name: str, journal: bool) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "bench", EXPERIMENT,
        "--quick", "--jobs", "2",
        "--json-dir", os.path.join(base, json_name),
        "--runs-dir", os.path.join(base, "runs"),
    ]
    cmd += ["--resume", RUN_ID] if journal else ["--no-journal"]
    return cmd


def read_rows(base: str, json_name: str):
    path = os.path.join(base, json_name, f"BENCH_{EXPERIMENT}.json")
    with open(path) as handle:
        record = json.load(handle)
    return record["headers"], record["rows"]


def journal_points(base: str) -> int:
    path = os.path.join(base, "runs", RUN_ID + ".jsonl")
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return 0
    count = 0
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("kind") == "point" and record.get("status") == "ok":
            count += 1
    return count


def main() -> int:
    base = tempfile.mkdtemp(prefix="kill-resume-smoke-")
    print(f"work dir: {base}")

    # 1. Uninterrupted reference run (own cache, no journal).
    subprocess.run(
        bench_cmd(base, "json-ref", journal=False),
        env=bench_env(base, "cache-ref"), check=True, capture_output=True,
    )
    reference = read_rows(base, "json-ref")
    print(f"reference rows: {len(reference[1])}")

    # 2. Journaled run, SIGKILLed once >= 1 point is on disk.  Its own
    # session makes it a process-group leader, so the pool workers it
    # forks can be reaped with it.
    victim = subprocess.Popen(
        bench_cmd(base, "json-victim", journal=True),
        env=bench_env(base, "cache-victim"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + 300
    while victim.poll() is None and time.monotonic() < deadline:
        if journal_points(base) >= 1:
            victim.send_signal(signal.SIGKILL)
            break
        time.sleep(0.02)
    if victim.poll() is None and journal_points(base) < 1:
        victim.send_signal(signal.SIGKILL)  # wedged with nothing journaled
    victim.wait(timeout=60)
    try:
        # SIGKILL leaves the sweep's pool workers orphaned: reap them.
        os.killpg(victim.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    survived = journal_points(base)
    if victim.returncode == -signal.SIGKILL:
        print(f"killed mid-run with {survived} point(s) journaled")
    else:
        print(f"run finished before the kill landed (rc={victim.returncode}, "
              f"{survived} point(s) journaled) — resume degenerates to full merge")
    if survived < 1:
        print("FAIL: no point survived in the journal", file=sys.stderr)
        return 1

    # 3. Resume with a cold cache: merged points come from the journal.
    resumed = subprocess.run(
        bench_cmd(base, "json-resumed", journal=True),
        env=bench_env(base, "cache-resume"),
        check=True, capture_output=True, text=True,
    )
    if f"resuming {RUN_ID}" not in resumed.stdout:
        print("FAIL: resumed run did not report resuming", file=sys.stderr)
        print(resumed.stdout, file=sys.stderr)
        return 1
    merged = read_rows(base, "json-resumed")

    # 4. The merged table must equal the uninterrupted one exactly.
    if merged != reference:
        print("FAIL: resumed rows differ from the uninterrupted run",
              file=sys.stderr)
        print(f"reference: {reference}", file=sys.stderr)
        print(f"resumed:   {merged}", file=sys.stderr)
        return 1
    print("OK: resumed table is identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
