#!/usr/bin/env python3
"""Digest golden of a whole bench_suite JSONL output.

The golden holds one line per record, in output order:

    <record kind> <workload> <policy> <digest>

where <digest> is the first 16 hex digits of the SHA-256 of the
record's canonical JSON: the `timing` member (the one wall-clock,
machine-dependent part) removed, then `json.dumps(..., sort_keys=True)`.
Two outputs agree line for line exactly when they agree record for
record once timing is stripped, and a mismatch names the records that
moved.

With --bytes, a record that carries no `timing` member is digested
from its raw line bytes instead, so a formatting drift that keeps the
value (`5e-01` for `0.5`, a reordered member) moves the digest too.
Records with `timing` keep the canonical digest, since their lines can
never be byte-stable.

Each checked-in golden comes from one recipe, which `--run` repeats:

    suite (tests/golden/bench_suite_20k.digests):
        bench_suite --budget 20K --check paranoid --checkpoint-interval 5000
    obs, with --bytes (tests/golden/bench_suite_obs_20k.digests):
        bench_suite --budget 20K --sample-interval 1000 --heatmap
                    --adaptive bandit --adaptive-interval 1000

Usage:
    tools/suite_golden.py RESULTS.jsonl [--bytes]       print the digests
    tools/suite_golden.py RESULTS.jsonl --check GOLDEN  compare, exit 1 on drift
    tools/suite_golden.py --run BENCH_SUITE [--recipe obs] [--bytes]
                          --check GOLDEN [--parallelism N]
    tools/suite_golden.py --self-test
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.selftest import Checker  # noqa: E402

RECIPES = {
    "suite": ["--budget", "20K", "--check", "paranoid",
              "--checkpoint-interval", "5000"],
    "obs": ["--budget", "20K", "--sample-interval", "1000", "--heatmap",
            "--adaptive", "bandit", "--adaptive-interval", "1000"],
}


def digest_line(record, raw=None):
    """The golden line of one record.

    With @p raw (the record's line, as bytes) and no `timing` member,
    the digest covers those bytes; otherwise it covers the canonical
    JSON with timing stripped.
    """
    if raw is not None and "timing" not in record:
        payload = raw
    else:
        stripped = {k: v for k, v in record.items() if k != "timing"}
        payload = json.dumps(stripped, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()[:16]
    return " ".join([str(record.get("record", "-")),
                     str(record.get("workload", "-")),
                     str(record.get("policy", "-")), digest])


def digest_lines(lines, raw_bytes=False):
    """Golden lines of (raw line bytes, record) pairs."""
    return [digest_line(record, raw if raw_bytes else None)
            for raw, record in lines]


def load_lines(path):
    """(raw line bytes, record) for each non-blank line of @p path."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise SystemExit(f"cannot read {path}: {err}")
    lines = []
    for lineno, raw in enumerate(data.split(b"\n"), 1):
        raw = raw.rstrip(b"\r")
        if not raw.strip():
            continue
        try:
            lines.append((raw, json.loads(raw)))
        except ValueError as err:
            raise SystemExit(f"{path}:{lineno}: malformed JSON: {err}")
    return lines


def read_golden(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [line.strip() for line in handle if line.strip()]
    except OSError as err:
        raise SystemExit(f"cannot read {path}: {err}")


def compare(fresh, golden):
    """Mismatch messages (empty when the two digest lists agree)."""
    problems = []
    if len(fresh) != len(golden):
        problems.append(f"{len(fresh)} records, golden has {len(golden)}")
    for index, (got, want) in enumerate(zip(fresh, golden)):
        if got != want:
            problems.append(f"record {index}: got '{got}', golden '{want}'")
    return problems


def run_recipe(binary, recipe, parallelism):
    """Run a golden recipe; return its (raw line, record) pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "suite.jsonl")
        cmd = [binary] + RECIPES[recipe] + ["--json", out]
        if parallelism:
            cmd += ["--parallelism", str(parallelism)]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
        return load_lines(out)


def self_test():
    checker = Checker()
    check = checker.check

    run = {"record": "run", "workload": "li", "policy": "Resume",
           "counters": {"b": 2, "a": 1}, "timing": {"run_seconds": 0.5}}
    line = digest_line(run)
    fields = line.split(" ")
    check("line names kind, workload and policy",
          fields[:3] == ["run", "li", "Resume"])
    check("digest is 16 hex digits",
          len(fields[3]) == 16 and int(fields[3], 16) >= 0)

    retimed = dict(run, timing={"run_seconds": 9.0})
    check("timing does not reach the digest", digest_line(retimed) == line)
    reordered = {"timing": {}, "counters": {"a": 1, "b": 2},
                 "policy": "Resume", "workload": "li", "record": "run"}
    check("key order does not reach the digest",
          digest_line(reordered) == line)
    changed = dict(run, counters={"a": 1, "b": 3})
    check("a counter change moves the digest", digest_line(changed) != line)

    manifest = {"record": "sweep_manifest", "runs": 1}
    check("records without workload/policy get placeholders",
          digest_line(manifest).startswith("sweep_manifest - - "))

    def pairs(*records):
        return [(json.dumps(r).encode("utf-8"), r) for r in records]

    golden = digest_lines(pairs(run, manifest))
    check("identical outputs compare clean",
          compare(digest_lines(pairs(retimed, manifest)), golden) == [])
    check("a changed record is named",
          any("record 0" in p
              for p in compare(digest_lines(pairs(changed, manifest)),
                               golden)))
    check("a missing record is named",
          any("1 records" in p for p in compare(golden[:1], golden)))

    # --bytes: untimed records hash their raw bytes, timed ones do not.
    series = b'{"record":"timeseries","workload":"li","ispi":0.5}'
    drifted = b'{"record":"timeseries","workload":"li","ispi":5e-01}'
    check("a value-preserving drift keeps the canonical digest",
          digest_line(json.loads(drifted)) == digest_line(json.loads(series)))
    check("--bytes: a value-preserving drift moves the digest",
          digest_line(json.loads(drifted), drifted)
          != digest_line(json.loads(series), series))
    check("--bytes: the digest is the raw bytes' SHA-256 prefix",
          digest_line(json.loads(series), series).split(" ")[3]
          == hashlib.sha256(series).hexdigest()[:16])
    timed = json.dumps(run).encode("utf-8")
    check("--bytes: timed records keep the canonical digest",
          digest_line(run, timed) == line
          and digest_line(retimed, json.dumps(retimed).encode()) == line)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(golden) + "\n\n")
        check("golden files round-trip", read_golden(path) == golden)

        results = os.path.join(tmp, "results.jsonl")
        with open(results, "wb") as handle:
            handle.write(series + b"\r\n\n" + timed + b"\n")
        loaded = load_lines(results)
        check("results load as raw line bytes and records",
              [raw for raw, _ in loaded] == [series, timed]
              and loaded[1][1] == run)
        check("--bytes on a loaded file digests each line's bytes",
              digest_lines(loaded, raw_bytes=True)
              == [digest_line(json.loads(series), series), line])
    return checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="digest golden of a bench_suite JSONL output")
    parser.add_argument("results", nargs="?",
                        help="bench_suite JSONL output to digest")
    parser.add_argument("--run", metavar="BENCH_SUITE",
                        help="run the golden recipe with this binary "
                             "instead of reading RESULTS")
    parser.add_argument("--recipe", choices=sorted(RECIPES),
                        default="suite",
                        help="recipe for --run (default: suite)")
    parser.add_argument("--bytes", action="store_true",
                        help="digest the raw line bytes of records "
                             "without a timing member")
    parser.add_argument("--parallelism", type=int, default=0,
                        help="--parallelism for --run (default: the "
                             "binary's default)")
    parser.add_argument("--check", metavar="GOLDEN",
                        help="compare against this golden; exit 1 on "
                             "any difference")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if bool(args.results) == bool(args.run):
        parser.error("give exactly one of RESULTS or --run")

    lines = (run_recipe(args.run, args.recipe, args.parallelism)
             if args.run else load_lines(args.results))
    fresh = digest_lines(lines, raw_bytes=args.bytes)
    if not args.check:
        print("\n".join(fresh))
        return 0
    problems = compare(fresh, read_golden(args.check))
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} difference(s) from {args.check}",
              file=sys.stderr)
        return 1
    print(f"{len(fresh)} records match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
