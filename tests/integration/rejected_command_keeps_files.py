#!/usr/bin/env python3
"""A rejected bench command must leave existing result files intact.

Pre-fills a JSONL and a CSV file, runs bench_suite with each sink
followed by an invalid later option, and checks that both commands
fail and that neither file changed. Also checks `--list-stats`, which
exits 0 without running anything, leaves its --json file alone.

    rejected_command_keeps_files.py BENCH_SUITE
"""

import os
import subprocess
import sys
import tempfile

JSON_BEFORE = b'{"schema_version":1,"record":"run","workload":"li"}\n'
CSV_BEFORE = b"workload,policy\nli,Resume\n"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "t.json")
        csv_path = os.path.join(tmp, "t.csv")
        cases = [
            ([binary, "--json", json_path, "--adaptive", "bogus"], False),
            ([binary, "--csv", csv_path, "--progress-interval", "0"], False),
            ([binary, "--json", json_path, "--list-stats"], True),
        ]
        for cmd, succeeds in cases:
            for path, before in ((json_path, JSON_BEFORE),
                                 (csv_path, CSV_BEFORE)):
                with open(path, "wb") as handle:
                    handle.write(before)
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            shown = " ".join(cmd[1:])
            if (done.returncode == 0) != succeeds:
                failures.append(f"'{shown}' exited {done.returncode}")
            for path, before in ((json_path, JSON_BEFORE),
                                 (csv_path, CSV_BEFORE)):
                with open(path, "rb") as handle:
                    if handle.read() != before:
                        failures.append(f"'{shown}' changed "
                                        f"{os.path.basename(path)}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{len(cases)} commands left the result files unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
