#!/usr/bin/env python3
"""Compare a perf_microbench run against a checked-in baseline.

Both inputs are JSONL files produced by `perf_microbench --json`: one
"perf_meta" record (benchmark, budget, repeats) followed by one "perf"
record per stage carrying its throughput ("rate", work units per
second). The comparison prints a per-stage table of the rate ratio
current/baseline and flags stages whose throughput dropped by more
than --tolerance (default 25%).

Damaged inputs degrade instead of crashing: a perf record without a
usable "stage" or "rate" member is skipped with a warning naming the
file and line, and a stage present on only one side is reported as a
warning naming the stage (MISSING / new in the table) — never a
KeyError. Mismatched measurement settings (different benchmark or
budget in the two meta records) remain a hard error in both modes:
the ratio would be meaningless.

By default the exit code is 0 even when stages regressed, for
exploratory local runs. CI's perf-gate job passes --strict, which
turns any flagged regression into exit code 1: the gated stages
(sim_replay, grid) carry a tightened --stage-tolerance and the
per-stage ratios land in the perf_diff.jsonl artifact via --diff-out.

--overhead switches to the observability cost check (DESIGN.md §11):
BASELINE is a perf_microbench run with the sampler off and CURRENT
the same binary with --sample-interval armed. Only the simulation
stages that actually execute the sampler (sim_live, sim_replay, grid)
are held to the bound — default 5% instead of 25% — while the
untouched stages are printed as a machine-noise floor. The CURRENT
meta must carry "sample_interval" (proof the flag was really on);
benchmark and budget must still match.

--adaptive-overhead takes ONE perf file and bounds the adaptive
decision point's cost within it (DESIGN.md §12): the sim_adaptive
stage runs the same simulation as sim_live with a StaticSelector
armed, so any throughput difference is pure epoch-ticker and
choice-log bookkeeping. The bound defaults to 3%.

--stage-tolerance overrides the global tolerance per stage (repeatable,
e.g. --stage-tolerance sim_replay=0.15 --stage-tolerance grid=0.15):
the gated CI job holds the two simulation-throughput stages to a tight
bound while leaving the global default for the noisier fixed-cost
stages. --diff-out writes the comparison as machine-readable JSONL
(one "perf_diff" record per stage plus a "perf_diff_meta" summary) for
artifact upload. When a stage is flagged and the baseline's meta
record carries a "provenance" object (written by
tools/perf_baseline.py: git sha, compiler, CPU model, repeats), it is
printed so the failure names exactly which measurement it was judged
against.

Usage:
    tools/perf_compare.py BASELINE CURRENT [--tolerance 0.25] [--strict]
        [--stage-tolerance STAGE=FRAC ...] [--diff-out DIFF.json]
    tools/perf_compare.py --overhead OFF.json ON.json [--strict]
    tools/perf_compare.py --adaptive-overhead PERF.json [--strict]
    tools/perf_compare.py --self-test
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.jsonl import iter_records, warn  # noqa: E402
from common.selftest import Checker  # noqa: E402


def load_perf(path):
    """Return (meta, {stage: record}) from a perf JSONL file."""
    meta = None
    stages = {}
    for lineno, record in iter_records(path, kinds=("perf_meta", "perf")):
        if record["record"] == "perf_meta":
            meta = record
            continue
        stage = record.get("stage")
        rate = record.get("rate")
        if not isinstance(stage, str) or stage == "":
            warn(f"{path}:{lineno}: perf record without a "
                 f"usable 'stage'; skipping it")
            continue
        if not isinstance(rate, (int, float)) \
                or isinstance(rate, bool):
            warn(f"{path}:{lineno}: stage '{stage}' has no "
                 f"numeric 'rate'; skipping it")
            continue
        stages[stage] = record
    if meta is None:
        raise SystemExit(f"{path}: no perf_meta record found")
    if not stages:
        raise SystemExit(f"{path}: no usable perf records found")
    return meta, stages


def parse_stage_tolerances(pairs):
    """Turn ['sim_replay=0.15', ...] into {stage: fraction}."""
    table = {}
    for pair in pairs or ():
        stage, sep, value = pair.partition("=")
        if not sep or not stage:
            raise SystemExit(
                f"error: --stage-tolerance needs STAGE=FRACTION, "
                f"got {pair!r}")
        try:
            fraction = float(value)
        except ValueError:
            raise SystemExit(
                f"error: --stage-tolerance fraction for "
                f"'{stage}' is not a number: {value!r}") from None
        if not 0.0 <= fraction < 1.0:
            raise SystemExit(
                f"error: --stage-tolerance fraction for '{stage}' "
                f"must be in [0, 1), got {fraction}")
        table[stage] = fraction
    return table


def print_provenance(meta, name):
    """Show where a baseline came from, so a flagged regression names
    the measurement it was judged against."""
    provenance = meta.get("provenance")
    if not isinstance(provenance, dict):
        return
    print(f"baseline provenance ({name}):")
    for key in sorted(provenance):
        print(f"  {key}: {provenance[key]}")


def write_diff(path, records):
    """Write the comparison as JSONL for artifact upload."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def compare(base_meta, base, cur_meta, cur, baseline_name, current_name,
            tolerance, strict, stage_tolerance=None, diff_out=None):
    for key in ("benchmark", "budget"):
        if base_meta.get(key) != cur_meta.get(key):
            raise SystemExit(
                f"error: measurement settings differ: {key} is "
                f"{base_meta.get(key)!r} in {baseline_name} but "
                f"{cur_meta.get(key)!r} in {current_name}")
    if base_meta.get("stat", "best") != cur_meta.get("stat", "best"):
        warn(f"statistic differs: {base_meta.get('stat', 'best')!r} in "
             f"{baseline_name} vs {cur_meta.get('stat', 'best')!r} in "
             f"{current_name}; the ratio mixes statistics")

    stage_tolerance = stage_tolerance or {}
    flagged = []
    diff = []
    print(f"{'stage':<16} {'baseline/s':>14} {'current/s':>14} "
          f"{'ratio':>7}")
    for stage in base:
        bound = stage_tolerance.get(stage, tolerance)
        if stage not in cur:
            flagged.append(stage)
            warn(f"stage '{stage}' is in {baseline_name} but missing "
                 f"from {current_name}")
            print(f"{stage:<16} {base[stage]['rate']:>14.0f} "
                  f"{'MISSING':>14} {'-':>7}")
            diff.append({"record": "perf_diff", "stage": stage,
                         "baseline_rate": base[stage]["rate"],
                         "current_rate": None, "ratio": None,
                         "tolerance": bound, "flagged": True})
            continue
        base_rate = base[stage]["rate"]
        cur_rate = cur[stage]["rate"]
        ratio = cur_rate / base_rate if base_rate > 0 else float("inf")
        mark = ""
        over = ratio < 1.0 - bound
        if over:
            flagged.append(stage)
            mark = f"  << regressed (>{bound:.0%})"
        print(f"{stage:<16} {base_rate:>14.0f} {cur_rate:>14.0f} "
              f"{ratio:>7.2f}{mark}")
        diff.append({"record": "perf_diff", "stage": stage,
                     "baseline_rate": base_rate,
                     "current_rate": cur_rate,
                     "ratio": ratio if ratio != float("inf") else None,
                     "tolerance": bound, "flagged": over})
    for stage in cur:
        if stage not in base:
            warn(f"stage '{stage}' is new in {current_name} (not in "
                 f"{baseline_name})")
            print(f"{stage:<16} {'(new)':>14} {cur[stage]['rate']:>14.0f} "
                  f"{'-':>7}")
            diff.append({"record": "perf_diff", "stage": stage,
                         "baseline_rate": None,
                         "current_rate": cur[stage]["rate"],
                         "ratio": None, "tolerance": None,
                         "flagged": False})

    if diff_out:
        summary = {"record": "perf_diff_meta",
                   "baseline": baseline_name, "current": current_name,
                   "benchmark": base_meta.get("benchmark"),
                   "budget": base_meta.get("budget"),
                   "tolerance": tolerance,
                   "stage_tolerance": stage_tolerance,
                   "flagged": flagged}
        if isinstance(base_meta.get("provenance"), dict):
            summary["baseline_provenance"] = base_meta["provenance"]
        write_diff(diff_out, [summary] + diff)

    if flagged:
        drops = ", ".join(flagged)
        warn(f"throughput dropped past its tolerance or stage missing "
             f"on: {drops}")
        print_provenance(base_meta, baseline_name)
        if strict:
            return 1
    return 0


#: Stages whose inner loop runs the interval sampler; only these are
#: held to the --overhead bound.
SAMPLED_STAGES = ("sim_live", "sim_replay", "grid")


def compare_overhead(base_meta, base, cur_meta, cur, baseline_name,
                     current_name, tolerance, strict):
    """Bound the slowdown the armed sampler causes on the sim stages."""
    for key in ("benchmark", "budget"):
        if base_meta.get(key) != cur_meta.get(key):
            raise SystemExit(
                f"error: measurement settings differ: {key} is "
                f"{base_meta.get(key)!r} in {baseline_name} but "
                f"{cur_meta.get(key)!r} in {current_name}")
    if not cur_meta.get("sample_interval"):
        raise SystemExit(
            f"error: {current_name} was not measured with "
            f"--sample-interval; its meta record has no "
            f"'sample_interval'")
    if base_meta.get("sample_interval"):
        raise SystemExit(
            f"error: {baseline_name} was measured with the sampler "
            f"armed (sample_interval "
            f"{base_meta['sample_interval']!r}); the overhead "
            f"baseline must have it off")

    flagged = []
    print(f"sampler overhead at interval "
          f"{cur_meta['sample_interval']} (bound {tolerance:.0%} on "
          f"sampled stages)")
    print(f"{'stage':<16} {'off/s':>14} {'on/s':>14} {'overhead':>9}")
    for stage in base:
        if stage not in cur:
            warn(f"stage '{stage}' is in {baseline_name} but missing "
                 f"from {current_name}")
            continue
        base_rate = base[stage]["rate"]
        cur_rate = cur[stage]["rate"]
        overhead = 1.0 - cur_rate / base_rate if base_rate > 0 else 0.0
        sampled = stage in SAMPLED_STAGES
        mark = "" if sampled else "  (noise floor)"
        if sampled and overhead > tolerance:
            flagged.append(stage)
            mark = "  << over budget"
        print(f"{stage:<16} {base_rate:>14.0f} {cur_rate:>14.0f} "
              f"{overhead:>8.1%}{mark}")

    if flagged:
        drops = ", ".join(flagged)
        warn(f"sampler overhead exceeds {tolerance:.0%} on: {drops}")
        if strict:
            return 1
    return 0


def compare_adaptive(stages, name, tolerance, strict):
    """Bound the adaptive decision point's bookkeeping cost within one
    perf file: sim_adaptive (StaticSelector armed) vs sim_live."""
    for stage in ("sim_live", "sim_adaptive"):
        if stage not in stages:
            raise SystemExit(
                f"error: {name} has no '{stage}' perf record; run a "
                f"perf_microbench that measures both")
    live = stages["sim_live"]["rate"]
    adaptive = stages["sim_adaptive"]["rate"]
    overhead = 1.0 - adaptive / live if live > 0 else 0.0
    print(f"adaptive decision-point overhead (bound {tolerance:.0%})")
    print(f"{'stage':<16} {'rate/s':>14}")
    print(f"{'sim_live':<16} {live:>14.0f}")
    print(f"{'sim_adaptive':<16} {adaptive:>14.0f}")
    print(f"overhead: {overhead:.1%}")
    if overhead > tolerance:
        warn(f"adaptive selector overhead {overhead:.1%} exceeds "
             f"{tolerance:.0%}")
        if strict:
            return 1
    return 0


def self_test():
    """Exercise the degradation paths without external fixtures."""
    import contextlib
    import io
    import os
    import tempfile

    def write_jsonl(directory, name, records):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path

    meta = {"record": "perf_meta", "benchmark": "gcc", "budget": 1000}
    checker = Checker()
    check = checker.check

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Records without stage/rate are skipped with a warning,
        #    not a KeyError.
        path = write_jsonl(tmp, "damaged.json", [
            meta,
            {"record": "perf", "rate": 5.0},
            {"record": "perf", "stage": "no_rate"},
            {"record": "perf", "stage": "bool_rate", "rate": True},
            {"record": "perf", "stage": "good", "rate": 100.0},
        ])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            _, stages = load_perf(path)
        check("damaged records skipped", set(stages) == {"good"})
        check("skip warnings name the problem",
              "usable 'stage'" in err.getvalue()
              and "no_rate" in err.getvalue()
              and "bool_rate" in err.getvalue())

        # 2. A stage missing from one side warns by name and flags.
        base = {"a": {"stage": "a", "rate": 100.0},
                "gone": {"stage": "gone", "rate": 50.0}}
        cur = {"a": {"stage": "a", "rate": 100.0},
               "fresh": {"stage": "fresh", "rate": 10.0}}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare(meta, base, meta, cur, "base", "cur",
                           0.25, False)
        check("missing stage is warn-only by default", code == 0)
        check("missing stage named in warning",
              "'gone'" in err.getvalue() and "missing" in err.getvalue())
        check("new stage named in warning", "'fresh'" in err.getvalue())
        check("missing stage rendered in table",
              "MISSING" in out.getvalue())

        # 3. --strict turns the same situation into exit 1.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare(meta, base, meta, cur, "base", "cur",
                           0.25, True)
        check("missing stage fails under --strict", code == 1)

        # 4. Regression math: a 50% drop is flagged, a 10% drop is not
        #    at the default tolerance.
        base = {"x": {"stage": "x", "rate": 100.0},
                "y": {"stage": "y", "rate": 100.0}}
        cur = {"x": {"stage": "x", "rate": 50.0},
               "y": {"stage": "y", "rate": 90.0}}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare(meta, base, meta, cur, "base", "cur",
                           0.25, True)
        check("50% drop flagged strictly", code == 1)
        check("regression marked in table",
              "<< regressed" in out.getvalue())
        check("10% drop not flagged", "y" not in err.getvalue())

        # 4b. Per-stage tolerance: the same 10% drop passes globally
        #     but fails a 5% stage bound; the bound applies only to
        #     its stage. The diff JSONL mirrors the verdicts.
        diff_path = os.path.join(tmp, "diff.json")
        prov_meta = dict(meta, provenance={"git_sha": "abc1234",
                                           "cpu": "TestCPU"})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare(prov_meta, base, meta, cur, "base", "cur",
                           0.25, True,
                           stage_tolerance={"y": 0.05},
                           diff_out=diff_path)
        check("stage tolerance tightens its stage", code == 1
              and "y" in err.getvalue())
        check("provenance printed on flagged regression",
              "abc1234" in out.getvalue()
              and "TestCPU" in out.getvalue())
        with open(diff_path, encoding="utf-8") as handle:
            diff = [json.loads(line) for line in handle]
        by_stage = {d.get("stage"): d for d in diff
                    if d["record"] == "perf_diff"}
        check("diff meta lists flagged stages",
              diff[0]["record"] == "perf_diff_meta"
              and set(diff[0]["flagged"]) == {"x", "y"})
        check("diff meta carries baseline provenance",
              diff[0].get("baseline_provenance", {}).get("git_sha")
              == "abc1234")
        check("diff records carry per-stage verdicts",
              by_stage["x"]["flagged"] and by_stage["y"]["flagged"]
              and by_stage["x"]["tolerance"] == 0.25
              and by_stage["y"]["tolerance"] == 0.05)

        # 4c. Loose per-stage tolerance relaxes below the global bound.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare(meta, base, meta, cur, "base", "cur",
                           0.25, True,
                           stage_tolerance={"x": 0.60})
        check("loose stage tolerance passes its stage", code == 0)

        # 4d. Malformed --stage-tolerance inputs are hard errors.
        for bad in ("sim_replay", "=0.1", "x=lots", "x=1.5"):
            try:
                parse_stage_tolerances([bad])
                check(f"stage tolerance {bad!r} rejected", False)
            except SystemExit:
                check(f"stage tolerance {bad!r} rejected", True)
        check("stage tolerance parses valid pairs",
              parse_stage_tolerances(["a=0.15", "b=0"])
              == {"a": 0.15, "b": 0.0})

        # 4e. Differing statistics warn but do not abort.
        median_meta = dict(meta, stat="median")
        ok = {"x": {"stage": "x", "rate": 100.0},
              "y": {"stage": "y", "rate": 100.0}}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare(meta, ok, median_meta, ok, "base", "cur",
                           0.25, True)
        check("stat mismatch warns but passes", code == 0
              and "statistic differs" in err.getvalue())

        # 5. Mismatched measurement settings stay a hard error.
        other_meta = dict(meta, budget=2000)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                compare(meta, base, other_meta, cur, "base", "cur",
                        0.25, False)
            check("meta mismatch raises", False)
        except SystemExit as err:
            check("meta mismatch raises",
                  "budget" in str(err))

        # 6. Overhead mode: only sampled stages are held to the bound.
        on_meta = dict(meta, sample_interval=10000)
        base = {"sim_live": {"stage": "sim_live", "rate": 100.0},
                "sim_replay": {"stage": "sim_replay", "rate": 100.0},
                "executor_step": {"stage": "executor_step",
                                  "rate": 100.0}}
        cur = {"sim_live": {"stage": "sim_live", "rate": 90.0},
               "sim_replay": {"stage": "sim_replay", "rate": 97.0},
               "executor_step": {"stage": "executor_step",
                                 "rate": 80.0}}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare_overhead(meta, base, on_meta, cur,
                                    "off", "on", 0.05, True)
        check("10% sampler slowdown flagged strictly", code == 1)
        check("over-budget stage named",
              "'sim_live'" in err.getvalue()
              or "sim_live" in err.getvalue())
        check("3% slowdown within the bound",
              "sim_replay" not in err.getvalue())
        check("unsampled stage is noise floor, never flagged",
              "executor_step" not in err.getvalue()
              and "noise floor" in out.getvalue())

        cur = {"sim_live": {"stage": "sim_live", "rate": 97.0},
               "sim_replay": {"stage": "sim_replay", "rate": 98.0},
               "executor_step": {"stage": "executor_step",
                                 "rate": 99.0}}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare_overhead(meta, base, on_meta, cur,
                                    "off", "on", 0.05, True)
        check("in-budget overhead passes strictly", code == 0)

        # 7. Overhead mode refuses runs measured the wrong way round.
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                compare_overhead(meta, base, meta, cur, "off", "on",
                                 0.05, False)
            check("sampler-off CURRENT raises", False)
        except SystemExit as err:
            check("sampler-off CURRENT raises",
                  "sample_interval" in str(err))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                compare_overhead(on_meta, base, on_meta, cur,
                                 "off", "on", 0.05, False)
            check("sampler-on BASELINE raises", False)
        except SystemExit as err:
            check("sampler-on BASELINE raises",
                  "baseline" in str(err) or "off" in str(err))

        # 8. Adaptive-overhead mode: bounded within one file.
        stages = {"sim_live": {"stage": "sim_live", "rate": 100.0},
                  "sim_adaptive": {"stage": "sim_adaptive",
                                   "rate": 98.0}}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare_adaptive(stages, "perf", 0.03, True)
        check("2% adaptive overhead within the 3% bound", code == 0)
        stages["sim_adaptive"]["rate"] = 90.0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = compare_adaptive(stages, "perf", 0.03, True)
        check("10% adaptive overhead flagged strictly", code == 1)
        check("adaptive overhead named in warning",
              "adaptive" in err.getvalue())
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                compare_adaptive({"sim_live": {"stage": "sim_live",
                                               "rate": 100.0}},
                                 "perf", 0.03, False)
            check("missing sim_adaptive raises", False)
        except SystemExit as err:
            check("missing sim_adaptive raises",
                  "sim_adaptive" in str(err))

    return checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare perf_microbench output against a baseline")
    parser.add_argument("baseline", nargs="?",
                        help="baseline perf JSONL")
    parser.add_argument("current", nargs="?",
                        help="current perf JSONL")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="flag throughput drops beyond this fraction "
                             "(default 0.25, or 0.05 with --overhead)")
    parser.add_argument("--stage-tolerance", action="append",
                        metavar="STAGE=FRACTION",
                        help="per-stage override of --tolerance "
                             "(repeatable; e.g. sim_replay=0.15)")
    parser.add_argument("--diff-out", metavar="PATH",
                        help="write the comparison as JSONL diff records "
                             "(for CI artifact upload)")
    parser.add_argument("--overhead", action="store_true",
                        help="check sampler overhead: BASELINE measured "
                             "with the sampler off, CURRENT with "
                             "--sample-interval armed")
    parser.add_argument("--adaptive-overhead", action="store_true",
                        help="bound sim_adaptive vs sim_live within ONE "
                             "perf file (default tolerance 0.03)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any stage is flagged "
                             "(default: warn only)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.adaptive_overhead:
        if args.baseline is None:
            parser.error("--adaptive-overhead needs one perf JSONL file")
        if args.current is not None:
            parser.error("--adaptive-overhead compares stages within "
                         "ONE file; drop the second path")
        tolerance = args.tolerance if args.tolerance is not None else 0.03
        _, stages = load_perf(args.baseline)
        return compare_adaptive(stages, args.baseline, tolerance,
                                args.strict)
    if args.baseline is None or args.current is None:
        parser.error("BASELINE and CURRENT are required "
                     "(or use --self-test)")
    if args.tolerance is None:
        args.tolerance = 0.25
        if args.overhead:
            args.tolerance = 0.05

    base_meta, base = load_perf(args.baseline)
    cur_meta, cur = load_perf(args.current)
    if args.overhead:
        return compare_overhead(base_meta, base, cur_meta, cur,
                                args.baseline, args.current,
                                args.tolerance, args.strict)
    return compare(base_meta, base, cur_meta, cur, args.baseline,
                   args.current, args.tolerance, args.strict,
                   stage_tolerance=parse_stage_tolerances(
                       args.stage_tolerance),
                   diff_out=args.diff_out)


if __name__ == "__main__":
    sys.exit(main())
