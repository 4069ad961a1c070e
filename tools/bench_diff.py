#!/usr/bin/env python3
"""Same-runner timing gate: judge this checkout against checkout BASE
with perfbench's A/B verdict (perfbench/compare.py), on one host.

    python3 tools/bench_diff.py BASE

Both checkouts need `build/bench_hotpaths` built. The perfbench half
runs `compare.py ab` on every workload (10 alternating pairs of 2 s runs;
CARGO_TARGET_DIR is dropped so each checkout builds in its own
.bench_build/). The bench_hotpaths half runs 20 alternating pairs of
both checkouts' `bench_hotpaths --quick` and judges the *_ms sections
that time shipped paths at BENCHMARK.json's ms bound, leaving out the
reference paths no request runs. Every verdict is compare.ab_verdict,
with its table printed; exit 1 on any "worse". A half runs only when its
benchmark code is identical in both checkouts, else a changed workload
would read as a changed program; a skipped half is named on the closing
"verdicts:" line.
"""

import collections
import filecmp
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402

PERFBENCH_PAIRS = 10
PERFBENCH_SECONDS = 2
HOTPATHS_PAIRS = 20
# The files whose bytes must match in both checkouts for each half.
PERFBENCH_CODE = ("perfbench", "BENCHMARK.json")
HOTPATHS_CODE = ("bench/bench_hotpaths.cc", "bench/bench_util.hh")
# Suffixes of the sections that time reference paths (naive kernels,
# uncached routing, the Taylor exponential): they feed the speedup
# ratios and --check, but no request runs them.
REFERENCE_SUFFIXES = ("_naive_ms", "_uncached_ms", "_taylor_ms")


def same_bytes(a, b):
    """True when paths @p a and @p b hold the same bytes: files by
    content, directories entry by entry (filecmp's default ignores skip
    __pycache__)."""
    if os.path.isdir(a) and os.path.isdir(b):
        d = filecmp.dircmp(a, b)
        return not (d.left_only or d.right_only) and all(
            same_bytes(os.path.join(a, n), os.path.join(b, n))
            for n in d.common)
    return (os.path.isfile(a) and os.path.isfile(b)
            and filecmp.cmp(a, b, shallow=False))


def perfbench_ab(base):
    """compare.py's saved A/B data, BASE as parent and this checkout as
    change."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ab.json")
        subprocess.run([sys.executable,
                        os.path.join(ROOT, "perfbench", "compare.py"), "ab",
                        "--parent", base, "--change", ROOT,
                        "--pairs", str(PERFBENCH_PAIRS),
                        "--seconds", str(PERFBENCH_SECONDS), "--out", out],
                       env=env, stdout=subprocess.DEVNULL, check=True)
        with open(out) as f:
            return json.load(f)


def hotpaths_run(root):
    """One `bench_hotpaths --quick` of checkout @p root, as a compare.py
    result holding its *_ms sections that time shipped paths."""
    cmd = [os.path.join(root, "build", "bench_hotpaths"), "--quick"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s failed:\n%s" % (" ".join(cmd), out.stderr[-2000:]))
    metrics = json.loads(out.stdout)["metrics"]
    return {"metrics": {k: {"value": v} for k, v in metrics.items()
                        if k.endswith("_ms")
                        and not k.endswith(REFERENCE_SUFFIXES)}}


def hotpaths_ab(base, bound):
    """HOTPATHS_PAIRS alternating pairs of bench_hotpaths --quick, as
    compare.py A/B data."""
    pairs = []
    for i in range(HOTPATHS_PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = hotpaths_run(base if side == "parent" else ROOT)
        pairs.append(pair)
    spec = {"end_to_end": [{"name": k, "better": "lower", "bound": bound}
                           for k in pairs[0]["change"]["metrics"]]}
    return {"spec": spec, "pairs": {"bench_hotpaths --quick": pairs}}


def verdicts(data):
    """(workload, metric, verdict) for every metric of compare.py A/B
    data."""
    for w, pairs in data["pairs"].items():
        for m in data["spec"]["end_to_end"]:
            par = [p["parent"]["metrics"][m["name"]]["value"] for p in pairs]
            chg = [p["change"]["metrics"][m["name"]]["value"] for p in pairs]
            yield w, m["name"], compare.ab_verdict(par, chg, m)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = os.path.abspath(argv[1])
    spec = compare.load_spec(ROOT)
    ms_bound = {m["unit"]: m["bound"] for m in spec["end_to_end"]}["ms"]
    halves = [("perfbench", PERFBENCH_CODE, lambda: perfbench_ab(base)),
              ("bench_hotpaths", HOTPATHS_CODE,
               lambda: hotpaths_ab(base, ms_bound))]
    counts = collections.Counter()
    worse, skipped = [], []
    for name, code, run in halves:
        if not all(same_bytes(os.path.join(base, p), os.path.join(ROOT, p))
                   for p in code):
            print("%s differ between the checkouts: skipping the %s A/B, "
                  "which needs identical benchmark code"
                  % (" or ".join(code), name))
            skipped.append(name)
            continue
        data = run()
        compare.print_ab(data)
        for w, metric, verdict in verdicts(data):
            counts[verdict] += 1
            if verdict == "worse":
                worse.append("%s %s" % (w, metric))
    print("\nverdicts: " + ", ".join(
        ["%d %s" % (n, v) for v, n in sorted(counts.items())]
        + ["%s skipped" % name for name in skipped]))
    if worse:
        print("worse: " + ", ".join(worse), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
