"""Compare two directories of tas_run artifacts.

Usage: python3 .github/compare_bodies.py BASE_DIR HEAD_DIR

Every BENCH_<id>.json in BASE_DIR is compared with HEAD_DIR's by its body,
the document without its "timing" key (the only wall-clock part); every
TIMELINE_*.json must match token for token: the same keys in the same
order and the same number text, so only whitespace may differ (artifacts
were pretty-printed before they were written compact). Prints one line
per file and a summary, and exits 1 when anything differs or is missing.
"""

import glob
import json
import os
import sys


def body(path):
    doc = json.load(open(path))
    return {k: v for k, v in doc.items() if k != "timing"}


def tokens(path):
    return json.load(open(path), object_pairs_hook=list, parse_float=str, parse_int=str)


def main(base, head):
    bad = 0
    ids = sorted(os.path.basename(p)[6:-5] for p in glob.glob(f"{base}/BENCH_*.json"))
    for id in ids:
        other = f"{head}/BENCH_{id}.json"
        if not os.path.exists(other):
            verdict = "MISSING"
        elif body(f"{base}/BENCH_{id}.json") == body(other):
            verdict = "body equal"
        else:
            verdict = "DIFFERS"
        bad += verdict != "body equal"
        print(id, verdict)
    timelines = sorted(glob.glob(f"{base}/TIMELINE_*.json"))
    for p in timelines:
        name = os.path.basename(p)
        other = f"{head}/{name}"
        same = os.path.exists(other) and tokens(p) == tokens(other)
        bad += not same
        print(name, "equal" if same else "DIFFERS")
    print(f"{len(ids)} experiments, {len(timelines)} timelines, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
