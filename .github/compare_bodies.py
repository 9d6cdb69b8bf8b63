"""Compare two directories of tas_run artifacts.

Usage: python3 .github/compare_bodies.py BASE_DIR HEAD_DIR

Every BENCH_<id>.json in either directory is compared with the other's by
its body, the document without its "timing" key (the only wall-clock
part); every TIMELINE_*.json must match token for token: the same keys in
the same order and the same number text, so only whitespace may differ
(artifacts were pretty-printed before they were written compact). Prints
one line per file and a summary, and exits 1 when anything differs, is
MISSING from HEAD_DIR, or is EXTRA: present in HEAD_DIR only.
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


def names(dir, pattern):
    return {os.path.basename(p) for p in glob.glob(f"{dir}/{pattern}")}


def verdict(name, base, head, same, equal):
    if not os.path.exists(f"{head}/{name}"):
        return "MISSING"
    if not os.path.exists(f"{base}/{name}"):
        return "EXTRA"
    return equal if same(f"{base}/{name}", f"{head}/{name}") else "DIFFERS"


def main(base, head):
    bad = 0
    benches = sorted(names(base, "BENCH_*.json") | names(head, "BENCH_*.json"))
    for name in benches:
        v = verdict(name, base, head, lambda a, b: body(a) == body(b), "body equal")
        bad += v != "body equal"
        print(name[6:-5], v)
    timelines = sorted(names(base, "TIMELINE_*.json") | names(head, "TIMELINE_*.json"))
    for name in timelines:
        v = verdict(name, base, head, lambda a, b: tokens(a) == tokens(b), "equal")
        bad += v != "equal"
        print(name, v)
    print(f"{len(benches)} experiments, {len(timelines)} timelines, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
