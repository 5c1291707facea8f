#!/usr/bin/env python3
"""Symbolize a scripts/profile/sampler.c dump with `addr2line -f -i`.

    symbolize.py profile.samples.<pid>... [--top N] [--chains PATTERN]

Several dumps (one per process of a run) are pooled.

Prints, by share of samples: the top functions (innermost inlined frame and
outermost physical function), the top `caller <- leaf` chains (the word at
RSP symbolized as the caller; only trusted for frameless leaves, so a libc
leaf such as memmove is attributed to the function that called it), and the
top source lines. A stripped libc names its leaves by the nearest exported
symbol (memmove may read `__nss_database_lookup`); the caller attribution
is the part to trust. Lines need debug info: build the profiled binary with
`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`.

`--chains PATTERN` adds one more table: the inlined-frame chains
(`inner <- … <- physical function`, innermost first, generic arguments
dropped) of the samples whose chain has a frame containing PATTERN, by
share of all samples. A sample in libc shows as `libc <leaf>` followed by
its caller's chain. That is how to attribute cost inside code the
compiler inlined away, e.g. `--chains recv_until` splits the runtime's
wait into its `try_recv`, `sched_yield` and sleeping `recv_timeout`
samples.
"""
import collections
import re
import subprocess
import sys


def load(path):
    maps, samples = [], []
    for line in open(path):
        tag, rest = line[0], line[2:].split()
        if tag == "M" and len(rest) >= 6:
            lo, hi = (int(x, 16) for x in rest[0].split("-"))
            maps.append((lo, hi, int(rest[2], 16), rest[5]))
        elif tag == "S":
            samples.append((int(rest[0], 16), int(rest[1], 16)))
    return maps, samples


def locate(maps, addr):
    """(object file, address relative to its load base) — what addr2line
    takes for a position-independent object: the base is where the
    object's offset-0 mapping starts."""
    for lo, hi, _, path in maps:
        if lo <= addr < hi:
            base = min(l for l, _, off, p in maps if p == path and off == 0)
            return path, addr - base
    return None, addr


def symbolize(by_object):
    """{(object, offset): [(function, file:line), …] innermost first}."""
    out = {}
    for obj, offsets in by_object.items():
        offsets = sorted(offsets)
        if obj is None or not obj.startswith("/"):
            out.update({(obj, o): [("[unmapped]", "?")] for o in offsets})
            continue
        text = subprocess.run(
            ["addr2line", "-f", "-i", "-C", "-a", "-e", obj] + [hex(o) for o in offsets],
            capture_output=True, text=True, check=False).stdout.splitlines()
        frames, key = None, None
        i = 0
        while i < len(text):
            if text[i].startswith("0x"):
                key = (obj, int(text[i], 16))
                frames = out.setdefault(key, [])
                i += 1
            else:
                frames.append((text[i], text[i + 1].split(" ")[0]))
                i += 2
    return out


def short(name):
    return name if len(name) <= 100 else name[:97] + "..."


def bare(name):
    """`name` without generic arguments: `f<T<U>>` reads `f`."""
    while True:
        stripped = re.sub(r"(?<=[\w>}])<[^<>]*>", "", name)
        if stripped == name:
            return name
        name = stripped


def table(title, counter, total, top, fit=short):
    print(f"\n{title}")
    for key, n in counter.most_common(top):
        print(f"  {100 * n / total:5.1f}%  {n:7d}  {fit(key)}")


def main():
    args, top, pattern = sys.argv[1:], 25, None
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at:at + 2]
    if "--chains" in args:
        at = args.index("--chains")
        pattern = args[at + 1]
        del args[at:at + 2]
    by_object = collections.defaultdict(set)
    placed = []
    for path in args:
        maps, samples = load(path)
        for rip, ret in samples:
            a, b = locate(maps, rip), locate(maps, ret)
            by_object[a[0]].add(a[1])
            # The return address points past the call; step back into it.
            by_object[b[0]].add(b[1] - 1)
            placed.append((a, (b[0], b[1] - 1)))
    names = symbolize(by_object)
    total = len(placed)
    inner, outer, chains, lines, inlined = (collections.Counter() for _ in range(5))
    for a, b in placed:
        frames = names.get(a) or [("[unknown]", "?")]
        leaf = frames[-1][0]
        caller = (names.get(b) or [("[not a return address]", "?")])[-1][0]
        in_libc = a[0] is not None and "libc" in a[0]
        inner[frames[0][0]] += 1
        # A libc leaf is the cost of whoever called it.
        outer[f"{caller}  (in libc {leaf})" if in_libc else leaf] += 1
        chains[f"{caller} <- {leaf}"] += 1
        lines[f"{frames[0][1]}  {frames[0][0]}"] += 1
        # A libc leaf continues with its caller's chain.
        chain = [f for f, _ in frames]
        if in_libc:
            chain = [f"libc {leaf}"] + [f for f, _ in names.get(b) or []]
        if pattern is not None and any(pattern in f for f in chain):
            inlined[" <- ".join(bare(f) for f in chain)] += 1
    print(f"{total} samples from {len(args)} dump(s)")
    table("physical functions (libc leaves attributed to their caller)", outer, total, top)
    table("innermost inlined frames", inner, total, top)
    table("word at RSP <- sampled function (trust for leaves only)", chains, total, top)
    table("source lines", lines, total, top)
    if pattern is not None:
        matched = sum(inlined.values())
        title = f"inlined chains containing {pattern!r} ({matched} samples, innermost first)"
        table(title, inlined, total, top, fit=str)


if __name__ == "__main__":
    main()
