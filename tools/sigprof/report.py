#!/usr/bin/env python3
"""Symbolizes and summarizes a profile written by the SIGPROF sampler.

    python3 tools/sigprof/report.py prof.txt [more.txt ...] [--top 25]
        [--stack 'label=OUTER>...>INNER' ...] [--lines REGEX ...]
        [--require REGEX]
    python3 tools/sigprof/report.py change*.txt --baseline parent*.txt
        [--top 25] [--stack ...]

Every sampled address is resolved with `addr2line -f -i -C`, so a sample's
stack lists inlined functions too (innermost first). Several profiles (say,
one per seed) are pooled. Shares are of all samples:

- inclusive: samples with the function anywhere on the stack;
- self: samples whose innermost frame is the function;
- --stack: samples whose stack holds a frame matching each regex in order,
  outermost first (not necessarily adjacent); a trailing '!' requires the
  last match to be the innermost frame. For example
  'bg touch self=PeriodicTouchBehavior::Run>TaskContext::Touch>MemoryManager::Access!'
  is the time a background touch spends in Access's own instructions;
- --lines: the samples whose innermost frame matches REGEX, counted by the
  source line of the sampled instruction (file:line, from the debug info;
  '??:0' without -g), the top lines first. For example
  --lines 'MemoryManager::Access' shows which statement of Access (or of a
  function inlined into it) the self time lands on;
- --require: exits 1 unless some sample has a frame matching REGEX (a
  profile that attributes nothing to the simulator is a broken profile).

--baseline PROFILE... compares the profiles before it (a change) with
these (its baseline, say the parent commit's binary): for the total, each
--stack label and the top inclusive and self functions of either side, it
prints each side's share of its own samples and its seconds, and the
change in seconds. A sample's seconds are the profile's CPU time over its
sample count (the header's cpu_s; the kernel delivers at most one signal
per tick, so fewer than hz per second on a 250 Hz kernel), or 1/hz for a
profile without cpu_s. Pool several runs per side: a share moves by a few
points between runs of the same binary.

Addresses map to an object and an offset through the executable mappings
the sampler saved; this assumes each object's code segment has equal file
offset and virtual address, as GNU ld and lld lay out PIE executables and
shared libraries.
"""

import argparse
import collections
import re
import subprocess
import sys


def parse(path):
    header, maps, samples = "", [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line[1:].strip()
            elif line.startswith("map "):
                fields = line.split()
                start, end = (int(x, 16) for x in fields[1].split("-"))
                name = fields[6] if len(fields) > 6 else ""
                maps.append((start, end, int(fields[3], 16), name))
            elif line.startswith("s"):
                samples.append([int(x, 16) for x in line.split()[1:]])
    return header, maps, samples


def symbolize(maps, samples):
    """Returns {(address, is_leaf): [innermost function, ..., outermost]} and
    {(address, True): file:line of the innermost frame}."""
    wanted = {}  # object path -> {lookup offset: keys}
    for stack in samples:
        for depth, addr in enumerate(stack):
            # Callers are return addresses: look up the call instruction.
            lookup = addr if depth == 0 else addr - 1
            for start, end, offset, name in maps:
                if start <= lookup < end and name.startswith("/"):
                    key = (addr, depth == 0)
                    wanted.setdefault(name, {}).setdefault(lookup - start + offset, set()).add(key)
                    break
    names, lines = {}, {}
    for obj, offsets in wanted.items():
        order = sorted(offsets)
        for lo in range(0, len(order), 5000):
            chunk = order[lo:lo + 5000]
            out = subprocess.run(
                ["addr2line", "-e", obj, "-f", "-i", "-C", "-a"] + [hex(o) for o in chunk],
                capture_output=True, text=True, check=True).stdout.splitlines()
            i, current = 0, None
            frames = {}
            while i < len(out):
                line = out[i]
                if re.fullmatch(r"0x[0-9a-f]+", line):
                    current = int(line, 16)
                    frames[current] = []
                    i += 1
                    continue
                # Function line, then its file:line.
                frames[current].append((line, out[i + 1] if i + 1 < len(out) else "??:0"))
                i += 2
            # Shared libraries usually lack debug info, and their nearest
            # exported symbol can be a neighbour (libm's pow resolves to
            # f64xsubf128), so their frames carry the library's name.
            base = obj.rsplit("/", 1)[-1]
            tag = f" [{base}]" if ".so" in base else ""
            for off in chunk:
                found = frames.get(off, [])
                chain = [f + tag for f, _ in found if f != "??"]
                if not chain:
                    chain = [f"?? [{base}]"]
                for key in offsets[off]:
                    names[key] = chain
                    if key[1]:
                        lines[key] = found[0][1].split(" (discriminator")[0] if found else "??:0"
    return names, lines


def sample_seconds(header, count):
    """CPU seconds one sample of a profile stands for."""
    fields = dict(f.split("=", 1) for f in header.split() if "=" in f)
    if "cpu_s" in fields and count:
        return float(fields["cpu_s"]) / count
    return 1.0 / float(fields.get("hz", 1))


def load(paths):
    """Pools profiles: [(frames innermost first, leaf file:line, seconds)]."""
    pooled = []
    for path in paths:
        header, maps, samples = parse(path)
        samples = [s for s in samples if s]
        print(f"{path}: {header}")
        names, lines = symbolize(maps, samples)
        seconds = sample_seconds(header, len(samples))
        pooled.extend((expand(s, names), lines.get((s[0], True), "??:0"), seconds)
                      for s in samples)
    return pooled


def tally(pooled, keys):
    """{key: [samples, seconds]} over the keys keys(frames) yields per sample."""
    out = collections.defaultdict(lambda: [0, 0.0])
    for frames, _, seconds in pooled:
        for key in keys(frames):
            out[key][0] += 1
            out[key][1] += seconds
    return out


def compare(change, base, args):
    """Prints baseline vs change: shares of each side's samples, seconds, delta."""
    sides = (base, change)
    totals = [len(p) for p in sides]

    def rows(title, tallies, names):
        print(f"\n{title}")
        print(f"{'baseline':>17}  {'change':>17}  {'delta':>9}")
        for name in names:
            cells = []
            for t, total in zip(tallies, totals):
                n, sec = t.get(name, (0, 0.0))
                cells.append((100.0 * n / total, sec))
            (bp, bs), (cp, cs) = cells
            print(f"{bp:5.1f}% {bs:8.2f} s  {cp:5.1f}% {cs:8.2f} s  {cs - bs:+7.2f} s  {name}")

    specs = [stack_spec(spec) for spec in args.stack]

    def stack_keys(frames):
        return ["all samples"] + [label for label, _, patterns, leaf in specs
                                  if matches_in_order(frames, patterns, leaf)]
    rows("stacks (share of each side's samples, CPU seconds)",
         [tally(p, stack_keys) for p in sides],
         ["all samples"] + [label for label, _, _, _ in specs])
    for title, keys in (("inclusive", lambda f: {short(x) for x in f}),
                        ("self", lambda f: [short(f[0])])):
        tallies = [tally(p, keys) for p in sides]
        top = set()
        for t in tallies:
            top.update(sorted(t, key=lambda k: -t[k][1])[:args.top])
        names = sorted(top, key=lambda k: -max(t.get(k, (0, 0.0))[1] for t in tallies))
        rows(f"top {args.top} {title} of either side", tallies, names)


def expand(stack, names):
    frames = []
    for depth, addr in enumerate(stack):
        frames.extend(names.get((addr, depth == 0), ["?? (unmapped)"]))
    return frames  # Innermost first.


def stack_spec(spec):
    """'label=OUTER>...>INNER[!]' -> (label, chain, patterns, leaf)."""
    label, _, chain = spec.partition("=")
    return label, chain, [re.compile(p) for p in chain.rstrip("!").split(">")], chain.endswith("!")


def matches_in_order(frames, patterns, leaf):
    """Frames are innermost first, patterns outermost first."""
    if leaf:
        if not patterns[-1].search(frames[0]):
            return False
        frames, patterns = frames[1:], patterns[:-1]
    outer_first = iter(reversed(frames))  # Shared, so matches keep their order.
    return all(any(p.search(f) for f in outer_first) for p in patterns)


def short(name):
    """Drops the parameter list: ns::Class::Method(int) const -> ns::Class::Method."""
    name, tag, lib = name.partition(" [")
    end = name.rfind(")")
    if name.startswith("operator()"):
        name = "operator() (inlined lambda)"
    elif end >= 0 and name[end + 1:] in ("", " const"):
        depth = 0
        for i in range(end, -1, -1):
            depth += {")": 1, "(": -1}.get(name[i], 0)
            if depth == 0:
                name = name[:i]
                break
    return name + tag + lib


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--stack", action="append", default=[], metavar="LABEL=OUTER>...>INNER")
    ap.add_argument("--lines", action="append", default=[], metavar="REGEX")
    ap.add_argument("--require", metavar="REGEX")
    ap.add_argument("--baseline", nargs="+", metavar="PROFILE",
                    help="compare the profiles before this flag against these")
    args = ap.parse_args()

    pooled = load(args.profiles)
    if args.baseline:
        base = load(args.baseline)
        if not pooled or not base:
            print("no samples")
            return 1
        compare(pooled, base, args)
        return 0
    stacks = [frames for frames, _, _ in pooled]
    leaf_lines = [line for _, line, _ in pooled]
    total = len(stacks)
    if total == 0:
        print("no samples")
        return 1

    inclusive, self_count = collections.Counter(), collections.Counter()
    for frames in stacks:
        self_count[short(frames[0])] += 1
        inclusive.update({short(f) for f in frames})
    for title, counter in (("inclusive", inclusive), ("self", self_count)):
        print(f"\ntop {args.top} {title} (% of {total} samples)")
        for name, n in counter.most_common(args.top):
            print(f"{100.0 * n / total:6.1f}%  {name}")

    if args.stack:
        print("\nstacks (% of samples)")
    for label, chain, patterns, leaf in map(stack_spec, args.stack):
        n = sum(1 for frames in stacks if matches_in_order(frames, patterns, leaf))
        print(f"{100.0 * n / total:6.1f}%  {label}  [{chain}]")

    for regex in args.lines:
        pattern = re.compile(regex)
        by_line = collections.Counter(
            line for frames, line in zip(stacks, leaf_lines) if pattern.search(frames[0]))
        n = sum(by_line.values())
        print(f"\nlines of innermost frames matching {regex!r}: {100.0 * n / total:.1f}% "
              f"of samples")
        for line, count in by_line.most_common(args.top):
            print(f"{100.0 * count / total:6.1f}%  {line}")

    if args.require:
        pattern = re.compile(args.require)
        hit = sum(1 for frames in stacks if any(pattern.search(f) for f in frames))
        print(f"\n{100.0 * hit / total:.1f}% of samples have a frame matching {args.require!r}")
        if hit == 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
