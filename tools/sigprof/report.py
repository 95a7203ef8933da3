#!/usr/bin/env python3
"""Symbolizes and summarizes a profile written by the SIGPROF sampler.

    python3 tools/sigprof/report.py prof.txt [more.txt ...] [--top 25]
        [--stack 'label=OUTER>...>INNER' ...] [--require REGEX]

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
- --require: exits 1 unless some sample has a frame matching REGEX (a
  profile that attributes nothing to the simulator is a broken profile).

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
    """Returns {(address, is_leaf): [innermost function, ..., outermost]}."""
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
    names = {}
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
                frames[current].append(line)
                i += 2  # Function line, then its file:line.
            # Shared libraries usually lack debug info, and their nearest
            # exported symbol can be a neighbour (libm's pow resolves to
            # f64xsubf128), so their frames carry the library's name.
            base = obj.rsplit("/", 1)[-1]
            tag = f" [{base}]" if ".so" in base else ""
            for off in chunk:
                chain = [f + tag for f in frames.get(off, []) if f != "??"]
                if not chain:
                    chain = [f"?? [{base}]"]
                for key in offsets[off]:
                    names[key] = chain
    return names


def expand(stack, names):
    frames = []
    for depth, addr in enumerate(stack):
        frames.extend(names.get((addr, depth == 0), ["?? (unmapped)"]))
    return frames  # Innermost first.


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
    ap.add_argument("--require", metavar="REGEX")
    args = ap.parse_args()

    stacks = []
    for path in args.profiles:
        header, maps, samples = parse(path)
        samples = [s for s in samples if s]
        print(f"{path}: {header}")
        names = symbolize(maps, samples)
        stacks.extend(expand(s, names) for s in samples)
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
    for spec in args.stack:
        label, _, chain = spec.partition("=")
        leaf = chain.endswith("!")
        patterns = [re.compile(p) for p in chain.rstrip("!").split(">")]
        n = sum(1 for frames in stacks if matches_in_order(frames, patterns, leaf))
        print(f"{100.0 * n / total:6.1f}%  {label}  [{chain}]")

    if args.require:
        pattern = re.compile(args.require)
        hit = sum(1 for frames in stacks if any(pattern.search(f) for f in frames))
        print(f"\n{100.0 * hit / total:.1f}% of samples have a frame matching {args.require!r}")
        if hit == 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
