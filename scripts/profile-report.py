"""The symbolizer of scripts/profile.sh.

    profile-report.py <samples> <binary> <root> [top]

Reads what scripts/profile-sampler.c wrote (the process's memory map,
then one sample per line: a program counter and the return addresses
above it), resolves every address through `readelf` (load segments) and
`nm` (symbols; the binary's own table, libc's dynamic one), and prints,
for the samples whose stack passes through `root` (a demangled function
name without its hash), three tables: each function's self share (the
sample's innermost frame) and inclusive share (anywhere in its stack),
the inclusive table alone, and the crate-boundary table. Time in a
shared library is charged to its innermost caller in the binary; the
libc total is printed on its own. Exits 1, naming the root, when the
binary has no function of that name or fewer than a tenth of the
samples pass through it: a root that was renamed or inlined away would
otherwise leave an empty or unrepresentative report.

The crate-boundary table charges a sample's self frame to its function
when that function's crate differs from the crate of the nearest frame
that called it and is not `core`, `alloc`, `std` or the allocator shim
`__rustc`: self time in a function called from another crate, which the
caller cannot inline unless the function is marked `#[inline]` (rustc
offers only small functions that call nothing across crates unasked;
DESIGN.md "Crate boundaries"). A function's crate is the leading path
segment of its demangled name, or of the self type in a `<Type as
Trait>` name. `copies` counts the function's symbols in the binary: more
than one means it is generic or already `#[inline]`, compiled into each
calling crate, and the second total leaves those rows out. Caveat: a
generic function, closure parameters included, is compiled in its
caller's crate, yet keeps its defining crate's name, so the table lists
it although nothing stands between it and its caller, with one copy if
one crate instantiates it. A legacy-demangled name does not show the
generic parameters (`eternal_sim::net::NetworkModel::transmit` takes a
closure): check the source before marking a row `#[inline]`.
"""

import bisect
import collections
import os
import re
import subprocess
import sys

MIN_ROOT_SHARE = 0.10
STD_CRATES = {"core", "alloc", "std", "__rustc"}


def load_segments(path):
    """(file offset, size, vaddr) of each PT_LOAD segment of `path`."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True, check=True)
    segments = []
    for line in out.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["LOAD"]:
            offset, vaddr, filesz = int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)
            segments.append((offset, filesz, vaddr))
    return segments


def symbols(path, dynamic):
    """Sorted (vaddr, demangled name) of the functions `nm` finds in `path`."""
    args = ["nm", "-n", "-C", "--defined-only"] + (["-D"] if dynamic else []) + [path]
    out = subprocess.run(args, capture_output=True, text=True)
    table = []
    for line in out.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwWi":
            table.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
    return table


def crate(name):
    """The leading path segment of `name`, or of its self type if it is a
    `<Type as Trait>` name."""
    m = re.match(r"[<&*\[]*(?:(?:mut|const|dyn) )*(\w+)", name)
    return m.group(1) if m else "?"


class Object:
    def __init__(self, path, is_binary):
        self.path, self.is_binary = path, is_binary
        self.segments = load_segments(path)
        self.table = symbols(path, dynamic=not is_binary)
        self.addrs = [a for a, _ in self.table]

    def name(self, file_offset):
        for offset, size, vaddr in self.segments:
            if offset <= file_offset < offset + size:
                i = bisect.bisect_right(self.addrs, file_offset - offset + vaddr) - 1
                return self.table[i][1] if i >= 0 else "?"
        return "?"


def main():
    samples_path, binary, root = sys.argv[1:4]
    top = int(sys.argv[4]) if len(sys.argv) > 4 else 25
    program = Object(binary, is_binary=True)
    objects = {os.path.realpath(binary): program}
    if not any(name == root for _, name in program.table):
        sys.exit(f"profile-report: no function `{root}` in {binary}'s symbol table: "
                 "renamed or inlined? Pass the root that the workload's samples run through.")
    lines = open(samples_path).read().splitlines()
    split = next(i for i, l in enumerate(lines) if l.startswith("samples "))
    mode, lost = lines[split].split()[1:]
    maps = []
    for line in lines[1:split]:
        fields = line.split()
        if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
            continue
        path = os.path.realpath(fields[5])
        if path not in objects:
            objects[path] = Object(path, is_binary=False)
        start, end = (int(x, 16) for x in fields[0].split("-"))
        maps.append((start, end, int(fields[2], 16), objects[path]))
    maps.sort(key=lambda m: m[0])
    starts = [m[0] for m in maps]
    memo = {}

    def resolve(addr):
        if addr not in memo:
            i = bisect.bisect_right(starts, addr) - 1
            if i < 0 or addr >= maps[i][1]:
                memo[addr] = (False, "?")
            else:
                start, _, offset, obj = maps[i]
                memo[addr] = (obj.is_binary, obj.name(addr - start + offset))
        return memo[addr]

    total, kept = 0, 0
    self_count, incl_count, libc_self = collections.Counter(), collections.Counter(), collections.Counter()
    boundary, callers = collections.Counter(), collections.defaultdict(collections.Counter)
    for line in lines[split + 1:]:
        total += 1
        addrs = [int(a, 16) for a in line.split()]
        # Return addresses point after the call: look up the call itself.
        frames = [resolve(a if i == 0 else a - 1) for i, a in enumerate(addrs)]
        names = [n for _, n in frames]
        if root not in names:
            continue
        kept += 1
        own = [n for is_own, n in frames if is_own]
        inner = own[0] if own else "?"
        self_count[inner] += 1
        if not frames[0][0]:
            libc_self[frames[0][1]] += 1
        if len(own) > 1 and crate(inner) not in STD_CRATES and crate(inner) != crate(own[1]):
            boundary[inner] += 1
            callers[inner][crate(own[1])] += 1
        for n in set(names[: names.index(root) + 1]):
            incl_count[n] += 1
    what = {"alloc": "allocator calls (1 in 16 sampled)",
            "bytes": "256 KiB samples of the bytes asked of the allocator"}.get(mode, "CPU-time samples")
    print(f"{kept} of {total} {what} under {root}" + (f"; {lost} lost, buffer full" if lost != "0" else ""))
    if kept < MIN_ROOT_SHARE * total:
        sys.exit(f"profile-report: only {kept} of {total} samples pass through `{root}` "
                 f"(under {MIN_ROOT_SHARE:.0%}): is it still the workload's loop?")
    share = lambda n: f"{100 * n / kept:6.2f} %"
    print(f"\nlibc and other shared objects, charged to their callers below: {share(sum(libc_self.values()))}")
    for name, n in libc_self.most_common(8):
        print(f"  {share(n)}  {name}")
    print(f"\n| self | inclusive | function |\n|---:|---:|---|")
    for name, n in self_count.most_common(top):
        print(f"| {share(n)} | {share(incl_count[name])} | `{name}` |")
    print(f"\n| inclusive | function |\n|---:|---|")
    for name, n in incl_count.most_common(top):
        print(f"| {share(n)} | `{name}` |")
    copies = collections.Counter(name for _, name in program.table)
    single = sum(n for name, n in boundary.items() if copies[name] == 1)
    print(f"\nself time called across a crate boundary: {share(sum(boundary.values()))}; "
          f"in functions with one copy: {share(single)}")
    print(f"\n| self | function | copies | called from |\n|---:|---|---:|---|")
    for name, n in boundary.most_common(top):
        print(f"| {share(n)} | `{name}` | {copies[name]} | {', '.join(c for c, _ in callers[name].most_common())} |")


if __name__ == "__main__":
    main()
