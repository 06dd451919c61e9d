#!/usr/bin/env python3
"""Symbolizes a wallprof profile and prints where the sampled threads spent
their wall-clock time.

    python3 scripts/wallprof/wallprof.py PROFILE [--from S] [--to S] [--top N]

PROFILE is a file written by libwallprof.so (see wallprof.cc). Three tables
are printed over the busy samples of the time window:

  self            the function each sample landed in
  inclusive       every function on the sample's frame-pointer chain
  self <- caller  the landing function paired with its caller

Idle samples are counted but left out of the tables, so percentages are
shares of busy time, which includes syscalls that were doing work (write,
read). A sample is idle when it caught its thread asleep in a syscall (a
futex wait, epoll_wait), or when it landed in a wait function (WAITS): an
epoll_wait that returns events as the tick arrives spent its time waking
up, not working. --from/--to are seconds from the first
sample. PCs are symbolized with `nm`; a library without a symbol table falls
back to its exported symbols, and a PC inside an unexported function prints
as [library+offset]. A caller chain stops at the first frame outside any
executable mapping, which is where it ends in code built without frame
pointers.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys

HEADER = struct.Struct("<QiHH")
USER, SYSCALL, BLOCKED = 0, 1, 2  # SampleState in wallprof.cc
WAITS = re.compile(r"^(epoll_wait|epoll_pwait2?|poll|ppoll|select|pselect6?|nanosleep|"
                   r"clock_nanosleep)$")
WIDTH = 160  # longest function name printed; lambda names run to kilobytes


class Profile:
    def __init__(self, path):
        self.maps = []
        self.samples = []  # (ns, tid, state, [pc, ...])
        self.dropped = 0
        with open(path, "rb") as f:
            if f.readline().split() != [b"wallprof", b"1"]:
                raise ValueError("%s is not a wallprof profile" % path)
            while True:
                line = f.readline()
                if not line:
                    raise ValueError("%s ends before its data" % path)
                words = line.decode("utf-8", "replace").rstrip("\n").split(" ", 4)
                key = words[0]
                if key == "map":
                    start, end, offset = (int(w, 16) for w in words[1:4])
                    self.maps.append((start, end, offset, words[4] if len(words) > 4 else ""))
                elif key == "dropped":
                    self.dropped = int(words[1])
                elif key == "data":
                    data = f.read(int(words[1]))
                    break
        self.maps.sort()
        pos = 0
        while pos + HEADER.size <= len(data):
            ns, tid, frames, state = HEADER.unpack_from(data, pos)
            if frames == 0:
                break  # a reservation cut short at exit
            pos += HEADER.size
            pcs = list(struct.unpack_from("<%dQ" % frames, data, pos))
            pos += 8 * frames
            self.samples.append((ns, tid, state, pcs))


class ElfSymbols:
    """Function symbols of one ELF file, looked up by file offset."""

    def __init__(self, path):
        self.loads = self._load_segments(path)
        self.addrs, self.ends, self.names = [], [], []
        for dynamic in ([], ["-D"]):
            try:
                out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only"] + dynamic +
                                     [path], stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True).stdout
            except OSError:
                return
            for line in out.splitlines():
                parts = line.split(" ", 3)
                if len(parts) != 4 or parts[2] not in "tTwWiI":
                    continue
                addr, size = int(parts[0], 16), int(parts[1], 16)
                name = parts[3].split("@")[0]
                if self.addrs and self.addrs[-1] == addr:
                    # Aliases: keep the name with the fewest leading underscores.
                    if len(name) - len(name.lstrip("_")) < \
                            len(self.names[-1]) - len(self.names[-1].lstrip("_")):
                        self.names[-1] = name
                    continue
                self.addrs.append(addr)
                self.ends.append(addr + size)
                self.names.append(name)
            if self.addrs:
                return

    @staticmethod
    def _load_segments(path):
        """(p_offset, p_filesz, p_vaddr) of each PT_LOAD segment."""
        try:
            with open(path, "rb") as f:
                ident = f.read(64)
                if ident[:4] != b"\x7fELF" or ident[4] != 2:
                    return []
                phoff = struct.unpack_from("<Q", ident, 0x20)[0]
                phentsize, phnum = struct.unpack_from("<HH", ident, 0x36)
                f.seek(phoff)
                table = f.read(phentsize * phnum)
        except OSError:
            return []
        loads = []
        for i in range(phnum):
            p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
                "<IIQQQQ", table, i * phentsize)
            if p_type == 1:
                loads.append((p_offset, p_filesz, p_vaddr))
        return loads

    def lookup(self, file_offset):
        vaddr = file_offset
        for p_offset, p_filesz, p_vaddr in self.loads:
            if p_offset <= file_offset < p_offset + p_filesz:
                vaddr = file_offset - p_offset + p_vaddr
                break
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 and vaddr < self.ends[i] else None


class Symbolizer:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.elves = {}
        self.cache = {}

    def __call__(self, pc):
        if pc not in self.cache:
            self.cache[pc] = self._resolve(pc)
        return self.cache[pc]

    def _resolve(self, pc):
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return None
        start, _, offset, path = self.maps[i]
        if not path.startswith("/"):
            return path or "[anon]"
        elf = self.elves.get(path)
        if elf is None:
            elf = self.elves[path] = ElfSymbols(path)
        name = elf.lookup(pc - start + offset)
        return name if name else "[%s+0x%x]" % (path.rsplit("/", 1)[-1], pc - start + offset)


def print_table(title, counter, total, top):
    print("## %s" % title)
    print("%7s %9s  %s" % ("pct", "samples", "function"))
    for name, count in counter.most_common(top):
        if len(name) > WIDTH:
            name = name[:WIDTH - 3] + "..."
        print("%6.1f%% %9d  %s" % (100.0 * count / total, count, name))
    print()


def frame_names(symbolize, pcs):
    """Names of the landing function and its callers, up to the first frame
    outside every executable mapping."""
    names = [symbolize(pcs[0]) or "[unknown 0x%x]" % pcs[0]]
    for pc in pcs[1:]:
        name = symbolize(pc - 1)  # a return address points past its call
        if name is None:
            break
        names.append(name)
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("profile")
    parser.add_argument("--from", dest="start", type=float, default=0.0,
                        help="window start, seconds after the first sample")
    parser.add_argument("--to", dest="end", type=float, default=float("inf"),
                        help="window end, seconds after the first sample")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    args = parser.parse_args(argv)

    profile = Profile(args.profile)
    if not profile.samples:
        print("no samples in %s" % args.profile)
        return 1
    symbolize = Symbolizer(profile.maps)
    t0 = min(sample[0] for sample in profile.samples)
    lo, hi = t0 + args.start * 1e9, t0 + args.end * 1e9

    selves, inclusive, callers = (collections.Counter() for _ in range(3))
    tids = set()
    busy = idle = in_syscall = 0
    for ns, tid, state, pcs in profile.samples:
        if not lo <= ns < hi:
            continue
        tids.add(tid)
        names = frame_names(symbolize, pcs)
        if state == BLOCKED or WAITS.match(names[0]):
            idle += 1
            continue
        busy += 1
        in_syscall += state == SYSCALL
        selves[names[0]] += 1
        inclusive.update(set(names))
        callers["%s  <-  %s" % (names[0], names[1] if len(names) > 1 else "?")] += 1

    span_s = (max(sample[0] for sample in profile.samples) - t0) / 1e9
    print("# wallprof %s: %d samples over %.2f s, %d dropped" %
          (args.profile, len(profile.samples), span_s, profile.dropped))
    print("# window [%g, %g] s, %d threads: %d busy samples (%d in a syscall), %d idle" %
          (args.start, min(args.end, span_s), len(tids), busy, in_syscall, idle))
    print()
    if busy == 0:
        print("no busy samples in the window")
        return 1
    print_table("self", selves, busy, args.top)
    print_table("inclusive", inclusive, busy, args.top)
    print_table("self <- caller", callers, busy, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
