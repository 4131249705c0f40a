#!/usr/bin/env python3
"""Sample where a program spends its user-mode CPU time, without `perf`.

Starts the program as a child, attaches one software cpu-clock
`perf_event_open` event to it (user mode only, enabled at its `exec`), and
records the instruction pointer at every sampling tick. It then attributes
the samples in the program's own binary to functions with `nm` and to
source lines with `addr2line`, and prints both tables, hottest first. A
sample's source line is the innermost frame of its inline chain that lies
outside the Rust standard library (`/rustc/...`), so time spent in an
inlined `Vec` index or `Option` match is charged to the line of ours that
made the call; a sample with no such frame keeps its innermost one.

It needs no PMU and no `perf` binary: a software clock event works in VMs
without hardware counters, and user-only sampling of one's own child is
allowed at `perf_event_paranoid` 2. The event does not follow threads the
child starts, so profile single-threaded work.

Usage:

    python3 tools/sample_profile.py [--period-us 250] [--top 25] [--lines 25] \\
        -- ./path/to/binary ARGS...

Run the binary itself, not `cargo run`, or the samples land in cargo.
Source lines need line tables in the binary (the release profiles of this
workspace and of `benchmark/` keep them); without them the function table
is still exact.
"""

import argparse
import bisect
import ctypes
import mmap
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9

# perf_event_attr flag bits.
ATTR_DISABLED = 1 << 0
ATTR_EXCLUDE_KERNEL = 1 << 5
ATTR_EXCLUDE_HV = 1 << 6
ATTR_ENABLE_ON_EXEC = 1 << 12

SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}

# Data pages of the ring buffer (a power of two), after the header page.
RING_PAGES = 256


def perf_event_open(pid, period_ns):
    """One disabled user-only cpu-clock sampling event on `pid`, enabled
    when `pid` next calls `exec`."""
    attr = bytearray(112)  # PERF_ATTR_SIZE_VER5
    flags = ATTR_DISABLED | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV | ATTR_ENABLE_ON_EXEC
    struct.pack_into(
        "<IIQQQQQI",
        attr,
        0,
        PERF_TYPE_SOFTWARE,
        len(attr),
        PERF_COUNT_SW_CPU_CLOCK,
        period_ns,  # sample_period
        PERF_SAMPLE_IP,  # sample_type
        0,  # read_format
        flags,
        1,  # wakeup_events
    )
    nr = SYS_PERF_EVENT_OPEN.get(platform.machine())
    if nr is None:
        sys.exit(f"sample_profile: no perf_event_open number for {platform.machine()}")
    libc = ctypes.CDLL(None, use_errno=True)
    buf = ctypes.create_string_buffer(bytes(attr), len(attr))
    fd = libc.syscall(nr, buf, ctypes.c_int(pid), ctypes.c_int(-1), ctypes.c_int(-1), ctypes.c_ulong(0))
    if fd < 0:
        err = ctypes.get_errno()
        sys.exit(f"sample_profile: perf_event_open: {os.strerror(err)}")
    return fd


class Ring:
    """The event's mmap ring buffer: a header page, then the data pages."""

    def __init__(self, fd):
        self.page = mmap.PAGESIZE
        self.size = RING_PAGES * self.page
        self.buf = mmap.mmap(fd, self.page + self.size, mmap.MAP_SHARED, mmap.PROT_READ | mmap.PROT_WRITE)
        self.ips = []
        self.lost = 0

    def drain(self):
        """Read every complete record and hand the space back."""
        head = struct.unpack_from("<Q", self.buf, 1024)[0]
        tail = struct.unpack_from("<Q", self.buf, 1032)[0]
        while tail < head:
            kind, _misc, size = struct.unpack("<IHH", self.read(tail, 8))
            if kind == PERF_RECORD_SAMPLE:
                self.ips.append(struct.unpack("<Q", self.read(tail + 8, 8))[0])
            elif kind == PERF_RECORD_LOST:
                self.lost += struct.unpack("<Q", self.read(tail + 16, 8))[0]
            tail += size
        struct.pack_into("<Q", self.buf, 1032, tail)

    def read(self, at, n):
        start = self.page + at % self.size
        end = start + n
        limit = self.page + self.size
        if end <= limit:
            return self.buf[start:end]
        return self.buf[start:limit] + self.buf[self.page : self.page + end - limit]


def executable_maps(pid, binary):
    """(start, end, file offset) of each of `pid`'s mappings of `binary`."""
    maps = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 6 and os.path.realpath(fields[5]) == binary:
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16)))
    except OSError:
        pass
    return maps


def load_segments(binary):
    """(file offset, file size, virtual address) of each LOAD segment."""
    out = subprocess.run(["readelf", "-lW", binary], capture_output=True, text=True, check=True).stdout
    segs = []
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "LOAD":
            segs.append((int(fields[1], 16), int(fields[4], 16), int(fields[2], 16)))
    return segs


def symbols(binary):
    """Sorted (address, name) of the binary's functions, hashes stripped."""
    out = subprocess.run(["nm", "-C", "--defined-only", "-n", binary], capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        fields = line.split(" ", 2)
        if len(fields) == 3 and fields[1] in "tTwW":
            syms.append((int(fields[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", fields[2])))
    return syms


def source_lines(binary, addrs):
    """Each address's source line: the innermost frame of its inline chain
    outside `/rustc/`, or its innermost frame if all are, resolved in one
    `addr2line -i -a` call. Paths under the current directory are printed
    relative to it."""
    out = subprocess.run(
        ["addr2line", "-e", binary, "-C", "-i", "-a"],
        input="".join(f"{a:x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    chains = {}
    for line in out:
        if line.startswith("0x"):
            frames = chains.setdefault(int(line, 16), [])
        else:
            frames.append(re.sub(r" \(discriminator \d+\)$", "", line))
    here = os.getcwd() + os.sep
    lines = {}
    for a, frames in chains.items():
        ours = [f for f in frames if "/rustc/" not in f]
        loc = (ours or frames)[0]
        lines[a] = loc[len(here) :] if loc.startswith(here) else loc
    return lines


def run(argv, period_ns):
    """Run `argv` under the sampler: its samples, samples lost, the
    binary's maps, and the child's exit status."""
    binary = shutil.which(argv[0])
    if binary is None:
        sys.exit(f"sample_profile: {argv[0]}: not found")
    binary = os.path.realpath(binary)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(w)
        os.read(r, 1)  # wait until the event is attached
        try:
            os.execv(binary, argv)
        finally:
            os._exit(127)
    os.close(r)
    fd = perf_event_open(pid, period_ns)
    ring = Ring(fd)
    os.write(w, b"x")
    os.close(w)
    maps = []
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        ring.drain()
        if done:
            break
        if not maps and ring.ips:
            maps = executable_maps(pid, binary)
        time.sleep(0.01)
    ring.drain()
    os.close(fd)
    return ring.ips, ring.lost, binary, maps, os.waitstatus_to_exitcode(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--period-us", type=int, default=250, help="sampling period of CPU time (default 250)")
    ap.add_argument("--top", type=int, default=25, help="functions to print (default 25)")
    ap.add_argument("--lines", type=int, default=25, help="source lines to print (default 25; 0 for none)")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- program and arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        ap.error("no program given")

    ips, lost, binary, maps, code = run(argv, args.period_us * 1000)
    if not maps:
        sys.exit(f"sample_profile: {len(ips)} samples but the binary's mappings were not seen")
    segs = load_segments(binary)
    syms = symbols(binary)
    starts = [a for a, _ in syms]

    def vaddr(ip):
        """The ELF virtual address of a runtime `ip` in the binary, or None."""
        for lo, hi, off in maps:
            if lo <= ip < hi:
                foff = ip - lo + off
                for p_off, p_size, p_vaddr in segs:
                    if p_off <= foff < p_off + p_size:
                        return foff - p_off + p_vaddr
        return None

    by_fn, by_addr, outside = {}, {}, 0
    for ip in ips:
        va = vaddr(ip)
        k = bisect.bisect_right(starts, va) - 1 if va is not None else -1
        if k < 0:
            outside += 1
            continue
        name = syms[k][1]
        by_fn[name] = by_fn.get(name, 0) + 1
        by_addr[va] = by_addr.get(va, 0) + 1

    total = len(ips)
    print(f"{total} samples at {args.period_us} us of CPU each, {lost} lost; exit status {code}")
    print(f"{outside} samples ({100 * outside / max(total, 1):.1f} %) outside {binary}")
    print(f"\n{'%':>6} {'samples':>8}  function")
    for name, n in sorted(by_fn.items(), key=lambda kv: -kv[1])[: args.top]:
        print(f"{100 * n / total:6.1f} {n:8}  {name}")

    if args.lines and by_addr:
        by_line = {}
        for a, loc in source_lines(binary, sorted(by_addr)).items():
            by_line[loc] = by_line.get(loc, 0) + by_addr[a]
        print(f"\n{'%':>6} {'samples':>8}  source line")
        for loc, n in sorted(by_line.items(), key=lambda kv: -kv[1])[: args.lines]:
            print(f"{100 * n / total:6.1f} {n:8}  {loc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
