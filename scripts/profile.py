#!/usr/bin/env python3
"""Sampling profiler and peak-memory meter for one command, without `perf`.

    scripts/profile.py -- CMD [ARG...]
    scripts/profile.py --rss -- CMD [ARG...]

Sampling mode runs CMD and, every 2 ms, stops each of its threads with
ptrace (PTRACE_ATTACH, PTRACE_GETREGS for `rip`, PTRACE_DETACH). When CMD
exits it maps every sampled address to the file mapped there
(/proc/PID/maps, read while CMD runs), turns it into that file's virtual
address through the ELF program headers, resolves it with `llvm-symbolizer`
(inlined frames included) and prints three tables of the 25 most sampled
functions:

- innermost: the function whose code was running, after inlining;
- outermost: the function the compiler emitted that code in;
- inclusive: each function once per sample, wherever it sits in the chain
  of inlined frames.

Only `rip` is read, so "inclusive" spans inlined frames, not the call
stack. Build with line tables for the inlined frames, e.g.

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=/tmp/prof \\
        cargo build --release --manifest-path perfbench/Cargo.toml

An address in a file is turned into the file's virtual address from the
PT_LOAD segment that maps it: `addr - map_start + map_offset + (p_vaddr -
p_offset)`. Subtracting the mapping's file offset alone is wrong whenever a
segment's address and offset differ (a text segment at offset 0x37080 and
address 0x38080 shifts every sample by 4 KiB).

`--rss` runs CMD once and prints its peak resident set, its minor and
major page faults and its CPU time. The peak is given twice: `ru_maxrss`
from wait4(2), which also counts the address space the child had before
it exec'd (this script's, some 10-15 MiB, when CMD is smaller), and
`VmHWM` read from /proc/PID/status when CMD exits (a ptrace exit stop),
the peak of CMD's own address space.

x86-64 Linux only. Sampling needs ptrace of the command (this script's own
child), which `kernel.yama.ptrace_scope` 0 or 1 allows.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_ATTACH = 16
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_O_TRACEEXIT = 0x40
PTRACE_EVENT_EXIT = 6
WALL = 0x40000000
# Offset of `rip` in `struct user_regs_struct`, in 8-byte words.
RIP_WORD = 16
REGS_WORDS = 27
INTERVAL_S = 0.002
TOP = 25


def spawn(cmd):
    return os.posix_spawnp(cmd[0], cmd, os.environ)


def libc():
    lib = ctypes.CDLL(None, use_errno=True)
    lib.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    lib.ptrace.restype = ctypes.c_long
    return lib


def report_rusage(status, ru, hwm_kib=None, out=sys.stdout):
    code = os.waitstatus_to_exitcode(status)
    hwm = "" if hwm_kib is None else f"VmHWM {hwm_kib / 1024:.2f} MiB  "
    print(
        f"exit {code}  {hwm}ru_maxrss {ru.ru_maxrss / 1024:.2f} MiB  "
        f"minor_faults {ru.ru_minflt}  major_faults {ru.ru_majflt}  "
        f"user {ru.ru_utime:.3f} s  sys {ru.ru_stime:.3f} s",
        file=out,
    )
    return code


def vm_hwm_kib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def run_rss(cmd):
    """Runs `cmd` to its end; its exit status, rusage and exit-time VmHWM."""
    lib = libc()
    pid = spawn(cmd)
    seized = lib.ptrace(PTRACE_SEIZE, pid, None, ctypes.c_void_p(PTRACE_O_TRACEEXIT)) == 0
    hwm = None
    while True:
        _, status, ru = os.wait4(pid, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return status, ru, hwm
        sig = 0
        if status >> 8 == (signal.SIGTRAP | PTRACE_EVENT_EXIT << 8):
            hwm = vm_hwm_kib(pid)
        elif os.WIFSTOPPED(status):
            sig = os.WSTOPSIG(status)
        if seized:
            lib.ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(sig))


def read_maps(pid):
    """File-backed executable mappings: (start, end, offset, path)."""
    maps = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                path = parts[5].strip()
                if not path.startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), path))
    except OSError:
        pass
    return sorted(maps)


def load_segments(path):
    """The PT_LOAD headers of an ELF64 file: (p_offset, p_vaddr, p_filesz)."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def file_vaddr(addr, mapping, segments):
    lo, _hi, offset, _path = mapping
    file_off = addr - lo + offset
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= file_off < p_offset + p_filesz:
            return file_off + (p_vaddr - p_offset)
    return None


class Sampler:
    def __init__(self, pid):
        self.pid = pid
        self.libc = libc()
        self.regs = (ctypes.c_ulonglong * REGS_WORDS)()
        self.exit = None  # (status, rusage) once the command is reaped

    def tids(self):
        try:
            return [int(t) for t in os.listdir(f"/proc/{self.pid}/task")]
        except OSError:
            return []

    def sample(self, tid):
        if self.libc.ptrace(PTRACE_ATTACH, tid, None, None) != 0:
            return None
        try:
            _, status, ru = os.wait4(tid, WALL)
        except ChildProcessError:
            return None
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            if tid == self.pid:
                self.exit = (status, ru)
            return None
        rip = None
        if self.libc.ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(self.regs)) == 0:
            rip = self.regs[RIP_WORD]
        self.libc.ptrace(PTRACE_DETACH, tid, None, None)
        return rip

    def run(self):
        rips, maps = [], []
        while self.exit is None:
            pid, status, ru = os.wait4(self.pid, os.WNOHANG)
            if pid == self.pid:
                self.exit = (status, ru)
                break
            time.sleep(INTERVAL_S)
            for tid in self.tids():
                rip = self.sample(tid)
                if rip is not None:
                    rips.append(rip)
            if not maps or (rips and not any(lo <= rips[-1] < hi for lo, hi, _, _ in maps)):
                maps = read_maps(self.pid) or maps
        return rips, maps


# Escapes of Rust's legacy symbol mangling that llvm-symbolizer leaves in.
RUST_ESCAPES = {
    "$LT$": "<", "$GT$": ">", "$RF$": "&", "$BP$": "*", "$C$": ",",
    "$SP$": "@", "$LP$": "(", "$RP$": ")", "$u20$": " ", "$u27$": "'",
    "$u5b$": "[", "$u5d$": "]", "$u7b$": "{", "$u7d$": "}", "$u7e$": "~",
    "$u3b$": ";", "$u2b$": "+", "$u22$": '"',
}


def tidy(name):
    """A function name without its hash, LLVM suffix or mangling escapes."""
    name = re.sub(r" \(\.llvm\.\d+\)$", "", name)
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    if "$" in name:
        for escape, text in RUST_ESCAPES.items():
            name = name.replace(escape, text)
        name = name.replace("..", "::").removeprefix("_")
    return name


def symbolize(path, addrs, symbolizer):
    """Inline chains of function names, innermost first, of each address in
    `path`."""
    if not addrs:
        return {}
    text = "\n".join(hex(a) for a in addrs) + "\n"
    out = subprocess.run(
        [symbolizer, f"--obj={path}", "--inlining", "--demangle", "--functions=linkage"],
        input=text,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    chains = {}
    blocks = out.strip("\n").split("\n\n")
    for addr, block in zip(addrs, blocks):
        # Each frame is two lines: the function, then its file:line:column.
        chains[addr] = [tidy(fn) for fn in block.split("\n")[0::2]]
    return chains


def resolve(rips, maps, symbolizer):
    """One inline chain per sample; unmapped samples get a placeholder."""
    starts = [m[0] for m in maps]
    where = {}
    for rip in set(rips):
        i = bisect.bisect_right(starts, rip) - 1
        if i >= 0 and rip < maps[i][1]:
            where[rip] = maps[i]
    by_file = collections.defaultdict(set)
    vaddrs = {}
    segments = {}
    for rip, m in where.items():
        path = m[3]
        if path not in segments:
            try:
                segments[path] = load_segments(path)
            except OSError:
                segments[path] = []
        va = file_vaddr(rip, m, segments[path])
        if va is not None:
            vaddrs[rip] = (path, va)
            by_file[path].add(va)
    chains = {}
    for path, addrs in by_file.items():
        try:
            chains[path] = symbolize(path, sorted(addrs), symbolizer)
        except (OSError, subprocess.CalledProcessError):
            chains[path] = {}
    out = []
    for rip in rips:
        if rip not in vaddrs:
            out.append(["[unmapped]"])
            continue
        path, va = vaddrs[rip]
        frames = chains[path].get(va)
        base = os.path.basename(path)
        if not frames or frames[0] == "??":
            out.append([f"[{base}+{va:#x}]"])
        else:
            out.append(frames)
    return out


def table(title, counts, total):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(TOP):
        print(f"{100.0 * n / total:6.2f}% {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--rss", action="store_true", help="only print peak RSS and page faults")
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- CMD [ARG...]")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")

    if args.rss:
        sys.exit(report_rusage(*run_rss(cmd)))

    symbolizer = shutil.which("llvm-symbolizer")
    if symbolizer is None:
        sys.exit("llvm-symbolizer not found on PATH")
    sampler = Sampler(spawn(cmd))
    rips, maps = sampler.run()
    status, ru = sampler.exit
    code = report_rusage(status, ru, out=sys.stderr)
    if not rips:
        sys.exit("no samples taken")
    chains = resolve(rips, maps, symbolizer)
    inner, outer, incl = collections.Counter(), collections.Counter(), collections.Counter()
    for frames in chains:
        inner[frames[0]] += 1
        outer[frames[-1]] += 1
        for name in set(frames):
            incl[name] += 1
    table("innermost", inner, len(chains))
    table("outermost", outer, len(chains))
    table("inclusive (inlined frames)", incl, len(chains))
    sys.exit(code)


if __name__ == "__main__":
    main()
