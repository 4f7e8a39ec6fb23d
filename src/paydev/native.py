"""The compiled library, its forest predictor and the two record scanners,
without numpy.

On first import, _split.c is compiled with `cc` into
~/.cache/paydev/split-<key>.so (key: source, flags, machine) and loaded
through ctypes as `lib`; delete that file to rebuild. BACKEND names what
runs: "c" with the library, "python" without it. paydev.ml.kernels drives
the library's tree grower. This module drives its forest predictor
(forest_sum, over the array("q") and array("d") node arrays of
paydev.model.Tree) and its record scanners, scan_canonical and
scan_git_log, and is the one place that chooses between the scanners'
compiled and Python forms, which give the same results. It imports no
numpy, so `paydev ingest`, `paydev identities` and a tree or forest
`paydev predict --features` run without it: a scanned run's four int
columns are stdlib array("q") buffers, the type of ingest.Commits' int
columns.

Both scanners follow one protocol: the C scanners share one signature and
the driver _runs, which yields each run of items (canonical lines or
git-log records) the scanner takes as its four int columns and its
strings, and hands back each item it declines. A scanner takes only items
in the writer's exact layout whose values the Python reader accepts, and
raises nothing; the Python reader reads every declined item on its own
and alone raises errors. scan_canonical reads a canonical commit file for
ingest.read_canonical in blocks of whole lines and hands back a declined
line as its bytes; scan_git_log reads a git-log export for
ingest.parse_git_log from the buffer that function holds and hands back a
declined record as its byte offset. Without a compiler scan_canonical is
`iter` and scan_git_log is record_offsets, so every item is declined.
"""

import ctypes
import os
import zlib
from array import array

# no -march/-ffast-math: the compiled grower must match the Python one bit for bit
_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off"]


def _load():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_split.c")
    with open(src, "rb") as f:
        code = f.read()
    key = zlib.crc32(code + " ".join(_FLAGS).encode() + os.uname().machine.encode())
    lib = os.path.join(os.path.expanduser("~"), ".cache", "paydev", f"split-{key:08x}.so")
    if not os.path.exists(lib):
        import subprocess  # only to build; later runs load the cached library

        os.makedirs(os.path.dirname(lib), mode=0o700, exist_ok=True)
        tmp = f"{lib}.{os.getpid()}.tmp"
        if subprocess.run(["cc", *_FLAGS, src, "-o", tmp], capture_output=True).returncode:
            raise OSError(f"cc could not build {src}")
        os.replace(tmp, lib)
    lib = ctypes.CDLL(lib)
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.choice.argtypes = [ptr, i64, i64, ptr]
    lib.choice.restype = ctypes.c_int
    lib.grow_tree.argtypes = [ptr, i64, i64, ptr, ptr, ptr, i64, i64, f64, i64, i64, ptr,
                              ptr, ptr, ptr]
    lib.grow_tree.restype = i64
    lib.forest_sum.argtypes = [ptr, i64, i64, ptr, ptr, ptr, i64, ptr]
    lib.forest_sum.restype = ctypes.c_int
    for scan in (lib.scan_canonical, lib.scan_git_log):  # one protocol (see _runs)
        scan.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr, i64, ptr]
        scan.restype = i64
    return lib


try:
    lib = _load()
except (OSError, RuntimeError):
    lib = None

BACKEND = "python" if lib is None else "c"


BLOCK_BYTES = 1 << 20  # the canonical scanner reads whole lines in blocks of about this size
RUN_RECORDS = 1 << 14  # a scanner call takes at most this many lines or records


def _runs(scan, data, pos, declined):
    """The items (lines or records) of `data` (bytes) from byte `pos` on, in
    order: each run of items that `scan`, a scanner in _split.c, takes as
    (ints, strings), and for each item it declines the first value of
    declined(data, pos), whose second is where the next item starts. ints
    holds the run's timestamp_utc, tz_offset_minutes, lines_added and
    lines_deleted, each an array("q"); strings lists the strings the scanner
    copies out, item by item. A run ends early when its strings fill
    BLOCK_BYTES; an item whose strings alone do not fit is declined."""
    end = len(data)
    text_cap = min(BLOCK_BYTES, end)  # the strings of `data` take no more bytes than it
    ints = array("q", [0]) * (4 * RUN_RECORDS)  # four rows of RUN_RECORDS
    text = ctypes.create_string_buffer(text_cap)
    info = (ctypes.c_int64 * 2)()
    ints_at = ints.buffer_info()[0]
    while pos < end:
        n = scan(data, pos, end, RUN_RECORDS, ints_at, text, text_cap, info)
        if n:  # each string ends with a line feed; the last one is dropped before the split
            strings = ctypes.string_at(text, info[1] - 1).decode("ascii").split("\n")
            yield tuple(ints[k * RUN_RECORDS:k * RUN_RECORDS + n] for k in range(4)), strings
            pos = info[0]
        else:
            item, pos = declined(data, pos)
            yield item


def _blocks(fileobj):
    """The bytes of binary `fileobj` as blocks of whole lines, each about
    BLOCK_BYTES long or one longer line, then the final line when it has no
    line feed."""
    head = []  # the start of a line that has not ended yet
    while block := fileobj.read(BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            head.append(block[:cut])
            yield b"".join(head)
            head = [block[cut:]]
        else:
            head.append(block)
    rest = b"".join(head)
    if rest:
        yield rest


def _line(data, pos):
    """The line at `pos`, line feed included, and where the next one starts."""
    end = data.index(b"\n", pos) + 1
    return data[pos:end], end


def _c_scan_canonical(fileobj):
    """The lines of binary `fileobj` in file order: each run of lines that
    scan_canonical takes, with the strings sha, author_name, author_email
    and message line by line, and each line it declines as its bytes, line
    feed included."""
    for data in _blocks(fileobj):
        if data[-1:] == b"\n":
            yield from _runs(lib.scan_canonical, data, 0, _line)
        else:  # the final line, without its line feed
            yield data


def record_offsets(data, pos):
    """The byte offset of each record of the git-log export `data` from
    `pos` on: pos, then one past each later 0x1E."""
    while pos:
        yield pos
        pos = data.find(b"\x1e", pos) + 1


def _record(data, pos):
    """The offset of the record whose 0x1E is at `pos`, one past the 0x1E,
    and where the next record's 0x1E is (the end of `data` when none is)."""
    end = data.find(b"\x1e", pos + 1)
    return pos + 1, end if end >= 0 else len(data)


def _c_scan_git_log(data, pos):
    """The records of the git-log export `data` (bytes) from byte `pos`, one
    past a 0x1E, on, in order: each run of records that scan_git_log takes,
    with the strings sha, author_name and author_email (lowercased) record
    by record, and each record it declines as its byte offset. The scanner
    reads each record from its 0x1E."""
    return _runs(lib.scan_git_log, data, pos - 1, _record)


def forest_sum(trees, X, n_rows, p):
    """Per row of X, the sum over `trees` (paydev.model.Tree), in order, of
    the row's leaf probability pos/n, as an array("d"), in one call to the
    library's forest_sum over the trees' concatenated node arrays. X is the
    address of n_rows * p float64 values, row after row."""
    roots, ints, threshold = array("q", [0]), array("q"), array("d")
    for key in ("feature", "left", "right", "n", "pos"):
        for tree in trees:
            ints += getattr(tree, key)
    for tree in trees:
        threshold += tree.threshold
        roots.append(roots[-1] + len(tree.n))
    if len(ints) != 5 * roots[-1] or len(threshold) != roots[-1]:
        raise ValueError("forest_sum: a tree's node arrays differ in length")
    out = array("d", bytes(8 * n_rows))
    if lib.forest_sum(X, n_rows, p, ints.buffer_info()[0], threshold.buffer_info()[0],
                      roots.buffer_info()[0], len(trees), out.buffer_info()[0]):
        raise ValueError("forest_sum: a tree node points outside its tree")
    return out


# (binary file) -> its lines in scanned runs and declined lines; without the
# compiled library every line is handed back, for ingest.read_canonical's
# per-line reader
scan_canonical = iter if lib is None else _c_scan_canonical
# (export bytes, offset of its first record) -> its records in scanned runs
# and declined offsets; without the compiled library every record's offset,
# for ingest.parse_git_log's per-record parser
scan_git_log = record_offsets if lib is None else _c_scan_git_log
