"""The compiled library and the two record scanners, without numpy.

On first import, _split.c is compiled with `cc` into
~/.cache/paydev/split-<key>.so (key: source, flags, machine) and loaded
through ctypes as `lib`; delete that file to rebuild. BACKEND names what
runs: "c" with the library, "python" without it. paydev.ml.kernels drives
the library's tree grower and forest predictor; this module drives its
record scanners, scan_canonical and scan_git_log, and is the one place that
chooses between their compiled and Python forms, which give the same
results. It imports no numpy, so `paydev ingest` and `paydev identities`
run without it: a scanned run's four int columns are stdlib array("q")
buffers, the type of ingest.Commits' int columns.

scan_canonical reads a canonical commit file for ingest.read_canonical in
blocks of whole lines. Its C scanner takes only lines in
ingest.write_canonical's exact layout, with printable-ASCII strings that
hold no `"` or `\\`, ints of at most 18 digits and values that pass
ingest._checked_row, and raises nothing: every other line (every line
without a compiler, where scan_canonical is `iter`) is handed back as bytes
for the per-line reader, which alone raises the reader's errors.

scan_git_log reads the records of a git-log export for
ingest.parse_git_log from the buffer it already holds. Its C scanner takes
only records in exactly git's shape (a 40-hex sha, printable-ASCII name and
email, %at of at most 18 digits, a [+-]hhmm offset at the end of %ad,
numstat lines `(digits|-)\t(digits|-)\t<path>` or empty) with values that
ingest._parse_header and ingest._parse_numstat accept, and raises nothing:
every other record (every record without a compiler, where scan_git_log is
record_offsets) is handed back as its byte offset for those two functions,
which alone raise the parser's errors.
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
    lib.scan_canonical.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr, ptr]
    lib.scan_canonical.restype = i64
    lib.scan_git_log.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr, i64, ptr]
    lib.scan_git_log.restype = i64
    return lib


try:
    lib = _load()
except (OSError, RuntimeError):
    lib = None

BACKEND = "python" if lib is None else "c"


def _columns(ints, cap, n):
    """The first n entries of each of the four cap-long rows of `ints`."""
    return tuple(ints[k * cap:k * cap + n] for k in range(4))


BLOCK_BYTES = 1 << 20  # the canonical scanner reads whole lines in blocks of about this size


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


def _c_scan_canonical(fileobj):
    """The lines of binary `fileobj` in file order: each run of lines that
    scan_canonical in _split.c takes as (ints, strings), and each line it
    declines as its bytes, line feed included. ints holds the run's
    timestamp_utc, tz_offset_minutes, lines_added and lines_deleted, each
    an array("q"); strings lists its 4n strings, sha, author_name,
    author_email and message line by line."""
    info = (ctypes.c_int64 * 2)()
    for data in _blocks(fileobj):
        end = len(data)
        if data[-1:] != b"\n":  # the final line, without its line feed
            yield data
            continue
        # room for every line the scanner can take: a canonical line has at
        # least 188 bytes, and at most `end` bytes of strings are copied out
        cap = end // 128 + 1
        ints = array("q", bytes(32 * cap))  # four rows of cap
        text = ctypes.create_string_buffer(end)
        ints_at, pos = ints.buffer_info()[0], 0
        while pos < end:
            n = lib.scan_canonical(data, pos, end, cap, ints_at, text, info)
            if n:  # each string ends with a line feed; the last one is dropped before the split
                strings = ctypes.string_at(text, info[1] - 1).decode("ascii").split("\n")
                yield _columns(ints, cap, n), strings
            pos = info[0]
            if pos < end:
                line_end = data.index(b"\n", pos) + 1
                yield data[pos:line_end]
                pos = line_end


def record_offsets(data, pos):
    """The byte offset of each record of the git-log export `data` from
    `pos` on: pos, then one past each later 0x1E."""
    while pos:
        yield pos
        pos = data.find(b"\x1e", pos) + 1


RUN_RECORDS = 1 << 14  # the git-log scanner takes at most this many records per call


def _c_scan_git_log(data, pos):
    """The records of the git-log export `data` (bytes) from byte `pos`, one
    past a 0x1E, on, in order: each run of records that scan_git_log in
    _split.c takes as (ints, strings), and each record it declines as its
    byte offset. ints holds the run's timestamp_utc, tz_offset_minutes,
    lines_added and lines_deleted, each an array("q"); strings lists its 3n
    strings, sha, author_name and author_email (lowercased) record by
    record. A run ends early when its strings fill BLOCK_BYTES; a record
    whose strings alone do not fit is declined."""
    ints = array("q", bytes(32 * RUN_RECORDS))  # four rows of RUN_RECORDS
    text = ctypes.create_string_buffer(BLOCK_BYTES)
    info = (ctypes.c_int64 * 2)()
    while pos:
        n = lib.scan_git_log(data, pos, len(data), RUN_RECORDS, ints.buffer_info()[0], text,
                             BLOCK_BYTES, info)
        if n:  # each string ends with a line feed; the last one is dropped before the split
            strings = ctypes.string_at(text, info[1] - 1).decode("ascii").split("\n")
            yield _columns(ints, RUN_RECORDS, n), strings
            pos = info[0]
        else:
            yield pos
            pos = data.find(b"\x1e", pos) + 1


# (binary file) -> its lines in scanned runs and declined lines; without the
# compiled library every line is handed back, for ingest.read_canonical's
# per-line reader
scan_canonical = iter if lib is None else _c_scan_canonical
# (export bytes, offset of its first record) -> its records in scanned runs
# and declined offsets; without the compiled library every record's offset,
# for ingest.parse_git_log's per-record parser
scan_git_log = record_offsets if lib is None else _c_scan_git_log
