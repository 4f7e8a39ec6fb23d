"""The compiled library, and the one choice between each compiled kernel
and its twin, without numpy.

On first import, _split.c is compiled with `cc` into
~/.cache/paydev/split-<key>.so (key: source, flags, machine) and loaded
through ctypes as `lib`; delete that file to rebuild. _load refuses a
library whose generator fails numpy's known draws (generator_ok,
KNOWN_DRAWS), so `lib` is None exactly when no library is used, and
BACKEND names what runs: "c" with the library, "python" without it.

Each kernel is bound here once, to its compiled wrapper (_c_<kernel>) with
the library, else to its twin, which gives the same results; callers look
it up as native.<kernel> when they call it. grow_forest grows a whole
forest, or one CART, in one call, after impute_median, each tree drawing
from seed_state's SeedSequence and PCG64, on one thread per core
(_grow_threads), into one node table, the arrays paydev.model.Nodes holds;
a forest the library declines grows in the twin.
forest_sum scores that table's own buffers and imputes as it walks, and
fold_draws draws evaluation's folds from the same generator. These five
have numpy twins, paydev.ml.kernels' <kernel>_py. The History pass,
sort_histories, local_calendar and activity, and commit_rows have Python
twins in paydev.features; logit_fit and logit_proba, the logistic
regression's fit and scorer, in paydev.ml.logit; auc in paydev.evaluation.
A twin's module is imported at its first lookup, so this module loads no
numpy: with the library every command but `paydev synth` runs without it,
as `paydev ingest`, `identities` and `features` always do; their columns
are stdlib arrays.

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
declined record as its byte offset. Without the library scan_canonical
is `iter` and scan_git_log is record_offsets, so every item is declined.
"""

import ctypes
import importlib
import os
import zlib
from array import array

# Local instants (ts_utc + 60 * offset) must fall in years 1-9999:
# 0001-01-01T00:00:00 .. 9999-12-31T23:59:59 (LOCAL_MIN and LOCAL_MAX in _split.c).
LOCAL_MIN, LOCAL_MAX = -62135596800, 253402300799

# no -march/-ffast-math: the compiled grower must match the Python one bit for bit
_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off", "-pthread"]


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
    lib.seed_state.argtypes = [ptr, i64, ptr, i64]
    lib.seed_state.restype = None
    lib.draws.argtypes = [ptr, i64, i64, i64, i64, ptr, ptr, ptr]
    lib.draws.restype = ctypes.c_int
    lib.impute_median.argtypes = [ptr, i64, i64, ptr, ptr]
    lib.impute_median.restype = ctypes.c_int
    lib.grow_forest.argtypes = [ptr, i64, i64, ptr, i64, ptr, i64, i64, i64, i64, f64, i64, i64,
                                ptr, ptr]
    lib.grow_forest.restype = i64
    lib.free_table.argtypes = [ptr]
    lib.free_table.restype = None
    lib.forest_sum.argtypes = [ptr, i64, i64, ptr, *[ptr] * 7, i64, ptr]
    lib.forest_sum.restype = ctypes.c_int
    for scan in (lib.scan_canonical, lib.scan_git_log):  # one protocol (see _runs)
        scan.argtypes = [ctypes.c_char_p, i64, i64, i64, ptr, ptr, i64, ptr]
        scan.restype = i64
    lib.sort_histories.argtypes = [ptr, i64, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr]
    lib.local_calendar.argtypes = [ptr, ptr, i64, ptr]
    lib.activity.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.commit_rows.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.commit_rows.restype = None
    lib.logit_fit.argtypes = [ptr, i64, i64, ptr, f64, i64, f64, ptr, ptr, ptr, ptr, i64, ptr]
    lib.logit_proba.argtypes = [ptr, i64, i64, *[ptr] * 4, f64, ptr]
    lib.logit_proba.restype = None
    lib.auc.argtypes = [ptr, ptr, i64, ptr]
    for fn in (lib.sort_histories, lib.local_calendar, lib.activity, lib.logit_fit, lib.auc):
        fn.restype = ctypes.c_int
    if not generator_ok(lib):
        raise RuntimeError("the library's generator fails numpy's known draws")
    return lib


BLOCK_BYTES = 1 << 18  # the canonical scanner reads whole lines in blocks of about this size
RUN_RECORDS = 1 << 14  # a scanner call takes at most this many lines or records


def _runs(scan, data, pos, declined):
    """The items (lines or records) of `data` (bytes) from byte `pos` on, in
    order: each run of items that `scan`, a scanner in _split.c, takes as
    (ints, strings), and for each item it declines the first value of
    declined(data, pos), whose second is where the next item starts. ints
    holds the run's timestamp_utc, tz_offset_minutes, lines_added and
    lines_deleted, each an array("q"); strings lists the strings the scanner
    copies out, item by item, decoded straight from its text buffer. A run
    ends early when its strings fill BLOCK_BYTES; an item whose strings
    alone do not fit is declined."""
    end = len(data)
    text_cap = min(BLOCK_BYTES, end)  # the strings of `data` take no more bytes than it
    ints = array("q", [0]) * (4 * RUN_RECORDS)  # four rows of RUN_RECORDS
    text = ctypes.create_string_buffer(text_cap)
    info = (ctypes.c_int64 * 2)()
    ints_at = ints.buffer_info()[0]
    while pos < end:
        n = scan(data, pos, end, RUN_RECORDS, ints_at, text, text_cap, info)
        if n:  # each string ends with a line feed; the last one is dropped before the split
            strings = str(memoryview(text)[:info[1] - 1], "ascii").split("\n")
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


NODE_ARRAYS = ("feature", "threshold", "left", "right", "n", "pos", "roots")


def _c_forest_sum(nodes, impute, X, n_rows):
    """Per row of X, the mean over the trees of the node table `nodes`
    (paydev.model.Nodes) of the row's leaf probability pos/n, summed in tree
    order, as an array("d"), in one library call on the table's own arrays.
    X and impute are array("d"): X holds n_rows rows of len(impute) values,
    and a NaN in column f takes impute[f]."""
    columns = [getattr(nodes, key) for key in NODE_ARRAYS]
    roots, p = nodes.roots, len(impute)
    if ("".join(c.typecode for c in columns) != "qdqqqqq" or roots[0]
            or any(len(c) != roots[-1] for c in columns[:6]) or len(X) != n_rows * p):
        raise ValueError("forest_sum: node arrays or rows of unequal length or type")
    out = array("d", bytes(8 * n_rows))
    if lib.forest_sum(X.buffer_info()[0], n_rows, p, impute.buffer_info()[0],
                      *_addresses(*columns), len(roots) - 1, out.buffer_info()[0]):
        raise ValueError("forest_sum: a tree node points outside its tree")
    return out


def _words(entropy):
    """The uint32 words numpy's SeedSequence takes the ints `entropy`, each
    >= 0, as: each int's words, least significant first, at least one."""
    words = array("I")
    for value in entropy:
        if value < 0:
            raise ValueError("a seed must be >= 0")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return words


def _c_seed_state(entropy, n_words):
    """numpy's SeedSequence(entropy).generate_state(n_words), for a list of
    ints >= 0, as a list of ints, in one call to the library's seed_state."""
    words, out = _words(entropy), array("I", bytes(4 * n_words))
    lib.seed_state(words.buffer_info()[0], len(words), out.buffer_info()[0], n_words)
    return out.tolist()


DRAWS = ("raw", "uint32", "bootstrap", "choice", "shuffle")


def draws(entropy, kind, n=0, k=0, library=None, sizes=()):
    """(draws, state after) of numpy's default_rng(SeedSequence(entropy)),
    from the generator of `library`, by default the loaded one: kind "raw"
    gives k next_uint64 values, "uint32" k next_uint32 values, "bootstrap"
    np.sort(rng.integers(0, n, size=n)), "choice" rng.choice(n, k,
    replace=False) where numpy takes Floyd's algorithm, and "shuffle", for
    each m of `sizes`, a = np.arange(m); rng.shuffle(a) and then
    rng.integers(k): a's values, then the integer. state lists the high and
    low 64 bits of the PCG64 state and inc, has_uint32 and uinteger.
    ValueError for a count below 0, a choice of more than n, a shuffle into
    no fold, and where numpy draws otherwise: a bootstrap of 2**32 rows or
    more, a shuffle of more than 2**32 values or into 2**32 folds or more."""
    sizes = array("q", sizes)
    if n < 0 or k < 0 or (kind == "choice" and k > n) or (sizes and min(sizes) < 0):
        raise ValueError("draws: n, k and sizes must be >= 0, and a choice k <= n")
    if kind == "shuffle" and k < 1:
        raise ValueError("draws: a shuffle needs at least one fold")
    if (kind == "bootstrap" and n >= 2**32) or (kind == "shuffle" and (
            k >= 2**32 or sizes and max(sizes) > 2**32)):
        raise ValueError("draws: numpy draws so many rows or folds otherwise")
    size = {"bootstrap": n, "shuffle": sum(sizes) + len(sizes)}.get(kind, k)
    n = len(sizes) if kind == "shuffle" else n
    words, out, state = _words(entropy), array("Q", bytes(8 * size)), array("Q", bytes(48))
    library = lib if library is None else library
    if library.draws(words.buffer_info()[0], len(words), DRAWS.index(kind), n, k,
                     sizes.buffer_info()[0], out.buffer_info()[0], state.buffer_info()[0]):
        raise MemoryError("draws")
    return out.tolist(), state.tolist()


def _c_fold_draws(entropy, sizes, k):
    """numpy's draws for stratified folds from default_rng(SeedSequence(
    entropy)), as draws' kind "shuffle" gives them: for each class of m
    rows, the order rng.shuffle gives np.arange(m), then rng.integers(k)."""
    return draws(entropy, "shuffle", k=k, sizes=sizes)[0]


# numpy's draws from default_rng(SeedSequence([2018, 1])): its first two raw
# values, choice(40, 6, replace=False), its sorted bootstrap of 10 rows, and
# the shuffles of np.arange(6) and np.arange(4), each followed by integers(3)
KNOWN_DRAWS = {
    "raw": ([1810956789399191930, 8989135104660027435], dict(k=2)),
    "choice": ([39, 31, 3, 21, 18, 11], dict(n=40, k=6)),
    "bootstrap": ([0, 3, 4, 4, 4, 5, 7, 8, 9, 9], dict(n=10)),
    "shuffle": ([1, 4, 0, 3, 5, 2, 2, 2, 1, 0, 3, 1], dict(k=3, sizes=[6, 4])),
}


def generator_ok(library):
    """Whether the generator of `library` gives numpy's known draws (see
    KNOWN_DRAWS), which every compiled forest and every fold relies on;
    _load refuses a library whose generator does not."""
    return all(draws([2018, 1], kind, library=library, **args)[0] == known
               for kind, (known, args) in KNOWN_DRAWS.items())


def _c_impute_median(X, p):
    """(X with each NaN replaced by its column's median, the p medians), in
    one call to the library's impute_median. X, an array("d"), holds rows of
    p values one after another; a column's median is 0.0 where it has no
    other values."""
    n = len(X) // p if p else 0
    if type(X) is not array or X.typecode != "d" or len(X) != n * p:
        raise TypeError("impute_median needs X as an array('d') of rows of p values")
    filled, median = array("d", bytes(8 * len(X))), array("d", bytes(8 * p))
    if lib.impute_median(X.buffer_info()[0], n, p, filled.buffer_info()[0],
                         median.buffer_info()[0]):
        raise MemoryError("impute_median")
    return filled, median


def _take(address, count, typecode):
    """The `count` 8-byte values at `address` as an array(typecode)."""
    out = array(typecode)
    out.frombytes(ctypes.string_at(address, 8 * count))
    return out


def _grow_threads(n_trees):
    """The threads grow_forest grows n_trees trees on: one per core this
    process may run on, at most one per tree; the library caps them at 4.
    The count changes no byte of the forest."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return min(cores, n_trees)


def _c_grow_forest(X, y, p, n_trees, seed, bootstrap, mtry, minsplit, cp, maxdepth):
    """(table, importance) in one call to the library's grow_forest: the
    node table of n_trees trees, its seven arrays in NODE_ARRAYS order
    (paydev.model.Nodes' array("q") and array("d") buffers), and the mean of
    their importance vectors, an array("d"). A forest the library declines,
    because numpy draws it otherwise or its rows are too many for the
    library's entries, grows in kernels.grow_forest_py. The trees grow on
    _grow_threads(n_trees) threads, which changes no byte. X, an
    array("d"), holds the rows, p values each, one after another, and y, an
    array("b"), their labels, 0 or 1. Tree t draws from numpy's
    default_rng(SeedSequence([seed, t])): its bootstrap rows when bootstrap
    is true, and mtry features at every node when mtry < p. Splits need at
    least minsplit rows and a cp share of the root's error; maxdepth None is
    unbounded."""
    n = len(y)
    if not (type(X) is array and X.typecode == "d" and type(y) is array and y.typecode == "b"):
        raise TypeError("grow_forest needs X as array('d') and y as array('b')")
    if len(X) != n * p:
        raise ValueError("grow_forest: X does not hold p values per label")
    depth = -1 if maxdepth is None else maxdepth
    if n_trees < 1 or not all(-2**63 <= v < 2**63 for v in (n_trees, mtry, minsplit, depth)):
        raise ValueError("grow_forest: a count is below 1 or outside int64")
    words, importance = _words([seed]), array("d", bytes(8 * p))
    table = (ctypes.c_void_p * 7)()
    m = lib.grow_forest(X.buffer_info()[0], n, p, y.buffer_info()[0], n_trees,
                        words.buffer_info()[0], len(words), bool(bootstrap), mtry, minsplit, cp,
                        depth, _grow_threads(n_trees), importance.buffer_info()[0], table)
    if m == -4:
        from paydev.ml import kernels

        return kernels.grow_forest_py(X, y, p, n_trees, seed, bootstrap, mtry, minsplit, cp,
                                      maxdepth)
    if m == -1:
        raise MemoryError("grow_forest")
    if m < 0:
        raise ValueError("grow_forest needs labels 0 or 1")
    try:
        columns = [_take(table[k], m, "d" if k == 1 else "q") for k in range(6)]
        columns.append(_take(table[6], n_trees + 1, "q"))
    finally:
        lib.free_table(table)
    return columns, importance


def int_column(values):
    """`values` as an array("q"); an array("q") itself is kept, not copied."""
    if type(values) is array and values.typecode == "q":
        return values
    return array("q", values)


def _addresses(*columns):
    return [column.buffer_info()[0] for column in columns]


def _c_sort_histories(rows, sizes, timestamp, offset, added, deleted):
    """(rows, ts, offset, lines) in one call to the library's sort_histories.
    rows holds the rows of the commit table each identity owns, in sha
    order, sizes[i] of them for identity i; each identity's rows come back
    stably sorted by timestamp, with each one's timestamp_utc,
    tz_offset_minutes and changed lines (lines_added + lines_deleted, NaN
    where either is -1) from the table's columns timestamp, offset, added
    and deleted, as array("q") and array("d")."""
    rows, sizes = array("q", rows), array("q", sizes)
    table = [int_column(c) for c in (timestamp, offset, added, deleted)]
    if len({len(c) for c in table}) > 1:
        raise ValueError("sort_histories: the commit columns differ in length")
    n = len(rows)
    ts, off, lines = array("q", bytes(8 * n)), array("q", bytes(8 * n)), array("d", bytes(8 * n))
    status = lib.sort_histories(rows.buffer_info()[0], n, sizes.buffer_info()[0], len(sizes),
                                *_addresses(*table), len(table[0]), *_addresses(ts, off, lines))
    if status == -1:
        raise MemoryError("sort_histories")
    if status:
        raise ValueError("sort_histories: a row is out of range, or the sizes miss the rows")
    return rows, ts, off, lines


def _c_local_calendar(ts, offset):
    """The day (since 1970-01-01), hour and weekday (Monday = 0) of each ts
    shifted by its offset in minutes, as three array("q"), in one call to
    the library's local_calendar. ValueError when an offset is outside
    +-1440 (checked first) or a local time outside years 1-9999."""
    ts, offset = int_column(ts), int_column(offset)
    n = len(ts)
    if len(offset) != n:
        raise ValueError("local_calendar: ts and offset differ in length")
    cal = array("q", bytes(24 * n))
    status = lib.local_calendar(*_addresses(ts, offset), n, cal.buffer_info()[0])
    if status == -1:
        raise ValueError("tz offset out of range")
    if status:
        raise ValueError("local time outside years 1-9999")
    return tuple(cal[k * n:(k + 1) * n] for k in range(3))


def _c_activity(ts, day, hour, weekday, lines):
    """The 16 developer features of one History, from its columns, in
    features.DeveloperFeatures order, in one call to the library's
    activity."""
    columns = [int_column(c) for c in (ts, day, hour, weekday)]
    lines = _doubles(lines)
    n = len(columns[0])
    if any(len(c) != n for c in (*columns, lines)):
        raise ValueError("activity: the columns differ in length")
    ints, reals = array("q", bytes(64)), array("d", bytes(64))
    status = lib.activity(n, *_addresses(*columns, lines, ints, reals))
    if status == -1:
        raise MemoryError("activity")
    if status:
        raise ValueError("activity needs at least one commit, each at an hour 0-23")
    period, days, weeks, commits, top, beginning, length, end = ints
    return (period, days, weeks, reals[0], commits, *reals[1:], top, beginning, length, end)


def _doubles(values):
    """`values` as an array("d"); an array("d") itself is kept, not copied."""
    return values if type(values) is array and values.typecode == "d" else array("d", values)


def _c_commit_rows(ts, hour, weekday, lines, fill):
    """The 15 features.COMMIT_FEATURE_COLUMNS of each commit of a History,
    from its columns, row after row as an array("d"), in one call to the
    library's commit_rows; fill holds the developer's loc_per_commit, for
    NaN lines, its timediff, for the first commit, and its six shares."""
    columns = [int_column(c) for c in (ts, hour, weekday)]
    lines, fill = _doubles(lines), _doubles(fill)
    n = len(columns[0])
    if any(len(c) != n for c in (*columns, lines)) or len(fill) != 8:
        raise ValueError("commit_rows: the columns differ in length, or fill is not 8 values")
    out = array("d", bytes(120 * n))
    lib.commit_rows(n, *_addresses(*columns, lines, fill, out))
    return out


def _c_logit_fit(X, y, p, l2, max_iter, tol):
    """(mean, scale, w, loss history, n_iter, converged) of the logistic
    regression of y (array("b"), 0 or 1) on X (array("d") of len(y) rows of p
    values, no NaN), in one call to the library's logit_fit: each column's
    mean and scale, the p coefficients and then the intercept in w (all
    array("d")), and the losses as a list. w is None, and nothing is fitted,
    when a column's mean or scale is not finite."""
    n = len(y)
    if not (type(X) is array and X.typecode == "d" and type(y) is array and y.typecode == "b"
            and len(X) == n * p):
        raise TypeError("logit_fit needs X as array('d') of len(y) rows and y as array('b')")
    max_iter = min(max_iter, 2**62)
    mean, scale, w, info = (array(t, bytes(8 * size)) for t, size in (
        ("d", p), ("d", p), ("d", p + 1), ("q", 3)))
    cap = min(max(max_iter, 0), 256) + 1
    while True:  # once more, with room for every loss, after a fit of more than cap - 1 steps
        history = array("d", bytes(8 * cap))
        status = lib.logit_fit(X.buffer_info()[0], n, p, y.buffer_info()[0], l2, max_iter, tol,
                               *_addresses(mean, scale, w, history), cap, info.buffer_info()[0])
        if status == -1:
            raise MemoryError("logit_fit")
        if status == -2:
            return mean, scale, None, [], 0, False
        if info[2] <= cap:
            return mean, scale, w, history[:info[2]].tolist(), info[0], bool(info[1])
        cap = info[2]


def _c_logit_proba(model, X, n_rows):
    """P(hired) per row of X (an array("d") of n_rows rows in the columns of
    the LogitModel `model`) as an array("d"), in one call to the library's
    logit_proba; a NaN in column j takes model.impute[j]."""
    vectors = [_doubles(v) for v in (model.impute, model.mean, model.scale, model.coef)]
    p = len(vectors[0])
    if type(X) is not array or X.typecode != "d":
        raise TypeError("logit_proba needs X as array('d')")
    if any(len(v) != p for v in vectors) or len(X) != n_rows * p:
        raise ValueError("logit_proba: rows or model vectors of unequal length")
    out = array("d", bytes(8 * n_rows))
    lib.logit_proba(X.buffer_info()[0], n_rows, p, *_addresses(*vectors), model.intercept,
                    out.buffer_info()[0])
    return out


def _c_auc(scores, labels):
    """roc_auc's AUC of scores (array("d")) against labels (array("b"); 1 is
    positive, any other value negative), both classes present, in one call
    to the library's auc."""
    if not (type(scores) is array and scores.typecode == "d" and type(labels) is array
            and labels.typecode == "b" and len(scores) == len(labels)):
        raise TypeError("auc needs scores as array('d') and labels as array('b') of one length")
    out = array("d", [0.0])
    status = lib.auc(*_addresses(scores, labels), len(scores), out.buffer_info()[0])
    if status == -1:
        raise MemoryError("auc")
    if status:
        raise ValueError("auc needs both classes")
    return out[0]


try:
    lib = _load()
except (OSError, RuntimeError):
    lib = None

BACKEND = "python" if lib is None else "c"

# The module of each kernel's twin, named <kernel>_py there: numpy's for the
# generator's draws, the forest fit and the forest predictor; Python's for
# the History pass, the commit rows, the logit and the AUC.
_TWINS = dict.fromkeys(("impute_median", "grow_forest", "seed_state", "forest_sum",
                        "fold_draws"), "paydev.ml.kernels")
_TWINS.update(dict.fromkeys(("sort_histories", "local_calendar", "activity", "commit_rows"),
                            "paydev.features"))
_TWINS.update(dict.fromkeys(("logit_fit", "logit_proba"), "paydev.ml.logit"))
_TWINS["auc"] = "paydev.evaluation"

if lib is None:
    # every line, or every record's offset, is declined to the Python reader
    scan_canonical, scan_git_log = iter, record_offsets

    def __getattr__(name):
        """A kernel's twin, whose module is imported at its first lookup, so
        that this module loads no numpy."""
        if name not in _TWINS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        twin = globals()[name] = getattr(importlib.import_module(_TWINS[name]), f"{name}_py")
        return twin
else:
    impute_median, grow_forest, seed_state, forest_sum, fold_draws = (
        _c_impute_median, _c_grow_forest, _c_seed_state, _c_forest_sum, _c_fold_draws)
    sort_histories, local_calendar, activity, commit_rows = (
        _c_sort_histories, _c_local_calendar, _c_activity, _c_commit_rows)
    logit_fit, logit_proba, auc = _c_logit_fit, _c_logit_proba, _c_auc
    scan_canonical, scan_git_log = _c_scan_canonical, _c_scan_git_log
