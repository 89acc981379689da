#!/usr/bin/env python3
"""Custom repo lint (the non-clang half of the static-analysis CI gate).

Checks, over src/ (and headers' include guards):

  1. no bare assert() outside src/common/check.h — use SPATE_CHECK /
     SPATE_DCHECK so failures print values and fatal behavior is uniform
     (static_assert stays allowed: it is a compile-time check);
  2. no naked `new` / `delete` — ownership goes through
     std::unique_ptr / std::shared_ptr (a `new` passed straight into a
     smart-pointer constructor on the same line is fine: some private
     constructors cannot go through make_unique);
  3. thread-safety contract headers (the classes in DESIGN.md's
     "Concurrency model" table) must carry their contract in machine-read
     form: capability annotations (GUARDED_BY / CAPABILITY) for internally
     synchronized classes, or the explicit SPATE_EXTERNALLY_SYNCHRONIZED
     marker for externally synchronized ones;
  4. include-guard hygiene: every header under src/ uses the canonical
     SPATE_<PATH>_H_ guard with a matching #endif comment;
  5. no raw std:: synchronization primitives (std::mutex, lock_guard,
     unique_lock, scoped_lock, condition_variable, shared_mutex, ...)
     outside the spate::Mutex wrapper and the lockdep registry — every
     lock must be a ranked `spate::Mutex` so the thread-safety analysis,
     the runtime lock-order detector and tools/lockgraph.py all see it;
  6. docs/SQL.md stays consistent with the SQL surface it documents:
     every plan node in src/sql/planner.h's kPlanNodeNames registry
     appears in the doc's "Plan nodes" table (and vice versa — no
     documented node the code no longer produces), and the "Grammar"
     section covers every aggregate function of src/sql/ast.h's
     AggregateFn, every comparison operator, and every statement clause;
  7. adversarial-bytes hygiene in src/compress/ (the decoders that parse
     hostile input) and in the two src/common readers of the same bytes,
     bit_stream.h and crc32.cc: no raw memcpy/memmove — unaligned loads go
     through the audited helpers in common/coding.h (LoadLe32, LoadLe64,
     GetFixed*) — and no C-style narrowing casts, which silently truncate
     attacker-reaching length fields; write static_cast so the narrowing
     is visible;
  8. fuzz-coverage registry: every decode-side entry point declared in a
     src/compress/*.h header (Status-returning functions whose names say
     they parse input: Decompress/Decode/Verify/Open/GetEnvelope/Init/
     Read...) must be claimed by a `// FUZZ-COVERS: <header>:<Function>`
     line in some fuzz/*.cc harness, and every such claim must name an
     entry point that still exists — adding a decoder without a fuzz
     target (or deleting one and leaving a stale claim) fails the build.

Exit code 0 when clean, 1 with findings on stderr otherwise.
`--root <dir>` points the lint at another repo checkout (the self-test in
tools/lint_test.py runs it against synthetic trees).
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# Rule 1 exemptions: the check library itself.
ASSERT_EXEMPT = {os.path.join("src", "common", "check.h")}

# Rule 5 exemptions: the wrapper that owns the one real std::mutex, and the
# lockdep registry (the detector cannot guard itself with the mutex it
# instruments — see lockdep.cc).
RAW_SYNC_EXEMPT = {
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "lockdep.h"),
    os.path.join("src", "common", "lockdep.cc"),
}
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)

# Rule 3: headers that define a class with a concurrency contract
# (mirrors DESIGN.md "Concurrency model" per-class table).
CONTRACT_HEADERS = [
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "thread_pool.h"),
    os.path.join("src", "common", "latch.h"),
    os.path.join("src", "dfs", "dfs.h"),
    os.path.join("src", "dfs", "fault_injector.h"),
    os.path.join("src", "query", "result_cache.h"),
    os.path.join("src", "query", "scan_scheduler.h"),
    os.path.join("src", "core", "fragment_cache.h"),
    os.path.join("src", "index", "temporal_index.h"),
    os.path.join("src", "index", "highlights.h"),
    os.path.join("src", "core", "spate_framework.h"),
    os.path.join("src", "telco", "assembler.h"),
    os.path.join("src", "serve", "admission.h"),
    os.path.join("src", "serve", "breaker.h"),
    os.path.join("src", "serve", "shard.h"),
    # The QueryServer was once absent here (thread-safe purely by
    # composition); its prepared-statement registry now carries a real
    # GUARDED_BY contract.
    os.path.join("src", "serve", "server.h"),
    # common/cancel.h is deliberately absent: the CancelToken is lock-free,
    # so it carries no lock annotation to machine-check (its contract lives
    # in DESIGN.md "Per-class thread-safety contracts").
]
ANNOTATION_RE = re.compile(
    r"\b(GUARDED_BY|PT_GUARDED_BY|CAPABILITY|REQUIRES|EXCLUDES|"
    r"SPATE_EXTERNALLY_SYNCHRONIZED)\b"
)

BARE_ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
NAKED_NEW_RE = re.compile(r"(?<![_A-Za-z0-9])new\b(?!\s*\()")
NAKED_DELETE_RE = re.compile(r"(?<![_A-Za-z0-9])delete(\[\])?\s")
SMART_WRAP_RE = re.compile(
    r"\b(unique_ptr|shared_ptr|make_unique|make_shared)\b"
)
# The leaky-singleton idiom (`static [const] T& x = *new T(...)`) is
# allowed: the leak is deliberate — it sidesteps static destruction order
# (non-const flavor: the lockdep registry mutates its singleton).
LEAKY_SINGLETON_RE = re.compile(r"\bstatic\b[^;]*=\s*\*\s*new\b")


def strip_comments_and_strings(line):
    """Crude single-line scrub so commented/quoted tokens don't trip rules."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    line = re.sub(r"/\*.*?\*/", "", line)
    return re.sub(r"//.*", "", line)


def source_files():
    for root, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith((".cc", ".h")):
                yield os.path.join(root, name)


def expected_guard(rel_path):
    stem = rel_path[len("src" + os.sep):]
    return "SPATE_" + re.sub(r"[/\\.]", "_", stem).upper() + "_"


# Rule 7: raw byte copies and silent truncation in the decoder sources:
# everything under src/compress/, plus the src/common readers that load
# words straight from untrusted bytes.
HOSTILE_INPUT_READERS = (os.path.join("src", "common", "bit_stream.h"),
                         os.path.join("src", "common", "crc32.cc"))
MEMCPY_RE = re.compile(r"\b(?:std::)?mem(?:cpy|move)\s*\(")
NARROWING_CAST_RE = re.compile(
    r"\(\s*(?:unsigned\s+|signed\s+)?"
    r"(?:u?int(?:8|16|32|64)?_t|short|char|int|long)\s*\)"
    r"\s*[A-Za-z_(*]"
)

# Rule 8: decode-side entry points are Status-returning functions whose
# names mark them as parsing input. "Compress"-only names stay out (the
# encode side consumes trusted in-process data).
DECODE_NAME_RE = re.compile(
    r"Decompress|Decode|Verify|Open|GetEnvelope|Init|Read")
STATUS_FN_RE = re.compile(
    r"(?:^|[\s;{])(?:static\s+|virtual\s+)*Status\s+(\w+)\s*\(")
FUZZ_COVERS_RE = re.compile(r"^//\s*FUZZ-COVERS:\s*(\S+):(\w+)\s*$")


def hostile_input_sources():
    """Yields the paths rule 7 scans: src/compress/ and the src/common
    readers listed in HOSTILE_INPUT_READERS."""
    for root, _, names in os.walk(os.path.join(SRC, "compress")):
        for name in sorted(names):
            if name.endswith((".cc", ".h")):
                yield os.path.join(root, name)
    for rel in HOSTILE_INPUT_READERS:
        path = os.path.join(REPO, rel)
        if os.path.isfile(path):
            yield path


def check_compress_hygiene(findings):
    """Rule 7: no raw memcpy/memmove or C-style narrowing casts in the
    hostile-input decoders."""
    for path in hostile_input_sources():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for number, raw in enumerate(lines, start=1):
            code = strip_comments_and_strings(raw)
            if MEMCPY_RE.search(code):
                findings.append(
                    f"{rel}:{number}: raw memcpy/memmove in a decoder —"
                    " load input bytes through common/coding.h"
                    " (LoadLe32 / LoadLe64 / GetFixed32 / GetFixed64) so"
                    " every untrusted read is bounds-audited in one place"
                    " (rule 7)")
            if NARROWING_CAST_RE.search(code):
                findings.append(
                    f"{rel}:{number}: C-style cast on a decode path —"
                    " write static_cast<> so narrowing of an"
                    " attacker-reaching length is explicit (rule 7)")


def compress_decode_entry_points():
    """Yields (header, function) for every decode entry point declared in
    src/compress/*.h (rule 8's source of truth)."""
    entries = set()
    compress_dir = os.path.join(SRC, "compress")
    if not os.path.isdir(compress_dir):
        return entries
    for name in sorted(os.listdir(compress_dir)):
        if not name.endswith(".h"):
            continue
        with open(os.path.join(compress_dir, name), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for raw in lines:
            code = strip_comments_and_strings(raw)
            match = STATUS_FN_RE.search(code)
            if match and DECODE_NAME_RE.search(match.group(1)):
                entries.add((name, match.group(1)))
    return entries


def check_fuzz_registry(findings):
    """Rule 8: the src/compress decode surface and the fuzz/ harness suite
    stay in lock-step, in both directions."""
    fuzz_dir = os.path.join(REPO, "fuzz")
    entries = compress_decode_entry_points()
    if not entries:
        return
    if not os.path.isdir(fuzz_dir):
        findings.append(
            "fuzz:1: missing — src/compress declares decode entry points"
            " but there is no fuzz harness directory (rule 8)")
        return
    claims = {}  # (header, function) -> "fuzz/<file>:<line>"
    for name in sorted(os.listdir(fuzz_dir)):
        if not name.endswith(".cc"):
            continue
        with open(os.path.join(fuzz_dir, name), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for number, raw in enumerate(lines, start=1):
            match = FUZZ_COVERS_RE.match(raw.strip())
            if match:
                claims.setdefault((match.group(1), match.group(2)),
                                  f"fuzz/{name}:{number}")
    for header, fn in sorted(entries - set(claims)):
        findings.append(
            f"src/compress/{header}:1: decode entry point `{fn}` has no"
            f" `// FUZZ-COVERS: {header}:{fn}` claim in any fuzz/*.cc"
            " harness — every parser of hostile bytes gets a fuzz target"
            " (rule 8)")
    for (header, fn), location in sorted(claims.items()):
        # Claims against headers outside src/compress/ (e.g. sql/parser.h)
        # are documentation; only compress claims are staleness-checked.
        if "/" in header:
            continue
        if (header, fn) not in entries:
            findings.append(
                f"{location}: stale FUZZ-COVERS claim — src/compress/"
                f"{header} declares no decode entry point `{fn}` (rule 8)")


def check_sql_docs(findings):
    """Rule 6: docs/SQL.md vs the code's own SQL surface."""
    doc_rel = os.path.join("docs", "SQL.md")
    doc_path = os.path.join(REPO, doc_rel)
    planner_path = os.path.join(REPO, "src", "sql", "planner.h")
    ast_path = os.path.join(REPO, "src", "sql", "ast.h")
    if not os.path.exists(planner_path) and not os.path.exists(doc_path):
        return  # no SQL surface at this root (synthetic lint_test trees)
    if not os.path.exists(doc_path):
        findings.append(f"{doc_rel}:1: missing — the SQL surface must stay"
                        " documented (rule 6)")
        return
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()

    # Plan nodes: the registry in planner.h is the source of truth; the
    # doc's "Plan nodes" table must match it exactly in both directions.
    with open(planner_path, encoding="utf-8") as f:
        planner = f.read()
    registry_match = re.search(r"kPlanNodeNames\[\]\s*=\s*\{(.*?)\}",
                               planner, re.S)
    if not registry_match:
        findings.append("src/sql/planner.h:1: kPlanNodeNames registry not"
                        " found — rule 6 cannot cross-check docs/SQL.md")
        return
    registry = set(re.findall(r'"([^"]+)"', registry_match.group(1)))
    nodes_section = re.search(r"## Plan nodes(.*?)(?:\n## |\Z)", doc, re.S)
    if not nodes_section:
        findings.append(f"{doc_rel}:1: missing '## Plan nodes' section"
                        " (rule 6)")
        documented = set()
    else:
        documented = set(re.findall(r"^\|\s*`(\w+)`",
                                    nodes_section.group(1), re.M))
    for name in sorted(registry - documented):
        findings.append(
            f"{doc_rel}:1: plan node `{name}` (kPlanNodeNames,"
            " src/sql/planner.h) is missing from the plan-node table")
    for name in sorted(documented - registry):
        findings.append(
            f"{doc_rel}:1: plan-node table documents `{name}`, which is not"
            " in kPlanNodeNames (src/sql/planner.h)")

    # Grammar: every aggregate function, comparison operator and statement
    # clause the AST can represent must appear in the grammar section.
    with open(ast_path, encoding="utf-8") as f:
        ast = f.read()
    grammar_section = re.search(r"## Grammar(.*?)(?:\n## |\Z)", doc, re.S)
    if not grammar_section:
        findings.append(f"{doc_rel}:1: missing '## Grammar' section"
                        " (rule 6)")
        return
    grammar = grammar_section.group(1)
    agg_match = re.search(r"enum class AggregateFn\s*\{([^}]*)\}", ast)
    aggregates = [name.upper() for name in
                  re.findall(r"\bk(\w+)", agg_match.group(1) if agg_match
                             else "") if name != "None"]
    for fn in aggregates:
        if fn not in grammar:
            findings.append(
                f"{doc_rel}:1: aggregate {fn} (AggregateFn, src/sql/ast.h)"
                " is missing from the grammar")
    for op in ["=", "!=", "<", "<=", ">", ">="]:
        if op not in grammar:
            findings.append(
                f"{doc_rel}:1: comparison operator {op} (CompareOp,"
                " src/sql/ast.h) is missing from the grammar")
    for clause in ["EXPLAIN", "SELECT", "FROM", "JOIN", "WHERE", "GROUP BY",
                   "ORDER BY", "LIMIT", "DISTINCT"]:
        if clause not in grammar:
            findings.append(
                f"{doc_rel}:1: clause {clause} (SelectStatement,"
                " src/sql/ast.h) is missing from the grammar")


def main():
    global REPO, SRC
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=REPO,
                        help="repository root to lint (default: this repo)")
    args = parser.parse_args()
    REPO = os.path.abspath(args.root)
    SRC = os.path.join(REPO, "src")

    findings = []

    for path in source_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()

        in_block_comment = False
        in_leaky_stmt = False
        for number, raw in enumerate(lines, start=1):
            line = raw
            if in_block_comment:
                if "*/" not in line:
                    continue
                line = line.split("*/", 1)[1]
                in_block_comment = False
            if "/*" in line and "*/" not in line.split("/*", 1)[1]:
                line = line.split("/*", 1)[0]
                in_block_comment = True
            code = strip_comments_and_strings(line)

            if rel not in ASSERT_EXEMPT and "static_assert" not in code:
                if BARE_ASSERT_RE.search(code):
                    findings.append(
                        f"{rel}:{number}: bare assert() — use SPATE_CHECK"
                        " / SPATE_DCHECK (src/common/check.h)")
            # A leaky-singleton initializer may wrap onto several lines
            # (`static const ...& x =` / `*new T{...};`); exempt the whole
            # statement, up to its terminating semicolon.
            if re.search(r"\bstatic\s+const\b", code):
                in_leaky_stmt = True
            allowed = (SMART_WRAP_RE.search(code) or in_leaky_stmt
                       or LEAKY_SINGLETON_RE.search(code))
            if in_leaky_stmt and ";" in code:
                in_leaky_stmt = False
            if NAKED_NEW_RE.search(code) and not allowed:
                findings.append(
                    f"{rel}:{number}: naked `new` — own it with"
                    " std::unique_ptr / std::shared_ptr")
            if NAKED_DELETE_RE.search(code):
                findings.append(
                    f"{rel}:{number}: naked `delete` — ownership must be"
                    " RAII-managed")
            if rel not in RAW_SYNC_EXEMPT:
                raw_sync = RAW_SYNC_RE.search(code)
                if raw_sync:
                    findings.append(
                        f"{rel}:{number}: raw `{raw_sync.group(0)}` — use"
                        " spate::Mutex / MutexLock / CondVar"
                        " (src/common/mutex.h) so the lock is ranked and"
                        " visible to lockdep and tools/lockgraph.py")

        if rel.endswith(".h"):
            guard = expected_guard(rel)
            text = "\n".join(lines)
            if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
                findings.append(
                    f"{rel}:1: include guard must be `{guard}`")
            elif f"#endif  // {guard}" not in text:
                findings.append(
                    f"{rel}:{len(lines)}: closing `#endif  // {guard}`"
                    " comment missing")

    for rel in CONTRACT_HEADERS:
        path = os.path.join(REPO, rel)
        # Synthetic lint_test roots carry only the module under test; a
        # whole missing module directory is not this rule's business.
        if not os.path.isdir(os.path.dirname(path)):
            continue
        if not os.path.exists(path):
            findings.append(
                f"{rel}:1: listed in the concurrency contract table but"
                " missing — update tools/lint.py")
            continue
        with open(path, encoding="utf-8") as f:
            if not ANNOTATION_RE.search(f.read()):
                findings.append(
                    f"{rel}:1: concurrency-contract header carries no"
                    " thread-safety annotation (GUARDED_BY / CAPABILITY /"
                    " SPATE_EXTERNALLY_SYNCHRONIZED)")

    check_compress_hygiene(findings)
    check_fuzz_registry(findings)
    check_sql_docs(findings)

    if findings:
        for finding in findings:
            print(finding, file=sys.stderr)
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
