#!/usr/bin/env python3
"""Self-test for tools/lint.py's adversarial-bytes rules (7 and 8).

Builds synthetic repo trees in a tempdir and runs the linter against them
with --root, asserting that a clean decoder passes and that each violation
class — raw memcpy in a decoder (or in one of the src/common word
readers rule 7 also scans), a C-style narrowing cast, a decode entry
point without a fuzz target, a stale FUZZ-COVERS claim — fails with the
expected finding. This is the CI gate's proof that the gate itself works;
run it with `python3 tools/lint_test.py` (the static-analysis job does).
"""

import os
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint.py")

# A header that satisfies the include-guard rule and declares one decode
# entry point (rule 8's source of truth).
DECODER_HEADER = """\
#ifndef SPATE_COMPRESS_GOOD_H_
#define SPATE_COMPRESS_GOOD_H_

namespace spate {
class Status;
Status Decompress(const char* input, unsigned long size);
}  // namespace spate

#endif  // SPATE_COMPRESS_GOOD_H_
"""

CLEAN_SOURCE = """\
#include "compress/good.h"

namespace spate {
int Helper(unsigned char byte) { return static_cast<int>(byte); }
}  // namespace spate
"""

# A word load written as a raw copy; placed under src/common/ it tests
# which files rule 7 scans there.
def word_load_header(stem):
    guard = "SPATE_COMMON_" + stem.upper() + "_H_"
    return (f"#ifndef {guard}\n#define {guard}\n\n"
            "namespace spate {\n"
            "inline unsigned long Load(const unsigned char* p) {\n"
            "  unsigned long v = 0; memcpy(&v, p, 8); return v;\n"
            "}\n"
            "}  // namespace spate\n\n"
            f"#endif  // {guard}\n")

HARNESS = """\
// FUZZ-COVERS: good.h:Decompress
extern "C" int LLVMFuzzerTestOneInput(const unsigned char* d, unsigned long n);
"""


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def run_lint(root):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stderr


class LintRule7And8Test(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        write(self.root, "src/compress/good.h", DECODER_HEADER)
        write(self.root, "src/compress/good.cc", CLEAN_SOURCE)
        write(self.root, "fuzz/fuzz_good.cc", HARNESS)

    def tearDown(self):
        self._tmp.cleanup()

    def test_clean_decoder_tree_passes(self):
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 0, stderr)

    def test_memcpy_in_decoder_fails_rule7(self):
        write(self.root, "src/compress/good.cc", CLEAN_SOURCE.replace(
            "return static_cast<int>(byte);",
            "int v; memcpy(&v, &byte, 1); return v;"))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("rule 7", stderr)
        self.assertIn("memcpy", stderr)

    def test_commented_memcpy_is_ignored(self):
        write(self.root, "src/compress/good.cc", CLEAN_SOURCE.replace(
            "return static_cast<int>(byte);",
            "return static_cast<int>(byte);  // not a real memcpy(x, y, z)"))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 0, stderr)

    def test_narrowing_cast_in_decoder_fails_rule7(self):
        write(self.root, "src/compress/good.cc", CLEAN_SOURCE.replace(
            "return static_cast<int>(byte);", "return (int)byte;"))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("rule 7", stderr)
        self.assertIn("static_cast", stderr)

    def test_memcpy_in_common_bit_reader_fails_rule7(self):
        write(self.root, "src/common/bit_stream.h",
              word_load_header("bit_stream"))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("src/common/bit_stream.h:6: raw memcpy", stderr)
        self.assertIn("rule 7", stderr)

    def test_coding_helpers_stay_the_audited_home(self):
        # (A partial src/common/ trips the concurrency-table rule; only
        # rule 7's silence matters here.)
        write(self.root, "src/common/coding.h", word_load_header("coding"))
        _, stderr = run_lint(self.root)
        self.assertNotIn("rule 7", stderr)

    def test_unclaimed_entry_point_fails_rule8(self):
        write(self.root, "fuzz/fuzz_good.cc",
              HARNESS.replace("// FUZZ-COVERS: good.h:Decompress\n", ""))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("rule 8", stderr)
        self.assertIn("good.h", stderr)
        self.assertIn("Decompress", stderr)

    def test_missing_fuzz_dir_fails_rule8(self):
        os.remove(os.path.join(self.root, "fuzz/fuzz_good.cc"))
        os.rmdir(os.path.join(self.root, "fuzz"))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("rule 8", stderr)

    def test_stale_claim_fails_rule8(self):
        write(self.root, "fuzz/fuzz_good.cc",
              HARNESS + "// FUZZ-COVERS: good.h:DecodeGone\n")
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("stale FUZZ-COVERS", stderr)
        self.assertIn("DecodeGone", stderr)

    def test_claims_outside_compress_are_documentation(self):
        write(self.root, "fuzz/fuzz_good.cc",
              HARNESS + "// FUZZ-COVERS: sql/parser.h:ParseSql\n")
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 0, stderr)

    def test_encode_side_needs_no_claim(self):
        write(self.root, "src/compress/good.h", DECODER_HEADER.replace(
            "Status Decompress(const char* input, unsigned long size);",
            "Status Decompress(const char* input, unsigned long size);\n"
            "Status Compress(const char* input, unsigned long size);"))
        code, stderr = run_lint(self.root)
        self.assertEqual(code, 0, stderr)


FAILSCAN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "failscan.py")

# Minimal Status-flow tree for failscan: one fallible function, one caller.
STATUS_HEADER = """\
#ifndef SPATE_DFS_STORE_H_
#define SPATE_DFS_STORE_H_

namespace spate {
class Status;
Status StoreBlock(const char* data, unsigned long size);
}  // namespace spate

#endif  // SPATE_DFS_STORE_H_
"""

STATUS_CALLER = """\
#include "dfs/store.h"

namespace spate {
Status Caller(const char* d, unsigned long n) {
  return StoreBlock(d, n);
}
}  // namespace spate
"""

# Minimal failpoint registry + one instrumented site.
REGISTRY = """\
#include "common/failpoint.h"

namespace spate {
namespace failpoint {
namespace {
struct Site {
  const char* id;
  const char* description;
};
Site g_sites[] = {
    {"dfs.store_block", "entry of StoreBlock"},
};
}  // namespace
}  // namespace failpoint
}  // namespace spate
"""

SITE_USER = """\
#include "common/failpoint.h"
#include "dfs/store.h"

namespace spate {
Status StoreBlock(const char* d, unsigned long n) {
  SPATE_FAILPOINT("dfs.store_block");
  return Caller(d, n);
}
}  // namespace spate
"""

MANIFEST = """\
# Failpoint manifest.

```failpoints
dfs.store_block   src/dfs/store.cc StoreBlock entry
require dfs.
```
"""


def run_failscan(root):
    proc = subprocess.run(
        [sys.executable, FAILSCAN, "--check", "--root", root],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stderr


class FailscanStatusFlowTest(unittest.TestCase):
    """failscan's Status-flow audit: bare drops and unjustified (void)."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        write(self.root, "src/dfs/store.h", STATUS_HEADER)
        write(self.root, "src/dfs/use.cc", STATUS_CALLER)

    def tearDown(self):
        self._tmp.cleanup()

    def test_clean_tree_passes(self):
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 0, stderr)

    def test_bare_dropped_status_fails(self):
        write(self.root, "src/dfs/use.cc", STATUS_CALLER.replace(
            "return StoreBlock(d, n);",
            "StoreBlock(d, n);\n  return StoreBlock(d, n);"))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("silently dropped", stderr)
        self.assertIn("StoreBlock", stderr)

    def test_unjustified_void_discard_fails(self):
        write(self.root, "src/dfs/use.cc", STATUS_CALLER.replace(
            "return StoreBlock(d, n);",
            "(void)StoreBlock(d, n);\n  return StoreBlock(d, n);"))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("justification comment", stderr)

    def test_justified_void_discard_passes(self):
        write(self.root, "src/dfs/use.cc", STATUS_CALLER.replace(
            "return StoreBlock(d, n);",
            "// Best-effort: the caller retries on the next scan.\n"
            "  (void)StoreBlock(d, n);\n  return StoreBlock(d, n);"))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 0, stderr)

    def test_consumed_and_propagated_calls_pass(self):
        write(self.root, "src/dfs/use.cc", STATUS_CALLER.replace(
            "return StoreBlock(d, n);",
            "if (!StoreBlock(d, n).ok()) return StoreBlock(d, n);\n"
            "  return StoreBlock(d, n);"))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 0, stderr)

    def test_name_shared_with_a_void_function_is_not_flagged(self):
        write(self.root, "src/dfs/other.h", STATUS_HEADER.replace(
            "SPATE_DFS_STORE_H_", "SPATE_DFS_OTHER_H_").replace(
            "Status StoreBlock(const char* data, unsigned long size);",
            "void StoreBlock(int retries);"))
        write(self.root, "src/dfs/use.cc", STATUS_CALLER.replace(
            "return StoreBlock(d, n);",
            "StoreBlock(d, n);\n  return Status();"))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 0, stderr)


class FailscanRegistryTest(unittest.TestCase):
    """failscan's registry <-> sources <-> manifest cross-check."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        write(self.root, "src/common/failpoint.cc", REGISTRY)
        write(self.root, "src/dfs/store.h", STATUS_HEADER)
        write(self.root, "src/dfs/store.cc", SITE_USER)
        write(self.root, "docs/FAILPOINTS.md", MANIFEST)

    def tearDown(self):
        self._tmp.cleanup()

    def test_synced_tree_passes(self):
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 0, stderr)

    def test_unregistered_site_fails(self):
        write(self.root, "src/dfs/store.cc", SITE_USER.replace(
            'SPATE_FAILPOINT("dfs.store_block");',
            'SPATE_FAILPOINT("dfs.store_block");\n'
            '  SPATE_FAILPOINT("dfs.rogue");'))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("unregistered failpoint", stderr)
        self.assertIn("dfs.rogue", stderr)

    def test_dead_registry_entry_fails(self):
        write(self.root, "src/dfs/store.cc", SITE_USER.replace(
            '  SPATE_FAILPOINT("dfs.store_block");\n', ""))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("dead registry entry", stderr)

    def test_undeclared_failpoint_fails(self):
        write(self.root, "docs/FAILPOINTS.md", MANIFEST.replace(
            "dfs.store_block   src/dfs/store.cc StoreBlock entry\n", ""))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("undeclared failpoint", stderr)

    def test_stale_manifest_entry_fails(self):
        write(self.root, "docs/FAILPOINTS.md", MANIFEST.replace(
            "require dfs.",
            "dfs.gone_site   a site the registry no longer carries\n"
            "require dfs."))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("stale manifest entry", stderr)
        self.assertIn("dfs.gone_site", stderr)

    def test_uncovered_required_prefix_fails(self):
        write(self.root, "docs/FAILPOINTS.md", MANIFEST.replace(
            "require dfs.", "require dfs.\nrequire serve."))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("uncovered boundary", stderr)
        self.assertIn("serve.", stderr)

    def test_missing_manifest_fails_when_sites_exist(self):
        os.remove(os.path.join(self.root, "docs/FAILPOINTS.md"))
        code, stderr = run_failscan(self.root)
        self.assertEqual(code, 1)
        self.assertIn("manifest missing", stderr)


class LintSelfRepoTest(unittest.TestCase):
    def test_this_repo_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code, stderr = run_lint(repo)
        self.assertEqual(code, 0, stderr)

    def test_this_repo_passes_failscan(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code, stderr = run_failscan(repo)
        self.assertEqual(code, 0, stderr)


if __name__ == "__main__":
    unittest.main()
