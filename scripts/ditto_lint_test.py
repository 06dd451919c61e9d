#!/usr/bin/env python3
"""Self-test for scripts/ditto_lint.py (runs in ctest as `ditto_lint_test`).

Each check class gets a good fixture (must pass) and bad fixtures (must fail
with the expected message), built in a temp tree so the test is hermetic.
The real repo is linted too: the pinned configuration must hold on HEAD.
"""

import pathlib
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import ditto_lint  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class FixtureTree:
    """A throwaway src/ tree the checks can run against."""

    def __init__(self):
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="ditto_lint_test_"))

    def write(self, rel, text):
        path = self.dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return rel

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class LintTestCase(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    @property
    def root(self):
        return self.tree.dir


class WireStructTest(LintTestCase):
    GOOD = """
struct Frame { int a; int b; };
static_assert(std::is_trivially_copyable_v<Frame>, "wire");
static_assert(sizeof(Frame) == 8, "wire");
"""

    def test_good_fixture_passes(self):
        rel = self.tree.write("src/wire/frame.h", self.GOOD)
        errors = ditto_lint.check_wire_structs(self.root, [(rel, "Frame")])
        self.assertEqual(errors, [])

    def test_missing_trivially_copyable_assert_fails(self):
        rel = self.tree.write("src/wire/frame.h",
                              "struct Frame { int a; };\n"
                              "static_assert(sizeof(Frame) == 4);\n")
        errors = ditto_lint.check_wire_structs(self.root, [(rel, "Frame")])
        self.assertEqual(len(errors), 1)
        self.assertIn("is_trivially_copyable_v<Frame>", errors[0])

    def test_missing_size_assert_fails(self):
        rel = self.tree.write("src/wire/frame.h",
                              "struct Frame { int a; };\n"
                              "static_assert(std::is_trivially_copyable_v<Frame>);\n")
        errors = ditto_lint.check_wire_structs(self.root, [(rel, "Frame")])
        self.assertEqual(len(errors), 1)
        self.assertIn("sizeof(Frame)", errors[0])

    def test_missing_file_fails(self):
        errors = ditto_lint.check_wire_structs(self.root, [("src/gone.h", "Frame")])
        self.assertEqual(len(errors), 1)
        self.assertIn("file missing", errors[0])


class HotPathTest(LintTestCase):
    def check(self, required=None):
        return ditto_lint.check_hot_paths(self.root, required or {})

    def test_clean_region_passes(self):
        self.tree.write("src/a.cc", """
// ditto-lint: hot-path-begin(scan)
int Scan(const int* v, int n) {
  int sum = 0;
  for (int i = 0; i < n; ++i) sum += v[i];
  return sum;
}
// ditto-lint: hot-path-end(scan)
""")
        self.assertEqual(self.check(), [])

    def test_alloc_in_region_fails(self):
        for snippet, what in [
            ("auto* p = new int[8];", "operator new"),
            ("std::string s(\"x\");", "std::string construction"),
            ("v.push_back(1);", "push_back"),
            ("v.emplace_back(1);", "emplace_back"),
            ("v.resize(8);", "resize"),
            ("v.reserve(8);", "reserve"),
            ("auto s = std::to_string(8);", "std::to_string"),
            ("void* p = malloc(8);", "malloc family"),
            ("auto p = std::make_unique<int>(1);", "make_unique/make_shared"),
        ]:
            with self.subTest(snippet=snippet):
                tree = FixtureTree()
                try:
                    tree.write("src/a.cc",
                               "// ditto-lint: hot-path-begin(r)\n"
                               f"{snippet}\n"
                               "// ditto-lint: hot-path-end(r)\n")
                    errors = ditto_lint.check_hot_paths(tree.dir, {})
                    self.assertEqual(len(errors), 1, errors)
                    self.assertIn(what, errors[0])
                finally:
                    tree.cleanup()

    def test_string_view_is_not_flagged(self):
        self.tree.write("src/a.cc",
                        "// ditto-lint: hot-path-begin(r)\n"
                        "std::string_view s = in.substr(0, 4);\n"
                        "int news_count = 0;  // 'news_count' must not match new\n"
                        "// ditto-lint: hot-path-end(r)\n")
        self.assertEqual(self.check(), [])

    def test_alloc_outside_region_passes(self):
        self.tree.write("src/a.cc", "std::string s(\"cold path\");\n")
        self.assertEqual(self.check(), [])

    def test_allow_same_line_and_preceding_line(self):
        self.tree.write("src/a.cc", """
// ditto-lint: hot-path-begin(r)
v.push_back(1);  // ditto-lint: allow(alloc): capacity reused
// ditto-lint: allow(alloc): capacity reused
v.push_back(2);
// ditto-lint: hot-path-end(r)
""")
        self.assertEqual(self.check(), [])

    def test_allow_without_reason_fails(self):
        self.tree.write("src/a.cc",
                        "// ditto-lint: hot-path-begin(r)\n"
                        "v.push_back(1);  // ditto-lint: allow(alloc):\n"
                        "// ditto-lint: hot-path-end(r)\n")
        errors = self.check()
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("non-empty reason", errors[0])

    def test_unclosed_region_fails(self):
        self.tree.write("src/a.cc", "// ditto-lint: hot-path-begin(r)\nint x;\n")
        errors = self.check()
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("never closed", errors[0])

    def test_end_without_begin_fails(self):
        self.tree.write("src/a.cc", "// ditto-lint: hot-path-end(r)\n")
        errors = self.check()
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("without matching begin", errors[0])

    def test_required_region_missing_fails(self):
        self.tree.write("src/a.cc", "int x;\n")
        errors = ditto_lint.check_hot_paths(self.root, {"scan": "src/a.cc"})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("required region scan is missing", errors[0])

    def test_required_region_in_wrong_file_fails(self):
        self.tree.write("src/b.cc",
                        "// ditto-lint: hot-path-begin(scan)\n"
                        "// ditto-lint: hot-path-end(scan)\n")
        errors = ditto_lint.check_hot_paths(self.root, {"scan": "src/a.cc"})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("pinned to src/a.cc", errors[0])


class ReinterpretCastTest(LintTestCase):
    def test_exact_pin_passes(self):
        rel = self.tree.write("src/a.cc",
                              "auto* p = reinterpret_cast<char*>(q);\n"
                              "auto* r = reinterpret_cast<int*>(q);\n")
        errors = ditto_lint.check_reinterpret_casts(self.root, {rel: 2})
        self.assertEqual(errors, [])

    def test_new_cast_in_unlisted_file_fails(self):
        self.tree.write("src/a.cc", "auto* p = reinterpret_cast<char*>(q);\n")
        errors = ditto_lint.check_reinterpret_casts(self.root, {})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("not on the allowlist", errors[0])

    def test_count_above_pin_fails(self):
        rel = self.tree.write("src/a.cc",
                              "auto* p = reinterpret_cast<char*>(q);\n"
                              "auto* r = reinterpret_cast<int*>(q);\n")
        errors = ditto_lint.check_reinterpret_casts(self.root, {rel: 1})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("allowlist pins 1", errors[0])

    def test_stale_pin_fails(self):
        self.tree.write("src/a.cc", "int x;\n")
        errors = ditto_lint.check_reinterpret_casts(self.root, {"src/a.cc": 1})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("stale pin", errors[0])

    def test_cast_in_comment_is_ignored(self):
        self.tree.write("src/a.cc", "// reinterpret_cast would be wrong here\n")
        errors = ditto_lint.check_reinterpret_casts(self.root, {})
        self.assertEqual(errors, [])


class RpcHandlerTest(LintTestCase):
    GOOD = """
std::string S::HandleSet(std::string_view request) {
  if (request.size() < 16) {
    return std::string(1, '\\0');
  }
  Header h;
  std::memcpy(&h, request.data(), sizeof(h));
  return Do(h, request.substr(sizeof(h)));
}
"""
    BAD = """
std::string S::HandleSet(std::string_view request) {
  Header h;
  std::memcpy(&h, request.data(), sizeof(h));
  if (request.size() < 16) {
    return std::string(1, '\\0');
  }
  return Do(h, request.substr(sizeof(h)));
}
"""

    def test_validate_before_decode_passes(self):
        rel = self.tree.write("src/a.cc", self.GOOD)
        errors = ditto_lint.check_rpc_handlers(self.root, [(rel, "HandleSet")])
        self.assertEqual(errors, [])

    def test_decode_before_validate_fails(self):
        rel = self.tree.write("src/a.cc", self.BAD)
        errors = ditto_lint.check_rpc_handlers(self.root, [(rel, "HandleSet")])
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("decodes the payload before validating", errors[0])

    def test_no_validation_at_all_fails(self):
        rel = self.tree.write("src/a.cc", """
void S::HandleSet(std::string_view request) { Do(request); }
""")
        errors = ditto_lint.check_rpc_handlers(self.root, [(rel, "HandleSet")])
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("never validates", errors[0])

    def test_missing_handler_fails(self):
        rel = self.tree.write("src/a.cc", "int x;\n")
        errors = ditto_lint.check_rpc_handlers(self.root, [(rel, "HandleSet")])
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("not found", errors[0])


class RealRepoTest(unittest.TestCase):
    """The pinned configuration must hold on the real tree."""

    def test_repo_is_clean(self):
        errors = ditto_lint.run(REPO_ROOT)
        self.assertEqual(errors, [], "\n".join(errors))

    def test_per_verb_and_per_access_paths_sit_in_their_regions(self):
        # Every simulated verb, every FC-cache access and every client
        # Get/Set runs these functions; moving one out of its region would
        # drop it from the no-allocation check.
        expected = {
            "verb-post": ["Verbs::ChargeSignalled(", "Verbs::ChargeAsync(",
                          "Verbs::EnqueueBatched(", "Verbs::FlushBatch("],
            "fc-record": ["FcCache::RecordAccess(", "FcCache::FlushEntry(",
                          "FcCache::FlushAged(", "FcCache::EvictOldest("],
            "client-get": ["DittoClient::Get("],
            "client-set": ["DittoClient::AllocEvicting(", "DittoClient::Set("],
        }
        for name, functions in expected.items():
            with self.subTest(region=name):
                text = (REPO_ROOT / ditto_lint.REQUIRED_HOT_PATHS[name]).read_text()
                begin = text.index(f"ditto-lint: hot-path-begin({name})")
                end = text.index(f"ditto-lint: hot-path-end({name})")
                for fn in functions:
                    at = text.find(fn)
                    self.assertTrue(begin < at < end, f"{fn} is outside region {name}")

    def test_pinned_cast_budget_is_seven(self):
        # The whole point of the pin: growing it is a reviewed decision.
        self.assertEqual(sum(ditto_lint.ALLOWED_REINTERPRET_CASTS.values()), 7)


if __name__ == "__main__":
    unittest.main(verbosity=2)
