#!/usr/bin/env python3
"""Repo-invariant linter for the Ditto codebase (runs in ctest as `ditto_lint`).

Four machine-checked invariants that code review kept re-litigating:

1. wire-structs   Every struct that is memcpy'd to/from a wire or arena
                  layout must pin its ABI with two static_asserts
                  (trivially-copyable + sizeof). The struct list is pinned
                  below: adding a wire struct means adding it here too.

2. hot-paths      Regions bracketed by `// ditto-lint: hot-path-begin(name)`
                  / `hot-path-end(name)` must not allocate: no std::string
                  construction, no new/make_unique/make_shared/malloc, no
                  push_back/emplace_back/resize/reserve, no std::to_string.
                  A line may opt out with
                  `// ditto-lint: allow(alloc): <non-empty reason>` on the
                  same or the immediately preceding line. The regions
                  named in REQUIRED_HOT_PATHS must exist — deleting a marker
                  does not silence the check.

3. casts          reinterpret_cast appears only at the pinned sites below
                  (exact per-file counts). A new cast anywhere — or a removed
                  one leaving the pin stale — is an error; the fix is a
                  reviewed edit of ALLOWED_REINTERPRET_CASTS.

4. rpc-handlers   Every RPC handler must validate request.size() before the
                  first decode (memcpy / substr) of the payload. The handler
                  list is pinned below; registering a new RPC means adding
                  its handler here.

Exit status: 0 clean, 1 findings (printed one per line as file:line: message).
"""

import argparse
import pathlib
import re
import sys

# --- pinned repo facts ----------------------------------------------------

# (relative file, struct name): both asserts must appear in the file.
WIRE_STRUCTS = [
    ("src/hashtable/layout.h", "SlotView"),
    ("src/core/object.h", "ObjectHeader"),
    ("src/net/resp.h", "RespReply"),
]

# region name -> relative file that must contain it.
REQUIRED_HOT_PATHS = {
    "slot-scan": "src/hashtable/layout.h",
    "op-dispatch": "src/sim/runner.cc",
    "resp-parse": "src/net/resp.cc",
    "arena-copy": "src/rdma/arena.h",
    "migrate-copy": "src/core/cluster.cc",
    "pipeline-window": "src/sim/pipeline_window.h",
    "conn-issue": "src/net/connection.cc",
    "request-policy": "src/sim/request_policy.h",
    "verb-post": "src/rdma/verbs.h",
    "fc-record": "src/core/fc_cache.cc",
    "client-get": "src/core/ditto_client.cc",
    "client-set": "src/core/ditto_client.cc",
}

# relative file -> exact number of reinterpret_cast tokens allowed.
# Today's seven: sockaddr casts at the socket boundary (3), the arena's
# edge-word byte views (2), and the object decoder's ext/key views (2).
ALLOWED_REINTERPRET_CASTS = {
    "src/net/server.cc": 2,
    "src/net/loadgen.cc": 1,
    "src/rdma/arena.h": 2,
    "src/core/object.h": 2,
}

# (relative file, handler name): the handler body must check request.size()
# before its first memcpy/substr of the payload. HandleDelete (cliquemap) is
# absent on purpose: its whole payload is the key, any length is valid.
RPC_HANDLERS = [
    ("src/dm/pool.cc", "HandleResize"),
    ("src/dm/pool.cc", "HandleAllocSegment"),
    ("src/core/adaptive.cc", "HandleUpdate"),
    ("src/baselines/cliquemap.cc", "HandleSet"),
    ("src/baselines/cliquemap.cc", "HandleSync"),
    ("src/baselines/cliquemap.cc", "HandleExpire"),
    ("src/baselines/cliquemap.cc", "HandleResize"),
]

# --- hot-path machinery ---------------------------------------------------

BANNED_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"std::string\b"), "std::string construction"),
    (re.compile(r"std::to_string\b"), "std::to_string"),
    (re.compile(r"\.push_back\s*\(|->push_back\s*\("), "push_back"),
    (re.compile(r"\.emplace_back\s*\(|->emplace_back\s*\("), "emplace_back"),
    (re.compile(r"\.resize\s*\(|->resize\s*\("), "resize"),
    (re.compile(r"\.reserve\s*\(|->reserve\s*\("), "reserve"),
    (re.compile(r"\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("), "malloc family"),
    (re.compile(r"\bmake_unique\s*<|\bmake_shared\s*<"), "make_unique/make_shared"),
]

BEGIN_RE = re.compile(r"//\s*ditto-lint:\s*hot-path-begin\(([A-Za-z0-9_-]+)\)")
END_RE = re.compile(r"//\s*ditto-lint:\s*hot-path-end\(([A-Za-z0-9_-]+)\)")
ALLOW_RE = re.compile(r"//\s*ditto-lint:\s*allow\(alloc\)\s*:\s*(\S.*)?$")
CAST_RE = re.compile(r"\breinterpret_cast\b")


def strip_comment(line):
    """Drops a trailing // comment (naive: fine for this codebase, which has
    no // inside string literals on hot paths)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def iter_source_files(root):
    for pattern in ("src/**/*.h", "src/**/*.cc"):
        yield from sorted(root.glob(pattern))


def rel(root, path):
    return path.relative_to(root).as_posix()


def check_wire_structs(root, wire_structs=None, errors=None):
    errors = errors if errors is not None else []
    for rel_path, struct in (wire_structs if wire_structs is not None else WIRE_STRUCTS):
        path = root / rel_path
        if not path.is_file():
            errors.append(f"{rel_path}:1: wire-structs: file missing (pinned for {struct})")
            continue
        text = path.read_text()
        if not re.search(r"static_assert\s*\(\s*std::is_trivially_copyable_v<\s*" +
                         re.escape(struct) + r"\s*>", text):
            errors.append(f"{rel_path}:1: wire-structs: {struct} lacks a "
                          f"static_assert(std::is_trivially_copyable_v<{struct}>...)")
        if not re.search(r"static_assert\s*\(\s*sizeof\s*\(\s*" + re.escape(struct) +
                         r"\s*\)\s*==", text):
            errors.append(f"{rel_path}:1: wire-structs: {struct} lacks a "
                          f"static_assert(sizeof({struct}) == ...)")
    return errors


def check_hot_paths(root, required=None, errors=None):
    errors = errors if errors is not None else []
    required = dict(required if required is not None else REQUIRED_HOT_PATHS)
    seen = {}  # name -> rel file
    for path in iter_source_files(root):
        lines = path.read_text().splitlines()
        rel_path = rel(root, path)
        open_region = None  # (name, begin_lineno)
        for lineno, line in enumerate(lines, start=1):
            begin = BEGIN_RE.search(line)
            end = END_RE.search(line)
            if begin:
                if open_region is not None:
                    errors.append(f"{rel_path}:{lineno}: hot-paths: begin({begin.group(1)}) "
                                  f"inside unclosed region {open_region[0]}")
                open_region = (begin.group(1), lineno)
                if begin.group(1) in seen:
                    errors.append(f"{rel_path}:{lineno}: hot-paths: duplicate region "
                                  f"{begin.group(1)} (also in {seen[begin.group(1)]})")
                seen[begin.group(1)] = rel_path
                continue
            if end:
                if open_region is None or open_region[0] != end.group(1):
                    errors.append(f"{rel_path}:{lineno}: hot-paths: end({end.group(1)}) "
                                  f"without matching begin")
                open_region = None
                continue
            if open_region is None:
                continue
            allowed_here = ALLOW_RE.search(line) or (
                lineno >= 2 and ALLOW_RE.search(lines[lineno - 2]))
            code = strip_comment(line)
            for pattern, what in BANNED_ALLOC_PATTERNS:
                if not pattern.search(code):
                    continue
                if allowed_here:
                    if not allowed_here.group(1):
                        errors.append(f"{rel_path}:{lineno}: hot-paths: allow(alloc) "
                                      f"needs a non-empty reason")
                    break  # one allow covers the line
                errors.append(f"{rel_path}:{lineno}: hot-paths: {what} in hot-path "
                              f"region {open_region[0]}")
        if open_region is not None:
            errors.append(f"{rel_path}:{open_region[1]}: hot-paths: region "
                          f"{open_region[0]} never closed")
    for name, rel_path in required.items():
        if name not in seen:
            errors.append(f"{rel_path}:1: hot-paths: required region {name} is missing")
        elif seen[name] != rel_path:
            errors.append(f"{seen[name]}:1: hot-paths: region {name} pinned to "
                          f"{rel_path} but found here")
    return errors


def check_reinterpret_casts(root, allowed=None, errors=None):
    errors = errors if errors is not None else []
    allowed = dict(allowed if allowed is not None else ALLOWED_REINTERPRET_CASTS)
    counts = {}
    first_line = {}
    for path in iter_source_files(root):
        rel_path = rel(root, path)
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            hits = len(CAST_RE.findall(strip_comment(line)))
            if hits:
                counts[rel_path] = counts.get(rel_path, 0) + hits
                first_line.setdefault(rel_path, lineno)
    for rel_path, count in sorted(counts.items()):
        want = allowed.get(rel_path)
        if want is None:
            errors.append(f"{rel_path}:{first_line[rel_path]}: casts: reinterpret_cast in a "
                          f"file not on the allowlist ({count} found)")
        elif count != want:
            errors.append(f"{rel_path}:{first_line[rel_path]}: casts: {count} "
                          f"reinterpret_casts but the allowlist pins {want} "
                          f"(update ALLOWED_REINTERPRET_CASTS in a reviewed change)")
    for rel_path, want in sorted(allowed.items()):
        if rel_path not in counts:
            errors.append(f"{rel_path}:1: casts: allowlist pins {want} reinterpret_casts "
                          f"but the file has none (stale pin)")
    return errors


def extract_function_body(text, name):
    """Returns (body, start_lineno) of `name(std::string_view request...)`,
    or (None, 0). Brace-matched from the signature's opening brace."""
    sig = re.search(r"\b" + re.escape(name) + r"\s*\(\s*std::string_view\s+request\b",
                    text)
    if sig is None:
        return None, 0
    brace = text.find("{", sig.end())
    if brace < 0:
        return None, 0
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[brace:i + 1], text.count("\n", 0, sig.start()) + 1
    return None, 0


def check_rpc_handlers(root, handlers=None, errors=None):
    errors = errors if errors is not None else []
    for rel_path, name in (handlers if handlers is not None else RPC_HANDLERS):
        path = root / rel_path
        if not path.is_file():
            errors.append(f"{rel_path}:1: rpc-handlers: file missing (pinned for {name})")
            continue
        body, lineno = extract_function_body(path.read_text(), name)
        if body is None:
            errors.append(f"{rel_path}:1: rpc-handlers: handler {name} not found "
                          f"(signature must take std::string_view request)")
            continue
        code = "\n".join(strip_comment(l) for l in body.splitlines())
        decode = re.search(r"memcpy\s*\(|request\.substr\s*\(", code)
        check = re.search(r"request\.size\s*\(\s*\)", code)
        if decode and (check is None or check.start() > decode.start()):
            errors.append(f"{rel_path}:{lineno}: rpc-handlers: {name} decodes the payload "
                          f"before validating request.size()")
        elif decode is None and check is None:
            errors.append(f"{rel_path}:{lineno}: rpc-handlers: {name} never validates "
                          f"request.size()")
    return errors


ALL_CHECKS = [check_wire_structs, check_hot_paths, check_reinterpret_casts,
              check_rpc_handlers]


def run(root):
    errors = []
    for check in ALL_CHECKS:
        check(root, errors=errors)
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout containing this script)")
    args = parser.parse_args(argv)
    errors = run(args.root.resolve())
    for err in errors:
        print(err)
    if errors:
        print(f"ditto_lint: {len(errors)} finding(s)", file=sys.stderr)
        return 1
    print("ditto_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
