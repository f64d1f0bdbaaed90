#!/usr/bin/env python3
"""Project lint: repo-specific invariants the generic tools cannot express.

Rules (see README "Static analysis"):

  R1  src/serve/ never CAMAL_CHECKs request-derived input. A malformed
      request must come back as a Status through the submitter's future;
      an abort on caller data is a denial-of-service primitive. Heuristic:
      a CAMAL_CHECK* whose condition mentions a `request` expression.
  R2  No naked `new` in src/. Allocation goes through containers,
      make_unique/make_shared, or nn::Tensor's aligned allocator. The rare
      justified site carries `lint: new-ok(<reason>)` in a trailing or
      preceding comment.
  R3  No std::mutex / std::lock_guard / std::unique_lock / std::scoped_lock
      / std::condition_variable outside src/common/mutex.h. Clang Thread
      Safety Analysis cannot see through the unannotated std types, so one
      stray std::lock_guard silently exempts its critical section from the
      -Werror=thread-safety proof.
  R4  CAMAL_NO_THREAD_SAFETY_ANALYSIS is an escape hatch, not a default:
      every use carries `lint: tsa-off(<reason>)`.
  R5  Every bench/bench_*.cc that writes a machine-readable artifact
      (WriteTextFile / *.json) names it BENCH_*.json, so CI's artifact
      steps and humans grepping bench_results/ can rely on the convention.
  R6  Durable files in src/serve/ and src/data/ are written through
      WriteFileAtomic / AtomicFileWriter (common/atomic_file.h), never a
      naked fopen-for-write: a process dying between fopen("w") and
      fclose leaves a torn file where a reader expects a complete
      snapshot — the crash the checkpoint format exists to rule out.
      Heuristic: fopen with a "w"/"a" mode string in those layers. The
      rare justified site carries `lint: fopen-ok(<reason>)`.
  R7  No public API only tests use: every src/**/*.h is #included by some
      file other than its own .cc — elsewhere in src/, or in bench/,
      examples/ or servebench/ (tests/ does not count). A header kept on
      purpose carries `lint: test-only-ok(<reason>)` anywhere in it.

Suppressions are per-line and must name a reason; a bare marker fails.
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SUPPRESS_RE = re.compile(r"lint:\s*(?P<rule>[a-z-]+)-ok\((?P<reason>[^)]+)\)")
TSA_OFF_RE = re.compile(r"lint:\s*tsa-off\((?P<reason>[^)]+)\)")

STD_LOCK_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
)
CHECK_REQUEST_RE = re.compile(r"CAMAL_CHECK\w*\s*\(.*\brequest\b")
# Matched against the RAW line (the stripper blanks string contents, and
# the mode lives in a string literal).
FOPEN_WRITE_RE = re.compile(r"\bfopen\s*\([^;]*\"[wa][b+]*\"")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(?P<path>[^"]+)"', re.MULTILINE)
# Directories whose includes make a src/ header part of the used API.
API_USER_DIRS = ("src", "bench", "examples", "servebench")
NAKED_NEW_RE = re.compile(r"(?<![:\w])new\b(?!\s*\()")  # `::new (` = placement
OPERATOR_NEW_RE = re.compile(r"operator\s+new\b")
PLACEMENT_NEW_RE = re.compile(r"::\s*new\s*\(")


def strip_comments_and_strings(text: str) -> list[str]:
    """Returns code lines with comments and string/char literals blanked.

    Keeps line structure (1 output line per input line) so findings carry
    real line numbers. A conservative scanner: handles // and block
    comments, double/single-quoted literals with escapes; raw strings are
    rare enough here to treat like plain ones.
    """
    out = []
    in_block = False
    for line in text.splitlines():
        buf = []
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                buf.append(quote)
                i += 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


def has_suppression(raw_lines: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) or one of the two lines above carries
    rule-ok(...) — two, because a multi-line statement may put the flagged
    token one line below where the comment reads naturally."""
    for j in (idx, idx - 1, idx - 2):
        if 0 <= j < len(raw_lines):
            m = SUPPRESS_RE.search(raw_lines[j])
            if m and m.group("rule") == rule and m.group("reason").strip():
                return True
    return False


def main() -> int:
    findings = []

    def finding(path: Path, lineno: int, rule: str, message: str) -> None:
        rel = path.relative_to(REPO)
        findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    src_files = sorted(
        p for p in (REPO / "src").rglob("*") if p.suffix in {".h", ".cc", ".inc"}
    )
    for path in src_files:
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text())
        in_serve = "src/serve" in path.as_posix()
        in_durable_layer = in_serve or "src/data" in path.as_posix()
        is_mutex_header = path.as_posix().endswith("src/common/mutex.h")

        for idx, line in enumerate(code):
            lineno = idx + 1
            if line.lstrip().startswith("#"):
                continue  # preprocessor (e.g. `#include <new>`)
            if in_serve and CHECK_REQUEST_RE.search(line):
                if not has_suppression(raw, idx, "check"):
                    finding(
                        path, lineno, "R1",
                        "CAMAL_CHECK on request-derived input in src/serve/ "
                        "(return a Status instead; a malformed request must "
                        "not abort the server)")
            if (NAKED_NEW_RE.search(line)
                    and not OPERATOR_NEW_RE.search(line)
                    and not PLACEMENT_NEW_RE.search(line)):
                if not has_suppression(raw, idx, "new"):
                    finding(
                        path, lineno, "R2",
                        "naked `new` (use containers/make_unique, or mark "
                        "the site `lint: new-ok(reason)`)")
            if not is_mutex_header and STD_LOCK_RE.search(line):
                finding(
                    path, lineno, "R3",
                    "raw std lock primitive outside common/mutex.h (use "
                    "camal::Mutex/MutexLock/CondVar so clang thread-safety "
                    "analysis covers the critical section)")
            if (in_durable_layer and "fopen" in line
                    and FOPEN_WRITE_RE.search(raw[idx])):
                if not has_suppression(raw, idx, "fopen"):
                    finding(
                        path, lineno, "R6",
                        "naked fopen-for-write on a persisted path (write "
                        "through WriteFileAtomic/AtomicFileWriter so a "
                        "crash cannot leave a torn file, or mark the site "
                        "`lint: fopen-ok(reason)`)")
            if "CAMAL_NO_THREAD_SAFETY_ANALYSIS" in line and \
                    "define" not in line:
                if not any(TSA_OFF_RE.search(raw[j])
                           for j in (idx, idx - 1) if 0 <= j < len(raw)):
                    finding(
                        path, lineno, "R4",
                        "thread-safety escape hatch without a "
                        "`lint: tsa-off(reason)` justification")

    includers: dict[str, set[Path]] = {}
    for top in API_USER_DIRS:
        for path in (REPO / top).rglob("*"):
            if path.suffix not in {".h", ".cc", ".cpp", ".inc"}:
                continue
            for m in INCLUDE_RE.finditer(path.read_text()):
                includers.setdefault(m.group("path"), set()).add(path)
    for path in src_files:
        if path.suffix != ".h":
            continue
        rel = path.relative_to(REPO / "src").as_posix()
        users = includers.get(rel, set()) - {path.with_suffix(".cc")}
        if users:
            continue
        if not any(m.group("rule") == "test-only" and m.group("reason").strip()
                   for m in SUPPRESS_RE.finditer(path.read_text())):
            finding(
                path, 1, "R7",
                "header is included only by its own .cc or by tests (delete "
                "the test-only API, or mark the header "
                "`lint: test-only-ok(reason)`)")

    for path in sorted((REPO / "bench").glob("bench_*.cc")):
        text = path.read_text()
        emits = "WriteTextFile" in text or ".json" in text
        if emits and not re.search(r"BENCH_\w+\.json", text):
            finding(
                path, 1, "R5",
                "bench emits a machine-readable artifact but names no "
                "BENCH_*.json file")

    if findings:
        print(f"check_invariants: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        return 1
    print(f"check_invariants: clean ({len(src_files)} src files, "
          f"{len(list((REPO / 'bench').glob('bench_*.cc')))} benches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
