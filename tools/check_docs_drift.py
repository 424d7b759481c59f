#!/usr/bin/env python3
"""Docs-drift guard: EngineConfig knobs named in docs must exist (stdlib only).

The serving docs reference engine knobs as `EngineConfig::<knob>` (and
`ServingResult.<counter>` / `ServingResult::<counter>`). When a knob is
renamed or removed, prose silently rots — this guard fails CI instead.
Every knob referenced anywhere in the given markdown files/dirs must
appear as an identifier in the corresponding header:

  EngineConfig::<name>  -> src/serve/engine_config.hpp
  ServingResult::<name> -> src/serve/serving_engine.hpp + trace_summary.hpp
  TraceSummary::<name>  -> src/serve/trace_summary.hpp
  ReplayMode / FastMemoryModel::<name> -> src/core/fast_replay.hpp
  ChipTimingModel::<name> -> src/core/chip.hpp
  ClusterTimingModel::<name> -> src/core/timing.hpp
  DmaEngine::<name>     -> src/mem/dma.hpp
  MemoryPath::<name>    -> src/mem/memory_path.hpp
  ResourceServer::<name> -> src/mem/resource_server.hpp
  SweepCase / SweepOptions / SweepOutcome::<name> -> src/serve/sweep.hpp
  ClusterConfig::<name> -> src/serve/cluster/cluster_config.hpp
  ClusterResult / ClusterOutcome::<name> -> src/serve/cluster/cluster_engine.hpp
    (ClusterResult also + src/serve/trace_summary.hpp)
  RouterPolicy::<name>  -> src/serve/cluster/router.hpp
  ChipLink::<name>      -> src/mem/memory_path.hpp
  KvPageAllocator::<name> -> src/serve/kv_pages.hpp
  GpuBackend / GpuSpec::<name> -> src/baselines/gpu_backend.hpp + gpu_model.hpp
  AdmissionContext::<name> -> src/serve/policy.hpp
  OffloadPolicy / OffloadContext::<name> -> src/serve/policy.hpp
  QualityPolicy / QualityContext::<name> -> src/serve/policy.hpp
  RequestRecord::<name> -> src/serve/request.hpp
  ConversationCache::<name> -> src/serve/conversation_cache.hpp
  PlacementPolicy / DemandWeightedPlacement / ModelDemand / PlacementContext
    / SchedulerPolicy / PrefillPlanner / BatchPolicy::<name> -> src/serve/policy.hpp
  PhaseScheduler::<name> -> src/core/phase_scheduler.hpp
  RequestQueue::<name>  -> src/serve/request_queue.hpp
  WeightResidencyTracker::<name> -> src/serve/residency_tracker.hpp
  CheckRegistry::<name> -> bench/bench_common.hpp

A struct that inherits its fields maps to its own header plus its base's.
Every mapped owner must itself still be declared (class / struct / enum)
in one of its headers, so a deleted type cannot leave its map entry —
and the doc references it checks — silently passing.

Every backticked repo path must also resolve on disk (glob patterns such
as `core/pipeline.*` must match at least one file), so a deleted file
cannot stay named in a table:

  src/…, tests/…, tools/…, perfbench/…, examples/…, docs/…, .github/…
                        -> that path under the repo root
  core/…, serve/…, …    -> src-relative: the path under src/
  bench/<name>, build/<name>
                        -> a binary: bench/<name>.cpp or examples/<name>.cpp
                           (bench/ paths that exist as files pass as-is)

Only the first word of an inline code span is read (`bench/serving_trace
--fast` names bench/serving_trace); fenced code blocks are skipped.

C++ sources (*.cpp / *.hpp) in the given directories are checked for
one thing: every markdown file a comment or string literal cites
(`docs/PAPER_MAP.md`, `README.md`) must exist, relative to the repo root
or to the citing file, so a comment cannot point readers at a document
that was never written.

Offline and dependency-free by design, like check_markdown_links.py.

Usage: tools/check_docs_drift.py README.md docs src bench [more files/dirs...]
Exit status: 0 when every referenced knob, path and cited document
exists, 1 otherwise.
"""

import glob
import os
import re
import sys

# Owner -> header, or a tuple of headers for a struct with a base.
HEADERS = {
    "EngineConfig": "src/serve/engine_config.hpp",
    "ServingResult": ("src/serve/serving_engine.hpp",
                      "src/serve/trace_summary.hpp"),
    "TraceSummary": "src/serve/trace_summary.hpp",
    "ReplayMode": "src/core/fast_replay.hpp",
    "FastMemoryModel": "src/core/fast_replay.hpp",
    "ChipTimingModel": "src/core/chip.hpp",
    "ClusterTimingModel": "src/core/timing.hpp",
    "DmaEngine": "src/mem/dma.hpp",
    "MemoryPath": "src/mem/memory_path.hpp",
    "ResourceServer": "src/mem/resource_server.hpp",
    "SweepCase": "src/serve/sweep.hpp",
    "SweepOptions": "src/serve/sweep.hpp",
    "SweepOutcome": "src/serve/sweep.hpp",
    "ClusterConfig": "src/serve/cluster/cluster_config.hpp",
    "ClusterResult": ("src/serve/cluster/cluster_engine.hpp",
                      "src/serve/trace_summary.hpp"),
    "ClusterOutcome": "src/serve/cluster/cluster_engine.hpp",
    "RouterPolicy": "src/serve/cluster/router.hpp",
    "ChipLink": "src/mem/memory_path.hpp",
    "KvPageAllocator": "src/serve/kv_pages.hpp",
    "GpuBackend": "src/baselines/gpu_backend.hpp",
    "GpuSpec": "src/baselines/gpu_model.hpp",
    "AdmissionContext": "src/serve/policy.hpp",
    "OffloadPolicy": "src/serve/policy.hpp",
    "OffloadContext": "src/serve/policy.hpp",
    "QualityPolicy": "src/serve/policy.hpp",
    "QualityContext": "src/serve/policy.hpp",
    "RequestRecord": "src/serve/request.hpp",
    "ConversationCache": "src/serve/conversation_cache.hpp",
    "PlacementPolicy": "src/serve/policy.hpp",
    "DemandWeightedPlacement": "src/serve/policy.hpp",
    "ModelDemand": "src/serve/policy.hpp",
    "PlacementContext": "src/serve/policy.hpp",
    "SchedulerPolicy": "src/serve/policy.hpp",
    "PrefillPlanner": "src/serve/policy.hpp",
    "BatchPolicy": "src/serve/policy.hpp",
    "PhaseScheduler": "src/core/phase_scheduler.hpp",
    "RequestQueue": "src/serve/request_queue.hpp",
    "WeightResidencyTracker": "src/serve/residency_tracker.hpp",
    "CheckRegistry": "bench/bench_common.hpp",
}

# `EngineConfig::knob` or `ServingResult::counter` for any owner above
# (also matched with a dot, as prose sometimes writes
# `ServingResult.rider_refetch_bytes`).
REF_RE = re.compile(r"\b(" + "|".join(HEADERS) + r")(?:::|\.)(\w+)")


FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
PATH_RE = re.compile(r"^[\w.*-]+(?:/[\w.*-]*)+$")
REPO_ROOTS = {"src", "tests", "tools", "perfbench", "examples", "docs",
              ".github"}
BINARY_ROOTS = {"bench", "build"}
SOURCE_EXTS = (".cpp", ".hpp")
# A // comment or a string literal, the only places a source cites a
# document (code such as `f.md` is a field access, not a citation).
COMMENT_OR_STRING_RE = re.compile(r'//[^\n]*|"(?:[^"\\\n]|\\.)*"')
MD_CITE_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")


def headers_of(owner: str) -> tuple:
    header = HEADERS[owner]
    return header if isinstance(header, tuple) else (header,)


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def collect_files(args):
    files = []
    for arg in args:
        if os.path.isdir(arg):
            for root, _dirs, names in os.walk(arg):
                files.extend(
                    os.path.join(root, n) for n in names
                    if n.endswith((".md",) + SOURCE_EXTS))
        else:
            files.append(arg)
    return sorted(set(files))


def header_code(paths: tuple) -> str:
    """The headers' text with // comments stripped — a knob renamed in
    code but still mentioned in a comment must not keep the old doc
    reference alive."""
    code = []
    for path in paths:
        with open(os.path.join(repo_root(), path), encoding="utf-8") as fh:
            code.append(re.sub(r"//[^\n]*", "", fh.read()))
    return "\n".join(code)


def declares(code: str, owner: str) -> bool:
    return re.search(
        r"\b(?:class|struct|enum(?:\s+class)?)\s+" + owner + r"\b",
        code) is not None


def path_resolves(path: str) -> bool:
    """True when a repo path named in the docs exists on disk; see the
    module docstring for the forms. Unknown first components (prose such
    as `a/b`) are not paths and pass."""
    root = repo_root()
    path = path.removeprefix("./")
    head, _, rest = path.partition("/")
    if head in BINARY_ROOTS:
        if head == "bench" and glob.glob(os.path.join(root, path)):
            return True
        if not rest:
            return head == "build"  # `build/` names the build directory
        return any(os.path.isfile(os.path.join(root, d, rest + ".cpp"))
                   for d in ("bench", "examples"))
    if head in REPO_ROOTS:
        base = root
    elif os.path.isdir(os.path.join(root, "src", head)):
        base = os.path.join(root, "src")
    else:
        return True
    return bool(glob.glob(os.path.join(base, path)))


def dangling_paths(path: str, text: str) -> list:
    failures = []
    for span in INLINE_CODE_RE.findall(FENCE_RE.sub("", text)):
        words = span.split()
        if words and PATH_RE.match(words[0]) and not path_resolves(words[0]):
            failures.append(f"{path}: `{words[0]}` does not resolve to a "
                            f"file in the repo (deleted or renamed?)")
    return failures


def dangling_citations(path: str, text: str) -> list:
    """Markdown files a source's comments or strings cite that exist
    neither under the repo root nor next to the source."""
    failures = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for part in COMMENT_OR_STRING_RE.findall(line):
            for cited in MD_CITE_RE.findall(part):
                if not any(os.path.isfile(os.path.join(base, cited))
                           for base in (repo_root(), os.path.dirname(path))):
                    failures.append(f"{path}:{lineno}: cites {cited}, which "
                                    f"does not exist")
    return failures


def check(files):
    codes = {owner: header_code(headers_of(owner)) for owner in HEADERS}
    failures = [
        f"{' + '.join(headers_of(owner))}: {owner} is mapped but no longer "
        f"declared there (stale HEADERS entry?)"
        for owner, code in codes.items() if not declares(code, owner)
    ]
    identifiers = {
        owner: set(re.findall(r"\b\w+\b", code))
        for owner, code in codes.items()
    }
    for path in files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(SOURCE_EXTS):
            failures.extend(dangling_citations(path, text))
            continue
        failures.extend(dangling_paths(path, text))
        for owner, name in REF_RE.findall(text):
            if name not in identifiers[owner]:
                failures.append(
                    f"{path}: {owner}::{name} is not declared in "
                    f"{' + '.join(headers_of(owner))} "
                    f"(renamed or removed knob?)")
    return failures


def main() -> int:
    args = sys.argv[1:]
    if not args:
        print(__doc__)
        return 2
    files = collect_files(args)
    missing = [f for f in files if not os.path.exists(f)]
    if missing:
        for f in missing:
            print(f"no such file: {f}")
        return 1
    failures = check(files)
    for failure in failures:
        print(failure)
    print(f"checked {len(files)} markdown and source files against "
          f"{', '.join(sorted({h for o in HEADERS for h in headers_of(o)}))} "
          f"and the repo tree: "
          f"{'OK' if not failures else f'{len(failures)} drifted reference(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
