#!/usr/bin/env python3
"""Docs-drift guard: the types, members, paths and documents the docs name must exist (stdlib only).

The docs reference code as `Owner::member` (or `Owner.member`), e.g.
`EngineConfig::kv_page_bytes` or `ServingResult.rider_refetch_bytes`.
When a member is renamed or removed, prose silently rots — this guard
fails CI instead. The owner -> header map is derived, not kept by hand:
every class, struct or enum defined (not just forward-declared) in
src/**/*.hpp or bench/*.hpp maps to its header, plus the headers of its
bases, so a struct that inherits its fields is checked against both.
Every `Owner::member` in the given markdown files/dirs whose owner is
such a type must name an identifier of that code (// comments stripped,
so a member that survives only in a comment does not count). A
capitalised `Owner::member` whose owner is defined nowhere fails too: a
deleted type cannot stay named in the docs.

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
Exit status: 0 when every referenced type, member, path and cited
document exists, 1 otherwise.
"""

import glob
import os
import re
import sys

# Headers whose type definitions form the owner map.
HEADER_GLOBS = ("src/**/*.hpp", "bench/*.hpp")
# `class X {`, `struct X final : public Base {`, `enum class X : T {` —
# a definition; a forward declaration (`class X;`) has no body.
DEFINITION_RE = re.compile(
    r"\b(?:class|struct|enum(?:\s+class)?)\s+(\w+)(?:\s+final)?"
    r"\s*(?::\s*([^{;()]*))?\{")
# `Owner::member` or `Owner.member` (prose sometimes writes
# `ServingResult.rider_refetch_bytes`).
REF_RE = re.compile(r"\b([A-Za-z_]\w*)(::|\.)(\w+)")


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


def strip_comments(code: str) -> str:
    return re.sub(r"//[^\n]*", "", code)


def owner_headers() -> dict:
    """Type name -> the headers that define it or one of its bases,
    relative to the repo root."""
    root = repo_root()
    defined = {}  # name -> set of headers defining it
    bases = {}    # name -> set of base names
    for pattern in HEADER_GLOBS:
        for path in glob.glob(os.path.join(root, pattern), recursive=True):
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as fh:
                code = strip_comments(fh.read())
            for name, base_list in DEFINITION_RE.findall(code):
                defined.setdefault(name, set()).add(rel)
                for base in base_list.split(","):
                    words = re.findall(r"\w+", base)
                    if words:
                        bases.setdefault(name, set()).add(words[-1])

    def closure(name, seen):
        headers = set(defined.get(name, ()))
        for base in bases.get(name, ()):
            if base in defined and base not in seen:
                headers |= closure(base, seen | {base})
        return headers

    return {name: sorted(closure(name, {name})) for name in defined}


def header_identifiers(headers: list, cache: dict) -> set:
    names = set()
    for header in headers:
        if header not in cache:
            with open(os.path.join(repo_root(), header),
                      encoding="utf-8") as fh:
                cache[header] = set(re.findall(r"\b\w+\b",
                                               strip_comments(fh.read())))
        names |= cache[header]
    return names


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


def check(files, owners):
    cache = {}
    failures = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(SOURCE_EXTS):
            failures.extend(dangling_citations(path, text))
            continue
        failures.extend(dangling_paths(path, text))
        for owner, sep, name in REF_RE.findall(text):
            if owner in owners:
                if name not in header_identifiers(owners[owner], cache):
                    failures.append(
                        f"{path}: {owner}::{name} is not declared in "
                        f"{' + '.join(owners[owner])} "
                        f"(renamed or removed member?)")
            elif sep == "::" and owner[0].isupper():
                failures.append(
                    f"{path}: {owner}::{name} names a type defined in no "
                    f"header (renamed or removed type?)")
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
    owners = owner_headers()
    failures = check(files, owners)
    for failure in failures:
        print(failure)
    print(f"checked {len(files)} markdown and source files against "
          f"{len(owners)} types in {', '.join(HEADER_GLOBS)} and the repo "
          f"tree: "
          f"{'OK' if not failures else f'{len(failures)} drifted reference(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
