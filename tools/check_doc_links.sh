#!/usr/bin/env bash
# Checks that every relative markdown link in README.md and docs/*.md
# points at an existing file or directory (anchors and absolute URLs are
# ignored), that every backticked source file or bench/example/tool
# program the docs name still exists, that every source file a code
# comment names still exists, and prints the example targets the docs
# mention so CI can build exactly what the documentation promises.
#
# Usage: tools/check_doc_links.sh [--list-doc-examples]
#   (exit 1 on the first broken link; with --list-doc-examples, also
#    print the deduplicated example target names found in the docs)

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
docs=(README.md docs/*.md)

for doc in "${docs[@]}"; do
  dir=$(dirname "$doc")
  # Inline markdown links: [text](target), outside fenced code blocks
  # (lambda-introducers in C++ snippets would otherwise look like
  # links). Reference-style links are not used in this repository.
  prose=$(awk '/^```/ { fenced = !fenced; next } !fenced' "$doc")
  while IFS= read -r target; do
    # Strip a trailing anchor; skip pure anchors and absolute URLs.
    path=${target%%#*}
    [[ -z "$path" ]] && continue
    case "$path" in
      http://*|https://*|mailto:*) continue ;;
    esac
    # Resolve relative to the containing file, falling back to the repo
    # root (used for src/... pointers in docs/).
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN LINK: $doc -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' <<<"$prose" | sed -E 's/^\]\(//; s/\)$//')
done

# Keep the docs' code pointers honest too: every `path/file.{cpp,hpp,md,sh}`
# mentioned in backticks must exist, either repo-relative or under src/
# (headers are cited by include path, e.g. `api/engine.hpp`).
while IFS= read -r ref; do
  if [[ ! -e "$ref" && ! -e "src/$ref" ]]; then
    echo "STALE FILE REFERENCE: $ref (mentioned in README.md/docs)" >&2
    fail=1
  fi
done < <(grep -ohE '`[A-Za-z0-9_./-]+\.(cpp|hpp|md|sh)`' "${docs[@]}" \
           | tr -d '`' | grep '/' | sort -u)

# Programs are cited by target name too (`bench/micro_server`,
# `tools/dlapd`): each must still have its source, <name>.cpp or <name>.sh.
while IFS= read -r ref; do
  if [[ ! -e "$ref.cpp" && ! -e "$ref.sh" ]]; then
    echo "STALE PROGRAM REFERENCE: $ref (mentioned in README.md/docs)" >&2
    fail=1
  fi
done < <(grep -ohE '`(bench|examples|tools)/[A-Za-z0-9_]+`' "${docs[@]}" \
           | tr -d '`' | sort -u)

# Code comments point at sources too: every path to a .hpp or .cpp file
# that a comment under src/, bench/, tests/, examples/ or tools/ names
# must exist, repo-relative or under src/, tests/ or bench/ (the include
# roots, e.g. `api/engine.hpp`).
code_dirs=(src bench tests examples tools)
while IFS= read -r ref; do
  if [[ ! -e "$ref" && ! -e "src/$ref" && ! -e "tests/$ref" &&
        ! -e "bench/$ref" ]]; then
    echo "STALE CODE POINTER: $ref (named in a comment under" \
         "${code_dirs[*]})" >&2
    fail=1
  fi
done < <({ grep -rhoE '//.*' --include='*.cpp' --include='*.hpp' \
             "${code_dirs[@]}"
           grep -rhoE '#.*' --include='*.sh' "${code_dirs[@]}"; } \
           | grep -oE '[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)+\.(hpp|cpp)' \
           | sort -u)

if [[ "${1:-}" == "--list-doc-examples" ]]; then
  grep -ohE 'examples/[A-Za-z0-9_]+\.cpp' "${docs[@]}" \
    | sed -E 's#examples/##; s#\.cpp##' | sort -u
fi

if [[ $fail -ne 0 ]]; then
  echo "documentation link check FAILED" >&2
  exit 1
fi
echo "documentation link check OK" >&2
