#!/usr/bin/env bash
# Header self-containment gate: every public header under src/ must compile as
# the FIRST include of a translation unit. Headers that lean on what a previous
# include happened to drag in break IWYU-style refactors and — the concrete
# trigger for this gate — thread-safety-annotation sweeps, where adding
# support/thread_annotations.h to one header must not uncover a missing
# <atomic> or <cstdint> three includes away.
#
# Usage: scripts/header_selfcontain.sh [compiler]
#   compiler defaults to $CXX, then c++. Exit 0 when every header passes,
#   1 otherwise (each failing header's first diagnostics are printed).
#
# The TU is compiled with the same standard as the build; syntax only, so the
# gate runs in seconds with no build tree.
set -u

cd "$(dirname "$0")/.."
compiler="${1:-${CXX:-c++}}"

fails=0
checked=0
for header in $(find src -name '*.h' | sort); do
  checked=$((checked + 1))
  if ! printf '#include "%s"\n' "${header#src/}" |
    "$compiler" -std=c++20 -fsyntax-only -x c++ -I src \
      - 2>/tmp/header_selfcontain_err.$$; then
    fails=$((fails + 1))
    echo "NOT SELF-CONTAINED: $header"
    head -n 12 /tmp/header_selfcontain_err.$$ | sed 's/^/    /'
  fi
done
rm -f /tmp/header_selfcontain_err.$$

echo "header_selfcontain: $checked header(s) checked, $fails failure(s)"
[ "$fails" -eq 0 ]
