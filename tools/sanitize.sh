#!/usr/bin/env bash
# ASan+UBSan build-and-ctest, the sanitized half of the tier-1 verify flow:
#   tools/sanitize.sh [ctest-args...]
# Builds into build-asan/ (separate from the normal build/) and runs the
# full suite under both sanitizers and libstdc++'s assertions, failing on
# any report.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFATIH_SANITIZE=ON
cmake --build build-asan -j"$(nproc)"
cd build-asan
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --output-on-failure -j"$(nproc)" "$@"
