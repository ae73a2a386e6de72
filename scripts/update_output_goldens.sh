#!/usr/bin/env bash
# Regenerates data/expected/out/*.txt, the stdout goldens of the
# deterministic paper benches and examples (ctest label output_golden).
#
#   bash scripts/update_output_goldens.sh [<build dir>]   # default: build
#
# Builds the benches and examples in <build dir>, then reruns every
# output_* ctest entry in update mode. Review the resulting diff like code:
# a changed golden is a changed paper figure.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-${ROOT}/build}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "${BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD}" -j "${JOBS}"
mkdir -p "${ROOT}/data/expected/out"
QMATCH_UPDATE_OUTPUT_GOLDENS=1 \
  ctest --test-dir "${BUILD}" -L output_golden --output-on-failure
git -C "${ROOT}" status --short -- data/expected/out
