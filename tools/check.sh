#!/bin/sh
# Project correctness gate: octo_lint + the registry/schema sync tests, a
# build of the stand-alone perfbench driver, plus clang-tidy over src/ when
# available.  Run from anywhere:
#
#   tools/check.sh [BUILD_DIR]      # default build dir: ./build
#
# Exits nonzero on the first failing stage.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [ ! -d "$build_dir" ]; then
  echo "check.sh: build dir $build_dir missing — configure first:" >&2
  echo "  cmake -B $build_dir -S $repo_root" >&2
  exit 2
fi

echo "== octo_lint =="
cmake --build "$build_dir" --target octo_lint -- -j >/dev/null
"$build_dir/tools/octo_lint" --root "$repo_root"

echo "== registry / schema sync tests =="
cmake --build "$build_dir" --target lint_test metrics_test -- -j >/dev/null
"$build_dir/tests/lint_test" --gtest_brief=1
"$build_dir/tests/metrics_test" \
  --gtest_filter='Metrics.SchemaMatchesCsvJsonlAndDocs' --gtest_brief=1

# perfbench/ compiles ../src directly with its own CMake tree and is not
# part of the build above, so a src/ API change that breaks it fails here.
echo "== perfbench build =="
perfbench_build="$build_dir/perfbench-check"
cmake -S "$repo_root/perfbench" -B "$perfbench_build" >/dev/null
cmake --build "$perfbench_build" --parallel 4 >/dev/null

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (bugprone/concurrency/performance) =="
  tidy_build="$repo_root/build-tidy"
  cmake -B "$tidy_build" -S "$repo_root" -DOCTO_CLANG_TIDY=ON \
    -DOCTO_ENABLE_TESTS=OFF -DOCTO_ENABLE_BENCH=OFF \
    -DOCTO_ENABLE_EXAMPLES=OFF >/dev/null
  cmake --build "$tidy_build" -- -j
else
  echo "== clang-tidy not installed: skipped =="
fi

echo "check.sh: all stages passed"
