#!/usr/bin/env bash
# The repository's benchmark, in one command.
#
#   bash benchmark/run.sh                  every workload, untraced then traced;
#                                          prints `workload metric value unit`,
#                                          writes benchmark/out/latest.json and
#                                          exits non-zero if anything failed
#   bash benchmark/run.sh --repeat-check   the untraced set twice, compared
#   bash benchmark/run.sh --spread-check   two rounds of ten seeds, compared
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one workload; the last line printed
#                                          is its JSON result
#
# Builds the package in this directory from source first (offline; every
# dependency is a path inside the repository) and times that build.  Writes
# only below benchmark/out and the cargo target directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
build_started=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
build_ms=$((($(date +%s%N) - build_started) / 1000000))
build_s=$(printf '%d.%03d' $((build_ms / 1000)) $((build_ms % 1000)))
echo "build ${build_s} s" >&2

exec "$target/release/selfheal-benchmark" --build-s "$build_s" "$@"
