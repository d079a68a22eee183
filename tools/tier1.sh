#!/usr/bin/env sh
# tier1.sh — the repo's tier-1 verification gate in one command.
#
# Configures and builds the tree (warnings-as-errors), runs the ceres_lint
# static-analysis gate, runs the full test suite, then runs the serve and
# chaos labels explicitly (they cover the online service and the
# fault-injection paths and must never be skipped by label filters).
#
#   tools/tier1.sh                     # regular build in ./build
#   CERES_SANITIZE=ON tools/tier1.sh   # address+UB sanitized build in
#                                      # ./build-asan (slower, catches
#                                      # memory errors on corrupt input)
#   CERES_SANITIZE=thread tools/tier1.sh
#                                      # ThreadSanitizer build in
#                                      # ./build-tsan; runs the serve +
#                                      # tsan test labels (the concurrent
#                                      # slice) and fails on any data race
#   CERES_SANITIZE=undefined tools/tier1.sh
#                                      # UBSan-only build in ./build-ubsan;
#                                      # runs the full suite — cheaper than
#                                      # the ASan tier, catches signed
#                                      # overflow / bad shifts / misaligned
#                                      # access on the hot paths
#
# Any extra arguments are passed to every ctest invocation, e.g.
#   tools/tier1.sh -j4
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

mode="${CERES_SANITIZE:-}"
if [ "$mode" = "ON" ]; then
  build_dir="$repo_root/build-asan"
  sanitize_flags='-DCERES_SANITIZE=address;undefined'
elif [ "$mode" = "thread" ]; then
  build_dir="$repo_root/build-tsan"
  sanitize_flags='-DCERES_SANITIZE=thread'
elif [ "$mode" = "undefined" ]; then
  build_dir="$repo_root/build-ubsan"
  sanitize_flags='-DCERES_SANITIZE=undefined'
else
  build_dir="$repo_root/build"
  sanitize_flags=''
fi

echo "== tier1: configure ($build_dir)"
# shellcheck disable=SC2086  # sanitize_flags is intentionally word-split
cmake -B "$build_dir" -S "$repo_root" -DCERES_WERROR=ON $sanitize_flags

echo "== tier1: build"
# Bounded: a bare -j starts one compiler per target at every make level.
cmake --build "$build_dir" -j "$(nproc)"

# The lint target runs the whole-program pass (layer DAG from
# tools/lint/layers.txt) and persists the machine-readable report as
# LINT_report.json at the repo root.
echo "== tier1: lint gate (ceres_lint over src/ tools/ bench/)"
cmake --build "$build_dir" --target lint

if [ "$mode" = "thread" ]; then
  # The ThreadSanitizer slice: concurrency primitives + the serve path.
  # TSan halts the test with a non-zero exit on the first reported race.
  echo "== tier1: tsan label (ThreadSanitizer)"
  (cd "$build_dir" && ctest --output-on-failure -L tsan "$@")

  echo "== tier1: serve label (ThreadSanitizer)"
  (cd "$build_dir" && ctest --output-on-failure -L serve "$@")

  # The socket edge under TSan: event loop vs. responder sends vs. client
  # threads vs. drain — the loopback e2e suite races all four.
  echo "== tier1: net label (ThreadSanitizer)"
  (cd "$build_dir" && ctest --output-on-failure -L net "$@")

  # The coordinator forks workers and polls their pipes; the sanitized
  # bench proves the event loop and recovery path are race-free.
  echo "== tier1: dist recovery smoke (ThreadSanitizer)"
  "$build_dir/bench/dist_recovery" --smoke

  echo "== tier1: tsan gates passed"
  exit 0
fi

if [ "$mode" = "undefined" ]; then
  # The UBSan slice: the whole suite under -fsanitize=undefined. Signed
  # overflow, invalid shifts, and misaligned loads on the parse/feature
  # hot paths become hard failures here; the heavier per-label and bench
  # smoke passes stay with the default and ASan tiers.
  echo "== tier1: full test suite (UBSan)"
  (cd "$build_dir" && ctest --output-on-failure -j "$@")

  # The mapped-image KB reinterprets mmap'd bytes as typed records; UBSan
  # is the tier that would catch a misaligned section or aliasing slip.
  echo "== tier1: kb label (UBSan)"
  (cd "$build_dir" && ctest --output-on-failure -L kb --repeat until-fail:3 "$@")

  echo "== tier1: pipeline throughput smoke (UBSan)"
  "$build_dir/bench/pipeline_throughput" --smoke

  echo "== tier1: ubsan gates passed"
  exit 0
fi

echo "== tier1: full test suite"
(cd "$build_dir" && ctest --output-on-failure -j "$@")

echo "== tier1: serve label"
(cd "$build_dir" && ctest --output-on-failure -L serve "$@")

echo "== tier1: chaos label"
(cd "$build_dir" && ctest --output-on-failure -L chaos "$@")

# HTTP front-end slice: the parser trust boundary, per-client admission,
# and the loopback end-to-end drain guarantees.
echo "== tier1: net label"
(cd "$build_dir" && ctest --output-on-failure -L net "$@")

# Multi-process slice: wire protocol, checkpoints, and the coordinator's
# crash/hang/torn-frame recovery, merged byte-identical to single-process.
echo "== tier1: dist label"
(cd "$build_dir" && ctest --output-on-failure -L dist "$@")

# Out-of-core KB slice: image round-trip, corruption typing (every
# malformed image is a kDataLoss, never a crash), and heap-vs-mapped
# parity including full-pipeline output. Each case runs three times: the
# parity fixture once raced across parallel test processes, and a single
# pass can miss a race like that.
echo "== tier1: kb label"
(cd "$build_dir" && ctest --output-on-failure -L kb --repeat until-fail:3 "$@")

# The scoring/fusion regression slice plus the observability instruments:
# these carry the eval-correctness fixes and the metrics/trace layer, and
# must never be filtered out of the gate.
echo "== tier1: eval/fusion/obs labels"
(cd "$build_dir" && ctest --output-on-failure -L 'eval|fusion|obs' "$@")

# Batch-parallelism gate: thread-count determinism always; the >=1.5x
# speedup-at-4-threads assertion binds only on hosts with >=4 hardware
# threads (the bench skips it, with a note, on smaller machines).
echo "== tier1: pipeline throughput smoke (parallel batch determinism)"
"$build_dir/bench/pipeline_throughput" --smoke

# Serving smoke: ShardedExtractionService in process (registry sweep with
# exact accounting and stage timings, typed sheds under an injected model
# fault and for an unpublished site, a mid-stream hot-swap) and behind the
# HTTP front-end over loopback (page-cache hits, clean drains, 429s that
# balance the server's counter).
echo "== tier1: serve bench smoke (in-process + loopback HTTP)"
"$build_dir/bench/serve_bench" --smoke

# Distributed-recovery smoke: crashed workers respawn, shards retry, and
# the merge stays byte-identical to the single-process reference.
echo "== tier1: dist recovery smoke (crash retry + checkpointing)"
"$build_dir/bench/dist_recovery" --smoke

# Out-of-core KB smoke: image map vs text parse, query parity at bench
# scale, and the forked-worker RSS probe.
echo "== tier1: kb load smoke (image map vs parse)"
"$build_dir/bench/kb_load" --smoke

echo "== tier1: all gates passed"
