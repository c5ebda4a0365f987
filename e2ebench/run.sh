#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it with the given arguments:
#
#   bash e2ebench/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#
# The build goes to $CARGO_TARGET_DIR, or e2ebench/target when that is unset.
# Cargo's output goes to stderr, so the result line stays the last line of
# stdout. The benchmark replaces this shell, so its exit status, or the signal
# that ended it, is the command's own.
set -u
here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
}

# A build can fail for a passing reason (a compiler killed when memory runs
# short); one retry tells that apart from a build that cannot succeed.
if ! build; then
    echo "e2ebench: build failed; retrying once" >&2
    build || exit 1
fi
# A panic then reports the call stack that led to it. Nothing is captured
# unless a thread panics.
export RUST_BACKTRACE=${RUST_BACKTRACE:-1}
exec "$target/release/splash4-e2ebench" "$@"
