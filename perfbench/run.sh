#!/usr/bin/env bash
# Builds the benchmark's two binaries and runs the one `--trace` selects:
# `perfbench` for the timed pass (--trace 0) and `perfbench-traced`,
# which links the counting allocator, for the traced pass (--trace 1).
#
#   bash perfbench/run.sh --workload fleet-deploy --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
# One package per build: building both at once would unify their
# features and put the counting allocator into the timed binary too.
cargo build --release --offline --quiet --manifest-path "$manifest" -p perfbench >&2
cargo build --release --offline --quiet --manifest-path "$manifest" -p perfbench-traced >&2
bin=perfbench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=perfbench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
