#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test and stay formatted
# with no network access and no crates.io dependencies.
#
# Usage:
#   scripts/verify.sh           # full pipeline (CI runs this)
#   scripts/verify.sh --quick   # build + unit tests only
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *)
            echo "usage: $0 [--quick]" >&2
            exit 2
            ;;
    esac
done

PHASE_START=0
phase_begin() {
    PHASE_START=$SECONDS
    echo "==> $1"
}
phase_end() {
    echo "    (${1}: $((SECONDS - PHASE_START))s)"
}

phase_begin "cargo build --release --offline"
cargo build --release --offline
phase_end "build"

phase_begin "cargo test -q --offline"
cargo test -q --offline
phase_end "test"

# One adaptive-adversary scenario end to end through the CLI (the eclipse
# strategy against Drum, §17). The exact mechanism counts (syscalls,
# HMACs, compressions per datagram, scheduling spans, zero-allocation
# rounds) and the smoke goldens of every deterministic figure ran above as
# ordinary tests.
phase_begin "adaptive-adversary smoke"
cargo run --release --offline -q -p drum-lab -- simulate \
    --protocol drum --n 80 --adversary eclipse --x 64 --trials 20
phase_end "smoke"

# The sustained-throughput soak at Smoke sizing (~2s of cluster time):
# paced stream, flood toggled mid-run, buffer high-water and backpressure
# accounting — the §19 plumbing end to end.
phase_begin "drum-lab figures --only ext_soak (smoke)"
SOAK_OUT="$(mktemp -d)"
cargo run --release --offline -q -p drum-lab -- figures \
    --quick --only ext_soak --out "$SOAK_OUT"
rm -rf "$SOAK_OUT"
phase_end "ext_soak"

# A 64-engine live-UDP cluster on ONE shard: every engine's sockets are
# multiplexed into a single epoll event loop, exercising the timer wheel
# and tagged dispatch far past what unit tests cover. The loop must block
# until a deadline or a datagram, never poll: the test suite above bounds
# its wakeups on a 6-engine shard
# (shard_wakeups_are_bounded_by_rounds_and_datagrams); here the same count
# is printed per engine-round (~2 when healthy) and gated at 8. The same
# run prints SHA-256 kernel calls per delivered message: ~3 when only new
# messages are verified (50-byte payloads), gated at 6 — re-verifying
# duplicates reads 10+. And descriptors opened by the random-port pools per
# engine-round: well under 1 when pools open sockets only while they grow
# and rotate ports on them afterwards, gated at 1 — a socket per port
# reads ~6. And syscalls per random port: ~3.3 when an expiry's ports share
# one readiness query and only a descriptor holding a datagram is emptied,
# gated at 4 — discarding every expiring port twice reads ~5.
phase_begin "drum-lab cluster --shards 1 (64 engines, one event loop)"
CLUSTER_OUT="$(mktemp)"
cargo run --release --offline -q -p drum-lab -- cluster \
    --n 64 --shards 1 --attacked 6 --x 32 --messages 12 --rate 30 --round-ms 50 \
    | tee "$CLUSTER_OUT"
awk '/^net.shard_wakeups per engine-round/ { seen = 1; if ($4 > 8) bad = 1 }
     END { exit !(seen && !bad) }' "$CLUSTER_OUT" || {
    echo "shard event loop woke more than 8 times per engine-round (or printed no count)" >&2
    exit 1
}
awk '/^crypto.compress_calls per delivered message/ { seen = 1; if ($6 > 6) bad = 1 }
     END { exit !(seen && !bad) }' "$CLUSTER_OUT" || {
    echo "more than 6 SHA-256 kernel calls per delivered message (or printed no count)" >&2
    exit 1
}
awk '/^net.sockets_opened per engine-round/ { seen = 1; if ($4 > 1) bad = 1 }
     END { exit !(seen && !bad) }' "$CLUSTER_OUT" || {
    echo "random-port pools opened more than 1 socket per engine-round (or printed no count)" >&2
    exit 1
}
awk '/^net.port_syscalls per port/ { seen = 1; if ($4 > 4) bad = 1 }
     END { exit !(seen && !bad) }' "$CLUSTER_OUT" || {
    echo "random ports cost more than 4 syscalls each (or printed no count)" >&2
    exit 1
}
rm -f "$CLUSTER_OUT"
phase_end "cluster"

# Knobs that went with the path they selected (frame packing, the
# per-thread runtime, the forced per-datagram mode, the serial sim stepper,
# the single-block SHA-256 ablation, the fig binaries' full-scale switch)
# or became an argument (the adversary strategy), the API of drum-net's
# deleted per-datagram, sleep-poll and scanning I/O paths, the sim's
# deleted intra-trial shard layer, and the bitset union that lost its last
# caller with it; nothing may still read, call or document them. (Names are spliced so this script
# does not match itself.)
RETIRED_NAMES="DRUM_NET_NO""_PACK|DRUM_NET_MULTI""PLEX|DRUM_NET_NO""_BATCH"
RETIRED_NAMES="$RETIRED_NAMES|DRUM_SIM""_SHARDS|DRUM_CRYPTO""_NO_SIMD|DRUM_BENCH""_FULL"
RETIRED_NAMES="$RETIRED_NAMES|DRUM_ADV""ERSARY"
RETIRED_NAMES="$RETIRED_NAMES|BatchRx::for""ced|BatchTx::for""ced|ShardCore::without""_epoll"
RETIRED_NAMES="$RETIRED_NAMES|NodeCore::drain""_all|sys::avail""able|NetConfig::po""ll"
RETIRED_NAMES="$RETIRED_NAMES|step""_sharded|auto""_shards|run_trial_traced""_mode|shard""_range|IN_WOR""KER"
RETIRED_NAMES="$RETIRED_NAMES|BitSet::or""_with|\\.or""_with\\("
RETIRED_NAMES="$RETIRED_NAMES|Virtual""Network|testkit::Network""Config"
# The retired `Bytes` cursor readers: `.get_uN(` with no argument cannot
# match `BytesMut::put_uN(..)` or the codec's `Reader::uN()`.
RETIRED_NAMES="$RETIRED_NAMES|\\.get""_u(8|16|32|64)\\(\\)|copy_to""_(slice|bytes)|has""_remaining|\\.remain""ing\\(\\)"
phase_begin "no retired name left"
if grep -rnE "$RETIRED_NAMES" crates scripts .github .claude tests examples \
    README.md DESIGN.md EXPERIMENTS.md; then
    echo "retired name(s) referenced above; remove them" >&2
    exit 1
fi
phase_end "retired-name grep"

if [ "$QUICK" -eq 1 ]; then
    echo "==> verify --quick: all green (total $((SECONDS))s)"
    exit 0
fi

# benchmark/ is its own workspace that links the library crates by path;
# the suite above does not build it. A library change that breaks the
# end-to-end benchmark fails here instead of in the benchmark run.
phase_begin "cargo test benchmark/ (its own workspace)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q
phase_end "benchmark"

# Smoke-regenerate every figure in one process; writes to
# a throwaway directory, so checked-in results/ stay untouched.
phase_begin "drum-lab figures --quick"
FIG_OUT="$(mktemp -d)"
cargo run --release --offline -q -p drum-lab -- figures --quick --out "$FIG_OUT"
rm -rf "$FIG_OUT"
phase_end "figures"

phase_begin "cargo fmt --check"
cargo fmt --check
phase_end "fmt"

# Rustdoc must be warning-free, so an intra-doc link to a deleted or
# private item fails here instead of rendering as dead text.
phase_begin "cargo doc (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
phase_end "doc"

echo "==> verify: all green (total $((SECONDS))s)"
