#!/usr/bin/env bash
# The CI gate suite. Run everything with no arguments, or name the gates
# to run: fmt clippy doc build test smoke determinism engine store faults
# panics drift fuzz serve.
#
#   ./scripts/ci.sh                  # all gates, in order
#   ./scripts/ci.sh fmt clippy       # just the static gates
#
# Every gate is offline: the workspace has no external dependencies, so
# `--locked --offline` must always succeed. The determinism gate is the
# heart of the suite — it reruns the full experiment grid at two worker
# counts and requires the rendered tables, the checked-in results.txt,
# and the telemetry metrics dump to agree byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

gate_fmt() {
    step "rustfmt (--check)"
    cargo fmt --all --check
}

gate_clippy() {
    step "clippy (deny warnings, all targets)"
    cargo clippy --workspace --all-targets -- -D warnings
}

gate_doc() {
    # Broken or private intra-doc links, ambiguous link targets and bad
    # doc markup fail the build, so docs cannot keep naming functions
    # that no longer exist.
    step "rustdoc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
}

gate_build() {
    # The no-default-features build compiles telemetry out entirely —
    # build it first so the default build below leaves target/release
    # with the telemetry-enabled binaries the later gates exercise.
    step "release build, telemetry compiled out"
    cargo build --release --locked --offline --workspace --no-default-features
    # The cache bank's bulk hit accounting must be exact in both modes.
    step "d16-mem tests, telemetry compiled out"
    cargo test --release --locked --offline -p d16-mem --no-default-features
    step "release build"
    cargo build --release --locked --offline --workspace
}

gate_test() {
    step "unit + integration tests"
    cargo test -q
}

gate_smoke() {
    step "repro --smoke"
    ./target/release/repro --smoke >/dev/null
}

gate_determinism() {
    step "determinism: --jobs 1 vs --jobs 4, stdout + metrics byte-identical"
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    ./target/release/repro --all --jobs 1 --metrics-json "$tmp/m1.json" >"$tmp/out1.txt"
    ./target/release/repro --all --jobs 4 --metrics-json "$tmp/m4.json" >"$tmp/out4.txt"
    cmp "$tmp/out1.txt" "$tmp/out4.txt"
    cmp "$tmp/m1.json" "$tmp/m4.json"
    step "determinism: the --jobs diff covered the pipeline-sweep tables"
    # --all includes the depth x predictor sweep, so the byte-compare
    # above is also the sweep-determinism gate; pin that inclusion so a
    # future flag reshuffle cannot silently drop the sweep from the diff.
    grep -q 'Extension: pipeline sweep' "$tmp/out1.txt"
    grep -q 'Extension: fetch traffic across fetch widths' "$tmp/out1.txt"
    step "determinism: the --jobs diff covered the extended-suite tables"
    # Same pinning for the extended-suite distribution tables: --all
    # implies --extended, and the byte-compare must keep covering the
    # 26-program tables and their bootstrap intervals.
    grep -q 'Extension: extended-suite static size vs D16 = 1.00 (26 programs)' "$tmp/out1.txt"
    grep -q 'Extension: extended-suite path length vs D16 = 1.00 (26 programs)' "$tmp/out1.txt"
    grep -q 'Extension: extended-suite ratio distributions over workloads' "$tmp/out1.txt"
    step "determinism: --all output matches checked-in results.txt"
    cmp "$tmp/out1.txt" results.txt
}

gate_engine() {
    # The two execution engines must be observationally identical: the
    # rendered tables and the deterministic metrics dump may not differ
    # by a byte between the block-caching default and the per-instruction
    # interpreter. The speedup itself is gated in-process (same machine,
    # same build) by the bench_drift floor test.
    step "engine: --engine blocks vs --engine interp, stdout + metrics byte-identical"
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    ./target/release/repro --smoke --engine blocks \
        --metrics-json "$tmp/m_blocks.json" >"$tmp/out_blocks.txt"
    ./target/release/repro --smoke --engine interp \
        --metrics-json "$tmp/m_interp.json" >"$tmp/out_interp.txt"
    cmp "$tmp/out_blocks.txt" "$tmp/out_interp.txt"
    cmp "$tmp/m_blocks.json" "$tmp/m_interp.json"
    step "engine: --all --engine interp matches checked-in results.txt"
    ./target/release/repro --all --engine interp >"$tmp/all_interp.txt"
    cmp "$tmp/all_interp.txt" results.txt
    step "engine: D16x fusion workloads byte-identical across engines"
    ./target/release/repro --only fsm,addrgen --d16x --fig 4 --engine blocks \
        --metrics-json "$tmp/m_x_blocks.json" >"$tmp/out_x_blocks.txt"
    ./target/release/repro --only fsm,addrgen --d16x --fig 4 --engine interp \
        --metrics-json "$tmp/m_x_interp.json" >"$tmp/out_x_interp.txt"
    cmp "$tmp/out_x_blocks.txt" "$tmp/out_x_interp.txt"
    cmp "$tmp/m_x_blocks.json" "$tmp/m_x_interp.json"
    step "engine: non-default pipeline spec (depth 8, twobit, fetch 1) byte-identical across engines"
    # Non-default specs run the BlockEngine's dynamic lowering (fusion
    # off, runtime stall scoreboard) — a code path the default-spec
    # comparisons above never reach.
    ./target/release/repro --only towers,queens --fig 5 \
        --pipeline-depth 8 --pipeline-predictor twobit --pipeline-fetch 1 \
        --engine blocks --metrics-json "$tmp/m_p_blocks.json" >"$tmp/out_p_blocks.txt"
    ./target/release/repro --only towers,queens --fig 5 \
        --pipeline-depth 8 --pipeline-predictor twobit --pipeline-fetch 1 \
        --engine interp --metrics-json "$tmp/m_p_interp.json" >"$tmp/out_p_interp.txt"
    cmp "$tmp/out_p_blocks.txt" "$tmp/out_p_interp.txt"
    cmp "$tmp/m_p_blocks.json" "$tmp/m_p_interp.json"
    step "engine: 4x best-of-3 speedup floor (block engine vs interpreter, in-process)"
    cargo test --release --locked --offline -p d16-xtests --test bench_drift \
        -- --ignored --exact block_engine_speedup_floor
}

gate_store() {
    step "store: cold run, then warm run against the same --store"
    local tmp t0 cold_ns warm_ns
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    t0=$(date +%s%N)
    ./target/release/repro --all --store "$tmp/store" \
        --metrics-json "$tmp/m_cold.json" >"$tmp/cold.txt"
    cold_ns=$(($(date +%s%N) - t0))
    t0=$(date +%s%N)
    ./target/release/repro --all --store "$tmp/store" \
        --metrics-json "$tmp/m_warm.json" >"$tmp/warm.txt" 2>"$tmp/err_warm.txt"
    warm_ns=$(($(date +%s%N) - t0))
    step "store: warm outputs byte-identical to cold (stdout, results.txt, metrics)"
    cmp "$tmp/cold.txt" "$tmp/warm.txt"
    cmp "$tmp/m_cold.json" "$tmp/m_warm.json"
    cmp "$tmp/cold.txt" results.txt
    grep -q ' 0 misses' "$tmp/err_warm.txt"
    step "store: warm run at least 3x faster (cold ${cold_ns}ns, warm ${warm_ns}ns)"
    [ $((warm_ns * 3)) -le "$cold_ns" ]
    step "store: corrupt one entry; third run recomputes and still matches"
    local victim
    # `sed -n 1p` reads all of its input: `head` would exit early and,
    # under pipefail, fail the gate with SIGPIPE when `sort` is still
    # writing.
    victim=$(find "$tmp/store/cell" -name '*.bin' | sort | sed -n 1p)
    printf 'XXXX' | dd of="$victim" bs=1 seek=40 conv=notrunc status=none
    ./target/release/repro --all --store "$tmp/store" \
        --metrics-json "$tmp/m_third.json" >"$tmp/third.txt" 2>"$tmp/err_third.txt"
    cmp "$tmp/cold.txt" "$tmp/third.txt"
    cmp "$tmp/m_cold.json" "$tmp/m_third.json"
    grep -q '1 corrupt evicted' "$tmp/err_third.txt"
}

gate_faults() {
    # Every failpoint of the fault-injection harness, one subprocess per
    # fault: user errors exit 2, degraded runs exit 3, diagnostics stay
    # on stderr, and no fault may panic the binary or corrupt a store.
    # The non-fatal faults additionally leave stdout byte-identical to a
    # clean run (asserted inside the tests and re-checked here for the
    # store-io fault against the checked-in results.txt).
    step "faults: fault-injection subprocess tests"
    cargo test --release --locked --offline -p d16-bench --test faults
    step "faults: store-io on the full grid still matches results.txt"
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    set +e
    D16_FAILPOINTS=store-io ./target/release/repro --all --store "$tmp/store" \
        >"$tmp/out.txt" 2>"$tmp/err.txt"
    local code=$?
    set -e
    [ "$code" -eq 3 ] || {
        echo "expected exit 3 (degraded), got $code" >&2
        cat "$tmp/err.txt" >&2
        exit 1
    }
    cmp "$tmp/out.txt" results.txt
    grep -q 'I/O errors (degraded to recomputation)' "$tmp/err.txt"
}

gate_panics() {
    # No panicking macro or .unwrap() may appear on a library crate's
    # non-test paths; .expect()/unreachable!() with a justification
    # message are allowed for true invariants. The allowlist holds the
    # few reviewed exceptions (currently one doc-comment example line).
    step "panics: grep gate over library crate sources"
    local bad=0 crate f hits
    for crate in core cc sim asm mem store fuzz serve; do
        for f in crates/$crate/src/*.rs; do
            # Strip everything from the first top-level #[cfg(test)] on:
            # test modules may panic freely.
            hits=$(awk '/^#\[cfg\(test\)\]/{exit} /panic!\(|\.unwrap\(\)/{printf "%s:%d: %s\n", FILENAME, FNR, $0}' "$f" \
                | grep -v -F -f scripts/panic-allowlist.txt || true)
            if [ -n "$hits" ]; then
                echo "$hits"
                bad=1
            fi
        done
    done
    if [ "$bad" -ne 0 ]; then
        echo "panic!/.unwrap() on a library path; return a typed error" >&2
        echo "(reviewed exceptions go in scripts/panic-allowlist.txt)" >&2
        exit 1
    fi
}

gate_drift() {
    step "bench drift: fresh grid vs checked-in BENCH_repro.json"
    cargo test --release -p d16-xtests --test bench_drift -- --ignored
}

gate_fuzz() {
    # Differential fuzzing on a fixed seed: 500 generated whole programs,
    # each run on every standard target at O0 and O2 against the
    # reference interpreter plus the encoding round-trip and
    # engine-agreement (interp vs blocks) oracles. Fully deterministic —
    # a failure prints a minimized reproducer. Then every committed
    # miscompile reproducer in crates/xtests/corpus replays.
    step "fuzz: fixed-seed differential budget (500 programs x 12 configs)"
    cargo build --release --locked --offline -p d16-fuzz
    ./target/release/d16-fuzz --seed 20260806 --count 500
    step "fuzz: corpus replay"
    ./target/release/d16-fuzz --replay crates/xtests/corpus
}

gate_serve() {
    # Boot the experiment-service daemon, replay the committed request
    # corpus cold (every body byte-identical to its golden answer),
    # replay it warm (everything served from the store, p99 within the
    # pinned drift bound), shut down via SIGTERM, and reconcile the
    # daemon's final counter dump against loadgen's per-status totals.
    step "serve: boot daemon, cold replay byte-diffed against golden bodies"
    local tmp pid addr entry
    tmp=$(mktemp -d)
    ./target/release/d16-serve --addr 127.0.0.1:0 --workers 4 --queue 64 \
        --port-file "$tmp/port" --store "$tmp/store" \
        --metrics-json "$tmp/metrics.json" 2>"$tmp/daemon.log" &
    pid=$!
    trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' RETURN
    for _ in $(seq 1 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    [ -s "$tmp/port" ] || {
        echo "daemon did not come up" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    }
    addr=$(tr -d '\n' <"$tmp/port")
    ./target/release/d16-loadgen --addr "$addr" --corpus crates/serve/corpus \
        --concurrency 4 --repeat 1 --save-bodies "$tmp/cold_bodies" \
        --out "$tmp/bench_cold.json"
    for entry in crates/serve/corpus/golden/*.json; do
        cmp "$entry" "$tmp/cold_bodies/$(basename "$entry")"
    done
    step "serve: warm replay — hit-ratio floor, p99 within the pinned drift bound"
    ./target/release/d16-loadgen --addr "$addr" --corpus crates/serve/corpus \
        --concurrency 8 --repeat 3 --save-bodies "$tmp/warm_bodies" \
        --out "$tmp/bench_warm.json" \
        --min-hit-ratio 0.9 --check-drift BENCH_serve.json --drift-factor 50
    step "serve: warm bodies byte-identical to the golden answers"
    for entry in crates/serve/corpus/golden/*.json; do
        cmp "$entry" "$tmp/warm_bodies/$(basename "$entry")"
    done
    step "serve: SIGTERM shutdown; counters reconcile with loadgen totals"
    kill -TERM "$pid"
    wait "$pid"
    ./target/release/d16-loadgen --reconcile "$tmp/metrics.json" \
        "$tmp/bench_cold.json" "$tmp/bench_warm.json"
    step "serve: concurrent-store stress (threads + subprocesses, one root)"
    cargo test --release --locked --offline -p d16-xtests --test store_concurrent
}

ALL_GATES=(fmt clippy doc build test smoke determinism engine store faults panics drift fuzz serve)
gates=("${@:-${ALL_GATES[@]}}")
for g in "${gates[@]}"; do
    case "$g" in
    fmt | clippy | doc | build | test | smoke | determinism | engine | store | faults | panics | drift | fuzz | serve) "gate_$g" ;;
    *)
        echo "unknown gate: $g (expected: ${ALL_GATES[*]})" >&2
        exit 2
        ;;
    esac
done

printf '\nall gates green: %s\n' "${gates[*]}"
