#!/usr/bin/env sh
# One-shot hygiene gate: formatting, clippy, simlint, then tier-1.
# Usage: scripts/check.sh  (from anywhere inside the workspace)
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "==> simlint (json gate, deterministic output, baseline ratchet)"
LINT_TMP="${TMPDIR:-/tmp}/simlint-gate.$$"
mkdir -p "$LINT_TMP"
# The gate itself: fails on fresh violations, baseline regressions or
# stale baseline entries.
cargo run -q -p simlint -- --format json > "$LINT_TMP/pass1.json"
# Machine-readable output must be byte-identical across runs.
cargo run -q -p simlint -- --format json > "$LINT_TMP/pass2.json"
cmp "$LINT_TMP/pass1.json" "$LINT_TMP/pass2.json"

echo "==> simlint rule table vs DESIGN.md §12"
cargo run -q -p simlint -- --list-rules > "$LINT_TMP/rules.txt"
while read -r rule_id _; do
    grep -q "\`$rule_id\`" DESIGN.md || {
        echo "check.sh: rule \`$rule_id\` missing from DESIGN.md §12" >&2
        exit 1
    }
done < "$LINT_TMP/rules.txt"
rm -rf "$LINT_TMP"

echo "==> one config path (no process-state tunnels; DESIGN.md §10.1)"
# Run options reach the code only as Experiment fields: nothing in the
# workspace reads an environment variable, and no test may write one
# (tests share one process, so a written variable races). What the two
# binaries' mains may touch of std::env is their argument vector, the
# working directory, and one deployment path that is not an option:
# PPT_DUMP_DIR, read once in pptlab's main.
if grep -rnE 'std::env|env::var|set_var' crates/*/src \
    | grep -vE '^crates/(pptlab|simlint)/src/main.rs:.*std::env::(args|current_dir)\(\)' \
    | grep -v '^crates/pptlab/src/main.rs:.*std::env::var_os("PPT_DUMP_DIR")'; then
    echo "check.sh: code touches the process environment" >&2
    exit 1
fi
if grep -rn 'set_var' tests/; then
    echo "check.sh: a test writes the process environment" >&2
    exit 1
fi

echo "==> one run grammar (ppt::spec parses every run into Experiments; one scheme table; DESIGN.md §10.1)"
# pptlab keeps its commands and their printing; every option value is
# parsed by ppt::spec, and the harness's telemetry knobs and fault schedule
# are the engine's own TelemetryConfig and FaultSchedule. A private options
# struct is how a second path back.
if grep -rnE '\b(RunOpts|RunSetup)\b|struct (TelemetrySpec|FaultSpec)|enum FaultCmd' crates tests examples; then
    echo "check.sh: a second options path is back; parse run options in ppt::spec" >&2
    exit 1
fi
# Scheme ids and display names are the rows of spec::SCHEMES, which
# Scheme::all, Scheme::name, parsing and `pptlab schemes` all read. An id or
# a name of a variant in code elsewhere (comments and tests aside) is a
# second list to keep in step.
for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    [ "$f" = crates/ppt/src/spec.rs ] && continue
    if awk '/#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
            /"(ppt-no[a-z]+|hpcc-ppt|swift-ppt|PPT w\/o [A-Za-z]+|PPT-over-[A-Za-z]+|Swift-like)"/ ||
            /"(ppt-fill|rc3-cap):|"(PPT fill |RC3 lp-buf |hypothetical DCTCP \()(\{|<f>)/ {
                print FILENAME ":" FNR ": " $0; hit = 1 }
            END { exit !hit }' "$f"; then
        echo "check.sh: a second scheme list; name schemes through ppt::spec::SCHEMES" >&2
        exit 1
    fi
done

echo "==> one flow table (per-flow endpoint state lives in FlowTable; DESIGN.md §10.3)"
# An ordered map keyed by flow keeps every flow it ever saw and costs a
# tree descent per packet. The two whole-run lookups are maps by design:
# the MwRecorder tap and the Hypothetical oracle copied from it.
if grep -rn 'BTreeMap<FlowId' crates/transports/src | grep -vE 'type MwRecorder =|oracle: '; then
    echo "check.sh: per-flow state in a BTreeMap<FlowId, _>; use common::FlowTable" >&2
    exit 1
fi

echo "==> flow state is flat memory (no ordered map under a byte set, a scoreboard or an ACK; DESIGN.md §10.3)"
# IntervalSet is a prefix and a sorted vector, the sender scoreboard a ring,
# SACK blocks inline: a tree here is a descent per ACK and a node allocation
# per flow. The models the differential tests compare against stay, below
# each file's first #[cfg(test)].
for f in common tcp_base rx; do
    if awk '/#\[cfg\(test\)\]/ { exit } /BTreeMap/ { print FILENAME ":" FNR ": " $0; hit = 1 } END { exit !hit }' \
        "crates/transports/src/$f.rs"; then
        echo "check.sh: an ordered map on the per-ACK path; see DESIGN.md §10.3, Layout" >&2
        exit 1
    fi
done

echo "==> one TCP-family endpoint and one receiver-driven endpoint (Window, Pull; DESIGN.md §16)"
# Window and Pull. A third `impl Transport` is a copy of Window's ACK / RTO /
# retire loop or of Pull's grant / watchdog / pacer loop: write an Hcp, a
# Beside (PPT's loop is one) or a Grant instead. TCP-family data packets
# are built in two places, hcp::{send_hcp, low_packet}.
impls=$(grep -c 'Transport<Proto> for' crates/transports/src/*.rs | awk -F: '{ n += $2 } END { print n }')
if [ "$impls" -gt 2 ]; then
    echo "check.sh: $impls Transport<Proto> impls under crates/transports/src (at most 2)" >&2
    exit 1
fi
# NDP, Homa, Aeolus and ExpressPass share one header, PullHdr.
if grep -rnE 'NdpHdr|HomaHdr|Proto::(Ndp|Homa)\b' crates tests examples benchmarks; then
    echo "check.sh: a per-scheme receiver-driven header is back; use PullHdr" >&2
    exit 1
fi
hdrs=0
for f in crates/transports/src/*.rs; do
    [ "$f" = crates/transports/src/proto.rs ] && continue
    n=$(awk '/#\[cfg\(test\)\]/ { exit } /DataHdr \{/ { c++ } END { print c + 0 }' "$f")
    hdrs=$((hdrs + n))
done
if [ "$hdrs" -gt 2 ]; then
    echo "check.sh: $hdrs hand-built DataHdr literals outside proto.rs (at most 2)" >&2
    exit 1
fi

echo "==> one event queue at runtime (the calendar queue; simsan checks every pop; DESIGN.md §10.1)"
# The heap reference lives in sched.rs's tests. A runtime choice of queue is
# how whole golden runs came to be run twice; the event-order shadow in
# simsan checks each pop of every sanitized run instead.
queue_pat='QueueKind|set_queue_kind|enum Queue<|Queue::Heap'
for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    if awk -v pat="$queue_pat" '/#\[cfg\(test\)\]/ { exit } $0 ~ pat { print FILENAME ":" FNR ": " $0; hit = 1 }
            END { exit !hit }' "$f"; then
        echo "check.sh: a runtime choice of event queue is back; the engine stores a CalendarQueue" >&2
        exit 1
    fi
done
if grep -rnE "$queue_pat" tests crates/*/tests; then
    echo "check.sh: a test selects an event queue; sanitize the run instead" >&2
    exit 1
fi

echo "==> a packet is stored once (queues hold pool handles; DESIGN.md §10.1, Packet lifetime)"
# The engine's banks are QueueBank<Handle>. A deque of whole packets is how
# the 120-byte copies come back; the by-value bank (queue::PrioQueues, for
# callers without a pool) is QueueBank<Packet<P>> and needs no such line.
if grep -rn 'VecDeque<Packet' crates/*/src; then
    echo "check.sh: a queue of packets by value; queue pool handles (netsim::pool::Handle)" >&2
    exit 1
fi
# One send path: Ctx::send writes a packet into the pool and Effects carries
# its PkRef; a staging list of whole packets is two more 128-byte moves per send.
if awk '/pub struct Effects/ { in_fx = 1 } in_fx && /Vec<Packet</ { print FILENAME ":" FNR ": " $0; hit = 1 }
        in_fx && /^}/ { in_fx = 0 } END { exit !hit }' crates/netsim/src/host.rs; then
    echo "check.sh: Effects stages packets by value again; Ctx::send writes them into the pool" >&2
    exit 1
fi
# One INT signal: PacketMeta's hop_telemetry flag says which packets a switch
# stamps; the header holds only what was stamped (Option<Box<IntStack>>).
if grep -rn 'IntSlot::Armed' crates tests; then
    echo "check.sh: a second INT signal beside PacketMeta::hop_telemetry" >&2
    exit 1
fi

echo "==> tier-1: build + tests (cargo test -q has a budget: ROADMAP item 4)"
cargo build --release
# The tests build at opt-level 1 (Cargo.toml's [profile.dev]; debug
# assertions and overflow checks stay on): ~2 min from clean on a 2-core
# box, seconds after an edit. The build is not timed; the run is.
cargo test -q --no-run
# Tier-1 latency is a budget, not an outcome: the built suite runs in ~28 s
# on 2 cores (~3 min at opt-level 0); one that creeps past the ceiling fails here,
# not in a review.
TEST_CEILING_S=60
TEST_LOG="${TMPDIR:-/tmp}/check-tests.$$"
test_start=$(date +%s)
# cargo's own output names each test binary; libtest's quiet mode still
# prints the time each one took.
if ! cargo test -- -q > "$TEST_LOG" 2>&1; then
    cat "$TEST_LOG"
    rm -f "$TEST_LOG"
    exit 1
fi
test_elapsed=$(( $(date +%s) - test_start ))
awk '/^ *Running / { bin = $NF; sub(/.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin)
                     name = ($2 == "unittests") ? bin " " $3 : $2 }
     /^ *Doc-tests / { name = "doc-tests " $2 }
     /^test result:/ { t = $0; sub(/.*finished in /, "", t); printf "%10s  %s\n", t, name }' "$TEST_LOG"
rm -f "$TEST_LOG"
echo "check.sh: cargo test -q took ${test_elapsed} s (ceiling ${TEST_CEILING_S} s)"
if [ "$test_elapsed" -gt "$TEST_CEILING_S" ]; then
    echo "check.sh: tier-1 tests took ${test_elapsed} s, over the ${TEST_CEILING_S} s ceiling" >&2
    exit 1
fi

echo "==> event-queue differential suite, long form (1 M ops per schedule, calendar queue and heap reference in lockstep)"
cargo test -q --release -p netsim --lib -- --ignored randomized_schedules_pop_identically_at_a_million_ops

echo "==> simsan selftests, release build (every corruption class caught; pool conservation is the control)"
cargo test -q --release -p ppt --test sanitizer
cargo test -q --release -p netsim --test pass_through

echo "==> pptlab trace smoke (byte-identical reruns)"
TRACE_TMP="${TMPDIR:-/tmp}/pptlab-trace-smoke.$$"
mkdir -p "$TRACE_TMP/a" "$TRACE_TMP/b"
./target/release/pptlab trace --schemes ppt --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --out "$TRACE_TMP/a" > /dev/null
./target/release/pptlab trace --schemes ppt --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --out "$TRACE_TMP/b" > /dev/null
cmp "$TRACE_TMP/a/events.jsonl" "$TRACE_TMP/b/events.jsonl"
cmp "$TRACE_TMP/a/metrics.json" "$TRACE_TMP/b/metrics.json"
test -s "$TRACE_TMP/a/events.jsonl"

echo "==> simsan golden replay (sanitized run byte-identical, zero violations)"
# Zero observer effect (DESIGN.md §13.3): the same traced run with the
# runtime sanitizer on must reproduce the unsanitized stream byte for
# byte, and a san_violation in the stream would itself break the cmp.
mkdir -p "$TRACE_TMP/san"
./target/release/pptlab trace --schemes ppt --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --sanitize --out "$TRACE_TMP/san" > /dev/null
cmp "$TRACE_TMP/a/events.jsonl" "$TRACE_TMP/san/events.jsonl"
cmp "$TRACE_TMP/a/metrics.json" "$TRACE_TMP/san/metrics.json"
if grep -q san_violation "$TRACE_TMP/san/events.jsonl"; then
    echo "check.sh: sanitized golden replay reported a san_violation" >&2
    exit 1
fi
rm -rf "$TRACE_TMP"

echo "==> unknown-option smoke (a misspelt flag is an error, not ignored)"
if ./target/release/pptlab compare --bogus 1 > /dev/null 2>&1; then
    echo "check.sh: pptlab accepted an option it does not have" >&2
    exit 1
fi

echo "==> sweep smoke (serial vs parallel byte-identity)"
SWEEP_TMP="${TMPDIR:-/tmp}/pptlab-sweep-smoke.$$"
mkdir -p "$SWEEP_TMP"
./target/release/pptlab sweep --schemes ppt,dctcp --topo star:5:10:20 --workload websearch \
    --loads 0.3,0.6 --seeds 42,7 --flows 40 --jobs 1 --json > "$SWEEP_TMP/serial.jsonl"
./target/release/pptlab sweep --schemes ppt,dctcp --topo star:5:10:20 --workload websearch \
    --loads 0.3,0.6 --seeds 42,7 --flows 40 --jobs 4 --json > "$SWEEP_TMP/jobs4.jsonl"
cmp "$SWEEP_TMP/serial.jsonl" "$SWEEP_TMP/jobs4.jsonl"
test -s "$SWEEP_TMP/serial.jsonl"
rm -rf "$SWEEP_TMP"

echo "==> fault smoke (fault schedule byte-identity, serial vs parallel)"
FAULT_TMP="${TMPDIR:-/tmp}/pptlab-fault-smoke.$$"
mkdir -p "$FAULT_TMP/a" "$FAULT_TMP/b"
./target/release/pptlab faults --schemes ppt,dctcp --topo star:5:10:20 --workload websearch \
    --flows 40 --seed 42 --faults loss=0.01,seed=7,down:0:100:600 \
    --jobs 1 --out "$FAULT_TMP/a" > "$FAULT_TMP/serial.jsonl"
./target/release/pptlab faults --schemes ppt,dctcp --topo star:5:10:20 --workload websearch \
    --flows 40 --seed 42 --faults loss=0.01,seed=7,down:0:100:600 \
    --jobs 4 --out "$FAULT_TMP/b" > "$FAULT_TMP/jobs4.jsonl"
cmp "$FAULT_TMP/serial.jsonl" "$FAULT_TMP/jobs4.jsonl"
for f in "$FAULT_TMP/a/"*.events.jsonl; do
    cmp "$f" "$FAULT_TMP/b/$(basename "$f")"
done
test -s "$FAULT_TMP/serial.jsonl"
rm -rf "$FAULT_TMP"

echo "==> PFC + powertcp smoke (byte-identity for the new switch mode and scheme)"
PFC_TMP="${TMPDIR:-/tmp}/pptlab-pfc-smoke.$$"
mkdir -p "$PFC_TMP/a" "$PFC_TMP/b"
# compare under --switch pfc: same run, serial vs 4 workers, must agree
# byte for byte (pause/resume order is part of the event schedule).
./target/release/pptlab compare --schemes ppt,powertcp --topo star:5:10:20 \
    --workload websearch --flows 40 --seed 42 --switch pfc --jobs 1 --json \
    > "$PFC_TMP/serial.json"
./target/release/pptlab compare --schemes ppt,powertcp --topo star:5:10:20 \
    --workload websearch --flows 40 --seed 42 --switch pfc --jobs 4 --json \
    > "$PFC_TMP/jobs4.json"
cmp "$PFC_TMP/serial.json" "$PFC_TMP/jobs4.json"
test -s "$PFC_TMP/serial.json"
# powertcp trace: rerun byte-identity for the INT-driven transport.
./target/release/pptlab trace --schemes powertcp --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --out "$PFC_TMP/a" > /dev/null
./target/release/pptlab trace --schemes powertcp --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --out "$PFC_TMP/b" > /dev/null
cmp "$PFC_TMP/a/events.jsonl" "$PFC_TMP/b/events.jsonl"
cmp "$PFC_TMP/a/metrics.json" "$PFC_TMP/b/metrics.json"
test -s "$PFC_TMP/a/events.jsonl"
rm -rf "$PFC_TMP"

echo "==> layered trace smoke (swift-ppt / hpcc-ppt: byte-identical reruns, loops visible; hpcc / pias / rc3: windows visible)"
LCP_TMP="${TMPDIR:-/tmp}/pptlab-lcp-smoke.$$"
for scheme in swift-ppt hpcc-ppt; do
    mkdir -p "$LCP_TMP/$scheme/a" "$LCP_TMP/$scheme/b"
    for run in a b; do
        ./target/release/pptlab trace --schemes "$scheme" --topo star:4:10:20 \
            --workload websearch --flows 40 --seed 42 --out "$LCP_TMP/$scheme/$run" > /dev/null
    done
    cmp "$LCP_TMP/$scheme/a/events.jsonl" "$LCP_TMP/$scheme/b/events.jsonl"
    # The one LCP policy traces its loops whatever HCP it rides beside.
    grep -q '"ev":"lcp_opened"' "$LCP_TMP/$scheme/a/events.jsonl" || {
        echo "check.sh: $scheme trace has no lcp_opened event" >&2
        exit 1
    }
done
# The one window endpoint traces its window whatever (H, L) it runs.
mkdir -p "$LCP_TMP/window"
./target/release/pptlab trace --schemes hpcc,pias,rc3 --topo star:4:10:20 \
    --workload websearch --flows 40 --seed 42 --out "$LCP_TMP/window" > /dev/null
for scheme in hpcc pias rc3; do
    grep -q '"ev":"cwnd_update"' "$LCP_TMP/window/$scheme.events.jsonl" || {
        echo "check.sh: $scheme trace has no cwnd_update event" >&2
        exit 1
    }
done
rm -rf "$LCP_TMP"

echo "==> non-test line counts (lines above the first #[cfg(test)] per file)"
for group in "crates/transports/src/*.rs" \
    "crates/ppt/src/figures/*.rs" \
    "crates/pptlab/src/*.rs crates/ppt/src/harness.rs crates/ppt/src/spec.rs crates/netsim/src/sched.rs" \
    "crates/netsim/src/*.rs crates/stats/src/series.rs"; do
    total=0
    for f in $group; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")
        printf '%6d %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d total\n' "$total"
done

echo "==> netsim / transports / ppt / core non-test lines against ROADMAP's row (each PR reports its delta)"
# ROADMAP.md's "Non-test lines today" row, as of its last re-anchor; the
# re-anchor that rewrites that row updates these numbers with it. A
# crate's count takes in its modules' subdirectories (ppt's figures/).
for row in "netsim 5333" "transports 3811" "ppt 3506" "core 632"; do
    # shellcheck disable=SC2086
    set -- $row
    total=0
    for f in crates/"$1"/src/*.rs crates/"$1"/src/*/*.rs; do
        [ -f "$f" ] || continue
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")
        total=$((total + n))
    done
    printf 'check.sh: %s has %d non-test lines (%+d against the recorded %d)\n' "$1" "$total" $((total - $2)) "$2"
done

echo "==> documents that describe the system (ROADMAP item 6: the trend, made visible)"
wc -l DESIGN.md CHANGES.md

echo "==> DESIGN.md under its ceiling, and every DESIGN.md section reference resolves (ROADMAP item 9)"
# The ceiling only comes down: a section that grows pays for itself by
# cutting another.
DESIGN_CEILING=2151
design_lines=$(wc -l < DESIGN.md)
echo "check.sh: DESIGN.md has $design_lines lines (ceiling $DESIGN_CEILING)"
if [ "$design_lines" -gt "$DESIGN_CEILING" ]; then
    echo "check.sh: DESIGN.md has $design_lines lines (> $DESIGN_CEILING): cut before adding" >&2
    exit 1
fi
# "## 10. …" and "### 10.2 …" headings are what "DESIGN.md §10" and
# "DESIGN.md §10.2" name.
sections=$(grep -oE '^#{2,3} [0-9]+(\.[0-9]+)?' DESIGN.md | awk '{ print $2 }')
dangling=$(grep -rnoE 'DESIGN\.md §[0-9]+(\.[0-9]+)?' crates tests README.md scripts |
    awk -v secs="$sections" 'BEGIN { n = split(secs, s, "\n"); for (i = 1; i <= n; i++) ok[s[i]] = 1 }
        { sec = $0; sub(/.*§/, "", sec); if (!(sec in ok)) print }')
if [ -n "$dangling" ]; then
    printf '%s\n' "$dangling" >&2
    echo "check.sh: a DESIGN.md section reference names no heading" >&2
    exit 1
fi

echo "==> engine.rs is the run loop; telemetry is the one sampler (DESIGN.md §3, §14)"
engine_lines=$(wc -l < crates/netsim/src/engine.rs)
hop_lines=$(wc -l < crates/netsim/src/hop.rs)
echo "check.sh: engine.rs has $engine_lines lines (ceiling 1000); hop.rs, which it calls per packet, $hop_lines"
if [ "$engine_lines" -gt 1000 ]; then
    echo "check.sh: engine.rs has $engine_lines lines (> 1000): move the concern to its module" >&2
    exit 1
fi
if grep -rnwE 'sample_link|sample_port|SamplerId' crates tests examples; then
    echo "check.sh: the legacy sampler API is back; use telemetry series" >&2
    exit 1
fi

echo "==> tcp_base.rs is the reliability engine; each window law lives with its Hcp (DESIGN.md §16)"
tcp_base_lines=$(awk '/#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' crates/transports/src/tcp_base.rs)
echo "check.sh: tcp_base.rs has $tcp_base_lines non-test lines (ceiling 514)"
if [ "$tcp_base_lines" -gt 514 ]; then
    echo "check.sh: tcp_base.rs has $tcp_base_lines non-test lines (> 514): a window law belongs in its scheme's file" >&2
    exit 1
fi
if grep -rnE 'CcMode|cc_mode' crates; then
    echo "check.sh: a runtime window-law switch is back; write the law as its Hcp's WindowLaw" >&2
    exit 1
fi
# The ring is the scoreboard (DESIGN.md §16, "Loss recovery"): a lost
# segment keeps its entry, marked. A second structure for the same job is
# how lost segments were resent highest first and tracked twice after an RTO.
if grep -n 'retx_queue' crates/transports/src/tcp_base.rs; then
    echo "check.sh: a retransmission queue is back beside the scoreboard ring" >&2
    exit 1
fi

echo "==> one pause, one port (per-ingress PFC; DESIGN.md §15.1)"
# A PFC switch books bytes to the port they came in through and pauses the
# one neighbour behind it. A switch-wide assertion count broadcast to every
# neighbour is how a ToR and a spine once paused each other into a wedge.
if grep -rnE 'pfc_broadcast|pfc_xoff_count|priority_mask' crates/netsim crates/ppt crates/pptlab tests; then
    echo "check.sh: the switch-wide pause is back; key PFC on the ingress port" >&2
    exit 1
fi

echo "==> lossless fabric smoke (PFC on a fat-tree: every flow completes, in bounded memory)"
# The switch-wide pause wedged DCTCP here (103 of 150 flows), and ExpressPass
# grew gigabytes of credits behind the wedge (at 100 flows neither wedged, so
# the smoke runs 150); a relapse fails the cap or the completion check.
pfc_out=$(ulimit -v 1000000 && ./target/release/pptlab compare --schemes dctcp,expresspass \
    --topo fattree:4:10 --switch pfc --flows 150 --json 2>&1)
pfc_done=$(printf '%s\n' "$pfc_out" | grep -o '"completion_ratio":1,' | wc -l)
if [ "$pfc_done" -ne 2 ] || printf '%s\n' "$pfc_out" | grep -q 'stopped abnormally'; then
    printf '%s\n' "$pfc_out" | grep -v '^{"at"' >&2
    echo "check.sh: a PFC fat-tree run left flows unfinished" >&2
    exit 1
fi

echo "==> runaway smoke (HPCC at a tenth of the buffers finishes in bounded memory)"
# It once grew its NIC backlog by gigabytes; a 1 GB address-space cap turns
# a relapse into a failed allocation instead of a machine out of memory.
(ulimit -v 1000000 && ./target/release/pptlab compare --schemes hpcc --topo star:5:10:20 \
    --flows 60 --buffers 0.1 > /dev/null)

echo "==> receiver-driven retry smoke (a sender that hears nothing re-opens; DESIGN.md §16)"
# Without the one sender retry in `Pull`, Homa stranded a message whose one
# unscheduled packet was lost here, and ExpressPass retried a request whose
# flow NACKs had served until `max_time`.
RETRY_TMP="${TMPDIR:-/tmp}/pptlab-retry-smoke.$$"
retry_out=$( (./target/release/pptlab trace --schemes homa --topo star:5:10:20 --flows 60 \
    --seed 42 --faults loss=0.02,seed=7 --out "$RETRY_TMP" &&
    ./target/release/pptlab compare --schemes expresspass --topo star:5:10:20 --flows 60 \
        --seed 42 --faults loss=0.02,ackloss=0.05,seed=8) 2>&1)
rm -rf "$RETRY_TMP"
if printf '%s\n' "$retry_out" | grep 'stopped abnormally' >&2; then
    echo "check.sh: a receiver-driven run stopped abnormally" >&2
    exit 1
fi

echo "==> telemetry smoke (report byte-identical across reruns; goldens untouched; trace dumps report's series)"
TELEM_TMP="${TMPDIR:-/tmp}/pptlab-telemetry-smoke.$$"
mkdir -p "$TELEM_TMP/a" "$TELEM_TMP/b" "$TELEM_TMP/t" "$TELEM_TMP/plain"
# The report pipeline (sampler -> series analysis -> histograms -> JSON)
# must be a pure function of simulated state: two identical invocations,
# byte-compared (DESIGN.md §14.2).
./target/release/pptlab report --schemes ppt,dctcp --topo star:5:10:20 --workload websearch \
    --flows 40 --seed 42 --telemetry 10us --json --out "$TELEM_TMP/a" > "$TELEM_TMP/a.jsonl"
./target/release/pptlab report --schemes ppt,dctcp --topo star:5:10:20 --workload websearch \
    --flows 40 --seed 42 --telemetry 10us --json --out "$TELEM_TMP/b" > "$TELEM_TMP/b.jsonl"
cmp "$TELEM_TMP/a.jsonl" "$TELEM_TMP/b.jsonl"
for f in "$TELEM_TMP/a/"*.report.json "$TELEM_TMP/a/"*.telemetry.jsonl; do
    cmp "$f" "$TELEM_TMP/b/$(basename "$f")"
done
test -s "$TELEM_TMP/a.jsonl"
# Arming the sampler must not move a byte of the trace golden.
./target/release/pptlab trace --schemes ppt --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --telemetry 10us --out "$TELEM_TMP/t" > /dev/null
./target/release/pptlab trace --schemes ppt --topo star:4:10:20 --workload websearch \
    --flows 40 --seed 42 --out "$TELEM_TMP/plain" > /dev/null
cmp "$TELEM_TMP/t/events.jsonl" "$TELEM_TMP/plain/events.jsonl"
# `trace --telemetry` writes the sampled series report writes for the same run.
./target/release/pptlab trace --schemes ppt --topo star:5:10:20 --workload websearch \
    --flows 40 --seed 42 --telemetry 10us --out "$TELEM_TMP/r" > /dev/null
cmp "$TELEM_TMP/r/telemetry.jsonl" "$TELEM_TMP/a/ppt.telemetry.jsonl"
rm -rf "$TELEM_TMP"

echo "==> figure smoke (every figure at --flows 40; --jobs 1 vs --jobs 2 byte-identity)"
# The full regeneration is a documented command, not a gate:
#   pptlab figure --ids all --jobs 2 --out results && git diff --stat results/
FIG_TMP="${TMPDIR:-/tmp}/pptlab-figure-smoke.$$"
mkdir -p "$FIG_TMP/serial" "$FIG_TMP/jobs2"
./target/release/pptlab figure --ids all --flows 40 --jobs 1 --out "$FIG_TMP/serial" > /dev/null
./target/release/pptlab figure --ids all --flows 40 --jobs 2 --out "$FIG_TMP/jobs2" > /dev/null
for id in $(./target/release/pptlab figures); do
    test -s "$FIG_TMP/serial/$id.txt"
    # fig19's columns are wall-clock nanoseconds.
    [ "$id" = fig19_cpu_overhead ] || cmp "$FIG_TMP/serial/$id.txt" "$FIG_TMP/jobs2/$id.txt"
done
rm -rf "$FIG_TMP"

echo "==> microbench (fails when an ACK at 1024 segments in flight costs > 1.5x one at 16, in order or above a hole,"
echo "    or in order at 8192 > 3x; a tail-first IntervalSet insert costs > 3x an in-order one;"
echo "    a flow of a 16000-flow Memcached run costs > 1.5x a flow of a 2000-flow one, or a DCTCP flow > 2.2x a Homa flow;"
echo "    a point of a 16384-point telemetry series costs > 1.5x a point of a 2048-point one to analyze,"
echo "    encode_line takes > 0.7x a write!-based formatter of the same trace lines,"
echo "    encode_jsonl takes > 0.38x that formatter per line of the whole stream,"
echo "    an event-queue hold at 100G deltas and 4096 queued costs > 4x one at 10G deltas and 64,"
echo "    a switch hop under PFC whose thresholds are never reached costs > 1.3x one without,"
echo "    or one DCTCP flow dispatches more than 6.3 events per data packet)"
cargo bench -q -p ppt --bench microbench

echo "check.sh: all green"
