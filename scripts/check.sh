#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (warnings are errors), tests.
# Run before sending a PR; CI mirrors these steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --workspace --all-targets --features audit -- -D warnings"
# The audit checks live behind #[cfg(feature = "audit")], which the lane
# above never compiles.
cargo clippy --workspace --all-targets --features audit -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# A dangling intra-doc link (e.g. to a deleted type) fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q"
cargo test -q

echo "==> canned scenario determinism (byte-identical metrics vs golden)"
# short.json runs FIRM + Sora; the three stack_*.json specs run HPA + Sora,
# VPA + ConScale and VPA + Sora, each sized so its controllers actuate.
cargo build -q --release -p sora-bench --bin run_scenario
for s in short stack_hpa_sora stack_vpa_conscale stack_vpa_sora; do
  cp "results/scenario_$s.json" "/tmp/scenario_${s}_golden.json"
  ./target/release/run_scenario "scenarios/$s.json" > /dev/null
  python3 - "$s" <<'EOF'
import json, sys
name = sys.argv[1]
def strip(d):  # perf blocks carry wall-clock timings and may differ run to run
    return {k: v for k, v in d.items() if k != "perf"} if isinstance(d, dict) else d
new = strip(json.load(open(f"results/scenario_{name}.json")))
gold = strip(json.load(open(f"/tmp/scenario_{name}_golden.json")))
if new != gold:
    sys.exit(f"scenario_{name} metrics diverged from the committed golden")
EOF
  mv "/tmp/scenario_${s}_golden.json" "results/scenario_$s.json"
done

echo "==> fault_resilience smoke (determinism across --jobs)"
# Smoke/quick runs overwrite the committed full-run result files; stash and
# restore them so the hygiene gate leaves the tree clean.
cp results/fault_resilience.json /tmp/fault_resilience_golden.json
cargo build -q --release -p sora-bench --bin fault_resilience
./target/release/fault_resilience --smoke --jobs 1 2>/dev/null > /tmp/fault_smoke_j1.txt
./target/release/fault_resilience --smoke --jobs 4 2>/dev/null > /tmp/fault_smoke_j4.txt
diff /tmp/fault_smoke_j1.txt /tmp/fault_smoke_j4.txt \
  || { echo "fault_resilience output differs between --jobs 1 and --jobs 4"; exit 1; }
rm -f /tmp/fault_smoke_j4.txt

echo "==> scale smoke (determinism across --jobs, audited)"
# ~500 generated services under 50k users, fully audited, after an
# in-binary assert that steady-state event-queue churn allocates nothing.
# The canonical stdout is diffed byte-for-byte across worker counts, and
# the saved result file is checked against the expected BENCH_scale.json
# schema.
cp results/BENCH_scale.json /tmp/BENCH_scale_golden.json
cargo build -q --release -p sora-bench --features audit --bin scale
./target/release/scale --smoke --jobs 1 2>/dev/null > /tmp/scale_smoke_j1.txt
./target/release/scale --smoke --jobs 4 2>/dev/null > /tmp/scale_smoke_j4.txt
diff /tmp/scale_smoke_j1.txt /tmp/scale_smoke_j4.txt \
  || { echo "scale output differs between --jobs 1 and --jobs 4"; exit 1; }
python3 - <<'EOF'
import json, sys
doc = json.load(open("results/BENCH_scale.json"))
data = doc["data"]
point_keys = {"point", "spans_per_request", "counters", "events_per_sec",
              "bytes_per_request", "allocs_per_request", "wall_secs"}
counter_keys = {"completed", "dropped", "events", "requests", "spans",
                "p99_ms_bits"}
try:
    assert {"trace", "smoke", "steady_state", "points"} <= set(data), "top-level keys"
    assert data["steady_state"]["allocs"] == 0, "steady-state churn allocated"
    assert len(data["points"]) >= 1, "no points"
    for p in data["points"]:
        assert set(p) == point_keys, f"point keys drifted: {sorted(set(p) ^ point_keys)}"
        assert set(p["counters"]) == counter_keys, "counters drifted"
except AssertionError as e:
    sys.exit(f"BENCH_scale.json schema drift: {e}")
EOF
rm -f /tmp/scale_smoke_j1.txt /tmp/scale_smoke_j4.txt
mv /tmp/BENCH_scale_golden.json results/BENCH_scale.json

echo "==> par_scale smoke (byte-identity across shard counts, audited)"
# A 500-service world under a canned fault schedule (replica crash with
# restart, CPU pressure, telemetry blackout), fully audited, run at 1 and
# 4 shards. The canonical digest — counters, drop breakdown, fault log and
# order-sensitive stream hashes — must be byte-identical: the shard tally
# only counts the one event loop's dispatches (DESIGN §14). The committed
# full-run artifact is then schema-checked, including the headline claims.
cargo build -q --release -p sora-bench --features audit --bin par_scale
./target/release/par_scale --smoke --shards 1 2>/dev/null > /tmp/par_smoke_s1.txt
./target/release/par_scale --smoke --shards 4 2>/dev/null > /tmp/par_smoke_s4.txt
diff /tmp/par_smoke_s1.txt /tmp/par_smoke_s4.txt \
  || { echo "par_scale digest differs between --shards 1 and --shards 4"; exit 1; }
grep -q "^fault: " /tmp/par_smoke_s1.txt \
  || { echo "par_scale smoke ran without its fault schedule"; exit 1; }
rm -f /tmp/par_smoke_s1.txt /tmp/par_smoke_s4.txt
python3 - <<'EOF'
import json, sys
doc = json.load(open("results/BENCH_par_scale.json"))
data = doc["data"]
top_keys = {"services", "requests", "sim_secs", "host_cores", "shard_counts",
            "engines_identical", "critical_path_speedup_at_4",
            "wall_speedup_at_4", "runs"}
run_keys = {"shards", "counters", "critical_path_events",
            "critical_path_speedup", "events_per_sec", "wall_secs"}
counter_keys = {"completed", "dropped", "events", "requests", "spans",
                "p99_ms_bits", "completions_fnv", "drops_fnv"}
try:
    assert set(data) == top_keys, f"top-level keys drifted: {sorted(set(data) ^ top_keys)}"
    assert data["engines_identical"] is True, "shard counts diverged"
    assert data["critical_path_speedup_at_4"] >= 1.5, \
        "window schedule exposes < 1.5x parallelism at 4 shards"
    runs = data["runs"]
    assert [r["shards"] for r in runs] == list(data["shard_counts"]), "run order drifted"
    assert runs[0]["shards"] == 1, "sequential oracle missing"
    for r in runs:
        assert set(r) == run_keys, f"run keys drifted: {sorted(set(r) ^ run_keys)}"
        assert set(r["counters"]) == counter_keys, "counters drifted"
        assert r["counters"] == runs[0]["counters"], f"shards={r['shards']} diverged"
    assert runs[0]["critical_path_events"] == runs[0]["counters"]["events"], \
        "one-shard critical path must equal total events"
except AssertionError as e:
    sys.exit(f"BENCH_par_scale.json schema drift: {e}")
EOF

echo "==> perf ledger tests (smoke correctness gate on all six workloads, metric names)"
# The benchmark's own tests: every workload (wide-sharded included) runs
# its --smoke pass through the ledger's correctness gate, and the metric
# names and units must match BENCHMARK.json. The ledger is a workspace of
# its own (ledger/Cargo.toml), so no step above builds or tests it.
cargo test --release --offline --manifest-path ledger/Cargo.toml

echo "==> net_resilience smoke (network substrate, determinism across --jobs, audited)"
# Partition-heal, slow-link, retry-storm, and reordered-telemetry scenarios
# over the message-passing network, fully audited (loss, duplication, and
# orphaned frames must leave every conservation ledger clean). The canonical
# smoke stdout is byte-diffed across worker counts; the committed full-run
# artifact is schema-checked, including the headline claims: partitions and
# saturation are accounted as such, duplicate telemetry is deduped, and the
# hardened degradation guard holds SLO violations below the no-guard
# ablation under reordered telemetry.
cp results/BENCH_net_resilience.json /tmp/BENCH_net_resilience_golden.json
cargo build -q --release -p sora-bench --features audit --bin net_resilience
./target/release/net_resilience --smoke --jobs 1 2>/dev/null > /tmp/net_smoke_j1.txt
./target/release/net_resilience --smoke --jobs 4 2>/dev/null > /tmp/net_smoke_j4.txt
diff /tmp/net_smoke_j1.txt /tmp/net_smoke_j4.txt \
  || { echo "net_resilience output differs between --jobs 1 and --jobs 4"; exit 1; }
# The fresh audited run itself, not only the committed artifact, must
# dedupe retransmitted trace reports in the guard variant: its verdict line
# ends "...; N duplicate traces deduped)".
DEDUPED=$(sed -n 's/^reordered telemetry: .*; \([0-9][0-9]*\) duplicate traces deduped)$/\1/p' \
  /tmp/net_smoke_j1.txt)
[ "${DEDUPED:-0}" -gt 0 ] \
  || { echo "net_resilience smoke: the guard variant deduped no duplicate traces"; exit 1; }
python3 - <<'EOF'
import json, sys
doc = json.load(open("/tmp/BENCH_net_resilience_golden.json"))
data = doc["data"]
labels = ["partition-heal", "slow-link", "retry-storm",
          "telemetry-reorder-guard", "telemetry-reorder-noguard"]
variant_keys = {
    "label", "completed", "dropped", "drop_breakdown", "retry",
    "goodput_rps", "slo_violations", "p95_ms", "p99_ms", "net",
    "telemetry_duplicates_dropped", "frozen_periods",
    "final_thread_limit", "fault_log",
}
net_keys = {"messages", "lost_random", "lost_partitioned", "lost_saturated",
            "duplicated", "call_retries", "orphaned_frames"}
try:
    v = {x["label"]: x for x in data["variants"]}
    assert [x["label"] for x in data["variants"]] == labels, "variant labels drifted"
    for x in data["variants"]:
        assert set(x) == variant_keys, f"variant keys drifted: {sorted(set(x) ^ variant_keys)}"
        assert set(x["net"]) == net_keys, f"net stats keys drifted"
        assert {"net_lost", "net_timed_out"} <= set(x["drop_breakdown"]), "net drop reasons missing"
    assert v["partition-heal"]["net"]["lost_partitioned"] > 0, "partition never dropped a message"
    assert v["partition-heal"]["drop_breakdown"]["net_timed_out"] > 0, "no call-timeout aborts"
    assert v["slow-link"]["net"]["lost_random"] + v["slow-link"]["net"]["lost_saturated"] == 0, \
        "slow link must degrade latency, not lose messages"
    assert v["retry-storm"]["net"]["lost_saturated"] > 0, "retry storm never saturated the link"
    assert v["retry-storm"]["net"]["call_retries"] > 0, "retry storm never resent a call"
    assert v["telemetry-reorder-guard"]["telemetry_duplicates_dropped"] > 0, "no duplicates deduped"
    assert v["telemetry-reorder-guard"]["frozen_periods"] > 0, "guard never froze"
    assert data["degradation_helps"] is True, \
        "hardened guard must hold SLO violations below the no-guard ablation"
except AssertionError as e:
    sys.exit(f"BENCH_net_resilience.json schema drift: {e}")
EOF
rm -f /tmp/net_smoke_j1.txt /tmp/net_smoke_j4.txt
mv /tmp/BENCH_net_resilience_golden.json results/BENCH_net_resilience.json

echo "==> service plane: wire-vs-inprocess bytes, sweep farm kill/resume (sora-server)"
# The control plane's headline invariant: a scenario submitted over the wire
# (TCP submit, and the worker-process farm at any worker count) produces
# byte-identical result JSON to the same scenario run in-process. Then the
# farm is killed mid-sweep with SIGINT and must resume from its cache.
cargo test -q -p sora-server
cargo build -q --release -p sora-server
SRV=./target/release/sora-server
LANE=$(mktemp -d /tmp/sora-server-lane.XXXXXX)

# Cache-key hygiene: a terse spelling of short.json (keys reordered, floats
# as integers, null/default fields omitted) must share its cache key.
python3 - "$LANE" <<'EOF'
import json, sys
spec = json.load(open("scenarios/short.json"))
terse = {k: v for k, v in reversed(list(spec.items())) if v is not None}
terse["max_users"] = int(spec["max_users"])
terse["duration_secs"] = float(spec["duration_secs"])
json.dump(terse, open(sys.argv[1] + "/terse.json", "w"))
EOF
KEY_A=$("$SRV" canon-key scenarios/short.json)
KEY_B=$("$SRV" canon-key "$LANE/terse.json")
[ "$KEY_A" = "$KEY_B" ] \
  || { echo "equivalent scenario spellings got different cache keys: $KEY_A vs $KEY_B"; exit 1; }

# TCP submit returns the exact bytes of the in-process run.
"$SRV" run-local scenarios/short.json > "$LANE/local.json"
PORT=$((20000 + $$ % 20000))
"$SRV" serve --addr 127.0.0.1:$PORT 2>/dev/null &
SRV_PID=$!
for _ in $(seq 1 100); do
  "$SRV" ping --addr 127.0.0.1:$PORT >/dev/null 2>&1 && break
  sleep 0.1
done
"$SRV" submit --addr 127.0.0.1:$PORT scenarios/short.json > "$LANE/remote.json"
kill -INT $SRV_PID 2>/dev/null; wait $SRV_PID || true
cmp "$LANE/local.json" "$LANE/remote.json" \
  || { echo "wire result differs from in-process result"; exit 1; }

# Sharding is unobservable on the wire path: short.json with "shards": 4
# yields the unsharded result, spec block aside (the shard tally only
# sets critical_path_events, DESIGN §14).
python3 - "$LANE" <<'EOF'
import json, sys
spec = json.load(open("scenarios/short.json"))
spec["shards"] = 4
json.dump(spec, open(sys.argv[1] + "/sharded.json", "w"))
EOF
"$SRV" run-local "$LANE/sharded.json" > "$LANE/sharded_result.json"
python3 - "$LANE" <<'EOF'
import json, sys
def body(name):
    d = json.load(open(sys.argv[1] + "/" + name))
    assert d.pop("spec")["shards"] in (None, 4)
    return d
if body("local.json") != body("sharded_result.json"):
    sys.exit("short.json with shards=4 diverged from the unsharded result")
EOF

# The farm produces those same bytes at --workers 1 and --workers 4.
for s in 101 102 103; do
  sed 's/"seed": 7/"seed": '$s'/' scenarios/short.json > "$LANE/s$s.json"
done
"$SRV" sweep --cache "$LANE/c1" --workers 1 "$LANE"/s10?.json > /dev/null 2>&1
"$SRV" sweep --cache "$LANE/c4" --workers 4 "$LANE"/s10?.json > /dev/null 2>&1
for s in 101 102 103; do
  K=$("$SRV" canon-key "$LANE/s$s.json")
  "$SRV" run-local "$LANE/s$s.json" > "$LANE/inproc.json"
  cmp "$LANE/c1/$K.json" "$LANE/inproc.json" \
    || { echo "farm --workers 1 bytes differ from in-process for seed $s"; exit 1; }
  cmp "$LANE/c4/$K.json" "$LANE/inproc.json" \
    || { echo "farm --workers 4 bytes differ from in-process for seed $s"; exit 1; }
done

# Kill the farm mid-sweep; the flushed partial cache is the resume state.
sed -e 's/"duration_secs": 60/"duration_secs": 300/' -e 's/"max_users": 800.0/"max_users": 2000/' \
  scenarios/short.json > "$LANE/heavy.json"
for s in 201 202 203 204 205 206; do
  sed 's/"seed": 7/"seed": '$s'/' "$LANE/heavy.json" > "$LANE/k$s.json"
done
"$SRV" sweep --cache "$LANE/ck" --workers 1 "$LANE"/k20?.json > "$LANE/sweep1.out" 2>/dev/null &
FARM_PID=$!
for _ in $(seq 1 400); do
  FLUSHED=$(ls "$LANE/ck" 2>/dev/null | grep -c '^[0-9a-f].*\.json$' || true)
  [ "${FLUSHED:-0}" -ge 1 ] && break
  sleep 0.05
done
kill -INT $FARM_PID
FARM_RC=0; wait $FARM_PID || FARM_RC=$?
[ "$FARM_RC" -eq 130 ] || { echo "interrupted farm exited $FARM_RC, expected 130"; exit 1; }
grep -q "interrupted=true" "$LANE/sweep1.out" \
  || { echo "interrupted farm did not report interrupted=true"; exit 1; }
BEFORE=$(ls "$LANE/ck" | grep -c '^[0-9a-f].*\.json$')
[ "$BEFORE" -ge 1 ] && [ "$BEFORE" -lt 6 ] \
  || { echo "kill window missed: $BEFORE of 6 results flushed"; exit 1; }
"$SRV" sweep --cache "$LANE/ck" --workers 1 "$LANE"/k20?.json > "$LANE/sweep2.out" 2>/dev/null \
  || { echo "resumed farm failed"; exit 1; }
grep -q "interrupted=false" "$LANE/sweep2.out" \
  || { echo "resumed farm did not run to completion"; exit 1; }
HITS=$(sed -n 's/.*cache_hits=\([0-9]*\).*/\1/p' "$LANE/sweep2.out")
[ "$HITS" -eq "$BEFORE" ] \
  || { echo "resume reported $HITS cache hits, expected $BEFORE"; exit 1; }
AFTER=$(ls "$LANE/ck" | grep -c '^[0-9a-f].*\.json$')
[ "$AFTER" -eq 6 ] || { echo "resume left $AFTER of 6 results"; exit 1; }
rm -rf "$LANE"

echo "==> Fig. 10 is the spec path (fig10 --quick arms = run-local of scenarios/fig10_sora.json)"
# The paper binaries build every run through ScenarioSpec, so Fig. 10's
# Sora arm is scenarios/fig10_sora.json and its FIRM arm the same spec
# with "soft": "none". At the quick length (180 s) both arms' timeline,
# rt, goodput and summary must equal sora-server's in-process result.
cp results/fig10_firm_vs_sora.json /tmp/fig10_golden.json
cargo build -q --release -p sora-bench --bin fig10_firm_vs_sora
./target/release/fig10_firm_vs_sora --quick > /dev/null 2>&1
LANE=$(mktemp -d /tmp/fig10-lane.XXXXXX)
python3 - "$LANE" <<'EOF'
import json, sys
spec = json.load(open("scenarios/fig10_sora.json"))
spec["duration_secs"] = 180
json.dump(spec, open(sys.argv[1] + "/sora.json", "w"))
spec["soft"] = "none"
json.dump(spec, open(sys.argv[1] + "/firm.json", "w"))
EOF
"$SRV" run-local "$LANE/sora.json" > "$LANE/sora_result.json"
"$SRV" run-local "$LANE/firm.json" > "$LANE/firm_result.json"
python3 - "$LANE" <<'EOF'
import json, sys
arms = json.load(open("results/fig10_firm_vs_sora.json"))["data"]
for arm in ("sora", "firm"):
    got = json.load(open(f"{sys.argv[1]}/{arm}_result.json"))
    for key in ("timeline", "rt", "goodput", "summary"):
        if got[key] != arms[arm][key]:
            sys.exit(f"fig10 --quick {arm} arm's {key} differs from run-local of its spec")
EOF
rm -rf "$LANE"
mv /tmp/fig10_golden.json results/fig10_firm_vs_sora.json

echo "==> audit lane: conservation laws (--features audit)"
# Unit + metamorphic coverage of the audit layer itself.
cargo test -q --features audit
for p in cluster telemetry workload microsim; do
  cargo test -q -p "$p" --features audit audit
done
# The tab01 quick sweep and the canned fault schedule run fully audited:
# any conservation-law violation panics the binary and fails the gate.
cp results/tab01_sampling_mape.json /tmp/tab01_golden.json
cargo build -q --release -p sora-bench --features audit \
  --bin tab01_sampling_mape --bin fault_resilience
./target/release/tab01_sampling_mape --quick > /dev/null
mv /tmp/tab01_golden.json results/tab01_sampling_mape.json
# Auditing must not perturb the simulation: the audited smoke run's stdout
# is byte-identical to the unaudited run saved above.
./target/release/fault_resilience --smoke --jobs 4 2>/dev/null > /tmp/fault_smoke_audit.txt
diff /tmp/fault_smoke_j1.txt /tmp/fault_smoke_audit.txt \
  || { echo "fault_resilience output differs with --features audit"; exit 1; }
rm -f /tmp/fault_smoke_j1.txt /tmp/fault_smoke_audit.txt
mv /tmp/fault_resilience_golden.json results/fault_resilience.json

echo "==> fuzz lane: scenario fuzzing (fixed seeds, audited, deterministic)"
# A fixed seed window through the generator → oracle → shrinker pipeline
# (crates/fuzz, DESIGN.md §15), built with the conservation-law audit
# armed. The canonical report on stdout must be byte-identical across
# worker counts and fully clean; the seeded test-only defect
# (--inject-bad) must be detected by the `injected` oracle and shrunk to
# at most 25% of the original spec, proving the detector → shrinker
# pipeline is live. The committed 10k-seed campaign artifact is
# schema-checked without being re-run.
cargo build -q --release -p sora-fuzz --features audit --bin fuzz
./target/release/fuzz --seeds 0..40 --no-save --jobs 1 2>/dev/null > /tmp/fuzz_j1.json
./target/release/fuzz --seeds 0..40 --no-save --jobs 4 2>/dev/null > /tmp/fuzz_j4.json
diff /tmp/fuzz_j1.json /tmp/fuzz_j4.json \
  || { echo "fuzz report differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q '"clean": 40' /tmp/fuzz_j1.json \
  || { echo "fuzz lane found violations in the fixed seed window"; exit 1; }
rm -f /tmp/fuzz_j1.json /tmp/fuzz_j4.json
python3 - <<'EOF'
import json, sys
doc = json.load(open("results/BENCH_fuzz.json"))
data = doc["data"]
top_keys = {"seed_start", "seed_end", "seeds_run", "clean", "injected",
            "audited", "engine_fingerprint", "findings"}
finding_keys = {"seed", "oracle", "detail", "spec_bytes", "shrunk_bytes",
                "spec", "shrunk"}
try:
    assert set(data) == top_keys, f"top-level keys drifted: {sorted(set(data) ^ top_keys)}"
    assert data["seeds_run"] >= 10_000, "campaign budget shrank below 10k seeds"
    assert data["audited"] is True, "campaign ran without the audit oracle"
    assert data["injected"] is False, "campaign artifact ran with the seeded defect armed"
    assert data["clean"] + len(data["findings"]) == data["seeds_run"], "verdicts don't sum"
    assert not data["findings"], \
        "campaign artifact carries unfixed findings — fix them and re-run the campaign"
    for f in data["findings"]:
        assert set(f) == finding_keys, f"finding keys drifted: {sorted(set(f) ^ finding_keys)}"
        assert 4 * f["shrunk_bytes"] <= f["spec_bytes"], \
            f"seed {f['seed']}: reproducer not shrunk to <= 25%"
except AssertionError as e:
    sys.exit(f"BENCH_fuzz.json schema drift: {e}")
EOF

echo "all checks passed"
