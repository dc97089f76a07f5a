#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before merging.
#
#   vet        static checks
#   build      every package compiles
#   test -race full suite under the race detector — the parallel
#              campaign engine's determinism tests double as its race
#              exerciser (8 workers over shared world state)
#   bench 1x   smoke-runs every benchmark once so they cannot bit-rot,
#              then compares ns/op against the committed
#              BENCH_campaign.json (warn-only: smoke timings are noisy)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== go test -race, forced multi-proc (batched worker pool) =="
# The full-suite race pass above runs at the runner's GOMAXPROCS, which
# is 1 on single-core CI — goroutines then interleave only at yield
# points, hiding scheduling orders a real multi-core box would explore.
# Re-run the engine packages (persistent worker pool, frozen-frontier
# queue observation) with parallelism forced on so the Workers>1
# determinism tests double as a genuine concurrent exerciser.
GOMAXPROCS=4 go test -race -count=1 ./internal/experiments/ ./internal/netsim/

echo "== fault determinism smoke (workers 1 vs 8 under race) =="
# The fault-injected campaign must stay bit-identical across worker
# counts and batch sizes; run its equivalence test with real
# parallelism so the outage gate and ICMP-silence schedules race.
# The telemetry equivalence test rides along: its counters are read
# concurrently by design, so the race detector must see a telemetry-on
# campaign at Workers>1.
GOMAXPROCS=4 go test -race -count=1 -run 'TestFaultCampaign|TestTelemetryCampaign' ./internal/experiments/

echo "== budget determinism smoke (workers x batch under race) =="
# The probe-budget scheduler must keep campaigns bit-identical per
# (budget, seed) across the Workers x BatchSteps matrix; run the
# equivalence tests with real parallelism so the skip gate, the
# streaming CUSUM taps, and the barrier recomputes race for real.
GOMAXPROCS=4 go test -race -count=1 -run 'TestBudgetCampaignBitIdentical|TestBudgetAwkwardBatchSizesBitIdentical' ./internal/experiments/

echo "== chunked-backing determinism smoke (flat vs compressed under race) =="
# The columnar tschunk backing must be invisible to the numbers: the
# {flat, chunked} x workers x batch-size matrix runs raced at real
# parallelism so block sealing and the streamed loss grid race too.
GOMAXPROCS=4 go test -race -count=1 -run 'TestChunkedCampaign' ./internal/experiments/

echo "== continent-scale smoke (10x generated world, raced) =="
# A 10x generated world (worldgen, ~15 IXPs / ~10^4 links) runs the
# sharded campaign raced with real parallelism: generator determinism
# across GOMAXPROCS, shard-strided probing into shared arenas, and the
# planted-ground-truth recall round-trip all race for real. The 100x
# acceptance matrix skips under the race detector; this is its raced
# stand-in.
GOMAXPROCS=4 go test -race -count=1 \
  -run 'TestGeneratedWorldRecall|TestShardedCampaignBitIdentical|TestShardedMemoryBounded' \
  ./internal/experiments/
GOMAXPROCS=4 go test -race -count=1 ./internal/worldgen/

echo "== streaming observatory determinism smoke (raced) =="
# The observatory rides the campaign read-side: its alert log and
# end-of-campaign verdicts must stay bit-identical across the
# Workers x BatchSteps x Shards matrix (the matrix test self-reduces
# to its far corners under the race detector), the SSE hub must
# survive 1000 concurrent watchers against a publishing feeder, and
# /metrics scrapes must race a live publisher cleanly.
GOMAXPROCS=4 go test -race -count=1 -run 'TestObservatoryCampaignMatrix' ./internal/experiments/
GOMAXPROCS=4 go test -race -count=1 ./internal/observatory/
GOMAXPROCS=4 go test -race -count=1 -run 'TestServeMounts|TestServeScrapeWhilePublishing' ./internal/telemetry/

echo "== /metrics + observatory endpoint smoke =="
# Start a short observatory run with the live telemetry endpoint and a
# linger window, poll until /metrics answers, and assert the snapshot
# carries the instrumented keys end to end (engine counters, probe
# counters, schema tag). Exercises the full wiring: flag parsing, the
# HTTP server, the barrier republication, and the deferred shutdown.
# The same port mounts the streaming observatory API; a background
# curl holds /stream open from before the first batch barrier so the
# smoke can assert a live SSE barrier event, then the paged /links
# table, a /links/{id} detail view, and the /alerts cursor log are
# spot-checked for the observatory schema. Finally cmd/replay re-runs
# the analysis offline over the run's warts archive.
METRICS_ADDR="127.0.0.1:18573"
OBS_OUT="$(mktemp -d)"
OBS_LOG="$(mktemp)"
STREAM_OUT="$(mktemp)"
go run ./cmd/observatory -out "$OBS_OUT" -days 2 -scale 0.05 -no-loss \
  -metrics-addr "$METRICS_ADDR" -metrics-linger 30s >"$OBS_LOG" 2>/dev/null &
OBS_PID=$!
# Hold the SSE stream open while the campaign runs: retry until the
# server accepts (it starts before the first barrier), then collect
# events until the main flow has seen what it needs. On a fast runner
# the short campaign can finish before the first successful connect;
# the -metrics-linger window then republishes the final barrier once
# a second, so a barrier event arrives either way.
(
  for _ in $(seq 1 120); do
    curl -sN --max-time 60 "http://$METRICS_ADDR/stream" >>"$STREAM_OUT" 2>/dev/null || true
    [ -s "$STREAM_OUT" ] && break
    sleep 0.5
  done
) &
STREAM_PID=$!
# Scoped cleanup: the bench section below installs its own EXIT trap
# once this block has already torn everything down inline.
trap 'kill "$OBS_PID" "$STREAM_PID" 2>/dev/null || true; rm -rf "$OBS_OUT" "$OBS_LOG" "$STREAM_OUT"' EXIT
METRICS_JSON=""
for _ in $(seq 1 60); do
  if METRICS_JSON="$(curl -fsS "http://$METRICS_ADDR/metrics" 2>/dev/null)" \
     && [ -n "$METRICS_JSON" ]; then
    break
  fi
  sleep 1
done
[ -n "$METRICS_JSON" ] || { echo "FAIL: /metrics never answered"; exit 1; }
for key in '"schema": "afrixp-telemetry/1"' '"probes"' '"batches_opened"' '"sweeps"'; do
  echo "$METRICS_JSON" | grep -qF "$key" \
    || { echo "FAIL: /metrics snapshot missing $key"; exit 1; }
done

# SSE: the hello handshake plus at least one barrier event raised
# while virtual time was still advancing.
for _ in $(seq 1 120); do
  if grep -q '^event: barrier' "$STREAM_OUT" 2>/dev/null; then break; fi
  sleep 0.5
done
grep -q '^event: hello' "$STREAM_OUT" \
  || { echo "FAIL: /stream sent no hello event"; exit 1; }
grep -qF '"schema":"afrixp-observatory/1"' "$STREAM_OUT" \
  || { echo "FAIL: /stream hello missing observatory schema"; exit 1; }
grep -q '^event: barrier' "$STREAM_OUT" \
  || { echo "FAIL: /stream produced no live barrier event"; exit 1; }
kill "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true

# Paged status table: schema tag and a non-empty watched-link set.
LINKS_JSON="$(curl -fsS "http://$METRICS_ADDR/links?per=5")" \
  || { echo "FAIL: /links did not answer"; exit 1; }
echo "$LINKS_JSON" | grep -qF '"schema": "afrixp-observatory/1"' \
  || { echo "FAIL: /links missing observatory schema"; exit 1; }
if echo "$LINKS_JSON" | grep -qE '"total": 0,?$'; then
  echo "FAIL: /links reports zero watched links"; exit 1
fi

# Detail view for the first listed link id.
LINK_ID="$(echo "$LINKS_JSON" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)"
[ -n "$LINK_ID" ] || { echo "FAIL: /links page carried no link ids"; exit 1; }
DETAIL_JSON="$(curl -fsS "http://$METRICS_ADDR/links/$LINK_ID")" \
  || { echo "FAIL: /links/$LINK_ID did not answer"; exit 1; }
for key in '"schema": "afrixp-observatory/1"' '"diurnal"' '"profile_ms"'; do
  echo "$DETAIL_JSON" | grep -qF "$key" \
    || { echo "FAIL: /links/$LINK_ID missing $key"; exit 1; }
done

# Alert log: schema tag and a resumable cursor.
ALERTS_JSON="$(curl -fsS "http://$METRICS_ADDR/alerts?limit=5")" \
  || { echo "FAIL: /alerts did not answer"; exit 1; }
for key in '"schema": "afrixp-observatory/1"' '"next"' '"alerts"'; do
  echo "$ALERTS_JSON" | grep -qF "$key" \
    || { echo "FAIL: /alerts missing $key"; exit 1; }
done

# Offline replay: the observatory prints its summary table only after
# the warts archive is flushed, so wait for it, then analyze the
# archive over the same 2-day campaign interval.
for _ in $(seq 1 120); do
  if grep -qF 'observatory run complete' "$OBS_LOG"; then break; fi
  sleep 0.5
done
grep -qF 'observatory run complete' "$OBS_LOG" \
  || { echo "FAIL: observatory run never wrote its archive"; exit 1; }
REPLAY_OUT="$(go run ./cmd/replay -warts "$OBS_OUT/measurements.warts" -days 2)" \
  || { echo "FAIL: replay of the observatory archive failed"; exit 1; }
echo "$REPLAY_OUT" | grep -qF 'offline analysis of' \
  || { echo "FAIL: replay printed no analysis table"; exit 1; }

kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true
rm -rf "$OBS_OUT" "$OBS_LOG" "$STREAM_OUT"
echo "metrics + observatory + replay OK"

echo "== checkpoint-restart smoke (kill -9 mid-campaign, resume, byte-identical) =="
# An uninterrupted faulted+budgeted campaign prints its result digest;
# the same campaign is then run with barrier checkpointing, killed with
# SIGKILL once the first snapshot lands (a fast runner may finish
# first — then the kill is a no-op and resume still replays from the
# newest barrier), and resumed. The resumed digest must match the
# uninterrupted one bit for bit.
CKPT_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP"' EXIT
go build -o "$CKPT_TMP/repro" ./cmd/repro
REPRO_ARGS=(-days 4 -scale 0.05 -no-loss -faults -budget 0.5 -budget-seed 1 -quiet -result-sha)
REF_SHA="$(GOMAXPROCS=4 "$CKPT_TMP/repro" "${REPRO_ARGS[@]}" | grep '^result sha256:')"
[ -n "$REF_SHA" ] || { echo "FAIL: reference run printed no result digest"; exit 1; }
GOMAXPROCS=4 "$CKPT_TMP/repro" "${REPRO_ARGS[@]}" \
  -checkpoint-dir "$CKPT_TMP/snaps" -checkpoint-every 12h >/dev/null 2>&1 &
CKPT_PID=$!
for _ in $(seq 1 240); do
  if ls "$CKPT_TMP/snaps"/ckpt-*.bin >/dev/null 2>&1; then break; fi
  kill -0 "$CKPT_PID" 2>/dev/null || break
  sleep 0.25
done
kill -9 "$CKPT_PID" 2>/dev/null || true
wait "$CKPT_PID" 2>/dev/null || true
ls "$CKPT_TMP/snaps"/ckpt-*.bin >/dev/null 2>&1 \
  || { echo "FAIL: no checkpoint written before the kill"; exit 1; }
RES_SHA="$(GOMAXPROCS=4 "$CKPT_TMP/repro" "${REPRO_ARGS[@]}" \
  -checkpoint-dir "$CKPT_TMP/snaps" -resume | grep '^result sha256:')"
[ "$REF_SHA" = "$RES_SHA" ] \
  || { echo "FAIL: resumed run differs from uninterrupted: '$RES_SHA' vs '$REF_SHA'"; exit 1; }
rm -rf "$CKPT_TMP"
echo "checkpoint restart OK (${REF_SHA#result sha256: })"

echo "== bench smoke (1 iteration each) =="
SMOKE="$(mktemp)"
trap 'rm -f "$SMOKE"' EXIT
go test -run '^$' -bench . -benchtime 1x . | tee "$SMOKE"
# Per-layer micro-benchmarks of the discovery kernels (route
# computation, connected-subnet lookup, diurnal load) run on the
# generated worlds; smoke them too. The ledger does not track them, so
# they stay out of the guard below.
go test -run '^$' -bench . -benchtime 1x ./internal/bgpsim ./internal/netsim ./internal/trafficmodel

echo "== bench regression guard (warn-only) =="
# Single-iteration timings are noisy, so a regression here warns but
# never fails CI; scripts/bench.sh records the authoritative numbers.
go run ./scripts/benchjson -guard -raw "$SMOKE" -prev BENCH_campaign.json -tolerance 25 || true
echo "runner cores: $(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

echo "CI OK"
