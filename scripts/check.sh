#!/bin/sh
# Full pre-merge gate: vet, build, the test suite, and the race detector
# over the packages with the heaviest concurrency (the emulator and the
# recovery layers above it).
set -eu

cd "$(dirname "$0")/.."

# stage prints a stage's header, and before it the wall seconds the stage
# before took, so the next slow gate is visible in the log.
stage_name=
stage_start=$(date +%s)
stage() {
    now=$(date +%s)
    [ -z "$stage_name" ] || echo "    ($((now - stage_start)) s: $stage_name)"
    stage_name=$1
    stage_start=$now
    [ -z "$1" ] || echo "==> $*"
}

stage "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

stage "go vet"
go vet ./...

stage "go build"
go build ./...

stage "go test"
go test ./...

stage "one engine in the shipped binary (the tree oracle must link only into internal/interp's tests)"
# The walker lives in internal/interp/oracle_test.go. If any of its entry
# points shows up in a binary that links internal/bento, it has drifted
# back into non-test code and uploaded functions can reach it again.
onebin=$(mktemp)
go build -o "$onebin" ./cmd/torsim
go tool nm "$onebin" > "$onebin.syms"
rm -f "$onebin"
if ! grep -q 'internal/interp\.(\*Machine)\.runProto$' "$onebin.syms"; then
    echo "cmd/torsim does not link the bscript VM; this check is looking at the wrong binary" >&2
    rm -f "$onebin.syms"
    exit 1
fi
if grep -E 'internal/interp\.\(\*Machine\)\.(execBlock|exec|eval|callFunc)$' "$onebin.syms" >&2; then
    echo "the tree-walking oracle is linked into cmd/torsim" >&2
    rm -f "$onebin.syms"
    exit 1
fi
rm -f "$onebin.syms"

stage "repo benchmark self-tests (smoke of all five workloads, probes, ledger)"
go test -count=1 ./benchmark

stage "go test -race (cell, simnet, torclient, bento, wire, otr, relay, obs, interp, fleet)"
go test -race -count=1 ./internal/cell/ ./internal/simnet/ ./internal/torclient/ ./internal/bento/ ./internal/wire/ \
    ./internal/otr/ ./internal/relay/ ./internal/obs/ ./internal/interp/ ./internal/fleet/

stage "bench smoke (all benchmarks, 1 iteration)"
go test -run='^$' -bench=. -benchtime=1x ./...

stage "relay datapath stress under race (circuit teardown vs in-flight forwarding; burst ordering," \
    "spill bounds in cells, idle circuits hold no burst, run datapath vs per-cell reference on both" \
    "transports; owned HS registrations, bounded helper backlog, sibling not stalled by a silent next hop)"
go test -race -count=1 -run='TestTeardownForwardStress|TestSpill|TestBurst|TestExtendThenCellsInOneBurst|TestIdleCircuitHoldsNoBurst|TestHSRegistrationsOwned|TestHelperBacklogBounded|TestSiblingNotStalledBySilentNextHop|TestTransportFollowsClock|TestRendezvousSplice|TestConnectedPrecedesDataAndEnd' ./internal/relay/
go test -race -count=1 -run='TestRun|TestTap' ./internal/torclient/

stage "telemetry regression smoke (instrumented hot path and live sampler must not allocate)"
go test -count=1 -run='TestInstrumentedMicroAllocFree|TestWindowedMicroAllocFree' ./internal/bench/
go test -count=1 -run='TestMiddleHopForwardAllocFree|TestBatchedForwardAllocFree|TestCircuitSizeofPinned|TestSpillQueueRetainsNothing|TestIdleCircuitHoldsNoBurst|TestBurst' ./internal/relay/
go test -count=1 -run='TestReadRunAllocFree' ./internal/cell/
go test -count=1 -run='TestHotPathAllocFree|TestWindowerSampleAllocFree' ./internal/obs/
go test -count=1 -run='TestConnWriteReadAllocFree|TestConnWriteAsyncDeliverAllocFree|TestConnSizeofPinned' ./internal/simnet/

stage "poison-on-recycle (recycled simnet chunks and cell bursts filled with 0xDB: nobody may keep a lent slice)"
go test -count=1 -tags simnet_poison ./internal/simnet/ ./internal/cell/ ./internal/relay/ ./internal/torclient/ \
    ./internal/hs/ ./internal/bento/ ./internal/testbed/
go run -tags simnet_poison ./cmd/benchharness -exp scale -scaleout /dev/null -maxhostbytes 10240

stage "zlib codec reuse under race (functions is not in the package race list above)"
go test -race -count=1 -run='TestZlibReused' ./internal/functions/

stage "multi-core alloc smoke (worker batched forward path at GOMAXPROCS=4)"
# AllocsPerRun pins GOMAXPROCS to 1 during the measured section; running
# the test under GOMAXPROCS=4 still exercises setup/teardown and the
# batch-writer flusher with real parallelism around it.
GOMAXPROCS=4 go test -count=1 -run='TestBatchedForwardAllocFree' ./internal/relay/

stage "datapath perf floor (fresh single-core forward rate vs committed floor)"
floor=$(sed -n 's/.*"forward_floor_cells_per_sec": *\([0-9.]*\).*/\1/p' BENCH_datapath.json)
tmpjson=$(mktemp)
go run ./cmd/benchharness -exp datapath -benchout "$tmpjson" -minfwd "${floor:-130000}"
if [ "$(getconf _NPROCESSORS_ONLN)" -ge 4 ]; then
    # On >= 4 cores the harness must have measured it ("parallel_scaling":
    # "measured" and a number); below that it writes null + "unmeasured".
    if ! grep -q '"parallel_scaling": *"measured"' "$tmpjson"; then
        echo "parallel scaling not measured on a >=4-core host" >&2
        rm -f "$tmpjson"
        exit 1
    fi
    scaling=$(sed -n 's/.*"parallel_scaling_4x": *\([0-9.][0-9.]*\).*/\1/p' "$tmpjson")
    if ! awk "BEGIN { exit !(${scaling:-0} >= 2.5) }"; then
        echo "parallel scaling 4x/1x = ${scaling:-?}, want >= 2.5 on a >=4-core host" >&2
        rm -f "$tmpjson"
        exit 1
    fi
    echo "parallel scaling 4x/1x = $scaling (>= 2.5)"
else
    echo "(host has <4 cores; skipping the GOMAXPROCS=4 scaling assertion)"
fi
rm -f "$tmpjson"

stage "interpreter regression smoke (VM loop must not allocate per iteration)"
go test -count=1 -run='TestVMLoopAllocFree' ./internal/interp/

stage "fuzz smokes, 5 s each (bytecode VM vs test-only tree oracle; relay run datapath vs per-cell reference under" \
    "fuzzer-chosen cuts and corruption; wire decoder bounds; Bento values through a frame and back)"
for fz in internal/interp:FuzzEngineParity internal/relay:FuzzBurstSplit internal/wire:FuzzDecoder internal/bento:FuzzFrameRoundTrip; do
    go test -run='^$' -fuzz="^${fz#*:}\$" -fuzztime=5s "./${fz%%:*}/"
done

stage "fleet reconciliation smoke (chaos faults, must end 100% success)"
go run ./cmd/benchharness -exp fleet -fleetout /dev/null

stage "fleet autoscale smoke (3x ramp + relay crash; capacity must follow demand)"
go run ./cmd/benchharness -exp autoscale -autoscaleout /dev/null

stage "event-core scale smoke (5k hosts, memory per host must stay under 10 KiB)"
go run ./cmd/benchharness -exp scale -scaleout /dev/null -maxhostbytes 10240 -mineventspersec 8000

stage "event-core scale gate (500k hosts through 3-hop circuits, <= 550 B/host)"
# ~12 minutes on one core. CHECK_QUICK=1 skips it for inner-loop runs;
# the full gate is the pre-merge bar.
if [ "${CHECK_QUICK:-0}" = "1" ]; then
    echo "(CHECK_QUICK=1; skipping the 500k gate)"
else
    go run ./cmd/benchharness -exp scale -scaleclients 500000 -scaleout /dev/null \
        -maxhostbytes 550 -mineventspersec 12000
fi

stage ""
echo "All checks passed."
