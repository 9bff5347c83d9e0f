#!/bin/sh
# Full pre-merge gate: vet, build, the test suite, and the race detector
# over the packages with the heaviest concurrency (the emulator and the
# recovery layers above it).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

echo "==> repo benchmark self-tests (smoke of all five workloads, probes, ledger)"
go test -count=1 ./benchmark

echo "==> go test -race (cell, simnet, torclient, bento, wire, otr, relay, obs, interp, fleet)"
go test -race -count=1 ./internal/cell/ ./internal/simnet/ ./internal/torclient/ ./internal/bento/ ./internal/wire/ \
    ./internal/otr/ ./internal/relay/ ./internal/obs/ ./internal/interp/ ./internal/fleet/

echo "==> bench smoke (all benchmarks, 1 iteration)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> relay datapath stress under race (circuit teardown vs in-flight forwarding; burst ordering,"
echo "    spill bounds in cells, idle circuits hold no burst, run datapath vs per-cell reference)"
go test -race -count=1 -run='TestTeardownForwardStress|TestSpill|TestBurst|TestExtendThenCellsInOneBurst|TestIdleCircuitHoldsNoBurst' ./internal/relay/
go test -race -count=1 -run='TestRun|TestTap' ./internal/torclient/

echo "==> telemetry regression smoke (instrumented hot path and live sampler must not allocate)"
go test -count=1 -run='TestInstrumentedMicroAllocFree|TestWindowedMicroAllocFree' ./internal/bench/
go test -count=1 -run='TestMiddleHopForwardAllocFree|TestBatchedForwardAllocFree|TestSpillQueueRetainsNothing|TestIdleCircuitHoldsNoBurst|TestBurst' ./internal/relay/
go test -count=1 -run='TestReadRunAllocFree' ./internal/cell/
go test -count=1 -run='TestHotPathAllocFree|TestWindowerSampleAllocFree' ./internal/obs/
go test -count=1 -run='TestConnWriteReadAllocFree|TestConnWriteAsyncDeliverAllocFree|TestConnSizeofPinned' ./internal/simnet/

echo "==> poison-on-recycle (recycled simnet chunks and cell bursts filled with 0xDB: nobody may keep a lent slice)"
go test -count=1 -tags simnet_poison ./internal/simnet/ ./internal/cell/ ./internal/relay/ ./internal/torclient/ \
    ./internal/hs/ ./internal/bento/ ./internal/testbed/
go run -tags simnet_poison ./cmd/benchharness -exp scale -scaleout /dev/null -maxhostbytes 10240

echo "==> zlib codec reuse under race (functions is not in the package race list above)"
go test -race -count=1 -run='TestZlibReused' ./internal/functions/

echo "==> multi-core alloc smoke (worker batched forward path at GOMAXPROCS=4)"
# AllocsPerRun pins GOMAXPROCS to 1 during the measured section; running
# the test under GOMAXPROCS=4 still exercises setup/teardown and the
# batch-writer flusher with real parallelism around it.
GOMAXPROCS=4 go test -count=1 -run='TestBatchedForwardAllocFree' ./internal/relay/

echo "==> datapath perf floor (fresh single-core forward rate vs committed floor)"
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

echo "==> interpreter regression smoke (VM loop must not allocate per iteration)"
go test -count=1 -run='TestVMLoopAllocFree' ./internal/interp/

echo "==> engine parity fuzz smoke (tree-walker vs bytecode VM)"
go test -run='^$' -fuzz='^FuzzEngineParity$' -fuzztime=5s ./internal/interp/

echo "==> burst split fuzz smoke (relay run datapath vs per-cell reference, fuzzer-chosen cuts and corruption)"
go test -run='^$' -fuzz='^FuzzBurstSplit$' -fuzztime=5s ./internal/relay/

echo "==> frame fuzz smokes (wire decoder bounds; Bento values through a frame and back, junk into both roles' decoders)"
go test -run='^$' -fuzz='^FuzzDecoder$' -fuzztime=5s ./internal/wire/
go test -run='^$' -fuzz='^FuzzFrameRoundTrip$' -fuzztime=5s ./internal/bento/

echo "==> fleet reconciliation smoke (chaos faults, must end 100% success)"
go run ./cmd/benchharness -exp fleet -fleetout /dev/null

echo "==> fleet autoscale smoke (3x ramp + relay crash; capacity must follow demand)"
go run ./cmd/benchharness -exp autoscale -autoscaleout /dev/null

echo "==> event-core scale smoke (5k hosts, memory per host must stay under 10 KiB)"
go run ./cmd/benchharness -exp scale -scaleout /dev/null -maxhostbytes 10240 -mineventspersec 8000

echo "==> event-core scale gate (500k hosts through 3-hop circuits, <= 550 B/host)"
# ~12 minutes on one core. CHECK_QUICK=1 skips it for inner-loop runs;
# the full gate is the pre-merge bar.
if [ "${CHECK_QUICK:-0}" = "1" ]; then
    echo "(CHECK_QUICK=1; skipping the 500k gate)"
else
    go run ./cmd/benchharness -exp scale -scaleclients 500000 -scaleout /dev/null \
        -maxhostbytes 550 -mineventspersec 12000
fi

echo "All checks passed."
