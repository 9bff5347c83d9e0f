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

stage "one wait: simulation goroutines park through simnet.Cond (ROADMAP item 1)"
# want WHAT PATTERN PATHS ALLOWED: the file:count list of the non-test
# code lines under PATHS that match PATTERN must be exactly ALLOWED (empty:
# none may match).
want() {
    found=$(grep -rnE --include='*.go' "$2" $3 | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
        cut -d: -f1 | sort | uniq -c | awk '{printf "%s:%s ", $2, $1}')
    [ "$found" = "${4:+$4 }" ] || { echo "$1 differ from the allowlist in scripts/check.sh: $found" >&2; exit 1; }
}
# A sync wait blocks where the event core cannot see it. Allowed: the
# event core's dispatcher, which the other waits park against, and the
# driver of relay.RunParallelForwardBench, which runs outside any
# simulation (benchmark/'s probe).
want "sync.Cond/WaitGroup sites" 'sync\.(NewCond|Cond|WaitGroup)\b' "internal/simnet internal/torclient internal/fleet
    internal/bento internal/hs internal/stemfw internal/sandbox internal/relay" \
    "internal/relay/bench.go:1 internal/simnet/sched.go:2"
# Parkers come from Cond.Wait and Sleep only: no hand-written waiter lists.
want "parker sites" 'newParker\(' internal/simnet \
    "internal/simnet/clock.go:1 internal/simnet/cond.go:1 internal/simnet/sched.go:1"
# torclient, the relay, the fleet, the Bento server and the Stem firewall
# wait on no channel.
want "channel sites" '\bchan\b' "internal/torclient internal/relay internal/fleet internal/bento
    internal/stemfw" ""
# A client circuit reads its guard link in a deliver callback and writes it
# directly (DESIGN.md §13.3); the relay, the directory authority, the web
# farm and the Bento server accept with a callback and serve with deliver
# callbacks (DESIGN.md "In-simulation servers"), a Bento request's op
# starting through Clock.Go in simnet's request server; the fleet
# controller starts its probes, placements and teardowns through Clock.Go;
# the Stem firewall starts none, and the function library starts its
# multipath fetches through Clock.Go. Allowed: the workers of
# relay.RunParallelForwardBench, which run outside any simulation
# (benchmark/'s probe).
want "go statements" '^[[:space:]]*go[[:space:]]' "internal/torclient internal/relay internal/bento
    internal/stemfw internal/functions internal/dirauth internal/webfarm internal/fleet" \
    "internal/relay/bench.go:1"
# Each end of a circuit originates relay cells in one function, where they
# are sealed: the client's Circuit.originate and the relay's
# circuit.originate (DESIGN.md §13). want_funcs is want with each match
# named by the function it is in (file:function:count).
want_funcs() {
    found=$(find $3 -name '*.go' ! -name '*_test.go' | sort | PAT=$2 xargs awk '
        /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
        $0 ~ ENVIRON["PAT"] && !/^[[:space:]]*\/\// { print FILENAME ":" fn }' | sort | uniq -c | awk '{printf "%s:%s ", $2, $1}')
    [ "$found" = "${4:+$4 }" ] || { echo "$1 differ from the allowlist in scripts/check.sh: $found" >&2; exit 1; }
}
want_funcs "relay-cell seal sites" 'OnionEncrypt\(|OnionCryptBatch\(|Seal(Forward|Backward)(Batch)?\(' "internal/torclient internal/relay" \
    "internal/relay/circuit.go:originate:1 internal/torclient/circuit.go:originate:2"
# A relay link is served by deliver callbacks and written with WriteAsync
# on both clocks (DESIGN.md §13.1): no link writer of its own either.
want "BatchWriter uses" 'BatchWriter' "internal/torclient internal/relay" ""
# No circuit has a goroutine: EXTEND and BEGIN finish in a dial's callback
# (DESIGN.md §13.1), and the ORPort and the HSDir accept with a callback
# (DESIGN.md "In-simulation servers"). The relay starts no goroutine.
want "relay Clock.Go sites" '\.Go\(' internal/relay ""
# The Bento server starts none: simnet's request server starts each
# request's op (Hold, simnet/serve.go). Allowed: the hidden-service
# splice, one copy goroutine per rendezvous connection, because a
# torclient stream has no deliver callback to splice with yet (ROADMAP
# item 15).
want "bento Clock.Go sites" '\.Go\(' internal/bento "internal/bento/hidden.go:1"
# A runtime timer outside the Clock is invisible to the event core, like
# an unregistered goroutine (ROADMAP aim 3). Allowed: the wall core's timer
# and its sleep, the settle's back-off (ROADMAP item 1 deletes it), the
# Windower's clock-less fallback, and the experiment drivers' wall timeout
# and ticker.
want "runtime timer sites" 'time\.(AfterFunc|NewTimer|NewTicker|After|Tick|Sleep)\(' "internal cmd examples" \
    "internal/bench/figure5.go:1 internal/bench/scale.go:1 internal/obs/window.go:1 internal/simnet/clock.go:2 internal/simnet/sched.go:1"

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

stage "one X25519 (crypto/ecdh only in tests, as the oracle; the generic field code held to it under purego)"
# Every X25519 in the shipped code goes through internal/otr/x25519. go list
# reports the non-test imports only, so the tests' oracle is not flagged.
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -E '[: ]crypto/ecdh( |$)' >&2; then
    echo "crypto/ecdh is imported outside tests; use internal/otr/x25519" >&2
    exit 1
fi
go test -count=1 -tags purego ./internal/otr/x25519/

stage "repo benchmark self-tests (smoke of all five workloads, probes, ledger)"
go test -count=1 ./benchmark

stage "go test -race (cell, simnet, torclient, bento, wire, otr, relay, obs, interp, sandbox, fleet;" \
    "interp's value-walk reproducers and parser nesting cap, bento's program cache, upload cap and encoder bounds;" \
    "50 runs of a chaos sever racing the peer's EOF, a sever during a paused feed, a DialFunc round trip" \
    "and the zero-wait callbacks: run once, Stop against the callback's goroutine, FIFO delivery then one EOF)"
go test -race -count=1 ./internal/cell/ ./internal/simnet/ ./internal/torclient/ ./internal/bento/ ./internal/wire/ \
    ./internal/otr/ ./internal/relay/ ./internal/obs/ ./internal/interp/ ./internal/sandbox/ ./internal/fleet/
# A sever racing the peer's EOF chunk once handed a deliver callback two
# EOFs, about one run in 30 under the detector; a sever during a paused
# feed handed the resumed callback none. DialFunc's callback runs once. A
# zero wait on the wall clock starts its callback on a goroutine of its
# own, which Stop races.
go test -race -count=50 -run='TestChaosSeverReachesDeliverCallbacks|TestSeverDuringPauseOwesEOF|TestDialFuncRoundTrip|TestAfterFunc|TestConnZeroWaitFIFO' ./internal/simnet/

stage "bench smoke (all benchmarks, 1 iteration)"
go test -run='^$' -bench=. -benchtime=1x ./...

stage "relay datapath stress under race (circuit teardown vs in-flight forwarding; burst ordering," \
    "the hop-level egress bound (a flood behind an EXTEND to a silent next hop included), idle circuits hold" \
    "nothing, run datapath vs per-cell reference on both clocks; owned HS registrations, sibling not stalled by" \
    "a silent next hop; a rendezvous cookie claimed once by concurrent RENDEZVOUS1s, a host crash severing" \
    "every served link, a host crash reaching a stalled or dial-paused feed or a CREATE being answered, a DESTROY" \
    "waiting behind a dial's cells; the Bento server's held conn: pipelined ops answered in order, api.send" \
    "flow-controlled, a close during an invoke; the client's run datapath, tap and parked writer, and a service" \
    "stream's bytes against the per-cell reference, with non-stream cells at the service layer dropped)"
go test -race -count=1 -run='TestTeardownForwardStress|TestBound|TestBurst|TestExtendThenCellsInOneBurst|TestIdleCircuitHoldsNoBurst|TestHSRegistrationsOwned|TestHelperBacklogBounded|TestSiblingNotStalledBySilentNextHop|TestTransportFollowsClock|TestRendezvousSplice|TestConnectedPrecedesDataAndEnd|TestRendezvous1ClaimedOnce|TestCrashClosesEveryServedLink|TestSeverDuringStall|TestCrashDuringCreate|TestDestroyWaitsBehindDial' ./internal/relay/
go test -race -count=10 -run='TestServerAnswersPipelinedRequests|TestServerFlowControlsAPISend|TestCloseDuringInvoke' ./internal/bento/
go test -race -count=1 -run='TestRun|TestTap|TestIdleCircuitHoldsNoGoroutines|TestDeliveryPassesParkedWriter|TestServiceStreamWire|TestServiceLayerDropsNonStreamCells' ./internal/torclient/

stage "telemetry regression smoke (instrumented hot path and live sampler must not allocate)"
go test -count=1 -run='TestMiddleHopForwardAllocFree|TestCircuitSizeofPinned|TestIdleCircuitHoldsNoBurst|TestBurst' ./internal/relay/
go test -count=1 -run='TestHotPathAllocFree|TestWindowerSampleAllocFree' ./internal/obs/
go test -count=1 -run='TestConnWriteReadAllocFree|TestConnWriteAsyncDeliverAllocFree|TestConnSizeofPinned' ./internal/simnet/

stage "poison-on-recycle (recycled simnet chunks filled with 0xDB: nobody may keep a lent slice)"
go test -count=1 -tags simnet_poison ./internal/simnet/ ./internal/cell/ ./internal/relay/ ./internal/torclient/ \
    ./internal/hs/ ./internal/bento/ ./internal/testbed/
go run -tags simnet_poison ./cmd/benchharness -exp scale -scaleout /dev/null -maxhostbytes 10240

stage "zlib codec reuse under race (functions is not in the package race list above)"
go test -race -count=1 -run='TestZlibReused' ./internal/functions/

stage "multi-core alloc smoke (middle-hop forward path at GOMAXPROCS=4)"
# AllocsPerRun pins GOMAXPROCS to 1 during the measured section; running
# the test under GOMAXPROCS=4 still exercises setup and the registry's
# per-cell counters with real parallelism around it.
GOMAXPROCS=4 go test -count=1 -run='TestMiddleHopForwardAllocFree' ./internal/relay/

stage "interpreter regression smoke (VM loop must not allocate per iteration; instr stays 24 bytes; the" \
    "benchmark's step counts and loop dispatches are pinned; every opcode runProto dispatches is emitted for" \
    "the parity corpus, each branch in both senses; string accumulators start exact, grow within the memory" \
    "limit and load in O(1))"
go test -count=1 -run='TestVMLoopAllocFree|TestInstrSizeofPinned|TestStepCountsPinned|TestEveryOpcodeEmitted|TestLoopDispatchesPinned|TestAccumulator' ./internal/interp/

stage "fuzz smokes, 5 s each (bytecode VM vs test-only tree oracle; relay run datapath vs per-cell reference under" \
    "fuzzer-chosen cuts and corruption; wire decoder bounds; Bento values through a frame and back;" \
    "X25519 ladder and combs vs crypto/ecdh; ntor messages never panic or pass a bad AUTH)"
for fz in internal/interp:FuzzEngineParity internal/relay:FuzzBurstSplit internal/wire:FuzzDecoder internal/bento:FuzzFrameRoundTrip \
    internal/otr/x25519:FuzzX25519Parity internal/otr:FuzzNtorMessages; do
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
