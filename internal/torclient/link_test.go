package torclient

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bento-nfv/bento/internal/cell"
	"github.com/bento-nfv/bento/internal/simnet"
)

// labelledGoroutines counts the goroutines carrying the pprof label
// key=value. Labels are inherited at creation, so these are exactly the
// goroutines started, directly or not, by code run under pprof.Do with
// that label — and none of the relays' or the clock's.
func labelledGoroutines(t *testing.T, key, value string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	label := strconv.Quote(key) + ":" + strconv.Quote(value)
	header := regexp.MustCompile(`^(\d+) @`)
	n, group := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			group, _ = strconv.Atoi(m[1])
		} else if strings.HasPrefix(line, "# labels:") && strings.Contains(line, label) {
			n += group
		}
	}
	return n
}

// TestIdleCircuitHoldsNoGoroutines builds 50 three-hop circuits, on each
// clock, and requires that none of them holds a goroutine once built:
// the guard link is read by a deliver callback and written by whoever
// sends, so an idle circuit is data, not a parked reader and a link
// writer's flusher.
func TestIdleCircuitHoldsNoGoroutines(t *testing.T) {
	cores := []struct {
		name  string
		clock func(t *testing.T) *simnet.Clock
	}{
		{"scaled", func(*testing.T) *simnet.Clock { return simnet.NewClock(0.0005) }},
		{"event", func(t *testing.T) *simnet.Clock {
			// One P: on 2 P the event core's settle times out a build's
			// control wait at wall time 0 (benchmark/README.md, "Recorded
			// limits"); 50 builds hit it in 5 of 5 two-P runs, with the
			// goroutine-read client as well.
			prev := runtime.GOMAXPROCS(1)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			c := simnet.NewEventClock()
			t.Cleanup(c.Stop)
			return c
		}},
	}
	for _, core := range cores {
		t.Run(core.name, func(t *testing.T) {
			tn := buildTestNetOn(t, simnet.NewNetwork(core.clock(t), time.Millisecond), 3)
			client := New(tn.net.AddHost("client", 0), tn.cons, 1)
			const circuits = 50
			var built []*Circuit
			defer func() {
				for _, circ := range built {
					circ.Close()
				}
			}()
			pprof.Do(context.Background(), pprof.Labels("torclient", "idle-circuits"), func(context.Context) {
				for i := 0; i < circuits; i++ {
					circ, err := client.BuildCircuit(tn.cons.Relays[:3])
					if err != nil {
						t.Fatal(err)
					}
					built = append(built, circ)
				}
			})
			// A goroutine a build started for its own wait (a timer's, on
			// the scaled clock) may still be on its way out.
			n := labelledGoroutines(t, "torclient", "idle-circuits")
			for deadline := time.Now().Add(5 * time.Second); n > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = labelledGoroutines(t, "torclient", "idle-circuits")
			}
			if n != 0 {
				t.Fatalf("%d goroutines held by %d idle circuits, want 0", n, circuits)
			}
		})
	}
}

// TestDeliveryPassesParkedWriter: on the event clock, a stream writer
// parks inside the guard link's Write, holding the circuit's send lock,
// because the guard reads nothing and the link is full. Backward DATA
// and then a DESTROY arrive meanwhile. The deliver callback runs on the
// dispatcher, so if it waited on the send lock nothing would ever move
// again; instead the data reaches the stream, the DESTROY tears the
// circuit down, and the teardown wakes the writer.
func TestDeliveryPassesParkedWriter(t *testing.T) {
	clock := simnet.NewEventClock()
	t.Cleanup(clock.Stop)
	clientSide, relaySide := testLayers(t)
	circ, far := newLinkCircuit(t, simnet.NewNetwork(clock, time.Millisecond), 0, clientSide)
	circ.conn.SetDeliverFunc(circ.onDeliver)
	s := newStream(circ, 1, hopEnd)
	s.connected()
	circ.streams[1] = s

	// More than the guard's read buffer plus the link's in-flight window.
	wrote := make(chan error, 1)
	go func() {
		_, err := s.Write(make([]byte, 4<<20))
		wrote <- err
	}()
	for still, deadline := 0, time.Now().Add(10*time.Second); still < 20; {
		if time.Now().After(deadline) {
			t.Fatal("the writer never parked on the guard link")
		}
		time.Sleep(time.Millisecond)
		if circ.sendMu.TryLock() {
			circ.sendMu.Unlock()
			still = 0
		} else {
			still++
		}
	}
	select {
	case err := <-wrote:
		t.Fatalf("Write returned (%v) with the guard reading nothing", err)
	default:
	}

	var want, backward []byte
	frame := make([]byte, cell.Size)
	for i := 0; i < 20; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 300)
		want = append(want, data...)
		payload := cell.WirePayload(frame)
		if err := cell.PackRelay(payload, cell.RelayHeader{StreamID: 1, Cmd: cell.RelayData}, data); err != nil {
			t.Fatal(err)
		}
		relaySide.SealBackward(payload, cell.DigestOffset)
		relaySide.ApplyBackward(payload)
		cell.SetWireCircID(frame, circ.circID)
		cell.SetWireCmd(frame, cell.CmdRelay)
		backward = append(backward, frame...)
	}
	destroy := make([]byte, cell.Size)
	cell.SetWireCircID(destroy, circ.circID)
	cell.SetWireCmd(destroy, cell.CmdDestroy)
	if err := far.WriteAsync(backward); err != nil {
		t.Fatal(err)
	}
	if err := far.WriteAsync(destroy); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("Write succeeded on a destroyed circuit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the writer is still parked: the DESTROY never reached the circuit")
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(s, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stream read err %v, data intact %v", err, bytes.Equal(got, want))
	}
	if _, err := s.Read(got); err == nil {
		t.Fatal("stream readable past the DESTROY")
	}
	if circ.Err() == nil {
		t.Fatal("a relay DESTROY left no reason on the circuit")
	}
}
