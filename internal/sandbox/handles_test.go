package sandbox

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHandlesTyped: a handle is found only under the kind it was added
// as, and a released handle is gone.
func TestHandlesTyped(t *testing.T) {
	var tab Handles
	released := 0
	circ, err := tab.Add(KindCircuit, "circ", func() error { released++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tab.Add(KindCompose, "conn", func() error { released++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if circ == conn {
		t.Fatalf("two entries share handle %d", circ)
	}
	if v, err := Get[string](&tab, circ, KindCircuit); err != nil || v != "circ" {
		t.Fatalf("Get(circuit) = %v, %v", v, err)
	}
	if _, err := Get[string](&tab, conn, KindCircuit); !errors.Is(err, ErrDenied) {
		t.Fatalf("connection handle looked up as a circuit: %v", err)
	}
	if err := tab.Release(circ, KindCompose); !errors.Is(err, ErrDenied) || released != 0 {
		t.Fatalf("circuit handle released as a connection: %v (released %d)", err, released)
	}
	if n := tab.Count(KindCircuit); n != 1 {
		t.Fatalf("Count(circuit) = %d, want 1", n)
	}
	if err := tab.Release(circ, KindCircuit); err != nil || released != 1 {
		t.Fatalf("Release(circuit) = %v (released %d)", err, released)
	}
	if _, err := Get[string](&tab, circ, KindCircuit); !errors.Is(err, ErrDenied) {
		t.Fatalf("released handle still found: %v", err)
	}
	if err := tab.Release(circ, KindCircuit); !errors.Is(err, ErrDenied) || released != 1 {
		t.Fatalf("second Release = %v (released %d)", err, released)
	}
}

// TestHandlesCloseReleasesNewestFirst: Close releases every entry once,
// newest first, tolerates a release that calls back into the table, and
// an Add afterwards releases its value at once and fails.
func TestHandlesCloseReleasesNewestFirst(t *testing.T) {
	var tab Handles
	var order []int
	add := func(kind Kind, i int, release func() error) int {
		h, err := tab.Add(kind, i, func() error {
			order = append(order, i)
			return release()
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	none := func() error { return nil }
	add(KindStream, 1, none)
	var self int // a circuit's close hook releasing its own entry
	self = add(KindRendezvous, 2, func() error { return tab.Release(self, KindRendezvous) })
	add(KindStream, 3, none)
	add(KindStream, 4, none)
	tab.Close()
	if want := []int{4, 3, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("released %v, want %v", order, want)
	}
	tab.Close()
	if len(order) != 4 {
		t.Fatalf("a second Close released again: %v", order)
	}
	late := false
	if _, err := tab.Add(KindCircuit, nil, func() error { late = true; return nil }); !errors.Is(err, ErrDenied) || !late {
		t.Fatalf("Add after Close = %v, released %v", err, late)
	}
	if n := tab.Count(KindStream); n != 0 {
		t.Fatalf("%d entries left after Close", n)
	}
}

// TestContainerCloseReleasesHandles: closing a container releases what
// its table holds.
func TestContainerCloseReleasesHandles(t *testing.T) {
	c, err := New(Config{Manifest: basicManifest()})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	if _, err := c.Handles().Add(KindCompose, nil, func() error { released = true; return nil }); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if !released {
		t.Fatal("Container.Close left a handle unreleased")
	}
}

// TestHandlesConcurrent: adds, lookups and releases from several
// goroutines race a Close; every value is released exactly once, by its
// Release, by Close, or by an Add that found the table closed.
func TestHandlesConcurrent(t *testing.T) {
	var tab Handles
	var added, released atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				added.Add(1)
				h, err := tab.Add(KindStream, i, func() error { released.Add(1); return nil })
				if err != nil {
					continue
				}
				if _, err := Get[int](&tab, h, KindStream); err == nil && i%2 == 0 {
					tab.Release(h, KindStream)
				}
				tab.Count(KindStream)
			}
		}()
	}
	tab.Close()
	wg.Wait()
	if a, r := added.Load(), released.Load(); a != r {
		t.Fatalf("%d values added, %d released", a, r)
	}
}
