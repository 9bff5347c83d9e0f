package sandbox

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrDenied is wrapped by every refusal of a host handle: one the
// container never held, one of another kind than the call names, one added
// after the container closed. The Stem firewall reports its policy
// denials with the same error (stemfw.ErrDenied).
var ErrDenied = errors.New("stemfw: denied by firewall")

// Kind names what a handle refers to. Every lookup names the kind it
// expects, so a handle of one kind never reaches a call for another.
type Kind uint8

const (
	KindCircuit    Kind = iota + 1 // a general-purpose circuit
	KindStream                     // a stream on one of the container's circuits
	KindService                    // a hidden service serving its clients itself
	KindIntroQueue                 // a hidden service queueing its introductions
	KindRendezvous                 // a circuit answering a rendezvous for a replica
	KindCompose                    // a connection to another Bento server
)

var kindNames = [...]string{
	KindCircuit:    "circuit",
	KindStream:     "stream",
	KindService:    "hidden service",
	KindIntroQueue: "hidden service",
	KindRendezvous: "rendezvous",
	KindCompose:    "connection",
}

func (k Kind) String() string { return kindNames[k] }

// Handles is a container's table of the host resources it holds: every
// circuit, stream, hidden service and connection a function opens through
// the host API is an entry, named to the function by an int handle.
// Container.Close releases every entry, so a function fate-shares with
// everything it holds (§5.3). The zero value is an empty, open table.
type Handles struct {
	mu      sync.Mutex
	next    int
	entries map[int]handleEntry
	closed  bool
}

type handleEntry struct {
	kind    Kind
	value   any
	release func() error
}

// Add enters value under a fresh handle; release frees it. On a closed
// table Add releases value at once and fails.
func (t *Handles) Add(kind Kind, value any, release func() error) (int, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		release()
		return 0, fmt.Errorf("%w: session closed", ErrDenied)
	}
	if t.entries == nil {
		t.entries = make(map[int]handleEntry)
	}
	t.next++
	h := t.next
	t.entries[h] = handleEntry{kind, value, release}
	t.mu.Unlock()
	return h, nil
}

// Get returns the value behind handle h in t, which must be of the given
// kind; T is the type the kind's values are added as.
func Get[T any](t *Handles, h int, kind Kind) (T, error) {
	t.mu.Lock()
	e, ok := t.entries[h]
	t.mu.Unlock()
	if !ok || e.kind != kind {
		var zero T
		return zero, unknownHandle(h, kind)
	}
	return e.value.(T), nil
}

// Release removes handle h, which must be of the given kind, and frees
// what it refers to.
func (t *Handles) Release(h int, kind Kind) error {
	t.mu.Lock()
	e, ok := t.entries[h]
	ok = ok && e.kind == kind
	if ok {
		delete(t.entries, h)
	}
	t.mu.Unlock()
	if !ok {
		return unknownHandle(h, kind)
	}
	return e.release()
}

func unknownHandle(h int, kind Kind) error {
	return fmt.Errorf("%w: unknown %s handle %d", ErrDenied, kind, h)
}

// Count reports how many entries of the given kind the table holds.
func (t *Handles) Count(kind Kind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if e.kind == kind {
			n++
		}
	}
	return n
}

// Close releases every entry, newest first, and closes the table to
// further Adds. The releases run outside the lock, so one that calls back
// into the table (a circuit's close hook releasing its own entry) finds
// it already gone.
func (t *Handles) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	entries := t.entries
	t.entries = nil
	t.mu.Unlock()
	hs := make([]int, 0, len(entries))
	for h := range entries {
		hs = append(hs, h)
	}
	sort.Ints(hs)
	for i := len(hs) - 1; i >= 0; i-- {
		entries[hs[i]].release()
	}
}
