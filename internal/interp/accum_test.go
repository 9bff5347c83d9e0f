package interp

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The string accumulator (strAccum): exact size on creation, doubling
// growth bounded by the memory limit, and loads that are views of its
// append-only buffer.

// accumSlot runs one `s = s + chunk` on a one-slot frame.
func accumSlot(t *testing.T, m *Machine, slots []reg, chunk Value) error {
	t.Helper()
	p := &funcProto{slotNames: []string{"s"}, numSlots: 1}
	var r reg
	r.set(chunk)
	return m.appendSlot(p, 1, slots, 0, &r)
}

// TestAccumulatorOneShotExact: `x = a + b` on a local allocates exactly
// len(a)+len(b) bytes, for str and bytes.
func TestAccumulatorOneShotExact(t *testing.T) {
	for _, c := range []struct{ a, b Value }{
		{Str("hello, "), Str("world")},
		{Bytes("hello, "), Bytes("world")},
	} {
		m := NewMachine(Limits{})
		slots := make([]reg, 1)
		slots[0].set(c.a)
		if err := accumSlot(t, m, slots, c.b); err != nil {
			t.Fatal(err)
		}
		acc := slots[0].v.(*strAccum)
		if len(acc.buf) != 12 || cap(acc.buf) != 12 {
			t.Errorf("%s + %s: len %d cap %d, want 12 and 12", Repr(c.a), Repr(c.b), len(acc.buf), cap(acc.buf))
		}
	}
}

// TestAccumulatorBoundedByLimit grows a local string toward a 1 MiB limit:
// the buffer's capacity never passes the limit, it grows geometrically
// (a few dozen reallocations, not one per append), and the append that
// would pass the limit fails as the oracle's concatenation does.
func TestAccumulatorBoundedByLimit(t *testing.T) {
	const limit = 1 << 20
	m := NewMachine(Limits{Memory: limit})
	slots := make([]reg, 1)
	slots[0].set(Str(""))
	chunk := Str(strings.Repeat("0123456789abcdef", 64)) // 1 KiB
	grows, last := 0, -1
	var err error
	for i := 0; i < 2*limit/len(chunk); i++ {
		if err = accumSlot(t, m, slots, chunk); err != nil {
			break
		}
		acc := slots[0].v.(*strAccum)
		if c := cap(acc.buf); c != last {
			grows, last = grows+1, c
		}
		if cap(acc.buf) > limit {
			t.Fatalf("after %d appends: cap %d past the %d-byte limit (len %d)", i+1, cap(acc.buf), limit, len(acc.buf))
		}
	}
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("growing past the limit: err=%v, want ErrMemoryExceeded", err)
	}
	t.Logf("%d reallocations; last cap %d", grows, last)
	if grows > 24 {
		t.Errorf("the buffer was reallocated %d times, want geometric growth", grows)
	}
}

// TestAccumulatorViewsKeepBytes: a str loaded from an accumulator is a
// view of its buffer, not a copy, and keeps its bytes while later appends
// fill the buffer's spare capacity or move it.
func TestAccumulatorViewsKeepBytes(t *testing.T) {
	m := NewMachine(Limits{})
	slots := make([]reg, 1)
	slots[0].set(Str("ab"))
	want := "ab"
	var views []Str
	var wants []string
	for i := 0; i < 40; i++ {
		chunk := strconv.Itoa(i)
		if err := accumSlot(t, m, slots, Str(chunk)); err != nil {
			t.Fatal(err)
		}
		want += chunk
		acc := slots[0].v.(*strAccum)
		v := acc.value().(Str)
		if unsafe.StringData(string(v)) != unsafe.SliceData(acc.buf) {
			t.Fatalf("append %d: the load copied the buffer", i)
		}
		views, wants = append(views, v), append(wants, want)
	}
	for i, v := range views {
		if string(v) != wants[i] {
			t.Errorf("view %d reads %q, want %q", i, v, wants[i])
		}
	}
}

// TestAccumulatorLoadConstant: a loop that reads its accumulator on every
// iteration, `while len(s) < n: s = s + chunk`, costs the same host time
// per step at 32 000 iterations as at 4 000 (a load that copied the
// buffer made the loop quadratic, and a step at 32 000 several times
// dearer), and ends as the oracle does. The bound allows twice, for a
// loaded host.
func TestAccumulatorLoadConstant(t *testing.T) {
	src := func(n int) string {
		return `
def grow(n):
    s = ""
    while len(s) < n:
        s = s + "01234567"
    return s

r = grow(` + strconv.Itoa(8*n) + `)
`
	}
	small := src(4000)
	compareEngines(t, "grow", runTreeEngine(small, Limits{}), runVMEngine(small, Limits{}), false)

	perStep := func(n int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			m := NewMachine(Limits{})
			prog, err := m.Compile(src(n))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := m.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start)/time.Duration(m.Steps()))
			if r, _ := m.Globals.Lookup("r"); len(r.(Str)) != 8*n {
				t.Fatalf("grow(%d) is %d bytes long, want %d", 8*n, len(r.(Str)), 8*n)
			}
		}
		return best
	}
	short, long := perStep(4000), perStep(32000)
	t.Logf("per step: %v at 4 000 iterations, %v at 32 000", short, long)
	if long > 2*short {
		t.Errorf("a step takes %v at 32 000 iterations, over twice the %v at 4 000", long, short)
	}
}
