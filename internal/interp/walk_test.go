package interp

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// walkBuilders make the values that took the relay down through one of the
// four unbounded walks: a DAG that doubles per level, a chain as deep as
// the budget allows, and a list of references to one big string.
const (
	dagSrc = `
l = []
m = []
for i in range(40):
    l = [l, l]
    m = [m, m]
`
	chainSrc = `
l = []
i = 0
while i < 300000:
    l = [l]
    i += 1
`
	twoChainsSrc = `
l = []
m = []
i = 0
while i < 300000:
    l = [l]
    m = [m]
    i += 1
`
	wideSrc = `
s = "x" * 1000000
l = []
for i in range(1000):
    l.append(s)
`
	spinSrc2 = `
i = 0
while True:
    i += 1
`
)

// walkReproducers pair a builder with the walk that ran away on it, under
// the limits it was measured with. Each must end in the named error.
var walkReproducers = []struct {
	name, build, walk string
	lim               Limits
	want              error
}{
	{"dag-str", dagSrc, "s = str(l)", Limits{Instructions: 10_000, Memory: 1 << 20}, ErrBudgetExceeded},
	{"dag-eq", dagSrc, "e = l == m", Limits{Instructions: 10_000, Memory: 1 << 20}, ErrBudgetExceeded},
	{"dag-in", dagSrc, "e = m in [l]", Limits{Instructions: 10_000, Memory: 1 << 20}, ErrBudgetExceeded},
	{"dag-print", dagSrc, "print(l)", Limits{Instructions: 10_000, Memory: 1 << 20}, ErrBudgetExceeded},
	{"dag-raise", dagSrc, "raise l", Limits{Instructions: 10_000, Memory: 1 << 20}, ErrBudgetExceeded},
	{"chain-str", chainSrc, "s = str(l)", Limits{}, ErrMemoryExceeded},
	{"chain-eq", twoChainsSrc, "e = l == m", Limits{}, ErrMemoryExceeded},
	{"wide-str", wideSrc, "t = str(l)", Limits{}, ErrMemoryExceeded},
}

// walkSeeds are the reproducers, and the parser-cap inputs, that fit
// FuzzEngineParity's 4 KiB inputs; they seed it with the parity corpus.
var walkSeeds = func() []string {
	var out []string
	for _, r := range walkReproducers {
		out = append(out, r.build+r.walk+"\n")
	}
	return append(out,
		"x = "+nested("(", ")", maxNesting-1), "x = "+nested("(", ")", maxNesting),
		"x = "+nested("[", "]", maxNesting), "x = "+nested("-", "", maxNesting))
}()

// TestWalksBounded: each reproducer ends in its named error on both
// engines, in host time comparable to a loop that spins through the same
// limits, and the walking statement's allocations stay under twice the
// memory limit. On an idle 2-CPU host every reproducer takes under twice
// the spin; the test allows five times, so that a loaded host does not
// fail it, which still catches a walk that runs away (the recursive walks
// took hundreds to millions of times the spin).
func TestWalksBounded(t *testing.T) {
	for _, r := range walkReproducers {
		t.Run(r.name, func(t *testing.T) {
			src := r.build + r.walk + "\n"
			tree, vm := runTreeEngine(src, r.lim), runVMEngine(src, r.lim)
			if !errors.Is(tree.err, r.want) || !errors.Is(vm.err, r.want) {
				t.Fatalf("tree err=%v vm err=%v, want %v on both", tree.err, vm.err, r.want)
			}
			compareEngines(t, r.name, tree, vm, false)

			// Interleaved, so that both see the same load; the least of
			// three of each, as the rest is scheduler and collector noise.
			// The race detector slows the two unevenly: no timing under it.
			if !raceEnabled {
				took, spin := time.Duration(1<<62), time.Duration(1<<62)
				for i := 0; i < 3; i++ {
					spin = min(spin, timed(func() { NewMachine(r.lim).Run(spinSrc2) }))
					took = min(took, timed(func() {
						m := NewMachine(r.lim)
						m.Stdout = new(strings.Builder)
						m.Run(src)
					}))
				}
				t.Logf("took %v; a spin loop %v", took, spin)
				if took > 5*spin {
					t.Errorf("took %v, over five times the %v a spin loop takes under the same limits", took, spin)
				}
			}

			m := NewMachine(r.lim)
			m.Stdout = new(strings.Builder)
			if err := m.Run(r.build); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := m.Run(r.walk)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, r.want) {
				t.Fatalf("walk alone: err=%v, want %v", err, r.want)
			}
			// A walk that runs out of memory first re-measures the heap,
			// once. That costs a visited-set entry per container the
			// program holds, whatever the walk does, so it is priced apart.
			grew := int64(after.TotalAlloc - before.TotalAlloc)
			runtime.ReadMemStats(&before)
			m.MeasureNow()
			runtime.ReadMemStats(&after)
			measure := int64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("the walk allocated %d KiB, one re-measure %d KiB, under a %d KiB limit",
				grew>>10, measure>>10, m.memLimit>>10)
			if grew-measure > 2*m.memLimit {
				t.Errorf("the walk allocated %d KiB beyond a re-measure, over twice the %d KiB memory limit",
					(grew-measure)>>10, m.memLimit>>10)
			}
		})
	}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// TestKillStopsEqual: a kill lands inside a long comparison, which before
// the shared walk never looked at its machine.
func TestKillStopsEqual(t *testing.T) {
	m := NewMachine(Limits{Instructions: 1 << 40})
	if err := m.Run(strings.Replace(dagSrc, "40", "30", 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Run("e = l == m") }()
	time.Sleep(20 * time.Millisecond)
	m.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("got %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not stop the comparison")
	}
}

// sameAnswerValues are values the parity corpus does not build: cycles
// through dicts and bound methods, a shared child, closures, and mixed keys.
func sameAnswerValues(t *testing.T) []Value {
	m := NewMachine(Limits{})
	if err := m.Run(`
a = [1, "two", bytes([0, 39, 92, 255]), None, True, range(1, 4)]
a.append(a)
d = {"k": a, 2: [a, a], b"raw": {"in": "ner"}}
d["self"] = d
shared = [1, 2]
dag = [shared, [shared, shared], {"x": shared}]
def outer(n):
    keep = [n, "cell"]
    def inner():
        return keep
    return inner
f = outer(7)
g = [f, f, outer(8)]
bm = [a.append, d.get, b"ab".decode]
k1 = {1: "one", True: "t", "s": 2}
k2 = {True: "one", 1: "t", "s": 2}
q = "quote\"s and \\ and \n"
`); err != nil {
		t.Fatal(err)
	}
	var out []Value
	for _, name := range []string{"a", "d", "shared", "dag", "f", "g", "bm", "k1", "k2", "q"} {
		v, _ := m.Globals.Lookup(name)
		out = append(out, v)
	}
	return out
}

// TestWalkSameAnswers: wherever a walk completes, its clients agree with the
// recursive walks they replaced (walkref_test.go) on every global the
// parity corpus and the fuzz seeds leave behind: Repr text, Equal of every
// pair, and sizeOf bytes, on the machine's charged walks and the host's.
func TestWalkSameAnswers(t *testing.T) {
	var vals []Value
	var srcs []string
	for _, p := range parityPrograms {
		srcs = append(srcs, p.src)
	}
	srcs = append(append(srcs, runtimeErrorPrograms...), walkSeeds...)
	for _, src := range srcs {
		m := NewMachine(Limits{Instructions: 200_000, Memory: 1 << 20})
		m.Run(src)
		var names []string
		for name := range m.Globals.vars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := m.Globals.vars[name]
			// The reference walks only what completes quickly: it has no
			// bound, and renders a deep chain in quadratic time.
			small := NewMachine(Limits{Instructions: 1 << 16, Memory: 1 << 20})
			if _, err := small.repr(v); err == nil {
				vals = append(vals, v)
			}
		}
	}
	vals = append(sameAnswerValues(t), vals...)
	if len(vals) > 150 { // every pair is compared, twice
		vals = vals[:150]
	}
	m := NewMachine(Limits{Instructions: 1 << 40, Memory: 1 << 30})
	for _, v := range vals {
		want := refRepr(v, nil)
		if got := Repr(v); got != want {
			t.Fatalf("Repr = %q, the reference renders %q", got, want)
		}
		if _, isStr := v.(Str); !isStr { // str(s) is s itself, not its repr
			if got, err := m.repr(v); err != nil || got != want {
				t.Fatalf("machine repr = %q (%v), the reference renders %q", got, err, want)
			}
		}
		wantSize := refSizeOf(v, map[Value]bool{})
		if got, err := m.sizeOf(v); err != nil || got != wantSize {
			t.Fatalf("sizeOf(%s) = %d (%v), the reference counts %d", want, got, err, wantSize)
		}
		for _, u := range vals {
			wantEq := refEqual(v, u, nil)
			if got := Equal(v, u); got != wantEq {
				t.Fatalf("Equal(%s, %s) = %v, the reference says %v", want, refRepr(u, nil), got, wantEq)
			}
			if got, err := m.equal(v, u); err != nil || got != wantEq {
				t.Fatalf("machine equal(%s, %s) = %v (%v), the reference says %v", want, refRepr(u, nil), got, err, wantEq)
			}
		}
	}
	measured := NewMachine(Limits{})
	for i, v := range vals {
		measured.Globals.Define(fmt.Sprint("v", i), v)
	}
	seen := map[Value]bool{}
	var want int64
	for _, v := range measured.Globals.vars {
		want += refSizeOf(v, seen)
	}
	if got := measured.MeasureNow(); got != want {
		t.Fatalf("MeasureNow = %d, the reference measures %d", got, want)
	}
}

// nested returns n levels of open, then 1, then n closes.
func nested(open, close string, n int) string {
	return strings.Repeat(open, n) + "1" + strings.Repeat(close, n)
}

// TestParserNestingCap: nesting at maxNesting parses and one level more is
// a syntax error, on both engines; a megabyte of brackets or minus signs is
// refused at once instead of overflowing the Go stack.
func TestParserNestingCap(t *testing.T) {
	// The statement's own expression is the first level.
	for name, n := range map[string]int{"parens": maxNesting - 1, "brackets": maxNesting - 1, "minus": maxNesting - 1} {
		open, close := "(", ")"
		switch name {
		case "brackets":
			open, close = "[", "]"
		case "minus":
			open, close = "-", ""
		}
		at, over := "x = "+nested(open, close, n), "x = "+nested(open, close, n+1)
		if _, err := Parse(at); err != nil {
			t.Fatalf("%s: %d levels: %v", name, n+1, err)
		}
		tree, vm := runTreeEngine(over, Limits{}), runVMEngine(over, Limits{})
		if errClass(tree.err) != "syntax" || !strings.Contains(vm.err.Error(), "nesting exceeds") {
			t.Fatalf("%s: %d levels: tree %v, vm %v, want a nesting syntax error", name, n+2, tree.err, vm.err)
		}
		compareEngines(t, name, tree, vm, false)
	}
	chain := "x = 1" + strings.Repeat(" + 1", maxNesting-1)
	if _, err := Parse(chain); err != nil {
		t.Fatalf("a chain of %d operators: %v", maxNesting-1, err)
	}
	if _, err := Parse(chain + " + 1"); err == nil {
		t.Fatalf("a chain of %d operators parsed", maxNesting)
	}
	var block strings.Builder
	for d := 0; d <= maxNesting; d++ {
		fmt.Fprintf(&block, "%sif True:\n", strings.Repeat(" ", d))
	}
	fmt.Fprintf(&block, "%spass\n", strings.Repeat(" ", maxNesting+1))
	if _, err := Parse(block.String()); err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Fatalf("%d nested blocks: %v", maxNesting+1, err)
	}
	for name, src := range map[string]string{
		"parens":   "x = " + nested("(", ")", 1_000_000),
		"brackets": "x = " + nested("[", "]", 1_000_000),
		"minus":    "x = " + nested("-", "", 1_000_000),
	} {
		start := time.Now()
		_, err := Compile(src)
		if err == nil || time.Since(start) > time.Second && !raceEnabled {
			t.Fatalf("1M %s: %v after %v, want a syntax error within a second", name, err, time.Since(start))
		}
	}
}
