package interp

import (
	"testing"
)

// FuzzEngineParity cross-checks the bytecode VM against the tree oracle on
// arbitrary inputs under a small budget. Inputs that fail to parse must
// fail identically on both; inputs that parse must satisfy the parity
// contract from differential_test.go. The comparison is lenient about the
// one documented cross-class window: the VM charges a basic block at entry,
// so under a tight budget it can report ErrBudgetExceeded where the oracle
// reaches a different error mid-block.
func FuzzEngineParity(f *testing.F) {
	for _, p := range parityPrograms {
		f.Add(p.src)
	}
	for _, src := range runtimeErrorPrograms {
		f.Add(src)
	}
	for _, src := range walkSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		lim := Limits{Instructions: 20_000, Memory: 1 << 20}
		tree := runTreeEngine(src, lim)
		vm := runVMEngine(src, lim)
		compareEngines(t, "fuzz", tree, vm, true)
	})
}

const spinSrc = `
def spin(n):
    i = 0
    total = 0
    while i < n:
        i += 1
        if i % 2 == 0:
            total += 1
    return total
`

// TestVMLoopAllocFree pins the hot-loop allocation property: once a frame
// is running, an int-counting loop allocates nothing per iteration. Loop
// values stay below 256 so boxing them into interface values hits the Go
// runtime's static cache; the test compares allocations at two iteration
// counts and requires no growth with the extra iterations.
func TestVMLoopAllocFree(t *testing.T) {
	m := NewMachine(Limits{})
	prog, err := m.Compile(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	callSpin := func(n int64) func() {
		return func() {
			if _, err := m.CallFunction("spin", Int(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(20, callSpin(50))
	long := testing.AllocsPerRun(20, callSpin(250))
	if long > short {
		t.Fatalf("VM loop allocates per iteration: %v allocs at n=50 vs %v at n=250", short, long)
	}
}
