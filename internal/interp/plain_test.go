package interp_test

import (
	"testing"

	"github.com/bento-nfv/bento/internal/functions"
	"github.com/bento-nfv/bento/internal/interp"
)

// TestPlainFunctionsCompileWithoutCells pins the boundary of the closure
// lowering: a program with no nested def — every shipped function, and the
// loops TestVMLoopAllocFree and the benchmarks measure — compiles to slot
// and global instructions only, so the register fast paths, the
// superinstructions and the string accumulator apply to all of it.
func TestPlainFunctionsCompileWithoutCells(t *testing.T) {
	sources := append([]string{
		functions.BrowserSource, functions.BrowserDropboxSource, functions.DropboxSource,
		functions.CoverSource, functions.ShardSource, functions.ReplicaSource,
		functions.LoadBalancerSource, functions.SingleServerSource, functions.EchoSource,
		functions.MultipathFetcherSource,
	}, interp.PlainSources...)
	for i, src := range sources {
		p, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if interp.UsesCells(p) {
			t.Errorf("source %d has no nested def but compiled with cells:\n%s", i, src)
		}
	}
	p, err := interp.Compile("def f():\n    def g():\n        return 1\n    return g\n")
	if err != nil {
		t.Fatal(err)
	}
	if !interp.UsesCells(p) {
		t.Fatal("a nested def compiled without cells: UsesCells sees nothing")
	}
}
