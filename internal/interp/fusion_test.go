package interp

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"testing"
	"unsafe"
)

// Pins on the compiled form: the instruction's size, the step counts the
// repo benchmark reports, and that no opcode the VM dispatches is dead.

// TestInstrSizeofPinned keeps instr at 24 bytes: a wider instruction
// spreads every code array over more cache lines.
func TestInstrSizeofPinned(t *testing.T) {
	if got := unsafe.Sizeof(instr{}); got != 24 {
		t.Fatalf("instr is %d bytes, want 24", got)
	}
}

// invokeSrc is the repo benchmark's function_invoke program
// (benchmark/sut.go, invokeSource).
const invokeSrc = `
def compute(n):
    total = 0
    i = 0
    while i < n:
        total = total + i * 3 % 7 - (i % 2)
        if total > 1000000:
            total = 0
        i += 1
    return total

def build(n):
    s = ""
    i = 0
    while i < n:
        s = s + "01234567"
        i += 1
    return s

def noop():
    return 0
`

// TestStepCountsPinned pins interp.compute_steps_per_call and
// interp.build_steps_per_call on both engines: fusing instructions must
// never move a charge.
func TestStepCountsPinned(t *testing.T) {
	for _, c := range []struct {
		fn   string
		want int64
	}{{"compute", 92_010}, {"build", 44_010}} {
		vm := NewMachine(Limits{})
		if err := vm.Run(invokeSrc); err != nil {
			t.Fatal(err)
		}
		tree := NewMachine(Limits{})
		if err := tree.treeRun(invokeSrc); err != nil {
			t.Fatal(err)
		}
		for _, e := range []struct {
			name string
			m    *Machine
			call func(string, ...Value) (Value, error)
		}{{"vm", vm, vm.CallFunction}, {"tree", tree, tree.treeCall}} {
			before := e.m.Steps()
			if _, err := e.call(c.fn, Int(4000)); err != nil {
				t.Fatal(err)
			}
			if got := e.m.Steps() - before; got != c.want {
				t.Errorf("%s: %s(4000) took %d steps, want %d", e.name, c.fn, got, c.want)
			}
		}
	}
}

// TestEveryOpcodeEmitted holds every opcode runProto dispatches to the
// corpus: each must be declared in program.go and emitted for at least one
// program the differential tests run, so that a fused form's slow and
// error paths are compared against the oracle, and a form no compilation
// produces any more is deleted rather than kept untested. A branch with a
// sense (sensed) must be emitted in both, and no other op sets onTrue.
func TestEveryOpcodeEmitted(t *testing.T) {
	fset := gotoken.NewFileSet()
	declared := map[string]uint8{}
	f, err := goparser.ParseFile(fset, "program.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != gotoken.CONST || len(g.Specs) == 0 ||
			g.Specs[0].(*ast.ValueSpec).Names[0].Name != "opCharge" {
			continue
		}
		for i, s := range g.Specs {
			declared[s.(*ast.ValueSpec).Names[0].Name] = uint8(i)
		}
	}
	if len(declared) == 0 {
		t.Fatal("no opcode block found in program.go")
	}

	f, err = goparser.ParseFile(fset, "vm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := map[string]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "runProto" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if sel, ok := sw.Tag.(*ast.SelectorExpr); !ok || sel.Sel.Name != "op" {
				return true
			}
			for _, s := range sw.Body.List {
				for _, e := range s.(*ast.CaseClause).List {
					dispatched[e.(*ast.Ident).Name] = true
				}
			}
			return false
		})
	}

	emitted := map[uint8]bool{}
	senses := map[uint8]map[bool]bool{}
	var visit func(p *funcProto)
	visit = func(p *funcProto) {
		for _, in := range p.code {
			emitted[in.op] = true
			if senses[in.op] == nil {
				senses[in.op] = map[bool]bool{}
			}
			senses[in.op][in.onTrue] = true
		}
		for _, c := range p.consts {
			if cf, ok := c.(*compiledFunc); ok {
				visit(cf.proto)
			}
		}
	}
	var corpus []string
	for _, p := range parityPrograms {
		corpus = append(corpus, p.src)
	}
	corpus = append(corpus, runtimeErrorPrograms...)
	for _, src := range corpus {
		if p, err := Compile(src); err == nil {
			visit(p.top)
		}
	}

	for name, op := range declared {
		if !dispatched[name] {
			t.Errorf("%s is declared but runProto has no case for it", name)
		}
		if !emitted[op] {
			t.Errorf("%s is never emitted for a program of parityPrograms or runtimeErrorPrograms", name)
		}
	}
	for name := range dispatched {
		if _, ok := declared[name]; !ok {
			t.Errorf("runProto dispatches %s, which is not in program.go's opcode block", name)
		}
	}
	for name, op := range declared {
		if sensed[op] && !(senses[op][false] && senses[op][true]) {
			t.Errorf("%s is emitted in senses %v, want both", name, senses[op])
		}
		if !sensed[op] && senses[op][true] {
			t.Errorf("%s has no sense but is emitted with onTrue set", name)
		}
	}
}

// sensed holds the branches that carry a sense: the fused compare-branches
// and opIterNext.
var sensed = map[uint8]bool{
	opCmpJump: true, opCmpConstJump: true, opCmpLocalJump: true,
	opLocalCmpLocalJump: true, opLocalCmpImmJump: true, opIterNext: true,
}

// TestLoopDispatchesPinned pins the instructions one iteration of the
// benchmark's loops dispatches: compute's 23 steps in 11, build's 11 in 4.
// The iteration is the path from the loop's top to its bottom test on
// which no if body runs, as on every iteration of both: each forward
// branch is taken, and the walk ends at the backward branch.
func TestLoopDispatchesPinned(t *testing.T) {
	p, err := Compile(invokeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fn   string
		want int
	}{{"compute", 11}, {"build", 4}} {
		var code []instr
		for _, k := range p.top.consts {
			if cf, ok := k.(*compiledFunc); ok && cf.proto.name == c.fn {
				code = cf.proto.code
			}
		}
		back := -1
		for pc, in := range code {
			if branches(in.op) && int(in.a) <= pc {
				if back >= 0 {
					t.Fatalf("%s: two backward branches, at %d and %d", c.fn, back, pc)
				}
				back = pc
			}
		}
		if back < 0 {
			t.Fatalf("%s: no backward branch", c.fn)
		}
		n := 1 // the bottom test's branch
		for pc := int(code[back].a); pc != back; n++ {
			if n > len(code) {
				t.Fatalf("%s: the walk from the loop's top never reaches its bottom test", c.fn)
			}
			if in := code[pc]; branches(in.op) && int(in.a) > pc {
				pc = int(in.a)
			} else {
				pc++
			}
		}
		if n != c.want {
			t.Errorf("%s: an iteration dispatches %d instructions, want %d", c.fn, n, c.want)
		}
	}
}
