package interp

// Bytecode representation for the bscript VM.
//
// A Program is the machine-independent result of compiling one source
// text: a top-level code object plus a code object for every function it
// defines, nested ones included. Programs hold no AST, environment or
// machine state, so a single Program may be cached and
// executed on any number of Machines concurrently — that is what lets the
// Bento server key compiled programs by source hash and reuse them across
// re-uploads and watchdog respawns.

// Opcodes. Operands a/b are opcode-specific; line is the source line used
// for errors; refund is the number of batched budget charges that had not
// yet been "earned" when this instruction runs (see compile.go).
const (
	opCharge      uint8 = iota // a: charge a instructions (basic-block batch)
	opConst                    // a: push consts[a]
	opLoadGlobal               // a: push global names[a], else name error
	opStoreGlobal              // a: pop, store to global names[a]
	opDefGlobal                // a: name index, b: const index (compiled function)
	opLoadLocal                // a: slot; falls back to globals when unset
	opStoreLocal               // a: slot; falls back to globals when unset there
	opCheckLocal               // a: slot; name error if unset here and in globals
	opAppendLocal              // a: slot; pop chunk, slot += chunk (accumulator)
	opJump                     // a: target pc
	opJumpIfFalse              // a: target pc; pops condition
	opAndJump                  // a: target pc; jump keeping lhs if falsy, else pop
	opOrJump                   // a: target pc; jump keeping lhs if truthy, else pop
	opNot                      // replace top with Bool(!Truthy(top))
	opNeg                      // replace top with -top (int only)
	opBinop                    // a: binop code; pops rhs, lhs, pushes result
	opSwap                     // swap the top two stack values
	opPop                      // drop the top of stack
	opIndex                    // pops idx, base; pushes base[idx]
	opStoreIndex               // pops idx, base, value; base[idx] = value
	opDelIndex                 // pops idx, base; del base[idx]
	opSlice                    // a: bit0 hasLo, bit1 hasHi; pops bounds, base
	opCheckSlice               // error unless the top of stack is an Int
	opAttr                     // a: name index; replace top with top.name
	opCall                     // a: argc; pops args and callee, pushes result
	opMakeList                 // a: element count
	opMakeDict                 // a: pair count
	opIterNew                  // replace top with an iterator over it
	opIterNext                 // push next item, or pop iterator and jump to a
	opTryPush                  // a: handler pc, b: 1 if "except ... as name"
	opTryPop                   // discard the innermost handler
	opRaise                    // pop value, raise RuntimeError(Repr(value))
	opReturn                   // pop value and return it from the frame
	opReturnNone               // return None from the frame

	// Superinstructions, fused by the peephole pass (see peephole in
	// compile.go). Each replaces an adjacent sequence whose error-capable
	// members share one refund, so batched-budget parity is unaffected.
	opBinopConst    // a: const idx (rhs), b: binop code; lhs on stack
	opBinopLocal    // a: slot (rhs), b: binop code; lhs on stack
	opBinopStore    // a: store slot, b: binop code; pops rhs, lhs
	opCmpJump       // a: target, b: binop code; pops rhs, lhs; jump if falsy
	opCmpConstJump  // a: target, b: binop code, c: const idx (rhs); pops lhs
	opCmpLocalJump  // a: target, b: binop code, c: slot (rhs); pops lhs
	opIncLocalConst // a: slot, b: const idx; slot += consts[b], no stack use

	// Cell access, emitted only in functions that contain or are a nested
	// def. a indexes the proto's cellRefs (opDefCell: the frame's cells).
	opLoadCell  // a: cellRef; push first set cell, else the global, else name error
	opStoreCell // a: cellRef; pop, rebind first set cell, else existing global, else define own
	opDefCell   // a: own cell, b: const index (function); bind a new closure over the frame's cells
)

// Binary operator codes for opBinop's a operand.
const (
	bopAdd int32 = iota
	bopSub
	bopMul
	bopFloorDiv
	bopMod
	bopEq
	bopNe
	bopLt
	bopLe
	bopGt
	bopGe
	bopIn
)

// binopNames maps binop codes back to operator strings, for the m.binop
// fallback path.
var binopNames = [...]string{"+", "-", "*", "//", "%", "==", "!=", "<", "<=", ">", ">=", "in"}

var binopCodes = map[string]int32{
	"+": bopAdd, "-": bopSub, "*": bopMul, "//": bopFloorDiv, "%": bopMod,
	"==": bopEq, "!=": bopNe, "<": bopLt, "<=": bopLe, ">": bopGt, ">=": bopGe,
	"in": bopIn,
}

// Slice flag bits for opSlice's a operand.
const (
	sliceHasLo int32 = 1 << iota
	sliceHasHi
)

// instr is one VM instruction. 24 bytes; code arrays stay cache-friendly.
// Jump targets always live in a (so patching and peephole remapping treat
// every branching opcode uniformly); c is a third operand used only by
// fused superinstructions.
type instr struct {
	op     uint8
	a      int32
	b      int32
	c      int32
	line   int32
	refund int32
}

// funcProto is one compiled code object: the top-level program body or a
// single function. It is immutable after compilation.
type funcProto struct {
	name      string
	params    []string
	code      []instr
	consts    []Value
	names     []string // global/attr name pool
	slotNames []string // slot index -> name, for global fallback and errors
	numSlots  int
	maxStack  int

	// Closure layout; all empty for a function that neither contains nor
	// is a nested def. A frame's cells are its own, then the closure's.
	ownCells []int32   // own cell -> the slot it replaces (a param's is filled from its argument)
	captures []int32   // closure cell -> index in the defining frame's cells
	cellRefs []cellRef // operands of opLoadCell / opStoreCell
}

// cell holds one variable that an inner function names, shared by reference
// between the frame that owns it and every closure that captured it. A nil
// v is an unset variable.
type cell struct{ v Value }

// cellRef resolves one name inside a closure-involved function: the frame
// cells that may hold it, innermost scope first. When the function itself
// assigns the name, chain[0] is its own cell.
type cellRef struct {
	name  string
	chain []int32
}

// Program is a compiled bscript program.
type Program struct {
	top *funcProto
}

// compiledFunc is a user function value. A top-level def is a constant of
// its Program with no cells, stateless and shared across machines; each
// executed nested def allocates one whose cells are the variables of the
// enclosing frames that it, or a function nested in it, names.
type compiledFunc struct {
	proto *funcProto
	cells []*cell
}

func (*compiledFunc) Type() string { return "function" }

func (f *compiledFunc) funcName() string { return f.proto.name }

func (f *compiledFunc) captured(visit func(Value)) {
	for _, c := range f.cells {
		if c.v != nil {
			visit(c.v)
		}
	}
}

// function is a user-defined function value: *compiledFunc, and in this
// package's tests the tree oracle's *Func, which Repr and sizeOf must
// treat alike for the engines to agree.
type function interface {
	Value
	funcName() string
	// captured visits every value the function keeps alive from enclosing
	// frames, so the memory walk can see through it.
	captured(visit func(Value))
}

// vmIter adapts iterate's pull iterators to a stack value so for
// loops can keep their iterator on the operand stack. Never visible to
// scripts.
type vmIter struct {
	next func() (Value, error)
}

func (*vmIter) Type() string { return "iterator" }

// strAccum is the VM's string/bytes accumulator: a capacity-doubling
// buffer standing in for a Str or Bytes local while a `s = s + chunk`
// loop runs, so each append costs amortized O(len(chunk)) instead of
// O(len(s)). It only ever lives in a frame's local slots — never in an
// Env or a cell, so measure() (which walks globals) sees exactly what the
// tree oracle would. Loads materialize (and cache) the real value.
type strAccum struct {
	buf     []byte
	isBytes bool
	cached  Value
}

func (*strAccum) Type() string { return "str" }

// value materializes the accumulated string, caching until the next append.
func (a *strAccum) value() Value {
	if a.cached == nil {
		if a.isBytes {
			b := make([]byte, len(a.buf))
			copy(b, a.buf)
			a.cached = Bytes(b)
		} else {
			a.cached = Str(a.buf)
		}
	}
	return a.cached
}

// materialize converts slot-internal representations to real values.
func materialize(v Value) Value {
	if a, ok := v.(*strAccum); ok {
		return a.value()
	}
	return v
}
