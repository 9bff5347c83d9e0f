package interp

import "time"

// The bytecode VM: the one engine bscript runs on. It executes funcProto
// code objects produced by compile.go on the Machine's state (budget,
// memory accounting, global table, builtins). The reference semantics are
// the test-only tree oracle's; differential and fuzz tests in this package
// hold the VM to byte-identical results, and both route every semantically
// observable operation — binop, index, slice, call, store — through the
// same helpers.
//
// The VM keeps its operand stack and local slots in tagged registers (reg)
// that hold ints unboxed, so compute-bound loops never heap-allocate for
// intermediate arithmetic. Registers are frame-local and invisible to
// measure() (which walks globals), so memory accounting is unaffected;
// every value that escapes a frame — globals, cells, call arguments,
// container elements, return values — is boxed back to a plain Value at
// the boundary.

// Compile lowers source text to a reusable Program, recording compile
// telemetry on this machine's registry. The Program itself is
// machine-independent and may be cached and run on other machines.
func (m *Machine) Compile(src string) (*Program, error) {
	start := time.Now()
	p, err := Compile(src)
	if err != nil {
		return nil, err
	}
	m.recordCompile(time.Since(start).Nanoseconds())
	return p, nil
}

// RunProgram executes a compiled program in the machine's global scope,
// with the same limits, error semantics, and telemetry as Run.
func (m *Machine) RunProgram(p *Program) error {
	start := m.steps
	_, err := m.runProto(p.top, nil, nil)
	m.recordRun(start, err)
	return err
}

// reg is one VM register: an operand-stack or local-slot cell. Ints live
// unboxed in i (tag regInt); everything else is a boxed Value in v. The
// zero value is regNone — an undefined local slot. The representation is
// canonical: an Int is ALWAYS tag regInt, never a boxed Value, so fast
// paths need only check tags.
type reg struct {
	v   Value
	i   int64
	tag uint8
}

const (
	regNone uint8 = iota // undefined (empty local slot)
	regInt               // unboxed int in i
	regVal               // boxed value in v
)

// set stores a Value, unboxing Ints to keep the representation canonical.
func (r *reg) set(v Value) {
	if x, ok := v.(Int); ok {
		r.tag, r.i, r.v = regInt, int64(x), nil
		return
	}
	r.tag, r.v = regVal, v
}

// setBool stores a Bool. Go boxes bools from a static table, so this
// never allocates.
func (r *reg) setBool(b bool) {
	r.tag, r.v = regVal, Bool(b)
}

// val boxes the register back to a plain Value.
func (r *reg) val() Value {
	if r.tag == regInt {
		return Int(r.i)
	}
	return r.v
}

// truthy avoids boxing for the int case.
func (r *reg) truthy() bool {
	if r.tag == regInt {
		return r.i != 0
	}
	return Truthy(r.v)
}

// callCompiled invokes a function with boxed arguments: the adapter for
// host-initiated calls. VM-to-VM calls go through callCompiledRegs and
// never box their arguments.
func (m *Machine) callCompiled(f *compiledFunc, args []Value) (Value, error) {
	slots, err := m.newFrame(f.proto, len(args))
	if err != nil {
		return nil, err
	}
	for i, a := range args {
		slots[i].set(a)
	}
	return m.enter(f, slots)
}

// callCompiledRegs is the VM-to-VM call path: argument registers are
// copied straight into the callee's slots, unboxed ints and all.
func (m *Machine) callCompiledRegs(f *compiledFunc, args []reg) (Value, error) {
	slots, err := m.newFrame(f.proto, len(args))
	if err != nil {
		return nil, err
	}
	copy(slots, args)
	return m.enter(f, slots)
}

// newFrame makes the depth and arity checks and allocates the slots.
func (m *Machine) newFrame(p *funcProto, argc int) ([]reg, error) {
	if m.callDepth >= maxCallDepth {
		return nil, runtimeErrf(0, "maximum call depth exceeded")
	}
	if argc != len(p.params) {
		return nil, runtimeErrf(0, "%s() takes %d arguments, got %d", p.name, len(p.params), argc)
	}
	return make([]reg, p.numSlots), nil
}

// enter runs f on slots already holding its arguments. A frame with cells
// gets fresh own cells (a captured param's filled from its argument)
// followed by the ones the closure captured.
func (m *Machine) enter(f *compiledFunc, slots []reg) (Value, error) {
	p := f.proto
	var cells []*cell
	if n := len(p.ownCells); n+len(f.cells) > 0 {
		own := make([]cell, n)
		cells = make([]*cell, n, n+len(f.cells))
		for i, slot := range p.ownCells {
			if int(slot) < len(p.params) {
				own[i].v = slots[slot].val()
			}
			cells[i] = &own[i]
		}
		cells = append(cells, f.cells...)
	}
	m.callDepth++
	v, err := m.runProto(p, slots, cells)
	m.callDepth--
	return v, err
}

// tryHandler is one entry of a frame's except stack.
type tryHandler struct {
	pc      int
	sp      int
	hasName bool
}

// runProto is the interpreter loop for one frame. Calls recurse through
// callCompiledRegs/m.call, bounded by maxCallDepth.
func (m *Machine) runProto(p *funcProto, slots []reg, cells []*cell) (Value, error) {
	stack := make([]reg, p.maxStack)
	sp := 0
	var handlers []tryHandler
	code := p.code
	pc := 0
	for pc < len(code) {
		in := &code[pc]
		var err error
		switch in.op {
		case opCharge:
			// One batched decrement per basic block. The kill check comes
			// first (the oracle checks before each charge), and on
			// exhaustion the counters are clamped to the oracle's
			// stop-at-first-negative state.
			if m.killed.Load() {
				return nil, ErrKilled
			}
			n := int64(in.a)
			m.budget -= n
			m.steps += n
			if m.budget < 0 {
				m.steps -= -m.budget - 1
				m.budget = -1
				return nil, ErrBudgetExceeded
			}
		case opConst:
			stack[sp].set(p.consts[in.a])
			sp++
		case opLoadGlobal:
			v, ok := m.Globals.Lookup(p.names[in.a])
			if !ok {
				err = runtimeErrf(int(in.line), "name %q is not defined", p.names[in.a])
				break
			}
			stack[sp].set(v)
			sp++
		case opStoreGlobal:
			sp--
			m.storeIdent(p.names[in.a], stack[sp].val())
		case opDefGlobal:
			m.Globals.Define(p.names[in.a], p.consts[in.b])
		case opDefCell:
			fp := p.consts[in.b].(*compiledFunc).proto
			captured := make([]*cell, len(fp.captures))
			for i, src := range fp.captures {
				captured[i] = cells[src]
			}
			cells[in.a].v = &compiledFunc{proto: fp, cells: captured}
		case opLoadCell:
			ref := &p.cellRefs[in.a]
			v, ok := m.loadCell(ref, cells)
			if !ok {
				err = runtimeErrf(int(in.line), "name %q is not defined", ref.name)
				break
			}
			stack[sp].set(v)
			sp++
		case opStoreCell:
			sp--
			m.storeCell(&p.cellRefs[in.a], cells, stack[sp].val())
		case opLoadLocal:
			r := &slots[in.a]
			if r.tag == regNone {
				gv, ok := m.Globals.Lookup(p.slotNames[in.a])
				if !ok {
					err = runtimeErrf(int(in.line), "name %q is not defined", p.slotNames[in.a])
					break
				}
				stack[sp].set(gv)
				sp++
				break
			}
			if acc, ok := r.v.(*strAccum); ok {
				stack[sp].set(acc.value())
			} else {
				stack[sp] = *r
			}
			sp++
		case opStoreLocal:
			sp--
			m.storeSlot(p, slots, int(in.a), &stack[sp])
		case opCheckLocal:
			if slots[in.a].tag == regNone {
				if _, ok := m.Globals.Lookup(p.slotNames[in.a]); !ok {
					err = runtimeErrf(int(in.line), "name %q is not defined", p.slotNames[in.a])
				}
			}
		case opAppendLocal:
			sp--
			err = m.appendSlot(p, int(in.line), slots, int(in.a), &stack[sp])
		case opJump:
			pc = int(in.a)
			continue
		case opJumpIfFalse:
			sp--
			if !stack[sp].truthy() {
				pc = int(in.a)
				continue
			}
		case opAndJump:
			if !stack[sp-1].truthy() {
				pc = int(in.a)
				continue
			}
			sp--
		case opOrJump:
			if stack[sp-1].truthy() {
				pc = int(in.a)
				continue
			}
			sp--
		case opNot:
			stack[sp-1].setBool(!stack[sp-1].truthy())
		case opNeg:
			if stack[sp-1].tag != regInt {
				err = runtimeErrf(int(in.line), "unary - requires int, got %s", stack[sp-1].v.Type())
				break
			}
			stack[sp-1].i = -stack[sp-1].i
		// The binop family tries the unboxed int fast path (intBinReg)
		// first: on the compute-bound loops the VM exists to speed up,
		// both operands are almost always ints, and the fast path never
		// heap-allocates. Division/modulo by zero, `in`, and every
		// non-int combination fall through to fastBinop.
		case opBinop:
			l, r := &stack[sp-2], &stack[sp-1]
			if l.tag == regInt && r.tag == regInt && intBinReg(in.a, l, r.i) {
				sp--
				break
			}
			v, berr := m.fastBinop(int(in.line), in.a, l.val(), r.val())
			if berr != nil {
				err = berr
				break
			}
			sp--
			stack[sp-1].set(v)
		case opBinopConst:
			l := &stack[sp-1]
			if l.tag == regInt {
				if c, ok := p.consts[in.a].(Int); ok && intBinReg(in.b, l, int64(c)) {
					break
				}
			}
			v, berr := m.fastBinop(int(in.line), in.b, l.val(), p.consts[in.a])
			if berr != nil {
				err = berr
				break
			}
			stack[sp-1].set(v)
		case opBinopLocal:
			l := &stack[sp-1]
			if l.tag == regInt && slots[in.a].tag == regInt && intBinReg(in.b, l, slots[in.a].i) {
				break
			}
			rv, lerr := m.loadSlotIdx(p, slots, int(in.a), int(in.line))
			if lerr != nil {
				err = lerr
				break
			}
			v, berr := m.fastBinop(int(in.line), in.b, l.val(), rv)
			if berr != nil {
				err = berr
				break
			}
			stack[sp-1].set(v)
		case opBinopStore:
			l, r := &stack[sp-2], &stack[sp-1]
			if l.tag == regInt && r.tag == regInt && intBinReg(in.b, l, r.i) {
				sp -= 2
				m.storeSlot(p, slots, int(in.a), l)
				break
			}
			v, berr := m.fastBinop(int(in.line), in.b, l.val(), r.val())
			if berr != nil {
				err = berr
				break
			}
			sp -= 2
			stack[sp].set(v)
			m.storeSlot(p, slots, int(in.a), &stack[sp])
		case opCmpJump:
			l, r := &stack[sp-2], &stack[sp-1]
			if l.tag == regInt && r.tag == regInt && intBinReg(in.b, l, r.i) {
				sp -= 2
				if !l.truthy() {
					pc = int(in.a)
					continue
				}
				break
			}
			v, berr := m.fastBinop(int(in.line), in.b, l.val(), r.val())
			if berr != nil {
				err = berr
				break
			}
			sp -= 2
			if !Truthy(v) {
				pc = int(in.a)
				continue
			}
		case opCmpConstJump:
			l := &stack[sp-1]
			if l.tag == regInt {
				if c, ok := p.consts[in.c].(Int); ok && intBinReg(in.b, l, int64(c)) {
					sp--
					if !l.truthy() {
						pc = int(in.a)
						continue
					}
					break
				}
			}
			v, berr := m.fastBinop(int(in.line), in.b, l.val(), p.consts[in.c])
			if berr != nil {
				err = berr
				break
			}
			sp--
			if !Truthy(v) {
				pc = int(in.a)
				continue
			}
		case opCmpLocalJump:
			l := &stack[sp-1]
			if l.tag == regInt && slots[in.c].tag == regInt && intBinReg(in.b, l, slots[in.c].i) {
				sp--
				if !l.truthy() {
					pc = int(in.a)
					continue
				}
				break
			}
			rv, lerr := m.loadSlotIdx(p, slots, int(in.c), int(in.line))
			if lerr != nil {
				err = lerr
				break
			}
			v, berr := m.fastBinop(int(in.line), in.b, l.val(), rv)
			if berr != nil {
				err = berr
				break
			}
			sp--
			if !Truthy(v) {
				pc = int(in.a)
				continue
			}
		case opIncLocalConst:
			dst := &slots[in.a]
			if dst.tag == regInt {
				if c, ok := p.consts[in.b].(Int); ok {
					dst.i += int64(c)
					break
				}
			}
			if dst.tag == regNone {
				if _, ok := m.Globals.Lookup(p.slotNames[in.a]); !ok {
					err = runtimeErrf(int(in.line), "name %q is not defined", p.slotNames[in.a])
					break
				}
			}
			var chunk reg
			chunk.set(p.consts[in.b])
			err = m.appendSlot(p, int(in.line), slots, int(in.a), &chunk)
		case opSwap:
			stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]
		case opPop:
			sp--
		case opIndex:
			v, ierr := m.index(int(in.line), stack[sp-2].val(), stack[sp-1].val())
			if ierr != nil {
				err = ierr
				break
			}
			sp--
			stack[sp-1].set(v)
		case opStoreIndex:
			sp -= 3
			err = m.indexAssign(int(in.line), stack[sp+1].val(), stack[sp+2].val(), stack[sp].val())
		case opDelIndex:
			sp -= 2
			err = m.delIndex(int(in.line), stack[sp].val(), stack[sp+1].val())
		case opCheckSlice:
			// Canonical tagging: any Int bound is regInt, nothing else is.
			if stack[sp-1].tag != regInt {
				err = runtimeErrf(int(in.line), "slice bound must be int")
			}
		case opSlice:
			lo, hi := int64(0), int64(-1)
			hasHi := false
			if in.a&sliceHasHi != 0 {
				sp--
				hi = stack[sp].i
				hasHi = true
			}
			if in.a&sliceHasLo != 0 {
				sp--
				lo = stack[sp].i
			}
			v, serr := m.slice(int(in.line), stack[sp-1].val(), lo, hi, hasHi)
			if serr != nil {
				err = serr
				break
			}
			stack[sp-1].set(v)
		case opAttr:
			v, aerr := m.attr(int(in.line), stack[sp-1].val(), p.names[in.a])
			if aerr != nil {
				err = aerr
				break
			}
			stack[sp-1].set(v)
		case opCall:
			argc := int(in.a)
			fn := &stack[sp-argc-1]
			var v Value
			var cerr error
			if cf, ok := fn.v.(*compiledFunc); ok {
				v, cerr = m.callCompiledRegs(cf, stack[sp-argc:sp])
			} else {
				args := make([]Value, argc)
				for i := range args {
					args[i] = stack[sp-argc+i].val()
				}
				v, cerr = m.call(int(in.line), fn.val(), args)
			}
			if cerr != nil {
				err = cerr
				break
			}
			sp -= argc
			stack[sp-1].set(v)
		case opMakeList:
			n := int(in.a)
			elems := make([]Value, n)
			for i := range elems {
				elems[i] = stack[sp-n+i].val()
			}
			sp -= n
			if aerr := m.alloc(int(in.line), int64(16+8*n)); aerr != nil {
				err = aerr
				break
			}
			stack[sp].set(&List{Elems: elems})
			sp++
		case opMakeDict:
			n := int(in.a)
			d := NewDict()
			base := sp - 2*n
			for i := 0; i < n; i++ {
				if derr := d.Set(stack[base+2*i].val(), stack[base+2*i+1].val()); derr != nil {
					err = runtimeErrf(int(in.line), "%v", derr)
					break
				}
			}
			if err != nil {
				break
			}
			sp = base
			if aerr := m.alloc(int(in.line), int64(16+32*d.Len())); aerr != nil {
				err = aerr
				break
			}
			stack[sp].set(d)
			sp++
		case opIterNew:
			next, ierr := iterate(stack[sp-1].val(), int(in.line))
			if ierr != nil {
				err = ierr
				break
			}
			stack[sp-1].set(&vmIter{next: next})
		case opIterNext:
			v, ierr := stack[sp-1].v.(*vmIter).next()
			if ierr != nil {
				err = ierr
				break
			}
			if v == nil {
				sp--
				pc = int(in.a)
				continue
			}
			stack[sp].set(v)
			sp++
		case opTryPush:
			handlers = append(handlers, tryHandler{pc: int(in.a), sp: sp, hasName: in.b == 1})
		case opTryPop:
			handlers = handlers[:len(handlers)-1]
		case opRaise:
			sp--
			err = runtimeErrf(int(in.line), "%s", Repr(stack[sp].val()))
		case opReturn:
			return stack[sp-1].val(), nil
		case opReturnNone:
			return None, nil
		}
		if err != nil {
			// Budget exhaustion and kills propagate with no adjustment:
			// their counters were finalized where they fired. Catchable
			// errors first refund the block charges the oracle would not
			// have made yet, restoring its exact counter state.
			if err == ErrBudgetExceeded || err == ErrKilled {
				return nil, err
			}
			if r := int64(in.refund); r > 0 {
				m.steps -= r
				m.budget += r
			}
			rerr, ok := err.(*RuntimeError)
			if !ok || len(handlers) == 0 {
				return nil, err
			}
			h := handlers[len(handlers)-1]
			handlers = handlers[:len(handlers)-1]
			sp = h.sp
			if h.hasName {
				stack[sp].set(Str(rerr.Msg))
				sp++
			}
			pc = h.pc
			continue
		}
		pc++
	}
	return None, nil
}

// arithFast handles the arithmetic binops that cannot fail on ints.
func arithFast(code int32, a, b int64) (int64, bool) {
	switch code {
	case bopAdd:
		return a + b, true
	case bopSub:
		return a - b, true
	case bopMul:
		return a * b, true
	}
	return 0, false
}

// cmpFast handles the comparison binops on ints.
func cmpFast(code int32, a, b int64) (bool, bool) {
	switch code {
	case bopLt:
		return a < b, true
	case bopLe:
		return a <= b, true
	case bopGt:
		return a > b, true
	case bopGe:
		return a >= b, true
	case bopEq:
		return a == b, true
	case bopNe:
		return a != b, true
	}
	return false, false
}

// intBinReg computes one int?int binop into l without heap allocation,
// returning false (l untouched) for division or modulo by zero and for
// `in`, which take the fastBinop slow path for its exact errors.
func intBinReg(code int32, l *reg, b int64) bool {
	a := l.i
	if x, ok := arithFast(code, a, b); ok {
		l.i = x
		return true
	}
	if x, ok := cmpFast(code, a, b); ok {
		l.setBool(x)
		return true
	}
	if code == bopMod && b != 0 {
		l.i = floorMod(a, b)
		return true
	}
	if code == bopFloorDiv && b != 0 {
		l.i = floorDiv(a, b)
		return true
	}
	return false
}

// fastBinop is the boxed slow path behind intBinReg: Int/Int division and
// modulo (for their error cases), then the engines' shared m.binop for
// every other combination (and for `in`, which has no Int/Int meaning).
func (m *Machine) fastBinop(line int, code int32, l, r Value) (Value, error) {
	if li, lok := l.(Int); lok {
		if ri, rok := r.(Int); rok {
			switch code {
			case bopFloorDiv:
				if ri == 0 {
					return nil, runtimeErrf(line, "integer division by zero")
				}
				return Int(floorDiv(int64(li), int64(ri))), nil
			case bopMod:
				if ri == 0 {
					return nil, runtimeErrf(line, "integer modulo by zero")
				}
				return Int(floorMod(int64(li), int64(ri))), nil
			}
		}
	}
	return m.binop(line, binopNames[code], l, r)
}

// loadSlotIdx reads a slot with opLoadLocal's exact semantics: global
// fallback for never-assigned slots, accumulator materialization, boxing
// unboxed ints.
func (m *Machine) loadSlotIdx(p *funcProto, slots []reg, idx, line int) (Value, error) {
	r := &slots[idx]
	switch r.tag {
	case regNone:
		gv, ok := m.Globals.Lookup(p.slotNames[idx])
		if !ok {
			return nil, runtimeErrf(line, "name %q is not defined", p.slotNames[idx])
		}
		return gv, nil
	case regInt:
		return Int(r.i), nil
	}
	if acc, ok := r.v.(*strAccum); ok {
		return acc.value(), nil
	}
	return r.v, nil
}

// storeSlot implements opStoreLocal's three-way store: rebind the slot
// (crediting the replaced value), assign an existing global (for names
// never assigned in this frame), or define the slot. storeCell is the same
// store for a name with cells, with the enclosing scopes in between.
// Int-over-anything rebinds copy registers without boxing; creditRebind
// only ever credits Str/Bytes old values, so skipping it for int olds is
// accounting-neutral.
func (m *Machine) storeSlot(p *funcProto, slots []reg, idx int, src *reg) {
	dst := &slots[idx]
	switch dst.tag {
	case regInt:
		*dst = *src
	case regVal:
		m.creditRebind(materialize(dst.v), src.val())
		*dst = *src
	default: // regNone: the name may be an existing global
		if gv, ok := m.Globals.Lookup(p.slotNames[idx]); ok {
			nv := src.val()
			m.creditRebind(gv, nv)
			m.Globals.Define(p.slotNames[idx], nv)
		} else {
			*dst = *src
		}
	}
}

// loadCell resolves a name with cells: the first set cell of its chain (own
// scope, then enclosing scopes innermost first), else the global.
func (m *Machine) loadCell(ref *cellRef, cells []*cell) (Value, bool) {
	for _, i := range ref.chain {
		if v := cells[i].v; v != nil {
			return v, true
		}
	}
	return m.Globals.Lookup(ref.name)
}

// storeCell assigns a name with cells: rebind the first scope that holds
// it — a set cell of the chain, else an existing global — or define it in
// the function's own cell, chain[0]. Only names the function binds are
// stored, so chain[0] is always its own.
func (m *Machine) storeCell(ref *cellRef, cells []*cell, v Value) {
	for _, i := range ref.chain {
		if c := cells[i]; c.v != nil {
			m.creditRebind(c.v, v)
			c.v = v
			return
		}
	}
	if gv, ok := m.Globals.Lookup(ref.name); ok {
		m.creditRebind(gv, v)
		m.Globals.Define(ref.name, v)
		return
	}
	cells[ref.chain[0]].v = v
}

// appendSlot implements opAppendLocal: `x = x + chunk` / `x += chunk` on a
// local slot. Int appends mutate the register in place; like-typed
// string/bytes appends run through a capacity-doubling accumulator so hot
// concatenation loops cost amortized O(len(chunk)) instead of re-copying
// the whole string; every other combination takes the generic
// binop+store path. Memory accounting (the binop's alloc charge plus the
// rebind credit) is identical either way.
func (m *Machine) appendSlot(p *funcProto, line int, slots []reg, idx int, chunk *reg) error {
	dst := &slots[idx]
	switch dst.tag {
	case regNone:
		// Never assigned in this frame: the target is a global
		// (opCheckLocal already surfaced undefined names).
		name := p.slotNames[idx]
		gv, ok := m.Globals.Lookup(name)
		if !ok {
			return runtimeErrf(line, "name %q is not defined", name)
		}
		v, err := m.binop(line, "+", gv, chunk.val())
		if err != nil {
			return err
		}
		m.creditRebind(gv, v)
		m.Globals.Define(name, v)
		return nil
	case regInt:
		if chunk.tag == regInt {
			dst.i += chunk.i
			return nil
		}
	default:
		switch cur := dst.v.(type) {
		case *strAccum:
			if r, ok := chunk.v.(Str); ok && !cur.isBytes {
				return cur.grow(m, line, string(r))
			}
			if r, ok := chunk.v.(Bytes); ok && cur.isBytes {
				return cur.grow(m, line, string(r))
			}
		case Str:
			if r, ok := chunk.v.(Str); ok {
				if err := m.alloc(line, int64(len(cur)+len(r))); err != nil {
					return err
				}
				if len(r) == 0 {
					return nil // content unchanged; the oracle grants no rebind credit
				}
				m.memDelta -= 16 + int64(len(cur))
				acc := &strAccum{buf: make([]byte, 0, 2*(len(cur)+len(r)))}
				acc.buf = append(append(acc.buf, cur...), r...)
				dst.set(acc)
				return nil
			}
		case Bytes:
			if r, ok := chunk.v.(Bytes); ok {
				if err := m.alloc(line, int64(len(cur)+len(r))); err != nil {
					return err
				}
				if len(r) == 0 {
					return nil
				}
				m.memDelta -= 16 + int64(len(cur))
				acc := &strAccum{isBytes: true, buf: make([]byte, 0, 2*(len(cur)+len(r)))}
				acc.buf = append(append(acc.buf, cur...), r...)
				dst.set(acc)
				return nil
			}
		}
	}
	// Mixed types: the generic binop + store semantics.
	cur := materialize(dst.val())
	v, err := m.binop(line, "+", cur, chunk.val())
	if err != nil {
		return err
	}
	m.creditRebind(cur, v)
	dst.set(v)
	return nil
}

// grow appends to the accumulator with the oracle's exact charge
// (alloc of the full concatenated length, then the rebind credit for the
// replaced value), but only O(len(r)) actual copying.
func (a *strAccum) grow(m *Machine, line int, r string) error {
	if err := m.alloc(line, int64(len(a.buf)+len(r))); err != nil {
		return err
	}
	if len(r) == 0 {
		return nil
	}
	m.memDelta -= 16 + int64(len(a.buf))
	a.buf = append(a.buf, r...)
	a.cached = nil
	return nil
}
