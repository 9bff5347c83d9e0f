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
			// One batched charge per basic block: spend, written out here
			// because a call returning an error costs the compute loop a
			// few percent even inlined.
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
		case opJumpIfTrue:
			sp--
			if stack[sp].truthy() {
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
		// The binop family tries the unboxed int fast path first: on the
		// compute-bound loops the VM exists to speed up, both operands are
		// almost always ints, and the fast path never heap-allocates. An
		// immediate is an int by construction, and a compare-branch on two
		// ints branches on the comparison itself. Division/modulo by zero,
		// `in`, and every non-int combination fall through to fastBinop,
		// an immediate boxed as the Int constant it was compiled from.
		case opBinop:
			l, r := &stack[sp-2], &stack[sp-1]
			if l.tag == regInt && r.tag == regInt && intBinop(in.bop, l, l.i, r.i) {
				sp--
				break
			}
			v, berr := m.fastBinop(int(in.line), in.bop, l.val(), r.val())
			if berr != nil {
				err = berr
				break
			}
			sp--
			stack[sp-1].set(v)
		case opBinopConst:
			l := &stack[sp-1]
			if l.tag == regInt {
				if c, ok := p.consts[in.c].(Int); ok && intBinop(in.bop, l, l.i, int64(c)) {
					break
				}
			}
			v, berr := m.fastBinop(int(in.line), in.bop, l.val(), p.consts[in.c])
			if berr != nil {
				err = berr
				break
			}
			stack[sp-1].set(v)
		case opBinopImm:
			l := &stack[sp-1]
			if l.tag == regInt && intBinop(in.bop, l, l.i, int64(in.c)) {
				break
			}
			v, berr := m.fastBinop(int(in.line), in.bop, l.val(), Int(in.c))
			if berr != nil {
				err = berr
				break
			}
			stack[sp-1].set(v)
		case opBinopLocal:
			l, r := &stack[sp-1], &slots[in.c]
			if l.tag == regInt && r.tag == regInt && intBinop(in.bop, l, l.i, r.i) {
				break
			}
			rv, lerr := m.loadSlotIdx(p, slots, int(in.c), int(in.line))
			if lerr != nil {
				err = lerr
				break
			}
			v, berr := m.fastBinop(int(in.line), in.bop, l.val(), rv)
			if berr != nil {
				err = berr
				break
			}
			stack[sp-1].set(v)
		case opLocalBinopImm:
			if x := &slots[in.b]; x.tag == regInt && intBinop(in.bop, &stack[sp], x.i, int64(in.c)) {
				sp++
				break
			}
			lv, lerr := m.loadLhs(p, slots, in)
			if lerr != nil {
				err = lerr
				break
			}
			v, berr := m.fastBinop(int(in.line), in.bop, lv, Int(in.c))
			if berr != nil {
				err = berr
				break
			}
			stack[sp].set(v)
			sp++
		case opBinopStore:
			l, r := &stack[sp-2], &stack[sp-1]
			if l.tag == regInt && r.tag == regInt && intBinop(in.bop, l, l.i, r.i) {
				sp -= 2
				m.storeSlot(p, slots, int(in.a), l)
				break
			}
			v, berr := m.fastBinop(int(in.line), in.bop, l.val(), r.val())
			if berr != nil {
				err = berr
				break
			}
			sp -= 2
			stack[sp].set(v)
			m.storeSlot(p, slots, int(in.a), &stack[sp])
		case opCmpJump:
			l, r := &stack[sp-2], &stack[sp-1]
			var t bool
			if l.tag == regInt && r.tag == regInt {
				t = intCmp(in.bop, l.i, r.i)
			} else if t, err = m.cmp(in, l.val(), r.val()); err != nil {
				break
			}
			sp -= 2
			if t == in.onTrue {
				pc = int(in.a)
				continue
			}
		case opCmpConstJump:
			l := &stack[sp-1]
			var t bool
			if c, ok := p.consts[in.c].(Int); ok && l.tag == regInt {
				t = intCmp(in.bop, l.i, int64(c))
			} else if t, err = m.cmp(in, l.val(), p.consts[in.c]); err != nil {
				break
			}
			sp--
			if t == in.onTrue {
				pc = int(in.a)
				continue
			}
		case opCmpLocalJump:
			l, r := &stack[sp-1], &slots[in.c]
			var t bool
			if l.tag == regInt && r.tag == regInt {
				t = intCmp(in.bop, l.i, r.i)
			} else {
				rv, lerr := m.loadSlotIdx(p, slots, int(in.c), int(in.line))
				if lerr != nil {
					err = lerr
					break
				}
				if t, err = m.cmp(in, l.val(), rv); err != nil {
					break
				}
			}
			sp--
			if t == in.onTrue {
				pc = int(in.a)
				continue
			}
		case opLocalCmpLocalJump:
			x, y := &slots[in.b], &slots[in.c]
			var t bool
			if x.tag == regInt && y.tag == regInt {
				t = intCmp(in.bop, x.i, y.i)
			} else {
				lv, lerr := m.loadLhs(p, slots, in)
				if lerr != nil {
					err = lerr
					break
				}
				rv, lerr := m.loadSlotIdx(p, slots, int(in.c), int(in.line))
				if lerr != nil {
					err = lerr
					break
				}
				if t, err = m.cmp(in, lv, rv); err != nil {
					break
				}
			}
			if t == in.onTrue {
				pc = int(in.a)
				continue
			}
		case opLocalCmpImmJump:
			x := &slots[in.b]
			var t bool
			if x.tag == regInt {
				t = intCmp(in.bop, x.i, int64(in.c))
			} else {
				lv, lerr := m.loadLhs(p, slots, in)
				if lerr != nil {
					err = lerr
					break
				}
				if t, err = m.cmp(in, lv, Int(in.c)); err != nil {
					break
				}
			}
			if t == in.onTrue {
				pc = int(in.a)
				continue
			}
		case opIncLocalImm:
			if dst := &slots[in.a]; dst.tag == regInt {
				dst.i += int64(in.c)
				break
			}
			err = m.incSlot(p, in, slots, Int(in.c))
		case opIncLocalConst:
			err = m.incSlot(p, in, slots, p.consts[in.c])
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
				if in.onTrue {
					break
				}
				pc = int(in.a)
				continue
			}
			stack[sp].set(v)
			sp++
			if in.onTrue {
				pc = int(in.a)
				continue
			}
		case opTryPush:
			handlers = append(handlers, tryHandler{pc: int(in.a), sp: sp, hasName: in.b == 1})
		case opTryPop:
			handlers = handlers[:len(handlers)-1]
		case opRaise:
			sp--
			err = m.raise(int(in.line), stack[sp].val())
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

// intBinop computes one int?int binop into dst without heap allocation,
// reporting false (dst untouched) for division or modulo by zero and for
// `in`, which take the fastBinop slow path for their exact errors.
func intBinop(code uint8, dst *reg, a, b int64) bool {
	switch code {
	case bopAdd:
		*dst = reg{tag: regInt, i: a + b}
	case bopSub:
		*dst = reg{tag: regInt, i: a - b}
	case bopMul:
		*dst = reg{tag: regInt, i: a * b}
	case bopFloorDiv:
		if b == 0 {
			return false
		}
		*dst = reg{tag: regInt, i: floorDiv(a, b)}
	case bopMod:
		if b == 0 {
			return false
		}
		*dst = reg{tag: regInt, i: floorMod(a, b)}
	case bopIn:
		return false
	default:
		dst.setBool(intCmp(code, a, b))
	}
	return true
}

// intCmp evaluates a comparison binop (isCmp) on ints.
func intCmp(code uint8, a, b int64) bool {
	switch code {
	case bopEq:
		return a == b
	case bopNe:
		return a != b
	case bopLt:
		return a < b
	case bopLe:
		return a <= b
	case bopGt:
		return a > b
	}
	return a >= b
}

// fastBinop is the boxed slow path behind intBinop: Int/Int division and
// modulo (for their error cases), then the engines' shared m.binop for
// every other combination (and for `in`, which has no Int/Int meaning).
func (m *Machine) fastBinop(line int, code uint8, l, r Value) (Value, error) {
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

// cmp is the boxed slow path of the compare-branches: the comparison's
// truth, or its error.
func (m *Machine) cmp(in *instr, l, r Value) (bool, error) {
	v, err := m.fastBinop(int(in.line), in.bop, l, r)
	if err != nil {
		return false, err
	}
	return Truthy(v), nil
}

// refund gives back n batched charges: the extra refund of a fused lhs
// load's or check's name error (see peephole).
func (m *Machine) refund(n uint8) {
	m.steps -= int64(n)
	m.budget += int64(n)
}

// loadLhs reads the lhs slot b of a Local… superinstruction, refunding
// the fused load's extra charge with its name error.
func (m *Machine) loadLhs(p *funcProto, slots []reg, in *instr) (Value, error) {
	v, err := m.loadSlotIdx(p, slots, int(in.b), int(in.line))
	if err != nil {
		m.refund(in.extra)
	}
	return v, err
}

// incSlot is the slow path of opIncLocalImm / opIncLocalConst: the fused
// opCheckLocal's name error, with its extra refund, then appendSlot.
func (m *Machine) incSlot(p *funcProto, in *instr, slots []reg, k Value) error {
	if slots[in.a].tag == regNone {
		if _, ok := m.Globals.Lookup(p.slotNames[in.a]); !ok {
			m.refund(in.extra)
			return runtimeErrf(int(in.line), "name %q is not defined", p.slotNames[in.a])
		}
	}
	var chunk reg
	chunk.set(k)
	return m.appendSlot(p, int(in.line), slots, int(in.a), &chunk)
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
				dst.set(&strAccum{buf: concat(cur, r)})
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
				dst.set(&strAccum{isBytes: true, buf: concat(cur, r)})
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

// concat starts an accumulator's buffer at exactly a+b: a one-shot
// `x = a + b` holds no slack.
func concat[S ~string | ~[]byte](a, b S) []byte {
	buf := make([]byte, 0, len(a)+len(b))
	return append(append(buf, a...), b...)
}

// grow appends to the accumulator with the oracle's exact charge
// (alloc of the full concatenated length, then the rebind credit for the
// replaced value), but only O(len(r)) actual copying. A buffer that is
// full doubles, but never past the new length plus what the memory limit
// still leaves after the charge, so the slack the accounting does not see
// stays within the limit.
func (a *strAccum) grow(m *Machine, line int, r string) error {
	need := len(a.buf) + len(r)
	if err := m.alloc(line, int64(need)); err != nil {
		return err
	}
	if len(r) == 0 {
		return nil
	}
	if need > cap(a.buf) {
		room := int64(need) + max(0, m.memLimit-m.MemoryEstimate())
		buf := make([]byte, len(a.buf), max(int64(need), min(2*int64(cap(a.buf)), room, m.memLimit)))
		copy(buf, a.buf)
		a.buf = buf
	}
	m.memDelta -= 16 + int64(len(a.buf))
	a.buf = append(a.buf, r...)
	a.cached = nil
	return nil
}
