package interp

import (
	"fmt"
	"strconv"
)

// The compiler lowers the parser's AST into funcProto bytecode, the only
// form in which bscript executes. Its reference semantics are the test-only
// tree oracle's (oracle_test.go), which charges one instruction per AST
// node and resolves names through a chain of scopes; every divergence the
// VM is allowed is documented in DESIGN.md §11. Three things are decided at
// compile time:
//
//   - Slot resolution: names a function body binds (params, assignment
//     targets, loop/except variables, nested defs) become array slots.
//     Loads of other names, and all top-level names, keep late binding
//     through the global table.
//
//   - Cells: a slot that a nested def mentions lives in a heap cell instead,
//     and each executed nested def captures by reference the enclosing
//     cells of the names it mentions. A name with cells resolves own cell,
//     then enclosing cells innermost first, then the global table — the
//     oracle's scope chain. A function that neither contains nor is a
//     nested def has no cells and no cell opcodes.
//
//   - Budget batching: the oracle charges one instruction per AST node as
//     it visits it. The compiler counts those per-node charges per basic
//     block and emits a single opCharge at block entry. To keep the
//     observable step/budget counts byte-identical on every error path,
//     each instruction records a refund: how many of its block's charges
//     the oracle would NOT yet have made when that instruction runs. When a
//     catchable error (RuntimeError or memory violation) leaves an
//     instruction, the VM refunds that many charges before unwinding.

// Compile lowers source text to a Program. Parse errors are returned
// unchanged.
func Compile(src string) (*Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c := newCompiler("<main>", nil, nil)
	if err := c.block(prog); err != nil {
		return nil, err
	}
	c.flush()
	c.emit(instr{op: opReturnNone})
	c.finish()
	return &Program{top: c.p}, nil
}

type loopScope struct {
	start    int   // continue target (loop head pc)
	breaks   []int // opJump indices to patch to the loop end
	popIter  bool  // for loops keep their iterator on the stack
	tryDepth int   // handler nesting at loop entry
}

type compiler struct {
	p        *funcProto
	slots    map[string]int // nil for the top-level proto (all names global)
	cells    map[string]int // names resolved through cells -> index in p.cellRefs
	constIdx map[string]int
	nameIdx  map[string]int
	batchPC  int // open opCharge instruction, -1 if none
	batchN   int32
	loops    []loopScope
	tryDepth int
}

func newCompiler(name string, params []string, slotNames []string) *compiler {
	c := &compiler{
		p:        &funcProto{name: name, params: params},
		constIdx: make(map[string]int),
		nameIdx:  make(map[string]int),
		batchPC:  -1,
	}
	if slotNames != nil {
		c.slots = make(map[string]int, len(slotNames))
		for i, n := range slotNames {
			c.slots[n] = i
		}
		c.p.slotNames = slotNames
		c.p.numSlots = len(slotNames)
	}
	return c
}

// charge registers one per-AST-node instruction charge for the current
// basic block, opening the block's opCharge lazily.
func (c *compiler) charge(line int) {
	if c.batchPC < 0 {
		c.batchPC = len(c.p.code)
		c.p.code = append(c.p.code, instr{op: opCharge, line: int32(line), refund: -1})
	}
	c.p.code[c.batchPC].a++
	c.batchN++
}

// emit appends an instruction, recording how many of the open block's
// charges had been earned at this point (fixed up into a refund by flush).
func (c *compiler) emit(in instr) int {
	if c.batchPC >= 0 {
		in.refund = c.batchN
	} else {
		in.refund = -1
	}
	c.p.code = append(c.p.code, in)
	return len(c.p.code) - 1
}

// flush closes the current charge block: every instruction in it gets
// refund = total block charges - charges earned at its emission.
func (c *compiler) flush() {
	if c.batchPC < 0 {
		return
	}
	total := c.batchN
	for i := c.batchPC + 1; i < len(c.p.code); i++ {
		if c.p.code[i].refund >= 0 {
			c.p.code[i].refund = total - c.p.code[i].refund
		}
	}
	c.batchPC = -1
	c.batchN = 0
}

func (c *compiler) here() int { return len(c.p.code) }

func (c *compiler) patch(pc int) { c.p.code[pc].a = int32(len(c.p.code)) }

// finish normalizes refund sentinels, fuses superinstructions, and sizes
// the operand stack.
func (c *compiler) finish() {
	for i := range c.p.code {
		if c.p.code[i].refund < 0 {
			c.p.code[i].refund = 0
		}
	}
	c.p.code = peephole(c.p.code)
	c.p.maxStack = computeMaxStack(c.p.code)
}

// peephole fuses hot adjacent instruction sequences into
// superinstructions, then remaps every jump target. Fusion preserves the
// budget-refund contract because it only merges sequences whose
// error-capable members carry the same refund (adjacent instructions with
// no charge() between them), and it never crosses a jump target.
func peephole(code []instr) []instr {
	isTarget := make([]bool, len(code)+1)
	for _, in := range code {
		switch in.op {
		case opJump, opJumpIfFalse, opAndJump, opOrJump, opIterNext, opTryPush:
			isTarget[in.a] = true
		}
	}
	free := func(i int) bool { return i < len(code) && !isTarget[i] }

	out := make([]instr, 0, len(code))
	newPC := make([]int, len(code)+1)
	for i := 0; i < len(code); {
		newPC[i] = len(out)
		in := code[i]
		switch {
		// x += const / x = x + const on a slot: const, check, append.
		case in.op == opConst && free(i+1) && free(i+2) &&
			code[i+1].op == opCheckLocal && code[i+2].op == opAppendLocal &&
			code[i+1].a == code[i+2].a && code[i+1].line == code[i+2].line:
			app := code[i+2]
			out = append(out, instr{op: opIncLocalConst, a: app.a, b: in.a,
				line: app.line, refund: app.refund})
			newPC[i+1], newPC[i+2] = len(out)-1, len(out)-1
			i += 3
		// lhs ? const, optionally followed by a conditional branch.
		case in.op == opConst && free(i+1) && code[i+1].op == opBinop:
			b := code[i+1]
			if free(i+2) && code[i+2].op == opJumpIfFalse {
				out = append(out, instr{op: opCmpConstJump, a: code[i+2].a, b: b.a,
					c: in.a, line: b.line, refund: b.refund})
				newPC[i+1], newPC[i+2] = len(out)-1, len(out)-1
				i += 3
			} else {
				out = append(out, instr{op: opBinopConst, a: in.a, b: b.a,
					line: b.line, refund: b.refund})
				newPC[i+1] = len(out) - 1
				i += 2
			}
		// lhs ? local, optionally followed by a conditional branch. The
		// load's name error and the binop's error share line and refund.
		case in.op == opLoadLocal && free(i+1) && code[i+1].op == opBinop &&
			in.line == code[i+1].line:
			b := code[i+1]
			if free(i+2) && code[i+2].op == opJumpIfFalse {
				out = append(out, instr{op: opCmpLocalJump, a: code[i+2].a, b: b.a,
					c: in.a, line: b.line, refund: b.refund})
				newPC[i+1], newPC[i+2] = len(out)-1, len(out)-1
				i += 3
			} else {
				out = append(out, instr{op: opBinopLocal, a: in.a, b: b.a,
					line: b.line, refund: b.refund})
				newPC[i+1] = len(out) - 1
				i += 2
			}
		// Stack-stack binop feeding a branch or a slot store.
		case in.op == opBinop && free(i+1) && code[i+1].op == opJumpIfFalse:
			out = append(out, instr{op: opCmpJump, a: code[i+1].a, b: in.a,
				line: in.line, refund: in.refund})
			newPC[i+1] = len(out) - 1
			i += 2
		case in.op == opBinop && free(i+1) && code[i+1].op == opStoreLocal:
			out = append(out, instr{op: opBinopStore, a: code[i+1].a, b: in.a,
				line: in.line, refund: in.refund})
			newPC[i+1] = len(out) - 1
			i += 2
		default:
			out = append(out, in)
			i++
		}
	}
	newPC[len(code)] = len(out)
	for i := range out {
		switch out[i].op {
		case opJump, opJumpIfFalse, opAndJump, opOrJump, opIterNext, opTryPush,
			opCmpJump, opCmpConstJump, opCmpLocalJump:
			out[i].a = int32(newPC[out[i].a])
		}
	}
	return out
}

func (c *compiler) constant(key string, v Value) int {
	if i, ok := c.constIdx[key]; ok {
		return i
	}
	i := len(c.p.consts)
	c.p.consts = append(c.p.consts, v)
	c.constIdx[key] = i
	return i
}

func (c *compiler) name(n string) int32 {
	if i, ok := c.nameIdx[n]; ok {
		return int32(i)
	}
	i := len(c.p.names)
	c.p.names = append(c.p.names, n)
	c.nameIdx[n] = i
	return int32(i)
}

// slot returns n's register slot, or -1 when n is a global or lives in a
// cell (so the register fast paths never see a captured variable).
func (c *compiler) slot(n string) int {
	if _, ok := c.cells[n]; ok {
		return -1
	}
	if i, ok := c.slots[n]; ok {
		return i
	}
	return -1
}

// --- statements --------------------------------------------------------------

func (c *compiler) block(body []stmt) error {
	for _, s := range body {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s stmt) error {
	c.charge(s.stmtLine())
	switch st := s.(type) {
	case *exprStmt:
		if err := c.expr(st.e); err != nil {
			return err
		}
		c.emit(instr{op: opPop})
		return nil
	case *assignStmt:
		return c.assign(st)
	case *ifStmt:
		if err := c.expr(st.cond); err != nil {
			return err
		}
		c.flush()
		jf := c.emit(instr{op: opJumpIfFalse})
		if err := c.block(st.body); err != nil {
			return err
		}
		c.flush()
		if len(st.orelse) == 0 {
			c.patch(jf)
			return nil
		}
		j := c.emit(instr{op: opJump})
		c.patch(jf)
		if err := c.block(st.orelse); err != nil {
			return err
		}
		c.flush()
		c.patch(j)
		return nil
	case *whileStmt:
		c.flush()
		start := c.here()
		if err := c.expr(st.cond); err != nil {
			return err
		}
		c.flush()
		jf := c.emit(instr{op: opJumpIfFalse})
		c.loops = append(c.loops, loopScope{start: start, tryDepth: c.tryDepth})
		c.charge(st.line) // per-iteration charge, as the oracle's loop head
		if err := c.block(st.body); err != nil {
			return err
		}
		c.flush()
		c.emit(instr{op: opJump, a: int32(start)})
		c.patch(jf)
		c.patchBreaks()
		return nil
	case *forStmt:
		if err := c.expr(st.iter); err != nil {
			return err
		}
		c.flush()
		c.emit(instr{op: opIterNew, line: int32(st.line)})
		start := c.here()
		next := c.emit(instr{op: opIterNext})
		c.loops = append(c.loops, loopScope{start: start, popIter: true, tryDepth: c.tryDepth})
		c.charge(st.line) // per-item charge
		c.storeName(st.name, st.line)
		if err := c.block(st.body); err != nil {
			return err
		}
		c.flush()
		c.emit(instr{op: opJump, a: int32(start)})
		c.patch(next)
		c.patchBreaks()
		return nil
	case *defStmt:
		proto, err := compileFunc(st, c)
		if err != nil {
			return err
		}
		ci := len(c.p.consts)
		c.p.consts = append(c.p.consts, &compiledFunc{proto: proto})
		if ref, ok := c.cells[st.name]; ok {
			// Inside a function a def binds its own scope, never a global.
			c.emit(instr{op: opDefCell, a: c.p.cellRefs[ref].chain[0], b: int32(ci)})
		} else {
			c.emit(instr{op: opDefGlobal, a: c.name(st.name), b: int32(ci)})
		}
		return nil
	case *returnStmt:
		if st.value == nil {
			c.flush()
			c.emit(instr{op: opReturnNone})
			return nil
		}
		if err := c.expr(st.value); err != nil {
			return err
		}
		c.flush()
		c.emit(instr{op: opReturn})
		return nil
	case *breakStmt:
		if len(c.loops) == 0 {
			return nil // the oracle lets a stray break end the block silently
		}
		c.flush()
		ls := &c.loops[len(c.loops)-1]
		for i := 0; i < c.tryDepth-ls.tryDepth; i++ {
			c.emit(instr{op: opTryPop})
		}
		if ls.popIter {
			c.emit(instr{op: opPop})
		}
		ls.breaks = append(ls.breaks, c.emit(instr{op: opJump}))
		return nil
	case *continueStmt:
		if len(c.loops) == 0 {
			return nil
		}
		c.flush()
		ls := &c.loops[len(c.loops)-1]
		for i := 0; i < c.tryDepth-ls.tryDepth; i++ {
			c.emit(instr{op: opTryPop})
		}
		c.emit(instr{op: opJump, a: int32(ls.start)})
		return nil
	case *passStmt:
		return nil
	case *tryStmt:
		c.flush()
		tp := c.emit(instr{op: opTryPush, b: boolBit(st.name != "")})
		c.tryDepth++
		if err := c.block(st.body); err != nil {
			return err
		}
		c.flush()
		c.tryDepth--
		c.emit(instr{op: opTryPop})
		j := c.emit(instr{op: opJump})
		c.patch(tp)
		if st.name != "" {
			c.storeName(st.name, st.line) // the VM pushed Str(msg)
		}
		if err := c.block(st.handler); err != nil {
			return err
		}
		c.flush()
		c.patch(j)
		return nil
	case *raiseStmt:
		if err := c.expr(st.msg); err != nil {
			return err
		}
		c.emit(instr{op: opRaise, line: int32(st.line)})
		return nil
	case *delStmt:
		ix := st.target.(*indexExpr)
		if err := c.expr(ix.base); err != nil {
			return err
		}
		if err := c.expr(ix.index); err != nil {
			return err
		}
		c.emit(instr{op: opDelIndex, line: int32(st.line)})
		return nil
	default:
		return fmt.Errorf("bscript: cannot compile statement at line %d", s.stmtLine())
	}
}

func (c *compiler) patchBreaks() {
	ls := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	for _, pc := range ls.breaks {
		c.patch(pc)
	}
}

func (c *compiler) assign(st *assignStmt) error {
	switch t := st.target.(type) {
	case *identExpr:
		slot := c.slot(t.name)
		if st.op == "=" {
			// Accumulator fast path: `x = x + rhs` on a local slot.
			if b, ok := st.value.(*binaryExpr); ok && b.op == "+" && slot >= 0 {
				if id, ok := b.lhs.(*identExpr); ok && id.name == t.name {
					c.charge(b.line)
					c.charge(id.line)
					// The oracle resolves x before evaluating rhs; surface
					// the same name error at the same point.
					c.emit(instr{op: opCheckLocal, a: int32(slot), line: int32(id.line)})
					if err := c.expr(b.rhs); err != nil {
						return err
					}
					c.emit(instr{op: opAppendLocal, a: int32(slot), line: int32(b.line)})
					return nil
				}
			}
			if err := c.expr(st.value); err != nil {
				return err
			}
			c.storeName(t.name, st.line)
			return nil
		}
		// Augmented: value first, then the target read, as the oracle does.
		if st.op == "+=" && slot >= 0 {
			if err := c.expr(st.value); err != nil {
				return err
			}
			c.charge(t.line)
			c.emit(instr{op: opCheckLocal, a: int32(slot), line: int32(t.line)})
			c.emit(instr{op: opAppendLocal, a: int32(slot), line: int32(st.line)})
			return nil
		}
		if err := c.expr(st.value); err != nil {
			return err
		}
		c.charge(t.line)
		c.loadName(t.name, t.line)
		c.emit(instr{op: opSwap})
		c.emit(instr{op: opBinop, a: binopCodes[st.op[:1]], line: int32(st.line)})
		c.storeName(t.name, st.line)
		return nil
	case *indexExpr:
		if err := c.expr(st.value); err != nil {
			return err
		}
		if st.op != "=" {
			// The oracle fully evaluates the target (charging the index
			// node and re-evaluating base/index for the store).
			c.charge(t.line)
			if err := c.expr(t.base); err != nil {
				return err
			}
			if err := c.expr(t.index); err != nil {
				return err
			}
			c.emit(instr{op: opIndex, line: int32(t.line)})
			c.emit(instr{op: opSwap})
			c.emit(instr{op: opBinop, a: binopCodes[st.op[:1]], line: int32(st.line)})
		}
		if err := c.expr(t.base); err != nil {
			return err
		}
		if err := c.expr(t.index); err != nil {
			return err
		}
		c.emit(instr{op: opStoreIndex, line: int32(st.line)})
		return nil
	default:
		return fmt.Errorf("bscript: cannot compile assignment target at line %d", st.line)
	}
}

func (c *compiler) storeName(name string, line int) {
	if ref, ok := c.cells[name]; ok {
		c.emit(instr{op: opStoreCell, a: int32(ref), line: int32(line)})
		return
	}
	if i := c.slot(name); i >= 0 {
		c.emit(instr{op: opStoreLocal, a: int32(i), line: int32(line)})
		return
	}
	c.emit(instr{op: opStoreGlobal, a: c.name(name), line: int32(line)})
}

func (c *compiler) loadName(name string, line int) {
	if ref, ok := c.cells[name]; ok {
		c.emit(instr{op: opLoadCell, a: int32(ref), line: int32(line)})
		return
	}
	if i := c.slot(name); i >= 0 {
		c.emit(instr{op: opLoadLocal, a: int32(i), line: int32(line)})
		return
	}
	c.emit(instr{op: opLoadGlobal, a: c.name(name), line: int32(line)})
}

// --- expressions -------------------------------------------------------------

func (c *compiler) expr(e expr) error {
	c.charge(e.exprLine())
	switch ex := e.(type) {
	case *intLit:
		c.emit(instr{op: opConst, a: int32(c.constant("i:"+strconv.FormatInt(ex.v, 10), Int(ex.v)))})
		return nil
	case *strLit:
		c.emit(instr{op: opConst, a: int32(c.constant("s:"+ex.v, Str(ex.v)))})
		return nil
	case *bytesLit:
		c.emit(instr{op: opConst, a: int32(c.constant("b:"+string(ex.v), Bytes(ex.v)))})
		return nil
	case *boolLit:
		key := "B:0"
		if ex.v {
			key = "B:1"
		}
		c.emit(instr{op: opConst, a: int32(c.constant(key, Bool(ex.v)))})
		return nil
	case *noneLit:
		c.emit(instr{op: opConst, a: int32(c.constant("n", None))})
		return nil
	case *identExpr:
		c.loadName(ex.name, ex.line)
		return nil
	case *listLit:
		for _, el := range ex.elems {
			if err := c.expr(el); err != nil {
				return err
			}
		}
		c.emit(instr{op: opMakeList, a: int32(len(ex.elems)), line: int32(ex.line)})
		return nil
	case *dictLit:
		for i := range ex.keys {
			if err := c.expr(ex.keys[i]); err != nil {
				return err
			}
			if err := c.expr(ex.vals[i]); err != nil {
				return err
			}
		}
		c.emit(instr{op: opMakeDict, a: int32(len(ex.keys)), line: int32(ex.line)})
		return nil
	case *unaryExpr:
		if err := c.expr(ex.rhs); err != nil {
			return err
		}
		switch ex.op {
		case "-":
			c.emit(instr{op: opNeg, line: int32(ex.line)})
		case "not":
			c.emit(instr{op: opNot})
		default:
			return fmt.Errorf("bscript: cannot compile unary %q at line %d", ex.op, ex.line)
		}
		return nil
	case *binaryExpr:
		if ex.op == "and" || ex.op == "or" {
			if err := c.expr(ex.lhs); err != nil {
				return err
			}
			c.flush()
			op := opAndJump
			if ex.op == "or" {
				op = opOrJump
			}
			j := c.emit(instr{op: op})
			if err := c.expr(ex.rhs); err != nil {
				return err
			}
			c.flush()
			c.patch(j)
			return nil
		}
		if err := c.expr(ex.lhs); err != nil {
			return err
		}
		if err := c.expr(ex.rhs); err != nil {
			return err
		}
		code, ok := binopCodes[ex.op]
		if !ok {
			return fmt.Errorf("bscript: cannot compile operator %q at line %d", ex.op, ex.line)
		}
		c.emit(instr{op: opBinop, a: code, line: int32(ex.line)})
		return nil
	case *indexExpr:
		if err := c.expr(ex.base); err != nil {
			return err
		}
		if err := c.expr(ex.index); err != nil {
			return err
		}
		c.emit(instr{op: opIndex, line: int32(ex.line)})
		return nil
	case *sliceExpr:
		if err := c.expr(ex.base); err != nil {
			return err
		}
		var flags int32
		if ex.lo != nil {
			if err := c.expr(ex.lo); err != nil {
				return err
			}
			// The oracle type-checks each bound as soon as it is
			// evaluated; mirror that so error order matches.
			c.emit(instr{op: opCheckSlice, line: int32(ex.line)})
			flags |= sliceHasLo
		}
		if ex.hi != nil {
			if err := c.expr(ex.hi); err != nil {
				return err
			}
			c.emit(instr{op: opCheckSlice, line: int32(ex.line)})
			flags |= sliceHasHi
		}
		c.emit(instr{op: opSlice, a: flags, line: int32(ex.line)})
		return nil
	case *attrExpr:
		if err := c.expr(ex.base); err != nil {
			return err
		}
		c.emit(instr{op: opAttr, a: c.name(ex.name), line: int32(ex.line)})
		return nil
	case *callExpr:
		if err := c.expr(ex.fn); err != nil {
			return err
		}
		for _, a := range ex.args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(instr{op: opCall, a: int32(len(ex.args)), line: int32(ex.line)})
		return nil
	default:
		return fmt.Errorf("bscript: cannot compile expression at line %d", e.exprLine())
	}
}

func boolBit(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// --- function lowering -------------------------------------------------------

// compileFunc lowers one def. outer is the compiler of the code that
// contains it: the top-level proto, or the enclosing function.
func compileFunc(st *defStmt, outer *compiler) (*funcProto, error) {
	slots, inner := collectSlots(st)
	c := newCompiler(st.name, st.params, slots)
	c.layoutCells(st, inner, outer)
	if err := c.block(st.body); err != nil {
		return nil, err
	}
	c.flush()
	c.emit(instr{op: opReturnNone})
	c.finish()
	return c.p, nil
}

// collectSlots returns the function's slot names: params first, then every
// name its body can bind (assignment targets, loop variables, except
// bindings, nested defs), in source order. Loads of any other name fall
// through to the enclosing cells and the global table at run time. inner
// holds the names nested defs bind or mention, nil if there are none.
func collectSlots(st *defStmt) (names []string, inner map[string]bool) {
	names = append(names, st.params...)
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	var walk func(body []stmt)
	walk = func(body []stmt) {
		for _, s := range body {
			switch t := s.(type) {
			case *assignStmt:
				if id, ok := t.target.(*identExpr); ok {
					add(id.name)
				}
			case *ifStmt:
				walk(t.body)
				walk(t.orelse)
			case *whileStmt:
				walk(t.body)
			case *forStmt:
				add(t.name)
				walk(t.body)
			case *tryStmt:
				if t.name != "" {
					add(t.name)
				}
				walk(t.body)
				walk(t.handler)
			case *defStmt:
				add(t.name)
				if inner == nil {
					inner = make(map[string]bool)
				}
				inner[t.name] = true
				mentions(t.body, inner)
			}
		}
	}
	walk(st.body)
	return names, inner
}

// layoutCells lays out the frame's cells. Its own come first: one for every
// slot that a nested def mentions, or that shadows a cell of an enclosing
// function (so the name resolves through one uniform chain). Then one
// captured cell for every enclosing cell of a name this function, or a def
// nested in it, mentions; captures records where the defining frame holds
// each.
func (c *compiler) layoutCells(st *defStmt, inner map[string]bool, outer *compiler) {
	ref := func(name string) *cellRef {
		i, ok := c.cells[name]
		if !ok {
			if c.cells == nil {
				c.cells = make(map[string]int)
			}
			i = len(c.p.cellRefs)
			c.cells[name] = i
			c.p.cellRefs = append(c.p.cellRefs, cellRef{name: name})
		}
		return &c.p.cellRefs[i]
	}
	for slot, n := range c.p.slotNames {
		if _, shadows := outer.cells[n]; shadows || inner[n] {
			r := ref(n)
			r.chain = append(r.chain, int32(len(c.p.ownCells)))
			c.p.ownCells = append(c.p.ownCells, int32(slot))
		}
	}
	if len(outer.p.cellRefs) == 0 {
		return // defined at top level, or nothing to capture
	}
	named := make(map[string]bool)
	mentions(st.body, named)
	own := len(c.p.ownCells)
	for _, enclosing := range outer.p.cellRefs {
		if !named[enclosing.name] {
			continue
		}
		r := ref(enclosing.name)
		for _, src := range enclosing.chain {
			r.chain = append(r.chain, int32(own+len(c.p.captures)))
			c.p.captures = append(c.p.captures, src)
		}
	}
}

// mentions adds to set every name the statements read or bind, nested defs
// included.
func mentions(body []stmt, set map[string]bool) {
	var in func(e expr)
	in = func(e expr) {
		switch x := e.(type) {
		case *identExpr:
			set[x.name] = true
		case *listLit:
			for _, el := range x.elems {
				in(el)
			}
		case *dictLit:
			for i := range x.keys {
				in(x.keys[i])
				in(x.vals[i])
			}
		case *unaryExpr:
			in(x.rhs)
		case *binaryExpr:
			in(x.lhs)
			in(x.rhs)
		case *indexExpr:
			in(x.base)
			in(x.index)
		case *sliceExpr:
			in(x.base)
			in(x.lo)
			in(x.hi)
		case *attrExpr:
			in(x.base)
		case *callExpr:
			in(x.fn)
			for _, a := range x.args {
				in(a)
			}
		}
	}
	for _, s := range body {
		switch t := s.(type) {
		case *exprStmt:
			in(t.e)
		case *assignStmt:
			in(t.target)
			in(t.value)
		case *ifStmt:
			in(t.cond)
			mentions(t.body, set)
			mentions(t.orelse, set)
		case *whileStmt:
			in(t.cond)
			mentions(t.body, set)
		case *forStmt:
			set[t.name] = true
			in(t.iter)
			mentions(t.body, set)
		case *defStmt:
			set[t.name] = true
			mentions(t.body, set)
		case *returnStmt:
			in(t.value)
		case *delStmt:
			in(t.target)
		case *tryStmt:
			if t.name != "" {
				set[t.name] = true
			}
			mentions(t.body, set)
			mentions(t.handler, set)
		case *raiseStmt:
			in(t.msg)
		}
	}
}

// --- stack sizing ------------------------------------------------------------

// computeMaxStack abstractly interprets the code to find the deepest
// operand-stack state any instruction can observe.
func computeMaxStack(code []instr) int {
	depths := make([]int, len(code))
	for i := range depths {
		depths[i] = -1
	}
	type state struct{ pc, d int }
	work := []state{{0, 0}}
	max := 0
	push := func(pc, d int) {
		if pc >= len(code) {
			return
		}
		if d > max {
			max = d
		}
		if depths[pc] >= d {
			return
		}
		depths[pc] = d
		work = append(work, state{pc, d})
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		in := code[s.pc]
		d := s.d
		switch in.op {
		case opJump:
			push(int(in.a), d)
		case opJumpIfFalse:
			push(int(in.a), d-1)
			push(s.pc+1, d-1)
		case opCmpJump:
			push(int(in.a), d-2)
			push(s.pc+1, d-2)
		case opCmpConstJump, opCmpLocalJump:
			push(int(in.a), d-1)
			push(s.pc+1, d-1)
		case opAndJump, opOrJump:
			push(int(in.a), d)
			push(s.pc+1, d-1)
		case opIterNext:
			push(int(in.a), d-1)
			push(s.pc+1, d+1)
		case opTryPush:
			push(s.pc+1, d)
			push(int(in.a), d+int(in.b))
		case opReturn, opReturnNone, opRaise:
			// no successors
		default:
			push(s.pc+1, d+instrEffect(in))
		}
	}
	return max + 2
}

func instrEffect(in instr) int {
	switch in.op {
	case opConst, opLoadGlobal, opLoadLocal, opLoadCell:
		return 1
	case opStoreGlobal, opStoreLocal, opStoreCell, opAppendLocal, opPop, opBinop, opIndex, opJumpIfFalse:
		return -1
	case opBinopStore:
		return -2
	case opStoreIndex:
		return -3
	case opDelIndex:
		return -2
	case opSlice:
		n := 0
		if in.a&sliceHasLo != 0 {
			n++
		}
		if in.a&sliceHasHi != 0 {
			n++
		}
		return -n
	case opCall:
		return -int(in.a)
	case opMakeList:
		return 1 - int(in.a)
	case opMakeDict:
		return 1 - 2*int(in.a)
	default:
		// opCharge, opDefGlobal, opDefCell, opCheckLocal, opCheckSlice,
		// opNot, opNeg, opSwap, opIterNew, opTryPop, opAttr, and the
		// stack-neutral superinstructions opBinopConst, opBinopLocal,
		// opIncLocalConst
		return 0
	}
}
