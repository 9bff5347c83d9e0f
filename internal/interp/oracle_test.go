package interp

// The tree oracle: the reference semantics of bscript, kept only in this
// package's tests. It walks the AST, charging one instruction per node and
// resolving names through a chain of scopes, and shares the operator and
// store helpers (binop, index, slice, call, indexAssign, ...) with the VM.
// TestEngineParity*, FuzzEngineParity and BenchmarkTree drive it
// through treeRun; scripts/check.sh fails if execBlock or eval ever links
// into a shipped binary.

// Func is the oracle's user-defined function: the def's AST plus the live
// scope it was defined in.
type Func struct {
	Name    string
	Params  []string
	Body    []stmt
	Closure *scope
}

func (*Func) Type() string { return "function" }

func (f *Func) funcName() string { return f.Name }

// captured visits what the VM's closure for the same def holds: of the
// names the body mentions, the ones bound in an enclosing function's scope.
func (f *Func) captured(visit func(Value)) {
	named := make(map[string]bool)
	mentions(f.Body, named)
	for s := f.Closure; s.parent != nil; s = s.parent {
		for name, v := range s.vars {
			if named[name] {
				visit(v)
			}
		}
	}
}

// scope is one link of the oracle's lexical scope chain. The root's vars
// are the machine's global table itself.
type scope struct {
	parent *scope
	vars   map[string]Value
}

func (s *scope) lookup(name string) (Value, bool) {
	for ; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// set assigns in the scope holding name, or defines it in s.
func (s *scope) set(name string, v Value) {
	for h := s; h != nil; h = h.parent {
		if _, ok := h.vars[name]; ok {
			h.vars[name] = v
			return
		}
	}
	s.vars[name] = v
}

func (s *scope) define(name string, v Value) { s.vars[name] = v }

func (m *Machine) treeGlobals() *scope { return &scope{vars: m.Globals.vars} }

// treeRun parses and executes a program on the oracle, in the machine's
// global scope.
func (m *Machine) treeRun(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	_, err = m.execBlock(prog, m.treeGlobals())
	return err
}

// treeCall invokes a global function defined by treeRun.
func (m *Machine) treeCall(name string, args ...Value) (Value, error) {
	v, _ := m.Globals.Lookup(name)
	return m.callFunc(v.(*Func), args)
}

// treeStore assigns name with scope.set semantics and storeIdent's rebind
// credit.
func (m *Machine) treeStore(env *scope, name string, v Value) {
	if old, ok := env.lookup(name); ok {
		m.creditRebind(old, v)
	}
	env.set(name, v)
}

// control-flow signals (cheaper and clearer than panic/recover).
type controlKind int

const (
	ctlNone controlKind = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

type control struct {
	kind controlKind
	val  Value
}

// step charges one instruction and checks the kill switch.
func (m *Machine) step(line int) error {
	if m.killed.Load() {
		return ErrKilled
	}
	m.budget--
	m.steps++
	if m.budget < 0 {
		return ErrBudgetExceeded
	}
	return nil
}

func (m *Machine) execBlock(body []stmt, env *scope) (control, error) {
	for _, s := range body {
		ctl, err := m.exec(s, env)
		if err != nil {
			return control{}, err
		}
		if ctl.kind != ctlNone {
			return ctl, nil
		}
	}
	return control{}, nil
}

func (m *Machine) exec(s stmt, env *scope) (control, error) {
	if err := m.step(s.stmtLine()); err != nil {
		return control{}, err
	}
	switch st := s.(type) {
	case *exprStmt:
		_, err := m.eval(st.e, env)
		return control{}, err
	case *assignStmt:
		return control{}, m.execAssign(st, env)
	case *ifStmt:
		cond, err := m.eval(st.cond, env)
		if err != nil {
			return control{}, err
		}
		if Truthy(cond) {
			return m.execBlock(st.body, env)
		}
		return m.execBlock(st.orelse, env)
	case *whileStmt:
		for {
			cond, err := m.eval(st.cond, env)
			if err != nil {
				return control{}, err
			}
			if !Truthy(cond) {
				return control{}, nil
			}
			if err := m.step(st.line); err != nil {
				return control{}, err
			}
			ctl, err := m.execBlock(st.body, env)
			if err != nil {
				return control{}, err
			}
			switch ctl.kind {
			case ctlBreak:
				return control{}, nil
			case ctlReturn:
				return ctl, nil
			}
		}
	case *forStmt:
		iter, err := m.eval(st.iter, env)
		if err != nil {
			return control{}, err
		}
		items, err := iterate(iter, st.line)
		if err != nil {
			return control{}, err
		}
		for item, err := items(); item != nil || err != nil; item, err = items() {
			if err != nil {
				return control{}, err
			}
			if err := m.step(st.line); err != nil {
				return control{}, err
			}
			m.treeStore(env, st.name, item)
			ctl, err := m.execBlock(st.body, env)
			if err != nil {
				return control{}, err
			}
			switch ctl.kind {
			case ctlBreak:
				return control{}, nil
			case ctlReturn:
				return ctl, nil
			}
		}
		return control{}, nil
	case *defStmt:
		env.define(st.name, &Func{Name: st.name, Params: st.params, Body: st.body, Closure: env})
		return control{}, nil
	case *returnStmt:
		var v Value = None
		if st.value != nil {
			ev, err := m.eval(st.value, env)
			if err != nil {
				return control{}, err
			}
			v = ev
		}
		return control{kind: ctlReturn, val: v}, nil
	case *breakStmt:
		return control{kind: ctlBreak}, nil
	case *continueStmt:
		return control{kind: ctlContinue}, nil
	case *passStmt:
		return control{}, nil
	case *tryStmt:
		ctl, err := m.execBlock(st.body, env)
		if err == nil {
			return ctl, nil
		}
		// Only script-level errors are catchable; resource violations
		// and kills always propagate (a function cannot absorb its own
		// sandbox enforcement).
		rerr, ok := err.(*RuntimeError)
		if !ok {
			return control{}, err
		}
		if st.name != "" {
			m.treeStore(env, st.name, Str(rerr.Msg))
		}
		return m.execBlock(st.handler, env)
	case *raiseStmt:
		v, err := m.eval(st.msg, env)
		if err != nil {
			return control{}, err
		}
		return control{}, runtimeErrf(st.line, "%s", Repr(v))
	case *delStmt:
		ix := s.(*delStmt).target.(*indexExpr)
		base, err := m.eval(ix.base, env)
		if err != nil {
			return control{}, err
		}
		idx, err := m.eval(ix.index, env)
		if err != nil {
			return control{}, err
		}
		return control{}, m.delIndex(st.line, base, idx)
	default:
		return control{}, runtimeErrf(s.stmtLine(), "unknown statement")
	}
}

func (m *Machine) execAssign(st *assignStmt, env *scope) error {
	value, err := m.eval(st.value, env)
	if err != nil {
		return err
	}
	if st.op != "=" {
		cur, err := m.eval(st.target, env)
		if err != nil {
			return err
		}
		value, err = m.binop(st.line, st.op[:1], cur, value)
		if err != nil {
			return err
		}
	}
	switch t := st.target.(type) {
	case *identExpr:
		m.treeStore(env, t.name, value)
		return nil
	case *indexExpr:
		base, err := m.eval(t.base, env)
		if err != nil {
			return err
		}
		idx, err := m.eval(t.index, env)
		if err != nil {
			return err
		}
		return m.indexAssign(st.line, base, idx, value)
	default:
		return runtimeErrf(st.line, "bad assignment target")
	}
}

func (m *Machine) eval(e expr, env *scope) (Value, error) {
	if err := m.step(e.exprLine()); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *intLit:
		return Int(ex.v), nil
	case *strLit:
		return Str(ex.v), nil
	case *bytesLit:
		return Bytes(ex.v), nil
	case *boolLit:
		return Bool(ex.v), nil
	case *noneLit:
		return None, nil
	case *identExpr:
		v, ok := env.lookup(ex.name)
		if !ok {
			return nil, runtimeErrf(ex.line, "name %q is not defined", ex.name)
		}
		return v, nil
	case *listLit:
		elems := make([]Value, 0, len(ex.elems))
		for _, el := range ex.elems {
			v, err := m.eval(el, env)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		if err := m.alloc(ex.line, int64(16+8*len(elems))); err != nil {
			return nil, err
		}
		return &List{Elems: elems}, nil
	case *dictLit:
		d := NewDict()
		for i := range ex.keys {
			k, err := m.eval(ex.keys[i], env)
			if err != nil {
				return nil, err
			}
			v, err := m.eval(ex.vals[i], env)
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, runtimeErrf(ex.line, "%v", err)
			}
		}
		if err := m.alloc(ex.line, int64(16+32*d.Len())); err != nil {
			return nil, err
		}
		return d, nil
	case *unaryExpr:
		rhs, err := m.eval(ex.rhs, env)
		if err != nil {
			return nil, err
		}
		switch ex.op {
		case "-":
			i, ok := rhs.(Int)
			if !ok {
				return nil, runtimeErrf(ex.line, "unary - requires int, got %s", rhs.Type())
			}
			return -i, nil
		case "not":
			return Bool(!Truthy(rhs)), nil
		}
		return nil, runtimeErrf(ex.line, "unknown unary operator %q", ex.op)
	case *binaryExpr:
		// Short-circuit operators return an operand, as in Python.
		if ex.op == "and" || ex.op == "or" {
			lhs, err := m.eval(ex.lhs, env)
			if err != nil {
				return nil, err
			}
			if (ex.op == "and") != Truthy(lhs) {
				return lhs, nil
			}
			return m.eval(ex.rhs, env)
		}
		lhs, err := m.eval(ex.lhs, env)
		if err != nil {
			return nil, err
		}
		rhs, err := m.eval(ex.rhs, env)
		if err != nil {
			return nil, err
		}
		return m.binop(ex.line, ex.op, lhs, rhs)
	case *indexExpr:
		base, err := m.eval(ex.base, env)
		if err != nil {
			return nil, err
		}
		idx, err := m.eval(ex.index, env)
		if err != nil {
			return nil, err
		}
		return m.index(ex.line, base, idx)
	case *sliceExpr:
		base, err := m.eval(ex.base, env)
		if err != nil {
			return nil, err
		}
		lo, hi := int64(0), int64(-1)
		hasHi := false
		if ex.lo != nil {
			v, err := m.eval(ex.lo, env)
			if err != nil {
				return nil, err
			}
			i, ok := v.(Int)
			if !ok {
				return nil, runtimeErrf(ex.line, "slice bound must be int")
			}
			lo = int64(i)
		}
		if ex.hi != nil {
			v, err := m.eval(ex.hi, env)
			if err != nil {
				return nil, err
			}
			i, ok := v.(Int)
			if !ok {
				return nil, runtimeErrf(ex.line, "slice bound must be int")
			}
			hi = int64(i)
			hasHi = true
		}
		return m.slice(ex.line, base, lo, hi, hasHi)
	case *attrExpr:
		base, err := m.eval(ex.base, env)
		if err != nil {
			return nil, err
		}
		return m.attr(ex.line, base, ex.name)
	case *callExpr:
		fn, err := m.eval(ex.fn, env)
		if err != nil {
			return nil, err
		}
		args := make([]Value, 0, len(ex.args))
		for _, a := range ex.args {
			v, err := m.eval(a, env)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		if f, ok := fn.(*Func); ok {
			return m.callFunc(f, args)
		}
		return m.call(ex.line, fn, args)
	default:
		return nil, runtimeErrf(e.exprLine(), "unknown expression")
	}
}

func (m *Machine) callFunc(f *Func, args []Value) (Value, error) {
	if m.callDepth >= maxCallDepth {
		return nil, runtimeErrf(0, "maximum call depth exceeded")
	}
	m.callDepth++
	defer func() { m.callDepth-- }()
	if len(args) != len(f.Params) {
		return nil, runtimeErrf(0, "%s() takes %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	env := &scope{parent: f.Closure, vars: make(map[string]Value)}
	for i, p := range f.Params {
		env.define(p, args[i])
	}
	ctl, err := m.execBlock(f.Body, env)
	if err != nil {
		return nil, err
	}
	if ctl.kind == ctlReturn {
		return ctl.val, nil
	}
	return None, nil
}
