package interp

import (
	"strings"
)

// Operator semantics: one copy each, called by the VM and by the test-only
// tree oracle, so error strings and allocation charges cannot drift apart.

// maxCallDepth bounds recursion (Python's default is 1000).
const maxCallDepth = 200

// attr resolves base.name: an Object attribute, or a bound method on a
// builtin type.
func (m *Machine) attr(line int, base Value, name string) (Value, error) {
	if obj, ok := base.(*Object); ok {
		v, ok := obj.Attrs[name]
		if !ok {
			return nil, runtimeErrf(line, "object %s has no attribute %q", obj.Name, name)
		}
		return v, nil
	}
	// Bound method on a builtin type.
	return boundMethod{recv: base, name: name}, nil
}

func (m *Machine) call(line int, fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *compiledFunc:
		return m.callCompiled(f, args)
	case *Builtin:
		v, err := f.Fn(args)
		if err != nil {
			if _, ok := err.(*RuntimeError); ok {
				return nil, err
			}
			if err == ErrBudgetExceeded || err == ErrMemoryExceeded || err == ErrKilled {
				return nil, err
			}
			return nil, runtimeErrf(line, "%s: %v", f.Name, err)
		}
		if v == nil {
			v = None
		}
		// Charge host-returned allocations.
		if err := m.alloc(line, sizeOf(v, map[Value]bool{})); err != nil {
			return nil, err
		}
		return v, nil
	case boundMethod:
		return m.callMethod(line, f, args)
	default:
		return nil, runtimeErrf(line, "%s is not callable", fn.Type())
	}
}

func (m *Machine) index(line int, base, idx Value) (Value, error) {
	switch b := base.(type) {
	case *List:
		i, ok := idx.(Int)
		if !ok {
			return nil, runtimeErrf(line, "list index must be int, got %s", idx.Type())
		}
		n := int64(len(b.Elems))
		j := int64(i)
		if j < 0 {
			j += n
		}
		if j < 0 || j >= n {
			return nil, runtimeErrf(line, "list index %d out of range (len %d)", i, n)
		}
		return b.Elems[j], nil
	case Str:
		i, ok := idx.(Int)
		if !ok {
			return nil, runtimeErrf(line, "string index must be int")
		}
		n := int64(len(b))
		j := int64(i)
		if j < 0 {
			j += n
		}
		if j < 0 || j >= n {
			return nil, runtimeErrf(line, "string index %d out of range (len %d)", i, n)
		}
		return Str(b[j : j+1]), nil
	case Bytes:
		i, ok := idx.(Int)
		if !ok {
			return nil, runtimeErrf(line, "bytes index must be int")
		}
		n := int64(len(b))
		j := int64(i)
		if j < 0 {
			j += n
		}
		if j < 0 || j >= n {
			return nil, runtimeErrf(line, "bytes index %d out of range (len %d)", i, n)
		}
		return Int(b[j]), nil
	case *Dict:
		v, ok, err := b.Get(idx)
		if err != nil {
			return nil, runtimeErrf(line, "%v", err)
		}
		if !ok {
			return nil, runtimeErrf(line, "key %s not found", Repr(idx))
		}
		return v, nil
	default:
		return nil, runtimeErrf(line, "%s is not indexable", base.Type())
	}
}

func (m *Machine) slice(line int, base Value, lo, hi int64, hasHi bool) (Value, error) {
	clamp := func(n int64) (int64, int64) {
		a, b := lo, hi
		if !hasHi {
			b = n
		}
		if a < 0 {
			a += n
		}
		if b < 0 {
			b += n
		}
		if a < 0 {
			a = 0
		}
		if b > n {
			b = n
		}
		if a > b {
			a = b
		}
		return a, b
	}
	switch b := base.(type) {
	case Str:
		a, z := clamp(int64(len(b)))
		if err := m.alloc(line, z-a); err != nil {
			return nil, err
		}
		return Str(b[a:z]), nil
	case Bytes:
		a, z := clamp(int64(len(b)))
		if err := m.alloc(line, z-a); err != nil {
			return nil, err
		}
		out := make([]byte, z-a)
		copy(out, b[a:z])
		return Bytes(out), nil
	case *List:
		a, z := clamp(int64(len(b.Elems)))
		if err := m.alloc(line, (z-a)*8); err != nil {
			return nil, err
		}
		out := make([]Value, z-a)
		copy(out, b.Elems[a:z])
		return &List{Elems: out}, nil
	default:
		return nil, runtimeErrf(line, "%s is not sliceable", base.Type())
	}
}

func (m *Machine) binop(line int, op string, lhs, rhs Value) (Value, error) {
	switch op {
	case "==":
		return Bool(Equal(lhs, rhs)), nil
	case "!=":
		return Bool(!Equal(lhs, rhs)), nil
	case "in":
		return m.contains(line, lhs, rhs)
	}

	switch l := lhs.(type) {
	case Int:
		r, ok := rhs.(Int)
		if !ok {
			return nil, runtimeErrf(line, "unsupported operands int %s %s", op, rhs.Type())
		}
		switch op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "//":
			if r == 0 {
				return nil, runtimeErrf(line, "integer division by zero")
			}
			return Int(floorDiv(int64(l), int64(r))), nil
		case "%":
			if r == 0 {
				return nil, runtimeErrf(line, "integer modulo by zero")
			}
			return Int(floorMod(int64(l), int64(r))), nil
		case "<":
			return Bool(l < r), nil
		case "<=":
			return Bool(l <= r), nil
		case ">":
			return Bool(l > r), nil
		case ">=":
			return Bool(l >= r), nil
		}
	case Str:
		r, ok := rhs.(Str)
		if !ok {
			if op == "*" {
				if n, isInt := rhs.(Int); isInt {
					return m.repeatStr(line, l, int64(n))
				}
			}
			return nil, runtimeErrf(line, "unsupported operands str %s %s", op, rhs.Type())
		}
		switch op {
		case "+":
			if err := m.alloc(line, int64(len(l)+len(r))); err != nil {
				return nil, err
			}
			return l + r, nil
		case "<":
			return Bool(l < r), nil
		case "<=":
			return Bool(l <= r), nil
		case ">":
			return Bool(l > r), nil
		case ">=":
			return Bool(l >= r), nil
		}
	case Bytes:
		r, ok := rhs.(Bytes)
		if !ok {
			return nil, runtimeErrf(line, "unsupported operands bytes %s %s", op, rhs.Type())
		}
		switch op {
		case "+":
			if err := m.alloc(line, int64(len(l)+len(r))); err != nil {
				return nil, err
			}
			out := make([]byte, 0, len(l)+len(r))
			out = append(out, l...)
			out = append(out, r...)
			return Bytes(out), nil
		case "<":
			return Bool(string(l) < string(r)), nil
		case ">":
			return Bool(string(l) > string(r)), nil
		}
	case *List:
		r, ok := rhs.(*List)
		if ok && op == "+" {
			if err := m.alloc(line, int64(8*(len(l.Elems)+len(r.Elems)))); err != nil {
				return nil, err
			}
			out := make([]Value, 0, len(l.Elems)+len(r.Elems))
			out = append(out, l.Elems...)
			out = append(out, r.Elems...)
			return &List{Elems: out}, nil
		}
	}
	return nil, runtimeErrf(line, "unsupported operands %s %s %s", lhs.Type(), op, rhs.Type())
}

func (m *Machine) repeatStr(line int, s Str, n int64) (Value, error) {
	if n <= 0 {
		return Str(""), nil
	}
	if err := m.alloc(line, int64(len(s))*n); err != nil {
		return nil, err
	}
	return Str(strings.Repeat(string(s), int(n))), nil
}

func (m *Machine) contains(line int, needle, hay Value) (Value, error) {
	switch h := hay.(type) {
	case *List:
		for _, e := range h.Elems {
			if Equal(e, needle) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case *Dict:
		_, ok, err := h.Get(needle)
		if err != nil {
			return nil, runtimeErrf(line, "%v", err)
		}
		return Bool(ok), nil
	case Str:
		n, ok := needle.(Str)
		if !ok {
			return nil, runtimeErrf(line, "'in <str>' requires str, got %s", needle.Type())
		}
		return Bool(strings.Contains(string(h), string(n))), nil
	case Bytes:
		n, ok := needle.(Bytes)
		if !ok {
			return nil, runtimeErrf(line, "'in <bytes>' requires bytes, got %s", needle.Type())
		}
		return Bool(strings.Contains(string(h), string(n))), nil
	default:
		return nil, runtimeErrf(line, "'in' not supported on %s", hay.Type())
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	r := a % b
	if r != 0 && ((a < 0) != (b < 0)) {
		r += b
	}
	return r
}
