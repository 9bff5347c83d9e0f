package interp

import (
	"fmt"
	"strconv"
	"strings"
)

// installBuiltins defines the standard global functions.
func installBuiltins(m *Machine) {
	def := func(name string, fn BuiltinFn) {
		m.Globals.Define(name, &Builtin{Name: name, Fn: fn})
	}

	def("len", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("len() takes 1 argument")
		}
		switch x := args[0].(type) {
		case Str:
			return Int(len(x)), nil
		case Bytes:
			return Int(len(x)), nil
		case *List:
			return Int(len(x.Elems)), nil
		case *Dict:
			return Int(x.Len()), nil
		case RangeVal:
			return Int(rangeLen(x)), nil
		default:
			return nil, fmt.Errorf("len() unsupported for %s", args[0].Type())
		}
	})

	def("range", func(args []Value) (Value, error) {
		ints := make([]int64, len(args))
		for i, a := range args {
			n, ok := a.(Int)
			if !ok {
				return nil, fmt.Errorf("range() requires ints")
			}
			ints[i] = int64(n)
		}
		switch len(ints) {
		case 1:
			return RangeVal{Start: 0, Stop: ints[0], Step: 1}, nil
		case 2:
			return RangeVal{Start: ints[0], Stop: ints[1], Step: 1}, nil
		case 3:
			if ints[2] == 0 {
				return nil, fmt.Errorf("range() step must not be zero")
			}
			return RangeVal{Start: ints[0], Stop: ints[1], Step: ints[2]}, nil
		default:
			return nil, fmt.Errorf("range() takes 1-3 arguments")
		}
	})

	def("str", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("str() takes 1 argument")
		}
		if b, ok := args[0].(Bytes); ok {
			return Str(string(b)), nil
		}
		s, err := m.repr(args[0])
		return Str(s), err
	})

	def("int", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("int() takes 1 argument")
		}
		switch x := args[0].(type) {
		case Int:
			return x, nil
		case Bool:
			if x {
				return Int(1), nil
			}
			return Int(0), nil
		case Str:
			n, err := strconv.ParseInt(strings.TrimSpace(string(x)), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("invalid literal for int(): %q", string(x))
			}
			return Int(n), nil
		default:
			return nil, fmt.Errorf("int() unsupported for %s", args[0].Type())
		}
	})

	def("bytes", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("bytes() takes 1 argument")
		}
		switch x := args[0].(type) {
		case Bytes:
			return x, nil
		case Str:
			return Bytes([]byte(x)), nil
		case Int:
			if x < 0 || x > 64<<20 {
				return nil, fmt.Errorf("bytes(%d) size out of range", x)
			}
			if int64(x) > m.memLimit {
				return nil, ErrMemoryExceeded // refuse before allocating, not after
			}
			return Bytes(make([]byte, x)), nil
		case *List:
			out := make([]byte, len(x.Elems))
			for i, e := range x.Elems {
				n, ok := e.(Int)
				if !ok || n < 0 || n > 255 {
					return nil, fmt.Errorf("bytes() list elements must be ints 0-255")
				}
				out[i] = byte(n)
			}
			return Bytes(out), nil
		default:
			return nil, fmt.Errorf("bytes() unsupported for %s", args[0].Type())
		}
	})

	def("bool", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("bool() takes 1 argument")
		}
		return Bool(Truthy(args[0])), nil
	})

	def("print", func(args []Value) (Value, error) {
		if m.Stdout == nil {
			return None, nil
		}
		w := newWalker(m, maxHostNodes)
		defer w.release()
		var line []byte
		var err error
		for i, a := range args {
			if i > 0 {
				line, err = w.put(line, 0, " ")
			}
			if err == nil {
				line, err = w.repr(line, a)
			}
			if err != nil {
				return nil, err
			}
		}
		if line, err = w.put(line, 0, "\n"); err != nil {
			return nil, err
		}
		m.Stdout.Write(line)
		return None, nil
	})

	def("min", func(args []Value) (Value, error) { return extremum(args, true) })
	def("max", func(args []Value) (Value, error) { return extremum(args, false) })

	def("abs", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("abs() takes 1 argument")
		}
		n, ok := args[0].(Int)
		if !ok {
			return nil, fmt.Errorf("abs() requires int")
		}
		if n < 0 {
			return -n, nil
		}
		return n, nil
	})

	def("ord", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("ord() takes 1 argument")
		}
		s, ok := args[0].(Str)
		if !ok || len(s) != 1 {
			return nil, fmt.Errorf("ord() requires a 1-character string")
		}
		return Int(s[0]), nil
	})

	def("chr", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("chr() takes 1 argument")
		}
		n, ok := args[0].(Int)
		if !ok || n < 0 || n > 255 {
			return nil, fmt.Errorf("chr() requires an int 0-255")
		}
		return Str(string([]byte{byte(n)})), nil
	})

	def("type", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("type() takes 1 argument")
		}
		return Str(args[0].Type()), nil
	})
}

func extremum(args []Value, wantMin bool) (Value, error) {
	var items []Value
	switch {
	case len(args) == 1:
		l, ok := args[0].(*List)
		if !ok {
			return nil, fmt.Errorf("single argument must be a list")
		}
		items = l.Elems
	case len(args) > 1:
		items = args
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty sequence")
	}
	best := items[0]
	for _, it := range items[1:] {
		a, aok := best.(Int)
		b, bok := it.(Int)
		if !aok || !bok {
			return nil, fmt.Errorf("requires ints")
		}
		if (wantMin && b < a) || (!wantMin && b > a) {
			best = it
		}
	}
	return best, nil
}

// callMethod dispatches methods on builtin types.
func (m *Machine) callMethod(line int, bm boundMethod, args []Value) (Value, error) {
	fail := func(format string, a ...any) (Value, error) {
		return nil, runtimeErrf(line, format, a...)
	}
	switch recv := bm.recv.(type) {
	case *List:
		switch bm.name {
		case "append":
			if len(args) != 1 {
				return fail("append() takes 1 argument")
			}
			if err := m.alloc(line, 8); err != nil {
				return nil, err
			}
			recv.Elems = append(recv.Elems, args[0])
			return None, nil
		case "pop":
			if len(recv.Elems) == 0 {
				return fail("pop from empty list")
			}
			idx := len(recv.Elems) - 1
			if len(args) == 1 {
				n, ok := args[0].(Int)
				if !ok {
					return fail("pop() index must be int")
				}
				idx = int(n)
				if idx < 0 {
					idx += len(recv.Elems)
				}
				if idx < 0 || idx >= len(recv.Elems) {
					return fail("pop() index out of range")
				}
			}
			v := recv.Elems[idx]
			recv.Elems = append(recv.Elems[:idx], recv.Elems[idx+1:]...)
			return v, nil
		case "extend":
			if len(args) != 1 {
				return fail("extend() takes 1 argument")
			}
			other, ok := args[0].(*List)
			if !ok {
				return fail("extend() requires a list")
			}
			if err := m.alloc(line, int64(8*len(other.Elems))); err != nil {
				return nil, err
			}
			recv.Elems = append(recv.Elems, other.Elems...)
			return None, nil
		case "index":
			if len(args) != 1 {
				return fail("index() takes 1 argument")
			}
			i, err := m.find(recv, args[0])
			if err != nil {
				return nil, err
			}
			if i < 0 {
				return fail("value not in list")
			}
			return Int(i), nil
		}
	case Str:
		switch bm.name {
		case "split":
			sep := " "
			if len(args) == 1 {
				s, ok := args[0].(Str)
				if !ok {
					return fail("split() separator must be str")
				}
				sep = string(s)
			}
			var parts []string
			if len(args) == 0 {
				parts = strings.Fields(string(recv))
			} else {
				parts = strings.Split(string(recv), sep)
			}
			if err := m.alloc(line, int64(len(recv))+int64(24*len(parts))); err != nil {
				return nil, err
			}
			out := make([]Value, len(parts))
			for i, p := range parts {
				out[i] = Str(p)
			}
			return &List{Elems: out}, nil
		case "join":
			if len(args) != 1 {
				return fail("join() takes 1 argument")
			}
			l, ok := args[0].(*List)
			if !ok {
				return fail("join() requires a list")
			}
			parts := make([]string, len(l.Elems))
			total := 0
			for i, e := range l.Elems {
				s, ok := e.(Str)
				if !ok {
					return fail("join() list elements must be str")
				}
				parts[i] = string(s)
				total += len(s)
			}
			if err := m.alloc(line, int64(total)); err != nil {
				return nil, err
			}
			return Str(strings.Join(parts, string(recv))), nil
		case "encode":
			if err := m.alloc(line, int64(len(recv))); err != nil {
				return nil, err
			}
			return Bytes([]byte(recv)), nil
		case "startswith":
			if len(args) != 1 {
				return fail("startswith() takes 1 argument")
			}
			p, ok := args[0].(Str)
			if !ok {
				return fail("startswith() requires str")
			}
			return Bool(strings.HasPrefix(string(recv), string(p))), nil
		case "endswith":
			if len(args) != 1 {
				return fail("endswith() takes 1 argument")
			}
			p, ok := args[0].(Str)
			if !ok {
				return fail("endswith() requires str")
			}
			return Bool(strings.HasSuffix(string(recv), string(p))), nil
		case "strip":
			return Str(strings.TrimSpace(string(recv))), nil
		case "lower":
			return Str(strings.ToLower(string(recv))), nil
		case "upper":
			return Str(strings.ToUpper(string(recv))), nil
		case "replace":
			if len(args) != 2 {
				return fail("replace() takes 2 arguments")
			}
			oldS, ok1 := args[0].(Str)
			newS, ok2 := args[1].(Str)
			if !ok1 || !ok2 {
				return fail("replace() requires strings")
			}
			out := strings.ReplaceAll(string(recv), string(oldS), string(newS))
			if err := m.alloc(line, int64(len(out))); err != nil {
				return nil, err
			}
			return Str(out), nil
		case "find":
			if len(args) != 1 {
				return fail("find() takes 1 argument")
			}
			p, ok := args[0].(Str)
			if !ok {
				return fail("find() requires str")
			}
			return Int(strings.Index(string(recv), string(p))), nil
		}
	case Bytes:
		switch bm.name {
		case "decode":
			if err := m.alloc(line, int64(len(recv))); err != nil {
				return nil, err
			}
			return Str(string(recv)), nil
		}
	case *Dict:
		switch bm.name {
		case "get":
			if len(args) < 1 || len(args) > 2 {
				return fail("get() takes 1-2 arguments")
			}
			v, ok, err := recv.Get(args[0])
			if err != nil {
				return fail("%v", err)
			}
			if ok {
				return v, nil
			}
			if len(args) == 2 {
				return args[1], nil
			}
			return None, nil
		case "keys":
			return &List{Elems: recv.Keys()}, nil
		case "values":
			return &List{Elems: recv.Values()}, nil
		case "pop":
			if len(args) != 1 {
				return fail("pop() takes 1 argument")
			}
			v, ok, err := recv.Get(args[0])
			if err != nil {
				return fail("%v", err)
			}
			if !ok {
				return fail("key %s not found", Repr(args[0]))
			}
			recv.Delete(args[0])
			return v, nil
		}
	}
	return nil, runtimeErrf(line, "%s has no method %q", bm.recv.Type(), bm.name)
}

// NewObject builds a host object from named builtin functions; the sandbox
// uses this to expose the mediated Bento API.
func NewObject(name string, methods map[string]BuiltinFn) *Object {
	attrs := make(map[string]Value, len(methods))
	for mname, fn := range methods {
		attrs[mname] = &Builtin{Name: name + "." + mname, Fn: fn}
	}
	return &Object{Name: name, Attrs: attrs}
}
