package interp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is a bscript runtime value.
type Value interface {
	// Type returns the value's type name as shown in error messages.
	Type() string
}

// Int is an integer value.
type Int int64

// Str is a string value.
type Str string

// Bytes is a byte-string value.
type Bytes []byte

// Bool is a boolean value.
type Bool bool

// NoneVal is the None singleton's type.
type NoneVal struct{}

// None is the bscript None value.
var None = NoneVal{}

// List is a mutable list.
type List struct{ Elems []Value }

// dictEntry preserves the original key value for iteration.
type dictEntry struct {
	key Value
	val Value
}

// Dict is a mutable mapping with Int, Str, or Bytes keys.
type Dict struct{ m map[string]dictEntry }

// NewDict returns an empty dict.
func NewDict() *Dict { return &Dict{m: make(map[string]dictEntry)} }

// RangeVal is a lazy integer range (start, stop, step).
type RangeVal struct{ Start, Stop, Step int64 }

// BuiltinFn is the signature of host-provided functions.
type BuiltinFn func(args []Value) (Value, error)

// Builtin is a host-provided function value.
type Builtin struct {
	Name string
	Fn   BuiltinFn
}

// Object is a host-provided object exposing named attributes (typically
// Builtins). Bento's API surface — api, http, tor, fs, stem — are Objects.
type Object struct {
	Name  string
	Attrs map[string]Value
}

// boundMethod is a method bound to a receiver (e.g. list.append).
type boundMethod struct {
	recv Value
	name string
}

func (Int) Type() string         { return "int" }
func (Str) Type() string         { return "str" }
func (Bytes) Type() string       { return "bytes" }
func (Bool) Type() string        { return "bool" }
func (NoneVal) Type() string     { return "None" }
func (*List) Type() string       { return "list" }
func (*Dict) Type() string       { return "dict" }
func (RangeVal) Type() string    { return "range" }
func (*Builtin) Type() string    { return "builtin" }
func (*Object) Type() string     { return "object" }
func (boundMethod) Type() string { return "method" }

// Truthy implements Python-style truthiness.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case Bool:
		return bool(x)
	case Int:
		return x != 0
	case Str:
		return len(x) > 0
	case Bytes:
		return len(x) > 0
	case NoneVal:
		return false
	case *List:
		return len(x.Elems) > 0
	case *Dict:
		return len(x.m) > 0
	case RangeVal:
		return rangeLen(x) > 0
	default:
		return true
	}
}

func rangeLen(r RangeVal) int64 {
	if r.Step == 0 {
		return 0
	}
	if r.Step > 0 {
		if r.Stop <= r.Start {
			return 0
		}
		return (r.Stop - r.Start + r.Step - 1) / r.Step
	}
	if r.Start <= r.Stop {
		return 0
	}
	return (r.Start - r.Stop - r.Step - 1) / (-r.Step)
}

// Repr renders a value the way the REPL or print would. A list or dict
// reached again from inside itself renders as [...] or {...}, as in Python.
func Repr(v Value) string { return repr(v, nil) }

// repr carries the containers being rendered on the path to v; nil until
// the first one.
func repr(v Value, open map[Value]bool) string {
	switch x := v.(type) {
	case Int:
		return strconv.FormatInt(int64(x), 10)
	case Str:
		return string(x)
	case Bytes:
		return fmt.Sprintf("b'%s'", escapeBytes(x))
	case Bool:
		if x {
			return "True"
		}
		return "False"
	case NoneVal:
		return "None"
	case *List:
		if open[v] {
			return "[...]"
		}
		if open == nil {
			open = make(map[Value]bool)
		}
		open[v] = true
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = reprQuoted(e, open)
		}
		delete(open, v)
		return "[" + strings.Join(parts, ", ") + "]"
	case *Dict:
		if open[v] {
			return "{...}"
		}
		if open == nil {
			open = make(map[Value]bool)
		}
		open[v] = true
		keys := x.sortedKeys()
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			e := x.m[k]
			parts = append(parts, reprQuoted(e.key, open)+": "+reprQuoted(e.val, open))
		}
		delete(open, v)
		return "{" + strings.Join(parts, ", ") + "}"
	case RangeVal:
		return fmt.Sprintf("range(%d, %d)", x.Start, x.Stop)
	case function:
		return fmt.Sprintf("<function %s>", x.funcName())
	case *Builtin:
		return fmt.Sprintf("<builtin %s>", x.Name)
	case *Object:
		return fmt.Sprintf("<object %s>", x.Name)
	default:
		return fmt.Sprintf("<%s>", v.Type())
	}
}

func reprQuoted(v Value, open map[Value]bool) string {
	if s, ok := v.(Str); ok {
		return strconv.Quote(string(s))
	}
	return repr(v, open)
}

func escapeBytes(b []byte) string {
	var sb strings.Builder
	for _, c := range b {
		if c >= 32 && c < 127 && c != '\'' && c != '\\' {
			sb.WriteByte(c)
		} else {
			fmt.Fprintf(&sb, "\\x%02x", c)
		}
	}
	return sb.String()
}

// Equal implements deep equality. Two containers compared again while
// their own comparison is still open (a cycle) count as equal there, so the
// walk ends and the rest of the structure decides.
func Equal(a, b Value) bool { return equal(a, b, nil) }

// equal carries the container pairs under comparison on the path to a, b;
// nil until the first one.
func equal(a, b Value, open map[[2]Value]bool) bool {
	switch x := a.(type) {
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case Bytes:
		y, ok := b.(Bytes)
		return ok && string(x) == string(y)
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case NoneVal:
		_, ok := b.(NoneVal)
		return ok
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		pair := [2]Value{a, b}
		if open[pair] {
			return true
		}
		if open == nil {
			open = make(map[[2]Value]bool)
		}
		open[pair] = true
		defer delete(open, pair)
		for i := range x.Elems {
			if !equal(x.Elems[i], y.Elems[i], open) {
				return false
			}
		}
		return true
	case *Dict:
		y, ok := b.(*Dict)
		if !ok || len(x.m) != len(y.m) {
			return false
		}
		pair := [2]Value{a, b}
		if open[pair] {
			return true
		}
		if open == nil {
			open = make(map[[2]Value]bool)
		}
		open[pair] = true
		defer delete(open, pair)
		for k, e := range x.m {
			e2, ok := y.m[k]
			if !ok || !equal(e.val, e2.val, open) {
				return false
			}
		}
		return true
	case boundMethod:
		// Not ==: a bytes receiver makes the struct uncomparable in Go.
		y, ok := b.(boundMethod)
		return ok && x.name == y.name && equal(x.recv, y.recv, open)
	default:
		return a == b
	}
}

// dictKey canonicalizes a key value, or fails for unhashable types.
func dictKey(v Value) (string, error) {
	switch x := v.(type) {
	case Int:
		return "i:" + strconv.FormatInt(int64(x), 10), nil
	case Str:
		return "s:" + string(x), nil
	case Bytes:
		return "b:" + string(x), nil
	case Bool:
		if x {
			return "i:1", nil
		}
		return "i:0", nil
	default:
		return "", fmt.Errorf("unhashable key type %s", v.Type())
	}
}

func (d *Dict) sortedKeys() []string {
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Get looks up a key.
func (d *Dict) Get(key Value) (Value, bool, error) {
	k, err := dictKey(key)
	if err != nil {
		return nil, false, err
	}
	e, ok := d.m[k]
	if !ok {
		return nil, false, nil
	}
	return e.val, true, nil
}

// Set stores a key/value pair.
func (d *Dict) Set(key, val Value) error {
	k, err := dictKey(key)
	if err != nil {
		return err
	}
	d.m[k] = dictEntry{key: key, val: val}
	return nil
}

// Delete removes a key.
func (d *Dict) Delete(key Value) error {
	k, err := dictKey(key)
	if err != nil {
		return err
	}
	delete(d.m, k)
	return nil
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.m) }

// Keys returns the dict's keys in canonical order.
func (d *Dict) Keys() []Value {
	out := make([]Value, 0, len(d.m))
	for _, k := range d.sortedKeys() {
		out = append(out, d.m[k].key)
	}
	return out
}

// Values returns the dict's values in canonical key order.
func (d *Dict) Values() []Value {
	out := make([]Value, 0, len(d.m))
	for _, k := range d.sortedKeys() {
		out = append(out, d.m[k].val)
	}
	return out
}

// sizeOf estimates the live size of a value in bytes, for memory
// accounting. seen guards against cycles.
func sizeOf(v Value, seen map[Value]bool) int64 {
	const overhead = 16
	switch x := v.(type) {
	case Str:
		return overhead + int64(len(x))
	case Bytes:
		return overhead + int64(len(x))
	case *List:
		if seen[v] {
			return overhead
		}
		seen[v] = true
		total := int64(overhead)
		for _, e := range x.Elems {
			total += sizeOf(e, seen) + 8
		}
		return total
	case *Dict:
		if seen[v] {
			return overhead
		}
		seen[v] = true
		total := int64(overhead)
		for k, e := range x.m {
			total += int64(len(k)) + sizeOf(e.val, seen) + 16
		}
		return total
	case function:
		if seen[v] {
			return overhead
		}
		seen[v] = true
		total := int64(overhead)
		x.captured(func(c Value) { total += sizeOf(c, seen) + 8 })
		return total
	case boundMethod:
		return overhead + sizeOf(x.recv, seen)
	default:
		return overhead
	}
}

// Env is the machine's global name table. Function locals live in VM
// registers and cells, never here.
type Env struct {
	vars map[string]Value
}

// NewEnv creates an empty table.
func NewEnv() *Env { return &Env{vars: make(map[string]Value)} }

// Lookup resolves a name.
func (e *Env) Lookup(name string) (Value, bool) {
	v, ok := e.vars[name]
	return v, ok
}

// Define creates or replaces name.
func (e *Env) Define(name string, v Value) { e.vars[name] = v }
