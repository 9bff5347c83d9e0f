package interp

import (
	"errors"
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

// Repr renders a value the way print does, for Go callers. A list or dict
// reached again from inside itself renders as [...] or {...}, as in Python;
// past maxHostNodes the text ends in "...".
func Repr(v Value) string {
	b, err := newWalker(nil, maxHostNodes).repr(nil, v)
	if err != nil {
		b = append(b, "..."...)
	}
	return string(b)
}

// repr is Repr for str and raise, paid for by m.
func (m *Machine) repr(v Value) (string, error) {
	if !compound(v) {
		return reprLeaf(v), nil
	}
	w := newWalker(m, maxHostNodes)
	defer w.release()
	b, err := w.repr(nil, v)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// repr appends v's text to buf. A str inside a container is quoted in
// place; of the other leaves only bytes is escaped apart first.
func (w *walker) repr(buf []byte, v Value) ([]byte, error) {
	if !compound(v) {
		return w.put(buf, 0, reprLeaf(v))
	}
	err := w.walk(v, nil, func(parent Value, i int, a, _ Value, seen bool) (_ bool, err error) {
		sep := ""
		if _, ok := parent.(*Dict); ok && i%2 == 1 {
			sep = ": "
		} else if i > 0 {
			sep = ", "
		}
		switch x := a.(type) {
		case *List, *Dict:
			open, close := brackets(a)
			if seen {
				buf, err = w.put(buf, 0, sep, open, "...", close)
				return false, err
			}
			buf, err = w.put(buf, 0, sep, open)
			return err == nil, err
		case Str:
			if buf, err = w.put(buf, len(x)+2, sep); err == nil {
				buf = strconv.AppendQuote(buf, string(x))
			}
			return false, err
		}
		buf, err = w.put(buf, 0, sep, reprLeaf(a))
		return false, err
	}, func(c Value) (err error) {
		_, close := brackets(c)
		buf, err = w.put(buf, 0, close)
		return err
	})
	return buf, err
}

// put appends ss to buf with room for extra bytes more, charging what buf
// grows by before it grows.
func (w *walker) put(buf []byte, extra int, ss ...string) ([]byte, error) {
	n := extra
	for _, s := range ss {
		n += len(s)
	}
	if len(buf)+n > cap(buf) {
		if err := w.charge(int64(cap(buf) + n)); err != nil {
			return buf, err
		}
		buf = append(make([]byte, 0, 2*cap(buf)+n), buf...)
	}
	for _, s := range ss {
		buf = append(buf, s...)
	}
	return buf, nil
}

func brackets(v Value) (open, close string) {
	if _, ok := v.(*Dict); ok {
		return "{", "}"
	}
	return "[", "]"
}

// reprLeaf renders a value with no children; a str is its own text.
func reprLeaf(v Value) string {
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

// errUnequal ends Equal's walk at the first difference.
var errUnequal = errors.New("unequal")

// Equal implements deep equality for Go callers. Two containers compared
// again while their own comparison is still open (a cycle) count as equal
// there, so the walk ends and the rest of the structure decides. Values too
// large to compare within maxHostNodes count as unequal.
func Equal(a, b Value) bool {
	eq, err := (*Machine)(nil).equal(a, b)
	return eq && err == nil
}

// equal is Equal for ==, in and list.index, paid for by m. The walk pairs
// dicts up in key order, their keys matching by canonical form as lookups
// do.
func (m *Machine) equal(a, b Value) (bool, error) {
	if !compound(a) {
		return equalLeaf(a, b), nil
	}
	w := newWalker(m, maxHostNodes)
	defer w.release()
	err := w.walk(a, b, func(parent Value, i int, x, y Value, seen bool) (bool, error) {
		same := false
		switch xv := x.(type) {
		case *List:
			yv, ok := y.(*List)
			same = ok && len(xv.Elems) == len(yv.Elems)
		case *Dict:
			yv, ok := y.(*Dict)
			same = ok && len(xv.m) == len(yv.m)
		case boundMethod:
			yv, ok := y.(boundMethod)
			same = ok && xv.name == yv.name
		default:
			if _, ok := parent.(*Dict); ok && i%2 == 0 {
				kx, _ := dictKey(x)
				ky, _ := dictKey(y)
				x, y = Str(kx), Str(ky)
			}
			same, seen = equalLeaf(x, y), true
		}
		if !same {
			return false, errUnequal
		}
		return !seen, nil
	}, nil)
	if err == errUnequal {
		return false, nil
	}
	return err == nil, err
}

// equalLeaf compares a value with no children to anything. Bytes is the
// one such type Go cannot compare with ==.
func equalLeaf(a, b Value) bool {
	if x, ok := a.(Bytes); ok {
		y, ok := b.(Bytes)
		return ok && string(x) == string(y)
	}
	return a == b
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
// accounting. A container is counted in full the first time the walker
// meets it, and as a reference after that, across all its walks.
func (w *walker) sizeOf(v Value) (total int64, err error) {
	w.once = true
	err = w.walk(v, nil, func(parent Value, i int, a, _ Value, seen bool) (bool, error) {
		switch parent.(type) {
		case *Dict:
			if i%2 == 0 {
				return false, nil // a key: counted with its dict
			}
		case *List, function:
			total += 8
		}
		total += leafSize(a)
		if d, ok := a.(*Dict); ok && !seen {
			for k := range d.m {
				total += int64(len(k)) + 16
			}
		}
		return compound(a) && !seen, nil
	}, nil)
	return total, err
}

// sizeOf is the size of a builtin's result, paid for by m.
func (m *Machine) sizeOf(v Value) (int64, error) {
	if !compound(v) {
		return leafSize(v), nil
	}
	w := newWalker(m, maxHostNodes)
	defer w.release()
	return w.sizeOf(v)
}

func leafSize(v Value) int64 {
	switch x := v.(type) {
	case Str:
		return 16 + int64(len(x))
	case Bytes:
		return 16 + int64(len(x))
	}
	return 16
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
