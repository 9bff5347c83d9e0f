package interp

import (
	"fmt"
	"strconv"
	"strings"
)

// The four recursive walks the bounded walker replaced, kept verbatim as
// the reference its clients must agree with wherever a walk completes
// (TestWalkSameAnswers). Each recurses on its own with its own cycle
// guard, and none is bounded: only tests call them, on small values.

func refRepr(v Value, open map[Value]bool) string {
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
			parts[i] = refReprQuoted(e, open)
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
			parts = append(parts, refReprQuoted(e.key, open)+": "+refReprQuoted(e.val, open))
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

func refReprQuoted(v Value, open map[Value]bool) string {
	if s, ok := v.(Str); ok {
		return strconv.Quote(string(s))
	}
	return refRepr(v, open)
}

func refEqual(a, b Value, open map[[2]Value]bool) bool {
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
			if !refEqual(x.Elems[i], y.Elems[i], open) {
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
			if !ok || !refEqual(e.val, e2.val, open) {
				return false
			}
		}
		return true
	case boundMethod:
		y, ok := b.(boundMethod)
		return ok && x.name == y.name && refEqual(x.recv, y.recv, open)
	default:
		return a == b
	}
}

func refSizeOf(v Value, seen map[Value]bool) int64 {
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
			total += refSizeOf(e, seen) + 8
		}
		return total
	case *Dict:
		if seen[v] {
			return overhead
		}
		seen[v] = true
		total := int64(overhead)
		for k, e := range x.m {
			total += int64(len(k)) + refSizeOf(e.val, seen) + 16
		}
		return total
	case function:
		if seen[v] {
			return overhead
		}
		seen[v] = true
		total := int64(overhead)
		x.captured(func(c Value) { total += refSizeOf(c, seen) + 8 })
		return total
	case boundMethod:
		return overhead + refSizeOf(x.recv, seen)
	default:
		return overhead
	}
}
