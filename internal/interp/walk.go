package interp

import (
	"errors"
	"reflect"
)

// The one walk over values a tenant built: Repr, Equal, sizeOf and the
// Bento wire encoder are its clients, and it holds the only guard set. It
// keeps its own stack, so depth costs heap, not Go stack, whose overflow
// no recover catches. On a machine every node costs an instruction after
// the kill check, and a container walkFrameSteps more for its frame, guard
// entry and children; the stack, at walkFrameBytes a frame, and what a
// client builds are charged as memory before they exist and given back
// when the walk ends. With no machine a walk spends a node budget instead.
const (
	walkFrameSteps = 8
	walkFrameBytes = 256
	maxHostNodes   = 1 << 22 // the budget of Repr and Equal called from Go
)

// errWalkLimit ends a walk with no machine that ran out of nodes.
var errWalkLimit = errors.New("bscript: value too large to walk")

type walker struct {
	m     *Machine
	left  int64                   // node budget when m is nil
	once  bool                    // guard every container visited (sizeOf), not just the open ones
	seen  map[[2]uintptr]struct{} // the guard set: containers by address, paired for Equal
	stack []frame
	held  int64 // bytes charged on m
}

// frame is a container being walked, with Equal's counterpart b and the
// pair's guard key (zero unless both are containers).
type frame struct {
	a, b   Value
	ka, kb []Value
	next   int
	key    [2]uintptr
}

// newWalker walks on m, or with a budget of nodes if m is nil.
func newWalker(m *Machine, nodes int64) *walker { return &walker{m: m, left: nodes} }

// walk visits a (paired with b for Equal), then depth first the children
// of every container visit descends into; a dict's are its keys and values
// alternating in key order. visit sees each node's parent and index there
// (nil and -1 at the root) and whether the guard set holds it; leave runs
// after a container's children, except in a once walk.
func (w *walker) walk(a, b Value, visit func(parent Value, i int, a, b Value, seen bool) (bool, error), leave func(Value) error) error {
	var parent Value
	for i := -1; ; {
		key := [2]uintptr{addressOf(a), addressOf(b)}
		if b != nil && key[1] == 0 {
			key[0] = 0
		}
		seen := false
		if key[0] != 0 {
			if w.seen == nil {
				w.seen = map[[2]uintptr]struct{}{}
			}
			if n := len(w.seen); w.once {
				w.seen[key] = struct{}{} // a once walk descends into what it has not seen
				seen = len(w.seen) == n
			} else {
				_, seen = w.seen[key]
			}
		}
		down, err := false, w.step(1)
		if err == nil {
			down, err = visit(parent, i, a, b, seen)
		}
		if err == nil && down {
			err = w.push(frame{a: a, b: b, ka: children(a), kb: children(b), key: key})
		}
		if err != nil {
			return err
		}
		for {
			n := len(w.stack)
			if n == 0 {
				return nil
			}
			f := &w.stack[n-1]
			if f.next < len(f.ka) {
				parent, i, a, b = f.a, f.next, f.ka[f.next], nil
				if f.kb != nil {
					b = f.kb[i]
				}
				if f.next++; w.once && f.next == len(f.ka) {
					w.stack = w.stack[:n-1] // no leave, guard entries kept: a chain costs one frame
				}
				break
			}
			w.stack = w.stack[:n-1]
			if !w.once {
				delete(w.seen, f.key)
			}
			if leave != nil {
				if err := leave(f.a); err != nil {
					return err
				}
			}
		}
	}
}

// push descends into f's container, doubling the stack (append grows big
// slices by a quarter) and charging the new frames first.
func (w *walker) push(f frame) error {
	if err := w.step(walkFrameSteps); err != nil {
		return err
	}
	if n := len(w.stack); n == cap(w.stack) {
		if err := w.charge(int64(n+8) * walkFrameBytes); err != nil {
			return err
		}
		w.stack = append(make([]frame, 0, 2*n+8), w.stack...)
	}
	if f.key[0] != 0 && !w.once {
		w.seen[f.key] = struct{}{}
	}
	w.stack = append(w.stack, f)
	return nil
}

func (w *walker) step(n int64) error {
	if w.m != nil {
		return w.m.spend(n)
	}
	if w.left -= n; w.left < 0 {
		return errWalkLimit
	}
	return nil
}

// charge adds n bytes to what the walk holds on its machine, as one
// pending alloc charge (so a re-measure keeps it), and nothing if it fails.
func (w *walker) charge(n int64) error {
	if w.m == nil {
		return nil
	}
	w.m.memDelta -= w.held
	if w.held += n; w.m.alloc(0, w.held) != nil {
		w.held = 0
		return ErrMemoryExceeded
	}
	return nil
}

func (w *walker) release() {
	if w.m != nil {
		w.m.memDelta -= w.held
	}
}

func children(v Value) []Value {
	switch x := v.(type) {
	case *List:
		return x.Elems
	case *Dict:
		kids := make([]Value, 0, 2*len(x.m))
		for _, k := range x.sortedKeys() {
			kids = append(kids, x.m[k].key, x.m[k].val)
		}
		return kids
	case function:
		var kids []Value
		x.captured(func(c Value) { kids = append(kids, c) })
		return kids
	case boundMethod:
		return []Value{x.recv}
	}
	return nil
}

// addressOf is the address of a container the guard set tracks (one that
// can be reached twice, or from inside itself), else 0. The walk keeps what
// it guards reachable, so no address is reused meanwhile.
func addressOf(v Value) uintptr {
	switch v.(type) {
	case *List, *Dict, function:
		return reflect.ValueOf(v).Pointer()
	}
	return 0
}

// compound reports whether v has children; for anything else rendering,
// comparing or sizing is a type switch and takes no walk.
func compound(v Value) bool {
	_, ok := v.(boundMethod)
	return ok || addressOf(v) != 0
}

// Walk is the walk for Go callers with no machine, such as the Bento wire
// encoder: it fails past maxNodes nodes, a container counting
// walkFrameSteps more, and tells visit whether a container is already
// open on the path to it.
func Walk(v Value, maxNodes int64, visit func(parent Value, i int, v Value, open bool) (bool, error), leave func(Value) error) error {
	return newWalker(nil, maxNodes).walk(v, nil, func(parent Value, i int, a, _ Value, open bool) (bool, error) {
		return visit(parent, i, a, open)
	}, leave)
}

// spend charges n instructions after the kill check. On exhaustion the
// counters stop where charging one at a time would have, so an AST node,
// a walk's nodes and the VM's batch per basic block (opCharge, which
// writes this out) all leave the same state.
func (m *Machine) spend(n int64) error {
	if m.killed.Load() {
		return ErrKilled
	}
	m.budget -= n
	m.steps += n
	if m.budget < 0 {
		m.steps -= -m.budget - 1
		m.budget = -1
		return ErrBudgetExceeded
	}
	return nil
}

// step charges the instruction of one AST node.
func (m *Machine) step(line int) error { return m.spend(1) }
