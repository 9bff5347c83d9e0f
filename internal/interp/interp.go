package interp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Resource-limit errors. The sandbox layer maps these onto container
// violations.
var (
	// ErrBudgetExceeded is returned when the instruction budget runs out.
	ErrBudgetExceeded = errors.New("bscript: instruction budget exceeded")
	// ErrMemoryExceeded is returned when live memory exceeds the limit.
	ErrMemoryExceeded = errors.New("bscript: memory limit exceeded")
	// ErrKilled is returned when the machine was killed externally (e.g.
	// by a shutdown token).
	ErrKilled = errors.New("bscript: killed")
)

// RuntimeError is a script-level error with a source line.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("bscript: line %d: %s", e.Line, e.Msg)
}

func runtimeErrf(line int, format string, args ...any) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Machine executes a bscript program under resource limits.
type Machine struct {
	Globals *Env
	// Stdout receives print() output; nil discards it.
	Stdout io.Writer

	budget    int64
	budget0   int64 // initial instruction budget, for telemetry ratios
	memLimit  int64
	memBase   int64 // last full measurement
	memDelta  int64 // allocations since last measurement
	memPeak   int64 // high-water mark of the running estimate
	steps     int64 // total instructions executed (for reporting)
	callDepth int   // current user-function call depth
	killed    atomic.Bool
	obs       machineMetrics
}

// Limits configures a Machine's resource ceilings.
type Limits struct {
	// Instructions bounds executed instructions, one per AST node of the
	// source (0 = default 10M).
	Instructions int64
	// Memory bounds estimated live bytes (0 = default 16 MiB).
	Memory int64
}

// NewMachine creates a machine with the standard builtins installed.
func NewMachine(lim Limits) *Machine {
	if lim.Instructions <= 0 {
		lim.Instructions = 10_000_000
	}
	if lim.Memory <= 0 {
		lim.Memory = 16 << 20
	}
	m := &Machine{
		Globals:  NewEnv(),
		budget:   lim.Instructions,
		budget0:  lim.Instructions,
		memLimit: lim.Memory,
	}
	installBuiltins(m)
	return m
}

// Kill aborts the machine: the next instruction returns ErrKilled. Safe to
// call from any goroutine — this is how a Bento shutdown token stops a
// running function.
func (m *Machine) Kill() { m.killed.Store(true) }

// Steps reports how many instructions have executed.
func (m *Machine) Steps() int64 { return m.steps }

// MemoryEstimate reports the latest live-memory estimate in bytes.
func (m *Machine) MemoryEstimate() int64 { return m.memBase + m.memDelta }

// MeasureNow forces a full live-memory measurement and returns it. Only
// call while no code is executing in the machine.
func (m *Machine) MeasureNow() int64 {
	m.measure()
	return m.memBase
}

// PeakMemory reports the high-water mark of the running memory estimate.
// Note the estimate over-counts transient allocations between full
// measurements, so this is an upper bound, as cgroup peak-RSS would be.
func (m *Machine) PeakMemory() int64 {
	if m.memBase > m.memPeak {
		return m.memBase
	}
	return m.memPeak
}

// Bind installs a host object or value as a global.
func (m *Machine) Bind(name string, v Value) { m.Globals.Define(name, v) }

// Run compiles and executes a program in the machine's global scope.
func (m *Machine) Run(src string) error {
	p, err := m.Compile(src)
	if err != nil {
		return err
	}
	return m.RunProgram(p)
}

// CallFunction invokes a previously defined global function by name.
func (m *Machine) CallFunction(name string, args ...Value) (Value, error) {
	v, ok := m.Globals.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("bscript: no function %q defined", name)
	}
	fn, ok := v.(*compiledFunc)
	if !ok {
		return nil, fmt.Errorf("bscript: %q is a %s, not a function", name, v.Type())
	}
	start := m.steps
	ret, err := m.callCompiled(fn, args)
	m.recordRun(start, err)
	return ret, err
}

// alloc charges n bytes against the memory limit, re-measuring live state
// when the running estimate exceeds the ceiling. The n bytes being charged
// belong to a value that is not rooted yet, so the re-measurement cannot
// see them: they are added back on top of it.
func (m *Machine) alloc(line int, n int64) error {
	m.memDelta += n
	if est := m.memBase + m.memDelta; est > m.memPeak {
		m.memPeak = est
	}
	if m.memBase+m.memDelta <= m.memLimit {
		return nil
	}
	m.measure()
	if m.memBase+n > m.memLimit {
		return ErrMemoryExceeded
	}
	m.memDelta = n
	return nil
}

// measure computes live memory from the global table. sizeOf follows a
// closure into the cells it captured, so a value kept alive only by a
// returned inner function is still counted. A running frame's locals are
// not roots (DESIGN.md §11, "Memory accounting"), so what a function holds
// only in its own slots escapes the limit until it is stored globally. The
// walk is charged nothing and has no node cap: it is the accounting, and
// what it can reach was charged when it was built.
func (m *Machine) measure() {
	w := newWalker(nil, math.MaxInt64)
	var total int64
	for _, v := range m.Globals.vars {
		n, _ := w.sizeOf(v)
		total += n
	}
	m.memBase = total
	m.memDelta = 0
}

// --- shared assignment/deletion semantics ------------------------------------
//
// The VM and the test-only tree oracle route stores through these helpers
// so error strings and memory accounting stay byte-identical.

// storeIdent assigns a global, crediting the memory estimate when a
// string/bytes binding is replaced: the old value becomes garbage unless
// aliased elsewhere, and measure() remains the ground truth either way.
func (m *Machine) storeIdent(name string, v Value) {
	if old, ok := m.Globals.Lookup(name); ok {
		m.creditRebind(old, v)
	}
	m.Globals.Define(name, v)
}

// creditRebind subtracts the estimated size of a replaced Str/Bytes value
// from the running allocation delta. Content-identical rebinds (s = s) get
// no credit so repeated self-assignment cannot drive the estimate negative.
func (m *Machine) creditRebind(old, v Value) {
	switch o := old.(type) {
	case Str:
		if n, ok := v.(Str); ok && o == n {
			return
		}
		m.memDelta -= 16 + int64(len(o))
	case Bytes:
		if n, ok := v.(Bytes); ok && string(o) == string(n) {
			return
		}
		m.memDelta -= 16 + int64(len(o))
	}
}

// indexAssign stores value at base[idx]. Note the store path's error
// strings intentionally differ from the read path's (m.index): they
// predate it and scripts may match on them.
func (m *Machine) indexAssign(line int, base, idx, value Value) error {
	switch b := base.(type) {
	case *List:
		i, ok := idx.(Int)
		if !ok {
			return runtimeErrf(line, "list index must be int")
		}
		n := int64(len(b.Elems))
		if i < 0 {
			i += Int(n)
		}
		if i < 0 || int64(i) >= n {
			return runtimeErrf(line, "list index %d out of range", i)
		}
		b.Elems[i] = value
		return nil
	case *Dict:
		if err := m.alloc(line, leafSize(idx)+16); err != nil {
			return err
		}
		if err := b.Set(idx, value); err != nil {
			return runtimeErrf(line, "%v", err)
		}
		return nil
	default:
		return runtimeErrf(line, "cannot index-assign into %s", base.Type())
	}
}

// delIndex implements `del base[idx]`.
func (m *Machine) delIndex(line int, base, idx Value) error {
	d, ok := base.(*Dict)
	if !ok {
		return runtimeErrf(line, "del requires a dict, got %s", base.Type())
	}
	if err := d.Delete(idx); err != nil {
		return runtimeErrf(line, "%v", err)
	}
	return nil
}

// iterate returns a pull-style iterator over a value.
func iterate(v Value, line int) (func() (Value, error), error) {
	switch x := v.(type) {
	case *List:
		snapshot := append([]Value(nil), x.Elems...)
		i := 0
		return func() (Value, error) {
			if i >= len(snapshot) {
				return nil, nil
			}
			e := snapshot[i]
			i++
			return e, nil
		}, nil
	case RangeVal:
		cur := x.Start
		return func() (Value, error) {
			if (x.Step > 0 && cur >= x.Stop) || (x.Step < 0 && cur <= x.Stop) || x.Step == 0 {
				return nil, nil
			}
			v := Int(cur)
			cur += x.Step
			return v, nil
		}, nil
	case Str:
		i := 0
		s := string(x)
		return func() (Value, error) {
			if i >= len(s) {
				return nil, nil
			}
			c := Str(s[i : i+1])
			i++
			return c, nil
		}, nil
	case Bytes:
		i := 0
		return func() (Value, error) {
			if i >= len(x) {
				return nil, nil
			}
			b := Int(x[i])
			i++
			return b, nil
		}, nil
	case *Dict:
		keys := x.Keys()
		i := 0
		return func() (Value, error) {
			if i >= len(keys) {
				return nil, nil
			}
			k := keys[i]
			i++
			return k, nil
		}, nil
	default:
		return nil, runtimeErrf(line, "%s is not iterable", v.Type())
	}
}
