package interp

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Differential testing: every program runs on the bytecode VM (the engine)
// and on the tree oracle (oracle_test.go), and the results must agree:
// values, stdout, step counts, memory estimates, error classes, and
// RuntimeError line numbers.
//
// The one documented divergence is stdout under budget exhaustion: the VM
// charges a basic block at entry, so it stops at the block boundary where
// the oracle stops mid-block. The VM's stdout must then be a prefix of the
// oracle's. Everything else is byte-identical.

type engineResult struct {
	err     error
	stdout  string
	steps   int64
	mem     int64
	peak    int64
	globals map[string]string
}

func snapshotGlobals(m *Machine) map[string]string {
	out := make(map[string]string, len(m.Globals.vars))
	for name, v := range m.Globals.vars {
		out[name] = Repr(v)
	}
	return out
}

func runTreeEngine(src string, lim Limits) engineResult {
	m := NewMachine(lim)
	var out bytes.Buffer
	m.Stdout = &out
	err := m.treeRun(src)
	return engineResult{err: err, stdout: out.String(), steps: m.Steps(),
		mem: m.MemoryEstimate(), peak: m.PeakMemory(), globals: snapshotGlobals(m)}
}

func runVMEngine(src string, lim Limits) engineResult {
	m := NewMachine(lim)
	var out bytes.Buffer
	m.Stdout = &out
	prog, err := m.Compile(src)
	if err == nil {
		err = m.RunProgram(prog)
	}
	return engineResult{err: err, stdout: out.String(), steps: m.Steps(),
		mem: m.MemoryEstimate(), peak: m.PeakMemory(), globals: snapshotGlobals(m)}
}

// errClass buckets an engine error for comparison.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, ErrMemoryExceeded):
		return "memory"
	case errors.Is(err, ErrKilled):
		return "killed"
	default:
		if _, ok := err.(*RuntimeError); ok {
			return "runtime"
		}
		return "syntax"
	}
}

// compareEngines asserts the parity contract between a tree-walker result
// and a VM result for the same source. lenient relaxes the one known
// cross-class window (the VM hitting budget exhaustion at a block entry
// where the tree-walker fails mid-block for another reason) for
// fuzz-generated programs; curated corpus programs are built to avoid it.
func compareEngines(t *testing.T, name string, tree, vm engineResult, lenient bool) {
	t.Helper()
	tc, vc := errClass(tree.err), errClass(vm.err)
	if tc != vc {
		if lenient && vc == "budget" && tc != "ok" {
			return // block-entry charging fired before the tree's mid-block error
		}
		t.Fatalf("%s: error class tree=%s (%v) vm=%s (%v)", name, tc, tree.err, vc, vm.err)
	}
	switch tc {
	case "syntax":
		if tree.err.Error() != vm.err.Error() {
			t.Fatalf("%s: syntax error mismatch\ntree: %v\nvm:   %v", name, tree.err, vm.err)
		}
		return
	case "runtime":
		te := tree.err.(*RuntimeError)
		ve := vm.err.(*RuntimeError)
		if te.Line != ve.Line || te.Msg != ve.Msg {
			t.Fatalf("%s: runtime error mismatch\ntree: line %d: %s\nvm:   line %d: %s",
				name, te.Line, te.Msg, ve.Line, ve.Msg)
		}
	case "budget":
		if tree.steps != vm.steps {
			t.Fatalf("%s: steps at budget exhaustion tree=%d vm=%d", name, tree.steps, vm.steps)
		}
		if !strings.HasPrefix(tree.stdout, vm.stdout) {
			t.Fatalf("%s: vm stdout not a prefix of tree stdout under budget exhaustion\ntree: %q\nvm:   %q",
				name, tree.stdout, vm.stdout)
		}
		return
	case "killed":
		return // kill timing is asynchronous; no counter contract
	}
	if tree.steps != vm.steps {
		t.Fatalf("%s: steps tree=%d vm=%d", name, tree.steps, vm.steps)
	}
	if tree.stdout != vm.stdout {
		t.Fatalf("%s: stdout mismatch\ntree: %q\nvm:   %q", name, tree.stdout, vm.stdout)
	}
	if tree.mem != vm.mem || tree.peak != vm.peak {
		t.Fatalf("%s: memory estimate tree=(%d peak %d) vm=(%d peak %d)",
			name, tree.mem, tree.peak, vm.mem, vm.peak)
	}
	if len(tree.globals) != len(vm.globals) {
		t.Fatalf("%s: global count tree=%d vm=%d", name, len(tree.globals), len(vm.globals))
	}
	for k, tv := range tree.globals {
		if vv, ok := vm.globals[k]; !ok || vv != tv {
			t.Fatalf("%s: global %q tree=%s vm=%s", name, k, tv, vv)
		}
	}
}

// parityPrograms is the shared corpus: every behavior the package's unit
// tests exercise, plus targeted cases for the VM's charge batching,
// refunds, slot resolution, and string accumulator. It doubles as the
// fuzz seed corpus.
var parityPrograms = []struct {
	name string
	src  string
	lim  Limits
}{
	{"arithmetic", `
a = 1 + 2 * 3
b = (1 + 2) * 3
c = 10 - 4 - 3
d = 7 // 2
e = -7 // 2
f = 7 % 3
g = -7 % 3
h = -(3 + 4)
i = 2 * 3 + 4 * 5
`, Limits{}},
	{"strings-and-bytes", `
s = "hello" + " " + "world"
n = len(s)
b = b"abc" + b"def"
sub = s[0:5]
ch = s[6]
last = s[-1]
enc = "xyz".encode()
dec = b"pqr".decode()
up = "mIxEd".upper()
parts = "a,b,c".split(",")
joined = "-".join(["1", "2", "3"])
rep = "ab" * 3
strip = "  pad  ".strip()
fnd = "hello".find("llo")
repl = "aXbXc".replace("X", "-")
starts = "prefix".startswith("pre")
ends = "suffix".endswith("fix")
`, Limits{}},
	{"list-operations", `
l = [1, 2, 3]
l.append(4)
total = 0
for x in l:
    total += x
l2 = l + [5]
popped = l2.pop()
first = l2[0]
sliced = l2[1:3]
idx = l2.index(3)
has = 2 in l2
nope = 99 in l2
l.extend([7, 8])
print(l, total, sliced)
`, Limits{}},
	{"dict-operations", `
d = {"a": 1, "b": 2}
d["c"] = 3
n = len(d)
a = d["a"]
g = d.get("z", 42)
ks = d.keys()
vs = d.values()
has = "b" in d
del d["b"]
has2 = "b" in d
print(d, ks, vs)
`, Limits{}},
	{"control-flow", `
def classify(n):
    if n < 0:
        return "neg"
    elif n == 0:
        return "zero"
    else:
        return "pos"

a = classify(-5)
b = classify(0)
c = classify(9)

count = 0
i = 0
while True:
    i += 1
    if i % 2 == 0:
        continue
    if i > 10:
        break
    count += 1

evens = 0
for k in range(20):
    if k % 2 == 0:
        evens += 1
`, Limits{}},
	{"functions-and-recursion", `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def make_adder(k):
    def add(x):
        return x + k
    return add

f = fib(15)
add5 = make_adder(5)
g = add5(10)
`, Limits{}},
	{"recursion-depth", `
def boom(n):
    return boom(n + 1)

boom(0)
`, Limits{}},
	{"boolean-logic", `
a = True and False
b = True or False
c = not True
d = 1 and 2
e = 0 or "fallback"
f = None or 5
short = False and crash_if_evaluated
`, Limits{}},
	{"comparisons", `
a = 1 < 2
b = "abc" < "abd"
c = [1, 2] == [1, 2]
d = {"x": 1} == {"x": 1}
e = b"a" != b"b"
f = not ("x" in "xyz")
g = "q" not in "xyz"
`, Limits{}},
	{"budget-exhaustion", `
i = 0
while True:
    i += 1
`, Limits{Instructions: 10_000}},
	{"budget-in-try", `
try:
    while True:
        pass
except:
    swallowed = True
`, Limits{Instructions: 5_000}},
	{"memory-limit", `
s = b"xxxxxxxxxxxxxxxx"
while True:
    s = s + s
`, Limits{Memory: 64 * 1024, Instructions: 100_000_000}},
	{"memory-rebind", `
i = 0
while i < 100:
    s = bytes(100000)
    i += 1
`, Limits{Memory: 256 * 1024, Instructions: 100_000_000}},
	{"indentation-blocks", `
def outer(n):
    total = 0
    for i in range(n):
        if i % 2 == 0:
            for j in range(i):
                total += 1
        else:
            total += 100
    return total

x = outer(5)
`, Limits{}},
	{"multiline-brackets", `
l = [
    1,
    2,
    3,
]
d = {
    "a": 1,
}
x = len(l) + len(d)
`, Limits{}},
	{"augmented-assignments", `
x = 10
x += 5
x -= 3
x *= 2
y = "ab"
y += "cd"
`, Limits{}},
	{"try-except", `
def safe_div(a, b):
    try:
        return a // b
    except:
        return -1

ok = safe_div(10, 2)
bad = safe_div(10, 0)

msg = ""
try:
    x = undefined_name
except as e:
    msg = e

caught_raise = False
try:
    raise "custom failure"
except as e2:
    caught_raise = "custom failure" in e2

nested = 0
try:
    try:
        raise "inner"
    except:
        nested = 1
        raise "outer"
except:
    nested = 2
`, Limits{}},
	{"refund-mid-block", `
l = [1]
t = 0
try:
    t = 1 + l[5]
except as e:
    t = 2
u = t + 1
print(t, u)
`, Limits{}},
	{"string-accumulator", `
def build(n):
    s = ""
    i = 0
    while i < n:
        s = s + "chunk-"
        i += 1
    return s

def build_bytes(n):
    b = b""
    i = 0
    while i < n:
        b += b"\x01\x02"
        i += 1
    return b

out = build(50)
blen = len(build_bytes(40))
olen = len(out)
print(olen, blen, out[0:12])
`, Limits{}},
	{"accumulator-type-switch", `
def weird(n):
    s = "x"
    s = s + "y"
    s = s + ""
    t = s
    s = s + "z"
    u = s + "!"
    return s + t + u

r = weird(3)
`, Limits{}},
	{"accumulator-error", `
def bad():
    s = "a"
    s = s + 5
    return s

bad()
`, Limits{}},
	{"dynamic-global-store", `
x = 10
def bump():
    x = x + 1

def shadow():
    y = x
    x = y * 2
    return x

bump()
r = shadow()
z = x
`, Limits{}},
	{"local-define", `
def f():
    v = 5
    v += 2
    return v

a = f()
b = f()
`, Limits{}},
	{"loops-break-continue-try", `
total = 0
for i in range(10):
    try:
        if i == 3:
            continue
        if i == 7:
            break
        if i == 5:
            raise "five"
        total += i
    except as e:
        total += 100
found = 0
j = 0
while j < 6:
    j += 1
    try:
        if j == 2:
            continue
        if j == 5:
            break
    except:
        pass
    found += 1
print(total, found)
`, Limits{}},
	{"augmented-index-side-effects", `
def idx():
    print("idx")
    return 0

a = [10]
a[idx()] += 5
d = {"k": 1}
d["k"] *= 7
print(a, d)
`, Limits{}},
	{"slice-bound-order", `
def lo():
    print("lo")
    return "nope"

def hi():
    print("hi")
    return 2

x = "abcdef"[lo():hi()]
`, Limits{}},
	{"iterate-everything", `
out = []
for c in "abc":
    out.append(c)
for b in b"xy":
    out.append(b)
for k in {"b": 2, "a": 1}:
    out.append(k)
for r in range(3):
    out.append(r)
for e in [True, None]:
    out.append(e)
print(out)
`, Limits{}},
	{"raise-uncaught-in-func", `
def f():
    raise "deep failure"

def g():
    return f()

g()
`, Limits{}},
	{"unary-and-not-in", `
a = -5
b = not []
c = not not "x"
d = 3 not in [1, 2]
e = -(-a)
`, Limits{}},
	{"dict-unhashable", `
d = {}
d[[1, 2]] = 3
`, Limits{}},
	{"short-circuit-calls", `
def t():
    print("t")
    return True

def f():
    print("f")
    return False

a = t() and f()
b = f() or t()
c = f() and t()
d = t() or f()
print(a, b, c, d)
`, Limits{}},
	{"print-output", `
print("hello", 42, [1, 2])
print({"k": "v"}, b"\x00\xff", None, True)
print()
`, Limits{}},
	{"nested-data", `
m = {"xs": [1, [2, 3]], "d": {"inner": "deep"}}
m["xs"][1].append(4)
v = m["xs"][1][2]
s = m["d"]["inner"][1:3]
print(m, v, s)
`, Limits{}},

	// Values that refer to themselves, and values Go cannot compare with ==.
	{"cyclic-containers", `
a = []
a.append(a)
b = []
b.append(b)
d = {}
d["self"] = d
d["list"] = a
same = a == b
diff = a == [1]
ds = d == d
s = str(d)
print(a, d, same, diff, ds)
`, Limits{}},
	{"bound-method-equality", `
dec = b"ab".decode
l = [1]
e1 = dec == dec
e2 = l.append == l.append
e3 = l.append == l.pop
e4 = dec == l.append
`, Limits{}},

	// Nested defs: the VM's cells against the oracle's scope chain.
	{"closure-counter-rebinds-enclosing", `
def counter():
    n = 0
    def inc():
        n = n + 1
        return n
    def peek():
        return n
    return [inc, peek]

c = counter()
a = c[0]()
b = c[0]()
p = c[1]()
d = counter()[0]()
print(a, b, p, d)
`, Limits{}},
	{"closure-shadow-global-then-enclosing", `
x = "global"
def outer():
    def read():
        return x
    before = read()
    x = "changed"
    during = read()
    def local():
        x = "inner"
        return x
    inner = local()
    return [before, during, inner, read()]

r = outer()
def fresh():
    y = "enclosing"
    def set():
        y = "rebound"
    set()
    return y
s = fresh()
print(r, x, s)
`, Limits{}},
	{"closure-loop-late-binding", `
def make():
    fs = []
    for i in range(3):
        def f():
            return i
        fs.append(f)
    return fs

out = []
for f in make():
    out.append(f())
print(out)
`, Limits{}},
	{"closure-def-in-if-and-try", `
def pick(flag):
    if flag:
        def h():
            return "yes"
    else:
        def h():
            return "no"
    try:
        def t():
            return h() + "!"
        raise "skip"
    except as e:
        def u():
            return e + t()
    return u()

a = pick(True)
b = pick(False)
`, Limits{}},
	{"closure-three-deep", `
def a(x):
    def b(y):
        def c(z):
            x = x + 1
            return x * 100 + y * 10 + z
        return c
    return b

c = a(1)(2)
v1 = c(3)
v2 = c(4)
`, Limits{}},
	{"closure-recursive-inner", `
def outer(n):
    def fact(k):
        if k < 2:
            return 1
        return k * fact(k - 1)
    return fact(n)

f5 = outer(5)
f10 = outer(10)
`, Limits{}},
	{"closure-outlives-frame-in-list-and-dict", `
def mk(tag):
    hits = []
    def record(v):
        hits.append(tag + v)
        return len(hits)
    def dump():
        return hits
    return {"rec": record, "dump": dump}

keep = []
for t in ["a", "b"]:
    keep.append(mk(t))
keep[0]["rec"]("1")
keep[0]["rec"]("2")
keep[1]["rec"]("3")
print(keep[0]["dump"](), keep[1]["dump"](), keep[0]["rec"])
`, Limits{}},
	{"closure-inner-raise-refund", `
def guard():
    seen = 0
    def risky(l):
        seen = seen + 1
        return 1 + l[5] + seen
    try:
        risky([1])
    except as e:
        msg = e
    try:
        risky([1, 2, 3, 4, 5, 6])
        raise "after " + str(seen)
    except as e2:
        msg = msg + "|" + e2
    return msg

r = guard()
print(r)
`, Limits{}},
	{"closure-captured-string-append", `
def builder():
    s = ""
    def add(chunk):
        s += chunk
        s = s + "."
        return len(s)
    i = 0
    while i < 40:
        add("chunk")
        i += 1
    return s

out = builder()
n = len(out)
`, Limits{}},
	{"closure-call-depth", `
def outer():
    def dive(n):
        return dive(n + 1)
    return dive

outer()(0)
`, Limits{}},
	{"closure-param-captured-and-def-shadows-global", `
def helper():
    return "global helper"

def wrap(p, q):
    def helper():
        p = p + q
        return p
    helper()
    return [helper(), p, q]

r = wrap(1, 10)
g = helper()
`, Limits{}},
	{"closure-unset-enclosing-falls-to-global", `
late = "g"
def outer(flag):
    def get():
        return late
    first = get()
    if flag:
        late = "bound"
    return [first, get()]

a = outer(False)
b = outer(True)
c = late
`, Limits{}},
	{"closure-memory-measured-through-cells", `
keep = []
def mk(n):
    big = "x" * 20000
    def f():
        return big
    return f

i = 0
while i < 40:
    keep.append(mk(i))
    i += 1
`, Limits{Memory: 256 * 1024, Instructions: 100_000_000}},
}

// runtimeErrorPrograms are one-liners whose exact RuntimeError (message
// and line) must match across engines.
var runtimeErrorPrograms = []string{
	`x = undefined_name`,
	`x = [1][5]`,
	`x = {"a": 1}["b"]`,
	`x = "s" + 1`,
	`x = len(42)`,
	`x = 5(3)`,
	`x = [1, 2][["unhashable"]]`,
	`x = {}[[1]]`,
	`x = None.method()`,
	"for x in 42:\n    pass",
	`x = "abc"[True]`,
	`x = "abc"["lo":2]`,
	`x = -"s"`,
	`x = 1 // 0`,
	`x = 1 % 0`,
	`x = [1] - [2]`,
	`del [1][0]`,
	`x = b"ab" + "cd"`,
	`[1, 2][0] = 5
[1, 2]["k"] = 5`,
	`l = [1]
l[9] = 5`,
	`x = {}
x[None] = 1`,
	`obj = 5
obj.missing()`,
}

func TestEngineParityCorpus(t *testing.T) {
	for _, p := range parityPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			tree := runTreeEngine(p.src, p.lim)
			vm := runVMEngine(p.src, p.lim)
			compareEngines(t, p.name, tree, vm, false)
		})
	}
}

func TestEngineParityRuntimeErrors(t *testing.T) {
	for i, src := range runtimeErrorPrograms {
		tree := runTreeEngine(src, Limits{})
		vm := runVMEngine(src, Limits{})
		if errClass(tree.err) != "runtime" {
			t.Fatalf("case %d (%q): tree error %v is not a RuntimeError", i, src, tree.err)
		}
		compareEngines(t, src, tree, vm, false)
	}
}

// TestEngineParityBudgetSweep runs print-heavy programs under every
// budget from 0 to enough-to-finish, pinning the exhaustion contract
// (identical step counts, VM stdout a prefix of tree stdout) at every
// possible cutoff point, including every one inside a closure call.
func TestEngineParityBudgetSweep(t *testing.T) {
	for name, src := range map[string]string{
		"plain": `
def noisy(n):
    s = ""
    for i in range(n):
        print("tick", i)
        s = s + "x"
    return s

print("len", len(noisy(6)))
`,
		"closure": `
def noisy(n):
    s = ""
    def tick(i):
        print("tick", i)
        s = s + "x"
        return len(s)
    for i in range(n):
        print("len", tick(i))
    return tick

print("last", noisy(4)(9))
`,
	} {
		t.Run(name, func(t *testing.T) {
			for budget := int64(1); budget < 260; budget++ {
				lim := Limits{Instructions: budget}
				tree := runTreeEngine(src, lim)
				vm := runVMEngine(src, lim)
				compareEngines(t, "budget-sweep", tree, vm, false)
				if errClass(tree.err) == "ok" {
					return // budget large enough to finish; sweep complete
				}
			}
			t.Fatal("sweep never reached successful completion; raise the bound")
		})
	}
}

// TestCompiledCallFromHost covers Machine.CallFunction dispatching to a
// compiled function, including arity and depth errors.
func TestCompiledCallFromHost(t *testing.T) {
	m := NewMachine(Limits{})
	prog, err := m.Compile("def add(a, b):\n    return a + b\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	v, err := m.CallFunction("add", Int(2), Int(40))
	if err != nil {
		t.Fatal(err)
	}
	if v != Int(42) {
		t.Fatalf("got %v", v)
	}
	if _, err := m.CallFunction("add", Int(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	rerr, ok := err.(*RuntimeError)
	_ = rerr
	_ = ok
	if _, err := m.CallFunction("missing"); err == nil {
		t.Fatal("missing function accepted")
	}
}

// TestProgramSharedAcrossMachines pins the cache-safety property: one
// Program may run on many machines without cross-talk.
func TestProgramSharedAcrossMachines(t *testing.T) {
	prog, err := Compile(`
def greet(name):
    return "hi " + name

tag = "set"
`)
	if err != nil {
		t.Fatal(err)
	}
	for i, who := range []string{"ada", "lin"} {
		m := NewMachine(Limits{})
		if err := m.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		v, err := m.CallFunction("greet", Str(who))
		if err != nil {
			t.Fatal(err)
		}
		if v != Str("hi "+who) {
			t.Fatalf("machine %d: got %v", i, v)
		}
		if tag, _ := m.Globals.Lookup("tag"); tag != Str("set") {
			t.Fatalf("machine %d: tag = %v", i, tag)
		}
	}
}

// TestCapturedMemoryLimit: a value kept alive only by a returned inner
// function, or only as the receiver of a stored bound method, counts
// against the memory limit. Before sizeOf followed a closure into its cells
// the first program held ~192 MiB of Go heap under a 16 MiB limit while
// MeasureNow reported 5 KiB; the second did the same through list.append.
func TestCapturedMemoryLimit(t *testing.T) {
	for name, src := range map[string]string{
		"closure": `
keep = []
def mk(n):
    big = "x" * 1000000
    def f():
        return big
    return f

i = 0
while i < 200:
    keep.append(mk(i))
    i += 1
`,
		"bound-method": `
keep = []
i = 0
while i < 200:
    keep.append(["x" * 1000000].append)
    i += 1
`,
	} {
		t.Run(name, func(t *testing.T) {
			lim := Limits{Memory: 16 << 20}
			vm := NewMachine(lim)
			if err := vm.Run(src); !errors.Is(err, ErrMemoryExceeded) {
				t.Fatalf("engine: err = %v, want ErrMemoryExceeded", err)
			}
			if got := vm.MeasureNow(); got < 16<<20 {
				t.Fatalf("engine: MeasureNow = %d with more than 16 MiB held", got)
			}
			oracle := NewMachine(lim)
			if err := oracle.treeRun(src); !errors.Is(err, ErrMemoryExceeded) {
				t.Fatalf("oracle: err = %v, want ErrMemoryExceeded", err)
			}
			compareEngines(t, name, runTreeEngine(src, lim), runVMEngine(src, lim), false)
		})
	}
}
