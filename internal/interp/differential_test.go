package interp

import (
	"bytes"
	"errors"
	"runtime"
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

// snapshotGlobals renders each global up to 1 MiB of text: enough to tell
// the engines apart without making a reproducer's huge value the test's own
// allocation.
func snapshotGlobals(m *Machine) map[string]string {
	out := make(map[string]string, len(m.Globals.vars))
	for name, v := range m.Globals.vars {
		w := newWalker(NewMachine(Limits{Instructions: 1 << 62, Memory: 1 << 20}), 0)
		text, _ := w.repr(nil, v)
		out[name] = string(text)
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
	// break/continue outside a loop are parse errors on both engines; the
	// VM used to compile them to nothing and run on where the oracle
	// stopped the block.
	{"stray-break", "print(1)\nbreak\nprint(2)\n", Limits{}},
	{"stray-break-then-expr", "break\n0\n", Limits{}},
	{"stray-continue-in-def-in-loop", "while True:\n    def f():\n        continue\n    break\n", Limits{}},
	// Every superinstruction's int fast path (peephole), with immediates
	// at the int32 edge and constants past it, which stay in the pool.
	{"fused-int-forms", `
def forms(n, m):
    acc = 0
    i = 0
    while i < n:
        acc = acc + i * 3 % 7 - (i % 2)
        if acc > 40:
            acc = acc - 40
        if acc * 2 < m:
            acc += 1
        if (acc + i) % 5 == 0:
            acc = acc + 2147483647 - 2147483647
        if acc + i > i + acc:
            acc = 0
        acc = acc + 3000000000 - 3000000000
        if acc == 3000000000:
            acc = 1
        acc += i
        i = i + 1
    big = 0
    big = big + 3000000000
    big += -2147483648
    return [acc, big, n // 3, n % 4, i < m, i * 2 >= m]

r = forms(25, 30)
`, Limits{}},
	// The same forms on operands that are not ints: the boxed slow paths,
	// an immediate boxed as the Int it was compiled from, and a slot never
	// assigned in the frame read through the global table.
	{"fused-slow-paths", `
cnt = 1
def slow(s, t):
    out = []
    out.append(s * 2)
    out.append((s + t) * 2)
    if s < t:
        out.append("lt")
    if s + t == "abcd":
        out.append("eq")
    if s == t:
        out.append("same")
    if s + t < t:
        out.append("lt2")
    if s + "x" > t + "y":
        out.append("gt")
    u = s
    u = u + "!"
    u += "?"
    out.append(u)
    if cnt < 5:
        out.append(cnt * 10)
    cnt = cnt + 1
    return out

r = slow("ab", "cd")
q = slow("cd", "ab")
`, Limits{}},
	// Binops that are not comparisons feeding a branch, which stay a binop
	// and a jump beside the fused compare-branches: arithmetic on ints (a
	// product wrapping to 0 included), `in`, and non-int operands.
	{"fused-cond-binops", `
def conds(a, b, s, t, d):
    out = []
    if a - b:
        out.append(1)
    if a * b:
        out.append(2)
    if a + b:
        out.append(3)
    if a - 3:
        out.append(4)
    if a * 0:
        out.append(5)
    if a * 4294967296:
        out.append(6)
    if (a + 1) * (b + 1):
        out.append(7)
    if (a + b) - 6:
        out.append(8)
    if (a * 4294967296) * 3000000000:
        out.append(9)
    if (a + 0) - b:
        out.append(10)
    if a in d:
        out.append(11)
    if (a + 1) in d:
        out.append(12)
    if s + t:
        out.append(13)
    if s * 0:
        out.append(14)
    if (s + t) + "":
        out.append(15)
    if a % 2:
        out.append(16)
    if (a + b) // 7:
        out.append(17)
    i = 0
    while a - i:
        i += 1
    out.append(i)
    return out

r = [conds(3, 3, "a", "b", {3: 1}), conds(4294967296, 2, "", "", {5: 1}), conds(-5, 11, "", "x", {})]
`, Limits{}},
	// Each fused form's errors, caught, so that the counters after every
	// refund are compared too: a fused lhs load's or check's name error
	// refunds its extra charge, the rhs's does not.
	{"fused-error-refunds", `
def refunds():
    hits = []
    try:
        y = y + 1
    except as e:
        hits.append(e)
    try:
        z += 1
    except as e:
        hits.append(e)
    try:
        w = w + "x"
    except as e:
        hits.append(e)
    try:
        if k < 3:
            k = 0
    except as e:
        hits.append(e)
    try:
        while a < b:
            a = 0
    except as e:
        hits.append(e)
    b = 1
    try:
        while b < a:
            pass
    except as e:
        hits.append(e)
    try:
        q = v * 2
        v = 0
    except as e:
        hits.append(e)
    v = 7
    try:
        q = v % 0
    except as e:
        hits.append(e)
    try:
        q = v // 0
    except as e:
        hits.append(e)
    try:
        q = (v + 1) % 0
    except as e:
        hits.append(e)
    try:
        q = "s" - 1
    except as e:
        hits.append(e)
    try:
        if "s" < 1:
            pass
    except as e:
        hits.append(e)
    s = "s"
    try:
        if s < 1:
            pass
    except as e:
        hits.append(e)
    try:
        if s < v:
            pass
    except as e:
        hits.append(e)
    try:
        s += 1
    except as e:
        hits.append(e)
    return hits

r = refunds()
`, Limits{}},
	// Rotated loops (test at the bottom): continue lands on the bottom
	// test, break leaves from inside a try, a condition raises on its
	// entry or its n-th evaluation or counts its evaluations, loops nest
	// or never run. The loops' conditions take every compare-branch form
	// in both senses, entry and bottom.
	{"loop-continue-in-if", `
def w(n):
    i = 0
    out = []
    while i < n:
        i += 1
        if i % 3 == 0:
            continue
        out.append(i)
    return out

def f(items):
    out = []
    for x in items:
        if x % 2 == 0:
            continue
        out.append(x)
    return out

def g(n):
    k = 0
    while k < 6:
        k += 1
        if k > n:
            continue
    return k

a = w(10)
b = f([1, 2, 3, 4, 5, 6, 7])
c = f([])
d = g(2)
`, Limits{}},
	{"loop-break-in-try", `
def w(n):
    i = 0
    while i < n:
        try:
            if i == 3:
                break
            i += 1
        except as e:
            print(e)
    return i

def f(items):
    seen = []
    for x in items:
        try:
            if x > 2:
                break
            seen.append(x)
        except:
            pass
    return seen

def nested(n):
    hits = 0
    for x in range(n):
        try:
            while True:
                try:
                    hits += 1
                    break
                except:
                    pass
            if x == 1:
                break
        except:
            pass
    return hits

a = w(10)
b = f([1, 2, 3, 4])
c = nested(5)
`, Limits{}},
	{"loop-condition-raises", `
def cond(i, bad):
    if i == bad:
        raise "bad cond " + str(i)
    return i < 5

def run(bad):
    i = 0
    while cond(i, bad):
        i += 1
    return i

def iter_raises(bad):
    n = 0
    i = 0
    try:
        while cond(i, bad):
            i += 1
            n += 1
    except as e:
        return [e, n]
    return n

hits = []
for bad in [0, 3, 9]:
    try:
        hits.append(run(bad))
    except as e:
        hits.append(e)
    hits.append(iter_raises(bad))
`, Limits{}},
	{"loop-condition-side-effect", `
log = []
def cond(i):
    log.append(i)
    return i < 4

i = 0
while cond(i):
    i += 1

def count(n):
    calls = []
    def more(k):
        calls.append(k)
        return k < n
    k = 0
    while more(k):
        k += 1
        if k == 2:
            continue
    return len(calls)

evaluations = len(log)
c0 = count(0)
c5 = count(5)
`, Limits{}},
	{"loop-nested-empty-never", `
def grid(n, m):
    out = []
    i = 0
    while i < n:
        for j in range(m):
            if j == i:
                continue
            out.append([i, j])
        i += 1
    return out

g = grid(3, 3)
z = grid(0, 5)
e = []
for x in []:
    e.append(x)
for k in {}:
    e.append(k)
for ch in "":
    e.append(ch)
while False:
    e.append(1)
n = 0
while n < 0:
    n += 1
`, Limits{}},
	{"loop-compare-branch-senses", `
def local_imm():
    i = 0
    while i < 5:
        i += 1
    return i

def local_local(n):
    i = 0
    while i < n:
        i += 2
    return i

def stack_local(n):
    s = ""
    while len(s) < n:
        s = s + "ab"
    return s

def mixed(n):
    i = ""
    while i != n:
        i = i + "a"
    return i

s = ""
n = 7
while len(s) < n:
    s = s + "x"
t = ""
while t != "xxxxxxxxxxxx":
    t = t + "xx"
u = 0
while u < 10000000000:
    u = u + 4000000000

a = local_imm()
b = local_local(9)
c = stack_local(5)
d = mixed("aaa")
`, Limits{}},
	{"accumulator-views", `
def views():
    s = "ab"
    s = s + "cd"
    t = s
    s = s + "ef"
    u = s
    s = s + "gh"
    v = s
    s += "ij"
    b = b"x"
    b = b + b"y"
    c = b
    b += b"z"
    return [t, u, v, s, c, b]

r = views()
`, Limits{}},
}

// runtimeErrorPrograms are short programs whose run-time failure — a
// RuntimeError (message and line) or ErrMemoryExceeded — must match across
// engines.
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
	// len*n wrapped negative past the charge and panicked in strings.Repeat.
	`s = "xx" * 4611686018427387904`,
	// Charged after a re-measurement that could not see it, and dropped.
	`s = "x" * 200000000`,
	`a = "x" * 9000000
b = "y" * 9000000`,
	// The fused forms' errors, uncaught (peephole's immediates, local
	// branches and carried refunds).
	`x = "s" - 1`,
	`x = 5
y = x % 0`,
	"def f(x):\n    return x % 0\nf(5)",
	"def f(x):\n    return x // 0\nf(5)",
	"def f():\n    y = y + 1\nf()",
	"def f():\n    while i < 3:\n        i = 0\nf()",
	"def f(s):\n    if s < 3:\n        return 1\nf(\"a\")",
	"def f(a, b):\n    if a < b:\n        return 1\nf(\"a\", 2)",
	"def f(a):\n    if a - \"s\":\n        return 1\nf(1)",
	"def f():\n    if q + 1:\n        return 1\nf()",
	"def f(a):\n    if a in 5:\n        return 1\nf(1)",
	// A rotated loop's condition failing on entry and at the bottom: the
	// fused compare-branch's slow path in each sense, and a call.
	"def f():\n    i = \"s\"\n    while i < 3:\n        i = 0\nf()",
	"def f():\n    i = 0\n    while i < 3:\n        i = i + 1\n        if i == 2:\n            i = \"s\"\n    return i\nf()",
	"def c(i):\n    if i == 2:\n        x = [1][5]\n    return i < 9\ni = 0\nwhile c(i):\n    i += 1",
	"while [1][5]:\n    pass",
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
		if c := errClass(tree.err); c != "runtime" && c != "memory" {
			t.Fatalf("case %d (%q): tree error %v is not a RuntimeError or ErrMemoryExceeded", i, src, tree.err)
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
		// The benchmark's loop shapes: every cutoff inside the fused
		// compare-branches, immediates and increments.
		"compute": `
def compute(n):
    total = 0
    i = 0
    while i < n:
        total = total + i * 3 % 7 - (i % 2)
        if total > 10:
            total = 0
        i += 1
    return total

print("compute", compute(8))
`,
		"build": `
def build(n):
    s = ""
    i = 0
    while i < n:
        s = s + "ab"
        i = i + 1
    return s

print("build", build(12))
`,
		// Rotated loops: a print in the body's tail shares the bottom
		// test's block, and continue and break leave mid-body.
		"loops": `
def spin(n):
    i = 0
    while i < n:
        i += 1
        if i % 2 == 0:
            continue
        print("odd", i)
    for x in range(n):
        if x == 3:
            break
        print("x", x)
    return i

print("spin", spin(5))
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

// TestMemoryLimitBeforeAllocation: a charge larger than what the limit has
// left fails before the bytes exist, on both engines. Before the fix the
// first program allocated 190 MiB under a 1 MiB limit and returned nil
// (the re-measurement dropped the pending charge), the overflow program
// panicked in strings.Repeat, and the last one ended with both strings
// live at 1.2 MB.
func TestMemoryLimitBeforeAllocation(t *testing.T) {
	lim := Limits{Memory: 1 << 20}
	for _, src := range []string{
		`s = "x" * 200000000`,
		"s = \"x\" * 200000000\nt = 1",
		`s = str([1]) * 100000000`,
		`s = "xx" * 4611686018427387904`,
		`b = bytes(60000000)`,
		"a = \"x\" * 600000\nb = \"y\" * 600000",
		// str built the whole text before charging it: 1000 references to
		// one 100 KB string came to 100 MB.
		"s = \"x\" * 100000\nl = []\nfor i in range(1000):\n    l.append(s)\nt = str(l)",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree := runTreeEngine(src, lim)
		vm := runVMEngine(src, lim)
		runtime.ReadMemStats(&after)
		if !errors.Is(tree.err, ErrMemoryExceeded) || !errors.Is(vm.err, ErrMemoryExceeded) {
			t.Fatalf("%q: tree err=%v vm err=%v, want ErrMemoryExceeded on both", src, tree.err, vm.err)
		}
		compareEngines(t, src, tree, vm, false)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%q: allocated %d MiB under a 1 MiB limit", src, got>>20)
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
			if got := vm.PeakMemory(); got <= lim.Memory {
				t.Fatalf("engine: PeakMemory = %d, want above the %d limit it hit", got, lim.Memory)
			}
			oracle := NewMachine(lim)
			if err := oracle.treeRun(src); !errors.Is(err, ErrMemoryExceeded) {
				t.Fatalf("oracle: err = %v, want ErrMemoryExceeded", err)
			}
			compareEngines(t, name, runTreeEngine(src, lim), runVMEngine(src, lim), false)
		})
	}
}
