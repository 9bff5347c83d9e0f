package interp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// run executes src in a fresh machine and returns the machine.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	m := NewMachine(Limits{})
	if err := m.Run(src); err != nil {
		t.Fatalf("run error: %v\nsource:\n%s", err, src)
	}
	return m
}

// evalVar runs src and returns the named global.
func evalVar(t *testing.T, src, name string) Value {
	t.Helper()
	m := run(t, src)
	v, ok := m.Globals.Lookup(name)
	if !ok {
		t.Fatalf("global %q not defined", name)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"x = 1 + 2 * 3", 7},
		{"x = (1 + 2) * 3", 9},
		{"x = 10 - 4 - 3", 3},
		{"x = 7 // 2", 3},
		{"x = -7 // 2", -4}, // floor division
		{"x = 7 % 3", 1},
		{"x = -7 % 3", 2}, // Python-style modulo
		{"x = -(3 + 4)", -7},
		{"x = 2 * 3 + 4 * 5", 26},
	}
	for _, c := range cases {
		got := evalVar(t, c.src, "x")
		if got != Int(c.want) {
			t.Errorf("%q: got %v, want %d", c.src, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	m := NewMachine(Limits{})
	if err := m.Run("x = 1 // 0"); err == nil {
		t.Fatal("division by zero succeeded")
	}
	if err := m.Run("x = 1 % 0"); err == nil {
		t.Fatal("modulo by zero succeeded")
	}
}

func TestStringsAndBytes(t *testing.T) {
	src := `
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
`
	m := run(t, src)
	checks := map[string]Value{
		"s":      Str("hello world"),
		"n":      Int(11),
		"b":      Bytes("abcdef"),
		"sub":    Str("hello"),
		"ch":     Str("w"),
		"last":   Str("d"),
		"enc":    Bytes("xyz"),
		"dec":    Str("pqr"),
		"up":     Str("MIXED"),
		"joined": Str("1-2-3"),
	}
	for name, want := range checks {
		got, _ := m.Globals.Lookup(name)
		if !Equal(got, want) {
			t.Errorf("%s = %s, want %s", name, Repr(got), Repr(want))
		}
	}
	parts, _ := m.Globals.Lookup("parts")
	if Repr(parts) != `["a", "b", "c"]` {
		t.Errorf("parts = %s", Repr(parts))
	}
}

func TestListOperations(t *testing.T) {
	src := `
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
`
	m := run(t, src)
	if v, _ := m.Globals.Lookup("total"); v != Int(10) {
		t.Errorf("total = %v", v)
	}
	if v, _ := m.Globals.Lookup("popped"); v != Int(5) {
		t.Errorf("popped = %v", v)
	}
	if v, _ := m.Globals.Lookup("idx"); v != Int(2) {
		t.Errorf("idx = %v", v)
	}
	if v, _ := m.Globals.Lookup("has"); v != Bool(true) {
		t.Errorf("has = %v", v)
	}
	if v, _ := m.Globals.Lookup("nope"); v != Bool(false) {
		t.Errorf("nope = %v", v)
	}
	if v, _ := m.Globals.Lookup("sliced"); Repr(v) != "[2, 3]" {
		t.Errorf("sliced = %s", Repr(v))
	}
}

func TestDictOperations(t *testing.T) {
	src := `
d = {"a": 1, "b": 2}
d["c"] = 3
n = len(d)
a = d["a"]
g = d.get("z", 42)
ks = d.keys()
has = "b" in d
del d["b"]
has2 = "b" in d
`
	m := run(t, src)
	if v, _ := m.Globals.Lookup("n"); v != Int(3) {
		t.Errorf("n = %v", v)
	}
	if v, _ := m.Globals.Lookup("a"); v != Int(1) {
		t.Errorf("a = %v", v)
	}
	if v, _ := m.Globals.Lookup("g"); v != Int(42) {
		t.Errorf("g = %v", v)
	}
	if v, _ := m.Globals.Lookup("has"); v != Bool(true) {
		t.Errorf("has = %v", v)
	}
	if v, _ := m.Globals.Lookup("has2"); v != Bool(false) {
		t.Errorf("has2 = %v (del failed)", v)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
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
    def step():
        return 1
    i += step()
    if i % 2 == 0:
        continue
    if i > 10:
        break
    count += 1

evens = 0
for k in range(20):
    if k % 2 == 0:
        evens += 1
`
	m := run(t, src)
	for name, want := range map[string]Value{
		"a": Str("neg"), "b": Str("zero"), "c": Str("pos"),
		"count": Int(5), "evens": Int(10),
	} {
		if v, _ := m.Globals.Lookup(name); !Equal(v, want) {
			t.Errorf("%s = %s, want %s", name, Repr(v), Repr(want))
		}
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
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
`
	m := run(t, src)
	if v, _ := m.Globals.Lookup("f"); v != Int(610) {
		t.Errorf("fib(15) = %v, want 610", v)
	}
	if v, _ := m.Globals.Lookup("g"); v != Int(15) {
		t.Errorf("closure result = %v, want 15", v)
	}
}

func TestRecursionDepthLimited(t *testing.T) {
	m := NewMachine(Limits{})
	err := m.Run(`
def boom(n):
    return boom(n + 1)

boom(0)
`)
	if err == nil {
		t.Fatal("unbounded recursion succeeded")
	}
}

func TestBooleanLogic(t *testing.T) {
	src := `
a = True and False
b = True or False
c = not True
d = 1 and 2
e = 0 or "fallback"
f = None or 5
short = False and crash_if_evaluated
`
	m := run(t, src)
	for name, want := range map[string]Value{
		"a": Bool(false), "b": Bool(true), "c": Bool(false),
		"d": Int(2), "e": Str("fallback"), "f": Int(5), "short": Bool(false),
	} {
		if v, _ := m.Globals.Lookup(name); !Equal(v, want) {
			t.Errorf("%s = %s, want %s", name, Repr(v), Repr(want))
		}
	}
}

func TestComparisons(t *testing.T) {
	src := `
a = 1 < 2
b = "abc" < "abd"
c = [1, 2] == [1, 2]
d = {"x": 1} == {"x": 1}
e = b"a" != b"b"
f = not ("x" in "xyz")
g = "q" not in "xyz"
`
	m := run(t, src)
	for _, name := range []string{"a", "b", "c", "d", "e", "g"} {
		if v, _ := m.Globals.Lookup(name); v != Bool(true) {
			t.Errorf("%s = %v, want True", name, v)
		}
	}
	if v, _ := m.Globals.Lookup("f"); v != Bool(false) {
		t.Errorf("f = %v, want False", v)
	}
}

func TestInstructionBudget(t *testing.T) {
	m := NewMachine(Limits{Instructions: 10_000})
	err := m.Run(`
i = 0
while True:
    i += 1
`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func TestMemoryLimit(t *testing.T) {
	m := NewMachine(Limits{Memory: 64 * 1024, Instructions: 100_000_000})
	err := m.Run(`
s = b"xxxxxxxxxxxxxxxx"
while True:
    s = s + s
`)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded", err)
	}
}

func TestMemoryReleasedAfterRebinding(t *testing.T) {
	// Rebinding a large value must not count the old value forever.
	m := NewMachine(Limits{Memory: 256 * 1024, Instructions: 100_000_000})
	err := m.Run(`
i = 0
while i < 100:
    s = bytes(100000)
    i += 1
`)
	if err != nil {
		t.Fatalf("live-memory accounting leaked dead values: %v", err)
	}
}

func TestKill(t *testing.T) {
	m := NewMachine(Limits{Instructions: 1 << 40})
	done := make(chan error, 1)
	go func() {
		done <- m.Run(`
i = 0
while True:
    i += 1
`)
	}()
	time.Sleep(20 * time.Millisecond)
	m.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("got %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not stop the machine")
	}
}

func TestHostObjects(t *testing.T) {
	m := NewMachine(Limits{})
	var sent []byte
	api := NewObject("api", map[string]BuiltinFn{
		"send": func(args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("send takes 1 argument")
			}
			b, ok := args[0].(Bytes)
			if !ok {
				return nil, fmt.Errorf("send requires bytes")
			}
			sent = append([]byte(nil), b...)
			return None, nil
		},
	})
	m.Bind("api", api)
	if err := m.Run(`api.send(b"payload")`); err != nil {
		t.Fatal(err)
	}
	if string(sent) != "payload" {
		t.Fatalf("sent %q", sent)
	}
	// Unknown attribute fails cleanly.
	if err := m.Run(`api.exec("rm -rf /")`); err == nil {
		t.Fatal("unknown host attribute callable")
	}
}

// TestBrowserFunctionShape runs a transliteration of the paper's
// Appendix A browser function against stub host objects.
func TestBrowserFunctionShape(t *testing.T) {
	m := NewMachine(Limits{})
	page := bytes.Repeat([]byte("<html>content</html>"), 100)
	var sent []byte
	m.Bind("requests", NewObject("requests", map[string]BuiltinFn{
		"get": func(args []Value) (Value, error) { return Bytes(page), nil },
	}))
	m.Bind("zlib", NewObject("zlib", map[string]BuiltinFn{
		"compress": func(args []Value) (Value, error) {
			return args[0], nil // identity stub; the real one lives in the sandbox
		},
	}))
	m.Bind("os", NewObject("os", map[string]BuiltinFn{
		"urandom": func(args []Value) (Value, error) {
			n := args[0].(Int)
			return Bytes(make([]byte, n)), nil
		},
	}))
	m.Bind("api", NewObject("api", map[string]BuiltinFn{
		"send": func(args []Value) (Value, error) {
			sent = []byte(args[0].(Bytes))
			return None, nil
		},
	}))

	src := `
def browser(url, padding):
    body = requests.get(url)
    compressed = zlib.compress(body)
    final = compressed
    if padding - len(final) > 0:
        final = final + os.urandom(padding - len(final))
    else:
        final = final + os.urandom((len(final) + padding) % padding)
    api.send(final)

browser("http://example.org", 4096)
`
	if err := m.Run(src); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 4096 {
		t.Fatalf("sent %d bytes, want exactly the 4096-byte padding target", len(sent))
	}
	if !bytes.HasPrefix(sent, page) {
		t.Fatal("padded payload does not start with page content")
	}
}

func TestCallFunctionFromHost(t *testing.T) {
	m := run(t, `
def add(a, b):
    return a + b
`)
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
	if _, err := m.CallFunction("missing"); err == nil {
		t.Fatal("missing function accepted")
	}
}

func TestPrintOutput(t *testing.T) {
	m := NewMachine(Limits{})
	var out bytes.Buffer
	m.Stdout = &out
	if err := m.Run(`print("hello", 42, [1, 2])`); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "hello 42 [1, 2]\n" {
		t.Fatalf("print output %q", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"x = ",
		"if True\n    pass",
		"def f(:\n    pass",
		"x = 'unterminated",
		"x = [1, 2",
		"1 +* 2",
		"x = $bad",
		"  x = 1", // unexpected initial indent... (leading indent treated as block)
		"del x",
		"print(1)\nbreak\nprint(2)",
		"continue",
		"for i in range(3):\n    def f():\n        break\n",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: parsed", src)
		}
		m := NewMachine(Limits{})
		if err := m.Run(src); err == nil {
			t.Errorf("%q: no error", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		`x = undefined_name`,
		`x = [1][5]`,
		`x = {"a": 1}["b"]`,
		`x = "s" + 1`,
		`x = len(42)`,
		`x = 5(3)`,
		`x = [1, 2][["unhashable"]]`,
		`x = {}[[1]]`,
		`x = None.method()`,
		`for x in 42:
    pass`,
	}
	for _, src := range bad {
		m := NewMachine(Limits{})
		if err := m.Run(src); err == nil {
			t.Errorf("%q: no error", src)
		}
	}
}

func TestIndentationBlocks(t *testing.T) {
	src := `
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
`
	// i=0: +0; i=1: +100; i=2: +2; i=3: +100; i=4: +4 => 206
	if v := evalVar(t, src, "x"); v != Int(206) {
		t.Fatalf("x = %v, want 206", v)
	}
}

func TestMultilineBracketsIgnoreNewlines(t *testing.T) {
	src := `
l = [
    1,
    2,
    3,
]
d = {
    "a": 1,
}
x = len(l) + len(d)
`
	if v := evalVar(t, src, "x"); v != Int(4) {
		t.Fatalf("x = %v", v)
	}
}

func TestAugmentedAssignments(t *testing.T) {
	src := `
x = 10
x += 5
x -= 3
x *= 2
y = "ab"
y += "cd"
`
	m := run(t, src)
	if v, _ := m.Globals.Lookup("x"); v != Int(24) {
		t.Fatalf("x = %v", v)
	}
	if v, _ := m.Globals.Lookup("y"); !Equal(v, Str("abcd")) {
		t.Fatalf("y = %v", v)
	}
}

// Property: integer arithmetic matches Go's semantics adjusted for floor
// division/modulo.
func TestArithmeticProperty(t *testing.T) {
	check := func(a, b int16) bool {
		if b == 0 {
			return true
		}
		src := fmt.Sprintf("q = %d // %d\nr = %d %% %d", a, b, a, b)
		m := NewMachine(Limits{})
		if err := m.Run(src); err != nil {
			return false
		}
		q, _ := m.Globals.Lookup("q")
		r, _ := m.Globals.Lookup("r")
		// Verify the division identity a == q*b + r, with 0 <= |r| < |b|
		// and r's sign matching b's.
		qi, ri := int64(q.(Int)), int64(r.(Int))
		if qi*int64(b)+ri != int64(a) {
			return false
		}
		if ri != 0 && (ri < 0) != (b < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Repr of lists round-trips element count for int lists.
func TestListReprProperty(t *testing.T) {
	check := func(xs []int8) bool {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprintf("%d", x)
		}
		src := "l = [" + strings.Join(parts, ", ") + "]\nn = len(l)"
		m := NewMachine(Limits{})
		if err := m.Run(src); err != nil {
			return false
		}
		n, _ := m.Globals.Lookup("n")
		return n == Int(len(xs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStepsAccounting(t *testing.T) {
	m := NewMachine(Limits{})
	if err := m.Run("x = 1 + 2"); err != nil {
		t.Fatal(err)
	}
	if m.Steps() == 0 {
		t.Fatal("no instructions recorded")
	}
}

func BenchmarkInterpFib(b *testing.B) {
	src := `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
`
	m := NewMachine(Limits{Instructions: 1 << 40})
	if err := m.Run(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("fib", Int(12)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	m := NewMachine(Limits{Instructions: 1 << 40})
	if err := m.Run(`
def spin(n):
    i = 0
    while i < n:
        i += 1
    return i
`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("spin", Int(1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTryExcept(t *testing.T) {
	src := `
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
`
	m := run(t, src)
	if v, _ := m.Globals.Lookup("ok"); v != Int(5) {
		t.Fatalf("ok = %v", v)
	}
	if v, _ := m.Globals.Lookup("bad"); v != Int(-1) {
		t.Fatalf("bad = %v", v)
	}
	if v, _ := m.Globals.Lookup("msg"); v == Str("") {
		t.Fatal("except-as did not bind the message")
	}
	if v, _ := m.Globals.Lookup("caught_raise"); v != Bool(true) {
		t.Fatalf("caught_raise = %v", v)
	}
	if v, _ := m.Globals.Lookup("nested"); v != Int(2) {
		t.Fatalf("nested = %v", v)
	}
}

func TestTryDoesNotCatchResourceViolations(t *testing.T) {
	m := NewMachine(Limits{Instructions: 5000})
	err := m.Run(`
try:
    while True:
        pass
except:
    swallowed = True
`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want uncatchable budget error", err)
	}
	if _, ok := m.Globals.Lookup("swallowed"); ok {
		t.Fatal("budget exhaustion was caught by except")
	}
}

func TestTryDoesNotCatchKill(t *testing.T) {
	m := NewMachine(Limits{Instructions: 1 << 40})
	done := make(chan error, 1)
	go func() {
		done <- m.Run(`
try:
    while True:
        pass
except:
    pass
`)
	}()
	time.Sleep(10 * time.Millisecond)
	m.Kill()
	if err := <-done; !errors.Is(err, ErrKilled) {
		t.Fatalf("got %v, want uncatchable kill", err)
	}
}

func TestTryWithoutExceptRejected(t *testing.T) {
	m := NewMachine(Limits{})
	if err := m.Run("try:\n    pass\n"); err == nil {
		t.Fatal("try without except accepted")
	}
}

func TestTryCatchesHostAPIErrors(t *testing.T) {
	m := NewMachine(Limits{})
	m.Bind("flaky", NewObject("flaky", map[string]BuiltinFn{
		"call": func(args []Value) (Value, error) {
			return nil, fmt.Errorf("backend unavailable")
		},
	}))
	if err := m.Run(`
recovered = False
try:
    flaky.call()
except as e:
    recovered = "backend unavailable" in e
`); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Globals.Lookup("recovered"); v != Bool(true) {
		t.Fatalf("recovered = %v", v)
	}
}
