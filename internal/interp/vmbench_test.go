package interp

import "testing"

// Engine benchmarks, VM against the tree oracle: arithmetic (the compute
// half of the repo benchmark's function_invoke), calls, string
// accumulation (its build half), and for loops over a range and a list,
// which no benchmark workload runs but the shipped functions do (a
// LoadBalancer-style least-loaded scan).

const benchComputeSrc = `
def compute(n):
    total = 0
    i = 0
    while i < n:
        total = total + i * 3 % 7 - (i % 2)
        if total > 1000000:
            total = 0
        i += 1
    return total
`

const benchFibSrc = `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
`

const benchBuildSrc = `
def build(n):
    s = ""
    i = 0
    while i < n:
        s = s + "0123456789abcdef"
        i += 1
    return len(s)
`

const benchScanSrc = `
def scan(n):
    loads = []
    for i in range(n):
        loads.append(i * 7 % 13)
    best = None
    for l in loads:
        if best == None or l < best:
            best = l
    return best
`

var benchWorkloads = []struct {
	fn, src string
	arg     Int
}{
	{"compute", benchComputeSrc, 10_000},
	{"fib", benchFibSrc, 15},
	{"build", benchBuildSrc, 2_000},
	{"scan", benchScanSrc, 2_000},
}

func BenchmarkVM(b *testing.B) {
	for _, w := range benchWorkloads {
		b.Run(w.fn, func(b *testing.B) {
			m := NewMachine(Limits{Instructions: 1 << 62, Memory: 1 << 40})
			if err := m.Run(w.src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.CallFunction(w.fn, w.arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTree(b *testing.B) {
	for _, w := range benchWorkloads {
		b.Run(w.fn, func(b *testing.B) {
			m := NewMachine(Limits{Instructions: 1 << 62, Memory: 1 << 40})
			if err := m.treeRun(w.src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.treeCall(w.fn, w.arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
