// Package stackscan finds goroutines by the code on their stacks, for
// tests that check a component leaves no goroutine of its own behind.
package stackscan

import (
	"runtime"
	"strings"
)

// In returns the stack of every goroutine with a frame in the non-test
// code of the package directory dir, a path fragment such as
// "/internal/relay/". The dump is never cut short: the buffer grows until
// every goroutine fits.
func In(dir string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var stacks []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.Contains(line, dir) && !strings.Contains(line, "_test.go:") {
				stacks = append(stacks, g)
				break
			}
		}
	}
	return stacks
}
