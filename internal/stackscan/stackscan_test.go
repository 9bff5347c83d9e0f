package stackscan

import (
	"sync"
	"testing"
	"time"
)

// TestInReadsTheWholeDump: with enough deep stacks to overflow the first
// buffer, In still finds every goroutine blocked in package sync's code.
func TestInReadsTheWholeDump(t *testing.T) {
	const blocked = 200
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	var deep func(int)
	deep = func(n int) {
		if n > 0 {
			deep(n - 1)
			return
		}
		mu.Lock()
		mu.Unlock()
	}
	for i := 0; i < blocked; i++ {
		go deep(100)
	}
	got := 0
	for deadline := time.Now().Add(5 * time.Second); got < blocked && time.Now().Before(deadline); {
		got = len(In("/sync/"))
	}
	if got < blocked {
		t.Fatalf("found %d goroutines blocked in sync, want %d", got, blocked)
	}
}
