package simnet

import (
	"math"
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// TokenBucket is a classic token-bucket rate limiter measured in virtual
// time. It is shared by all connections on a host, so concurrent senders
// contend for (and roughly evenly split) the host's uplink, which is what
// produces the bandwidth-sharing curves of Figure 5.
type TokenBucket struct {
	clock *Clock

	mu      sync.Mutex
	rate    float64       // tokens (bytes) per virtual second; 0 = unlimited
	burst   float64       // bucket capacity in bytes
	tokens  float64       // current fill
	last    time.Duration // virtual time of last refill
	waiting float64       // bytes accepted by Take but not yet granted
	obsWait *obs.Histogram
}

// NewTokenBucket returns a bucket refilling at rate bytes per virtual
// second with the given burst capacity. A rate of 0 disables limiting.
func NewTokenBucket(clock *Clock, rate float64, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = 64 * 1024
	}
	return &TokenBucket{
		clock:  clock,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   clock.Now(),
	}
}

// Rate reports the configured fill rate in bytes per virtual second.
func (tb *TokenBucket) Rate() float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.rate
}

// SetRate changes the fill rate. Safe for concurrent use.
func (tb *TokenBucket) SetRate(rate float64) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked()
	tb.rate = rate
}

// Backlog reports the bytes accepted but not yet granted — blocked Take
// callers plus any Reserve deficit — the depth of the virtual NIC queue.
func (tb *TokenBucket) Backlog() int64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked()
	b := tb.waiting
	if tb.tokens < 0 {
		b -= tb.tokens
	}
	return int64(b)
}

// setObs attaches a histogram recording per-Take throttle waits (virtual
// nanoseconds). The nil histogram detaches.
func (tb *TokenBucket) setObs(wait *obs.Histogram) {
	tb.mu.Lock()
	tb.obsWait = wait
	tb.mu.Unlock()
}

// Take blocks until n bytes worth of tokens have been consumed. Large
// requests are split into burst-sized chunks so that concurrent callers
// interleave rather than serialize behind one huge acquisition.
func (tb *TokenBucket) Take(n int) { tb.TakeUntil(n, 0) }

// TakeUntil acquires like Take but gives up at the given virtual
// deadline (an instant on the bucket's clock; 0 means no deadline). It
// reports false when the deadline struck before the full acquisition.
func (tb *TokenBucket) TakeUntil(n int, deadline time.Duration) bool {
	if n <= 0 {
		return true
	}
	remaining := float64(n)
	var waited time.Duration
	ok := true
	tb.mu.Lock()
	tb.waiting += remaining
	for remaining > 0 {
		if tb.rate <= 0 {
			break
		}
		if deadline > 0 && tb.clock.Now() >= deadline {
			ok = false
			break
		}
		chunk := math.Min(remaining, tb.burst)
		tb.refillLocked()
		var wait time.Duration
		if tb.tokens >= chunk {
			tb.tokens -= chunk
			remaining -= chunk
			tb.waiting -= chunk
		} else {
			deficit := chunk - tb.tokens
			wait = time.Duration(deficit / tb.rate * float64(time.Second))
			if wait <= 0 {
				// A deficit worth less than a nanosecond of refill truncates
				// to zero; retrying without sleeping spins with the clock
				// standing still (forever, on the event core).
				wait = time.Nanosecond
			}
			if deadline > 0 {
				if left := deadline - tb.clock.Now(); wait > left {
					wait = left
				}
			}
		}
		if wait > 0 {
			tb.mu.Unlock()
			tb.clock.Sleep(wait)
			waited += wait
			tb.mu.Lock()
		}
	}
	// Anything skipped (rate dropped to unlimited mid-Take, or deadline)
	// is no longer queued.
	tb.waiting -= remaining
	h := tb.obsWait
	tb.mu.Unlock()
	if waited > 0 {
		h.ObserveDuration(waited)
	}
	return ok
}

// Reserve consumes n bytes immediately, letting the bucket run a
// deficit, and returns the virtual delay until that deficit refills.
// Event-native writers fold the returned pacing delay into delivery
// timestamps instead of blocking, so a WriteAsync never parks a
// goroutine yet still respects the host's uplink rate.
func (tb *TokenBucket) Reserve(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.rate <= 0 {
		return 0
	}
	tb.refillLocked()
	tb.tokens -= float64(n)
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}

func (tb *TokenBucket) refillLocked() {
	now := tb.clock.Now()
	elapsed := now - tb.last
	tb.last = now
	if tb.rate <= 0 || elapsed <= 0 {
		return
	}
	tb.tokens += tb.rate * elapsed.Seconds()
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}
