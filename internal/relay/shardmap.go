package relay

import (
	"sync"
	"time"

	"github.com/bento-nfv/bento/internal/obs"
)

// tableShards fixes the shard count of the relay's keyed tables. A power
// of two keeps the shard index a mask; 16 shards is far beyond the
// parallelism of any control-plane caller, so shard collisions are noise.
const tableShards = 16

type tableShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// shardedTable replaces the relay's former single-mutex maps (circuits,
// rendezvous points, intro points, HSDir descriptors). Each key hashes to
// a fixed shard with its own RWMutex, so control-plane updates on
// different circuits never contend, and nothing here is ever taken on the
// per-cell forward path (workers reach their circuit state via the
// pointer carried in the task). Lock acquisition wait is observed into
// the relay.shard_lock_wait_ns histogram when one is attached, which is
// the contention signal surfaced by `torsim -stats`.
type shardedTable[K comparable, V any] struct {
	shards [tableShards]tableShard[K, V]
	hash   func(K) uint32
	wait   *obs.Histogram
}

func newShardedTable[K comparable, V any](hash func(K) uint32, wait *obs.Histogram) *shardedTable[K, V] {
	t := &shardedTable[K, V]{hash: hash, wait: wait}
	for i := range t.shards {
		t.shards[i].m = make(map[K]V)
	}
	return t
}

// fnv32 is FNV-1a over a string key.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// hashU64 mixes a 64-bit key (circuit serials are sequential, so the
// low bits alone would hash adjacent circuits to adjacent shards —
// fine — but mixing keeps the table robust to any key distribution).
func hashU64(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return uint32(k)
}

func (t *shardedTable[K, V]) shard(k K) *tableShard[K, V] {
	return &t.shards[t.hash(k)&(tableShards-1)]
}

// timedLock acquires l, observing the wait into the table's histogram.
func (t *shardedTable[K, V]) timedLock(l sync.Locker) {
	if t.wait == nil {
		l.Lock()
		return
	}
	start := time.Now()
	l.Lock()
	t.wait.Observe(time.Since(start).Nanoseconds())
}

func (t *shardedTable[K, V]) Get(k K) (V, bool) {
	s := t.shard(k)
	t.timedLock(s.mu.RLocker())
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

func (t *shardedTable[K, V]) Put(k K, v V) {
	s := t.shard(k)
	t.timedLock(&s.mu)
	s.m[k] = v
	s.mu.Unlock()
}

func (t *shardedTable[K, V]) Delete(k K) {
	s := t.shard(k)
	t.timedLock(&s.mu)
	delete(s.m, k)
	s.mu.Unlock()
}

// GetAndDelete atomically claims a key (rendezvous cookies must splice
// exactly one pair of circuits even under concurrent RENDEZVOUS1s).
func (t *shardedTable[K, V]) GetAndDelete(k K) (V, bool) {
	s := t.shard(k)
	t.timedLock(&s.mu)
	v, ok := s.m[k]
	if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	return v, ok
}

// CompareAndDelete removes k only if is accepts what k maps to now: a
// circuit's teardown takes back its own registrations by key, never one
// that has since passed to another circuit.
func (t *shardedTable[K, V]) CompareAndDelete(k K, is func(V) bool) {
	s := t.shard(k)
	t.timedLock(&s.mu)
	if v, ok := s.m[k]; ok && is(v) {
		delete(s.m, k)
	}
	s.mu.Unlock()
}

// Len counts entries across all shards (stats only; not a consistent
// snapshot under concurrent mutation).
func (t *shardedTable[K, V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		t.timedLock(s.mu.RLocker())
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
