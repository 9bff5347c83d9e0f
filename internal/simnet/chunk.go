package simnet

import (
	"sync"
	"time"
)

// Chunk size classes. A write is copied once into a chunk of the
// smallest class that holds it, and that chunk — not a copy — travels
// the sender's transmit queue, the receiver's read queue, and back to
// the pool. The classes are constants, not knobs: the traffic has three
// shapes (one relay cell, a handful of coalesced cells or a Bento
// control frame, a bulk run split at maxChunk) and nothing a caller
// could observe depends on which class carried its bytes.
const (
	// cellChunk holds one 514-byte relay cell. 576 is the allocator's own
	// size class for a 514-byte slice, so the class costs an in-flight
	// cell exactly what a bare make([]byte, 514) did.
	cellChunk = 576
	midChunk  = 4 << 10
)

var chunkClasses = [...]int{cellChunk, midChunk, maxChunk}

// chunkPools holds idle chunks per class. sync.Pool, not a bounded free
// list: a pool the collector empties keeps nothing alive between bursts,
// which is what the per-host memory gates and live_heap_mb measure.
var chunkPools [len(chunkClasses)]sync.Pool

// chunk is one pooled run of bytes. It is on at most one chunkList at a
// time (next is the intrusive link, nil while it is on none), so
// queueing never allocates and an idle conn holds no backing array.
type chunk struct {
	next *chunk
	at   time.Duration // virtual delivery time, while on a transmit queue
	data []byte        // the valid bytes; cap(data) is the class size
	eof  bool          // transmit-queue EOF marker (no data)
}

// getChunk returns a chunk with len(data) == n, n <= maxChunk. The bytes
// are the previous owner's until the caller overwrites them.
func getChunk(n int) *chunk {
	for i, size := range chunkClasses {
		if n <= size {
			if ch, _ := chunkPools[i].Get().(*chunk); ch != nil {
				ch.data = ch.data[:n]
				return ch
			}
			return &chunk{data: make([]byte, n, size)}
		}
	}
	panic("simnet: chunk larger than maxChunk")
}

// poisonByte fills recycled chunks in simnet_poison builds, so a slice
// retained past its owner's release reads as garbage instead of as
// plausible stale data.
const poisonByte = 0xDB

// putChunk recycles a chunk whose bytes nobody may touch any more.
func putChunk(ch *chunk) {
	if poisonChunks {
		full := ch.data[:cap(ch.data)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	for i, size := range chunkClasses {
		if cap(ch.data) == size {
			chunkPools[i].Put(ch)
			return
		}
	}
}

// chunkList is a FIFO of chunks linked through their next fields: the
// conn's transmit queue and the ChunkQueue's storage.
type chunkList struct {
	head, tail *chunk
}

// push appends ch: ownership moves to the list.
func (l *chunkList) push(ch *chunk) {
	if l.tail == nil {
		l.head = ch
	} else {
		l.tail.next = ch
	}
	l.tail = ch
}

// pop unlinks and returns the head: ownership moves to the caller. nil
// when the list is empty.
func (l *chunkList) pop() *chunk {
	ch := l.head
	if ch == nil {
		return nil
	}
	l.head = ch.next
	if l.head == nil {
		l.tail = nil
	}
	ch.next = nil
	return ch
}

// ChunkQueue is a FIFO byte queue over pooled chunks: Write copies bytes
// in, Read copies them out across chunk boundaries and returns every
// drained chunk to the pool. Unlike a bytes.Buffer it has no contiguous
// backing array to grow and keep: what it holds is proportional to the
// unread bytes, and nothing once read empty. The zero value is an empty
// queue. Not safe for concurrent use.
type ChunkQueue struct {
	list chunkList
	off  int // bytes of the head chunk already read
	n    int // unread bytes
}

// Len reports the unread bytes.
func (q *ChunkQueue) Len() int { return q.n }

// Write appends a copy of p, topping up the last chunk's spare room
// before taking new ones.
func (q *ChunkQueue) Write(p []byte) {
	if t := q.list.tail; t != nil {
		k := copy(t.data[len(t.data):cap(t.data)], p)
		t.data = t.data[:len(t.data)+k]
		q.n += k
		p = p[k:]
	}
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		ch := getChunk(n)
		copy(ch.data, p)
		q.push(ch)
		p = p[n:]
	}
}

// push appends ch itself: ownership moves to the queue.
func (q *ChunkQueue) push(ch *chunk) {
	q.list.push(ch)
	q.n += len(ch.data)
}

// pop unlinks the head chunk and hands it to the caller, its first off
// bytes already read. nil when the queue is empty.
func (q *ChunkQueue) pop() (ch *chunk, off int) {
	if ch, off = q.list.pop(), q.off; ch != nil {
		q.n -= len(ch.data) - off
		q.off = 0
	}
	return ch, off
}

// Read copies up to len(p) unread bytes into p and reports how many.
func (q *ChunkQueue) Read(p []byte) int {
	total := 0
	for len(p) > 0 && q.list.head != nil {
		h := q.list.head
		k := copy(p, h.data[q.off:])
		p = p[k:]
		total += k
		q.off += k
		if q.off == len(h.data) {
			q.off = 0
			putChunk(q.list.pop())
		}
	}
	q.n -= total
	return total
}
