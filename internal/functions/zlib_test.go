package functions

import (
	"bytes"
	"compress/zlib"
	mrand "math/rand"
	"testing"

	"github.com/bento-nfv/bento/internal/interp"
)

const zlibScript = `
def c(x):
    return zlib.compress(x)

def d(x):
    return zlib.decompress(x)
`

// zlibMachine is a bscript machine with the zlib builtin bound to zc, as
// a container of one Bento server sees it.
func zlibMachine(t *testing.T, zc *zlibCodecs) *interp.Machine {
	t.Helper()
	m := interp.NewMachine(interp.Limits{Memory: 64 << 20})
	m.Bind("zlib", zlibObject(zc))
	if err := m.Run(zlibScript); err != nil {
		t.Fatal(err)
	}
	return m
}

// seededInput mixes the shapes a page has: runs, text-like repetition
// and incompressible bytes, from empty to a few hundred KB.
func seededInput(rng *mrand.Rand) []byte {
	n := 0
	if rng.Intn(10) > 0 {
		n = rng.Intn(1 << uint(4+rng.Intn(15)))
	}
	out := make([]byte, n)
	switch rng.Intn(3) {
	case 0:
		rng.Read(out)
	case 1:
		word := []byte("<div class=\"bento\">lorem ipsum</div>\n")
		for i := range out {
			out[i] = word[(i+rng.Intn(2))%len(word)]
		}
	default:
		for i := range out {
			out[i] = byte(i >> 6)
		}
	}
	return out
}

// TestZlibReusedCodecsMatchFresh is the differential test for the codec
// free list: 200 seeded inputs, interleaved across two machines that
// share one zlibCodecs (so every writer and reader is handed back and
// forth and reused ~100 times), must compress to exactly what a fresh
// zlib.NewWriter produces and inflate back to the input.
func TestZlibReusedCodecsMatchFresh(t *testing.T) {
	zc := newZlibCodecs()
	machines := []*interp.Machine{zlibMachine(t, zc), zlibMachine(t, zc)}
	rng := mrand.New(mrand.NewSource(20210823))
	for i := 0; i < 200; i++ {
		in := seededInput(rng)
		m := machines[i%2]

		var fresh bytes.Buffer
		w := zlib.NewWriter(&fresh)
		w.Write(in)
		w.Close()

		got, err := m.CallFunction("c", interp.Bytes(in))
		if err != nil {
			t.Fatalf("input %d: compress: %v", i, err)
		}
		if !bytes.Equal([]byte(got.(interp.Bytes)), fresh.Bytes()) {
			t.Fatalf("input %d (%d bytes): reused writer's output differs from a fresh writer's", i, len(in))
		}
		back, err := machines[(i+1)%2].CallFunction("d", got)
		if err != nil {
			t.Fatalf("input %d: decompress: %v", i, err)
		}
		if !bytes.Equal([]byte(back.(interp.Bytes)), in) {
			t.Fatalf("input %d: round trip lost data", i)
		}
	}
	if w, r := len(zc.writers), len(zc.readers); w == 0 || w > zlibKeep || r == 0 || r > zlibKeep {
		t.Fatalf("free lists hold %d writers, %d readers; want 1..%d of each", w, r, zlibKeep)
	}
}

// TestZlibReusedReaderStillChecks: a reader that has already inflated
// good streams must still reject a corrupt one, recover afterwards, and
// stop at the end of the stream when Browser padding follows it.
func TestZlibReusedReaderStillChecks(t *testing.T) {
	zc := newZlibCodecs()
	page := bytes.Repeat([]byte("the quick brown fox "), 4000)
	good := zc.compress(page)
	inflate := func(name string, payload []byte, wantErr bool) {
		t.Helper()
		out, err := zc.decompress(payload)
		switch {
		case wantErr && err == nil:
			t.Fatalf("%s: accepted", name)
		case !wantErr && err != nil:
			t.Fatalf("%s: %v", name, err)
		case !wantErr && !bytes.Equal(out, page):
			t.Fatalf("%s: wrong bytes", name)
		}
	}
	inflate("first use", good, false)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x55
	inflate("flipped byte mid-stream", flipped, true)
	inflate("after a corrupt stream", good, false)

	badSum := append([]byte(nil), good...)
	badSum[len(badSum)-1] ^= 1
	inflate("bad Adler-32", badSum, true)
	inflate("truncated", good[:len(good)/2], true)
	inflate("not zlib at all", []byte("GET / HTTP/1.0\r\n\r\n"), true)

	padded := append(append([]byte(nil), good...), bytes.Repeat([]byte{0xA5}, 3000)...)
	inflate("Browser padding after the stream", padded, false)
	if got, err := UnpadBrowser(padded); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("UnpadBrowser on a padded reply: %v", err)
	}
	if got, err := UnpadBrowser(padded); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("UnpadBrowser with its reader reused: %v", err)
	}
	if _, err := UnpadBrowser(flipped); err == nil {
		t.Fatal("UnpadBrowser accepted a corrupt reply")
	}
	if n := len(zc.readers); n != 1 {
		t.Fatalf("%d readers parked after sequential use, want 1", n)
	}
}
