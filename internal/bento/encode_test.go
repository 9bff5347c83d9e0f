package bento

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/wire"
)

// refEncodeValue is the recursive encoder that the walk's client replaced,
// kept verbatim as the reference for TestEncodeSameWire. It has no bound.
func refEncodeValue(v interp.Value, t *wire.Trailer, open map[interp.Value]bool) (wireValu, error) {
	switch v.(type) {
	case *interp.List, *interp.Dict:
		if open[v] {
			return wireValu{}, fmt.Errorf("bento: cannot send a %s that contains itself", v.Type())
		}
		if open == nil {
			open = make(map[interp.Value]bool)
		}
		open[v] = true
		defer delete(open, v)
	}
	switch x := v.(type) {
	case interp.Int:
		return wireValu{T: "i", I: int64(x)}, nil
	case interp.Str:
		if len(x) > inlineMax || !utf8.ValidString(string(x)) {
			t.AddString(string(x))
			return wireValu{T: "s", N: len(x)}, nil
		}
		return wireValu{T: "s", S: string(x)}, nil
	case interp.Bytes:
		if len(x) > inlineMax {
			t.AddBytes(x)
			return wireValu{T: "b", N: len(x)}, nil
		}
		return wireValu{T: "b", B: []byte(x)}, nil
	case interp.Bool:
		return wireValu{T: "o", V: bool(x)}, nil
	case interp.NoneVal:
		return wireValu{T: "n"}, nil
	case *interp.List:
		out := wireValu{T: "l", L: make([]wireValu, 0, len(x.Elems))}
		for _, e := range x.Elems {
			we, err := refEncodeValue(e, t, open)
			if err != nil {
				return wireValu{}, err
			}
			out.L = append(out.L, we)
		}
		return out, nil
	case *interp.Dict:
		out := wireValu{T: "d"}
		keys := x.Keys()
		vals := x.Values()
		for i := range keys {
			wk, err := refEncodeValue(keys[i], t, open)
			if err != nil {
				return wireValu{}, err
			}
			wv, err := refEncodeValue(vals[i], t, open)
			if err != nil {
				return wireValu{}, err
			}
			out.D = append(out.D, wirePair{K: wk, V: wv})
		}
		return out, nil
	default:
		return wireValu{}, fmt.Errorf("bento: cannot send %s over the wire", v.Type())
	}
}

// frameOf is the done frame carrying w and t.
func frameOf(t *testing.T, w wireValu, tr wire.Trailer) []byte {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, &response{Type: frameDone, Result: &w}, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeSameWire: wherever the walk's encoder accepts a value, the frame
// it makes is byte for byte the recursive encoder's, over the
// FuzzFrameRoundTrip seeds and values that share children or need escapes;
// and both refuse the same values.
func TestEncodeSameWire(t *testing.T) {
	shared := &interp.List{Elems: []interp.Value{interp.Str("<&> \"\\\n"), interp.Bytes{0, 255}}}
	d := interp.NewDict()
	d.Set(interp.Int(-1<<63), shared)
	d.Set(interp.Bytes("k"), interp.Bool(false))
	d.Set(interp.Str(strings.Repeat("é", 300)), interp.None)
	cyclic := &interp.List{}
	cyclic.Elems = append(cyclic.Elems, cyclic)
	values := []interp.Value{d, &interp.List{Elems: []interp.Value{shared, shared, d}}, cyclic,
		&interp.List{Elems: []interp.Value{interp.Str("bad utf-8 \xff"), &interp.Builtin{Name: "f"}}}}
	for _, seed := range frameSeeds {
		rest := seed
		values = append(values, fuzzValue(&rest, 0))
	}
	for _, v := range values {
		var got, want wire.Trailer
		gw, gerr := encodeValue(v, &got)
		ww, werr := refEncodeValue(v, &want, nil)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%s: encode error %v, the reference's %v", interp.Repr(v), gerr, werr)
		}
		if gerr == nil && !bytes.Equal(frameOf(t, gw, got), frameOf(t, ww, want)) {
			t.Fatalf("%s: frames differ", interp.Repr(v))
		}
	}
}

// TestEncodeBoundsEnvelope: the JSON the encoder counts is never less than
// what encoding/json writes, so no value it accepts makes an envelope the
// peer refuses; and it is tight enough not to refuse a value whose frame
// would be under half the bound. Lists and dicts of leaves of each kind,
// escapes included, are sized around the bound with the unbounded
// reference encoder: their envelopes grow by the same bytes per element.
func TestEncodeBoundsEnvelope(t *testing.T) {
	leaves := []interp.Value{interp.Int(7), interp.Int(-1 << 63), interp.Bool(true), interp.None,
		interp.Str(strings.Repeat("<\"\n ", 40)), interp.Str("plain"), interp.Bytes(bytes.Repeat([]byte{1}, inlineMax))}
	for i, leaf := range leaves {
		for _, asDict := range []bool{false, i == 0} {
			build := func(n int) interp.Value {
				if !asDict {
					return &interp.List{Elems: repeated(leaf, n)}
				}
				d := interp.NewDict()
				for i := 0; i < n; i++ {
					d.Set(interp.Int(1_000_000+i), leaf) // keys of one width
				}
				return d
			}
			envelope := func(n int) int {
				var tr wire.Trailer
				w, err := refEncodeValue(build(n), &tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				return int(binary.BigEndian.Uint32(frameOf(t, w, tr)[:4]))
			}
			fits := (maxEnvelope - envelope(1)) / (envelope(2) - envelope(1)) // elements whose envelope fits, after the first
			if over := envelope(fits + 2); over <= maxEnvelope {
				t.Fatalf("%s (dict %v): %d elements take only %d bytes", leaf.Type(), asDict, fits+2, over)
			}
			if encodes(build(fits + 2)) {
				t.Errorf("%s x %d (dict %v): accepted, with an envelope over %d bytes", leaf.Type(), fits+2, asDict, maxEnvelope)
			}
			if !encodes(build(fits / 2)) {
				t.Errorf("%s x %d (dict %v): refused, with an envelope under half of %d bytes", leaf.Type(), fits/2, asDict, maxEnvelope)
			}
		}
	}
}

func repeated(v interp.Value, n int) []interp.Value {
	out := make([]interp.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func encodes(v interp.Value) bool {
	_, err := encodeValue(v, new(wire.Trailer))
	return err == nil
}

// TestRunawayResultRefused: a function returning a DAG that doubles per
// level (2^40 nodes as a tree) or a chain nested past what the peer's
// decoder reads gets an error in its done frame, quickly; the server sends
// no envelope the client's decoder refuses (which would cost it the
// connection) and keeps serving.
func TestRunawayResultRefused(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 232)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The budget is charged across a container's invocations, so the spin
	// that times it runs in a container of its own.
	var fn, spinner *Function
	for _, f := range []**Function{&fn, &spinner} {
		if *f, err = conn.Spawn(basicManifest()); err != nil {
			t.Fatal(err)
		}
		defer (*f).Shutdown()
	}
	if err := spinner.Upload("def spin():\n    while True:\n        pass\n"); err != nil {
		t.Fatal(err)
	}
	if err := fn.Upload(`
def dag():
    l = []
    for i in range(40):
        l = [l, l]
    return l

def chain():
    l = []
    for i in range(5000):
        l = [l]
    return l
`); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := spinner.Invoke("spin"); err == nil {
		t.Fatal("spin returned")
	}
	spin := time.Since(start)
	for _, name := range []string{"dag", "chain"} {
		start := time.Now()
		_, v, err := fn.Invoke(name)
		took := time.Since(start)
		if err == nil || errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "cannot send") {
			t.Fatalf("%s: value %v, error %v; want the done frame's encode error", name, v, err)
		}
		if took > 5*spin { // well under one spin on an idle host; loaded hosts vary
			t.Errorf("%s: refused after %v, over five times the %v of a spin through the budget", name, took, spin)
		}
		t.Logf("%s: %v after %v (spin %v)", name, err, took, spin)
	}
	if _, err := conn.Policy(); err != nil {
		t.Fatalf("connection unusable after the refused results: %v", err)
	}
}
