package bento

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"

	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/wire"
)

// resultFrame is the done frame a server would write for result v.
func resultFrame(v interp.Value) (*bytes.Buffer, error) {
	done := &response{Type: frameDone}
	w, err := encodeValue(v, &done.trailer)
	if err != nil {
		return nil, err
	}
	done.Result = &w
	var buf bytes.Buffer
	return &buf, wire.WriteFrame(&buf, done, done.trailer)
}

// frameRoundTrip carries v through a whole frame, as the result of a done
// response, and returns what the receiving side decodes.
func frameRoundTrip(v interp.Value) (interp.Value, error) {
	buf, err := resultFrame(v)
	if err != nil {
		return nil, err
	}
	dec := newDecoder(buf)
	var got response
	if err := dec.Decode(&got); err != nil {
		return nil, err
	}
	if err := got.open(dec); err != nil {
		return nil, err
	}
	return got.result, nil
}

// argsRoundTrip is frameRoundTrip for the other direction: vs as the
// arguments of an invoke request.
func argsRoundTrip(vs []interp.Value) ([]interp.Value, error) {
	req := &request{Op: opInvoke, Args: make([]wireValu, len(vs))}
	for i, v := range vs {
		var err error
		if req.Args[i], err = encodeValue(v, &req.trailer); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, req, req.trailer); err != nil {
		return nil, err
	}
	dec := newDecoder(&buf)
	var got request
	if err := dec.Decode(&got); err != nil {
		return nil, err
	}
	if err := got.open(dec); err != nil {
		return nil, err
	}
	return got.args, nil
}

// leafSizes straddle the inline cut-off and include one multi-cell leaf.
var leafSizes = []int{0, inlineMax - 1, inlineMax, inlineMax + 1, 64 << 10}

// fuzzValue builds a nested value from fuzzer bytes: each byte picks a
// kind, leaves take their size from leafSizes and their content from the
// next byte, containers recurse up to depth 4.
func fuzzValue(data *[]byte, depth int) interp.Value {
	next := func() byte {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return b
	}
	leaf := func() []byte {
		return bytes.Repeat([]byte{next()}, leafSizes[int(next())%len(leafSizes)])
	}
	kind := next() % 7
	if depth >= 4 && kind >= 5 {
		kind -= 2
	}
	switch kind {
	case 0:
		return interp.Int(int64(next()) - 128)
	case 1:
		return interp.Bool(next()%2 == 1)
	case 2:
		return interp.None
	case 3:
		return interp.Str(leaf())
	case 4:
		return interp.Bytes(leaf())
	case 5:
		l := &interp.List{}
		for n := int(next() % 4); n > 0; n-- {
			l.Elems = append(l.Elems, fuzzValue(data, depth+1))
		}
		return l
	default:
		d := interp.NewDict()
		for n := int(next() % 4); n > 0; n-- {
			key := interp.Value(interp.Str(leaf()))
			if next()%2 == 1 {
				key = interp.Bytes(leaf())
			}
			d.Set(key, fuzzValue(data, depth+1))
		}
		return d
	}
}

var frameSeeds = [][]byte{
	{},
	{3, 0x9d, 1},                             // a short Str that is not UTF-8
	{3, 'x', 4},                              // one 64 KB Str
	{5, 3, 3, 'a', 2, 4, 'b', 3, 4, 'c', 1},  // list of leaves either side of the cut-off
	{6, 2, 'k', 4, 0, 5, 2, 4, 'v', 4, 0, 9}, // dict: long key, list value holding a long leaf
	{0, 0, 0, 2, 0, 0, 0, 9, '{', '}', 1, 2}, // a frame header over junk
	{0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0, 0}, // a trailer length past any bound
}

func FuzzFrameRoundTrip(f *testing.F) {
	for _, seed := range frameSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes into either role's frame decoder fail or succeed,
		// never panic. The bounds are shrunk so an announced length costs
		// the fuzzer kilobytes, not wire.MaxMessage.
		type frame interface{ open(*wire.Decoder) error }
		for _, fresh := range []func() frame{
			func() frame { return new(request) },
			func() frame { return new(response) },
		} {
			d := wire.NewFrameDecoder(bytes.NewReader(data), 4<<10, 128<<10)
			for {
				r := fresh()
				if d.Decode(r) != nil || r.open(d) != nil {
					break
				}
			}
		}

		rest := data
		v := fuzzValue(&rest, 0)
		back, err := frameRoundTrip(v)
		if err != nil {
			t.Fatalf("result %s: %v", interp.Repr(v), err)
		}
		if !interp.Equal(v, back) {
			t.Fatalf("result round trip changed a %s", v.Type())
		}
		args := []interp.Value{v, fuzzValue(&rest, 0)}
		gotArgs, err := argsRoundTrip(args)
		if err != nil {
			t.Fatalf("args: %v", err)
		}
		for i := range args {
			if !interp.Equal(args[i], gotArgs[i]) {
				t.Fatalf("argument %d round trip changed a %s", i, args[i].Type())
			}
		}
	})
}

// A long leaf must cross the wire raw: the frame is the leaf plus a small
// envelope, where base64 inside the JSON would add a third.
func TestLongLeafRidesTrailerRaw(t *testing.T) {
	for _, v := range []interp.Value{
		interp.Bytes(bytes.Repeat([]byte{0xa5}, 32<<10)),
		interp.Str(strings.Repeat("\x00", 32<<10)), // JSON would escape each byte sixfold
	} {
		buf, err := resultFrame(v)
		if err != nil {
			t.Fatal(err)
		}
		if over := buf.Len() - 32<<10; over > 128 {
			t.Fatalf("%s frame carries %d bytes beyond its 32 KB leaf", v.Type(), over)
		}
	}
}

// hostileFrame is a frame as a peer that ignores the protocol would write
// it: any envelope, any trailer, any announced trailer length.
func hostileFrame(envelope string, trailer []byte, announced uint32) []byte {
	frame := make([]byte, 8, 8+len(envelope)+len(trailer))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(envelope)))
	binary.BigEndian.PutUint32(frame[4:8], announced)
	return append(append(frame, envelope...), trailer...)
}

// A server that lies about lengths must cost the client an ErrTransport,
// not a panic (a negative length once reached make) and not gigabytes (an
// announced 2^31 once did).
func TestHostileServerLengths(t *testing.T) {
	junk := bytes.Repeat([]byte{7}, 600)
	cases := map[string][]byte{
		"negative payload":    hostileFrame(`{"type":"data","payload_len":-5}`, nil, 0),
		"payload past frame":  hostileFrame(`{"type":"data","payload_len":2147483648}`, junk, 600),
		"negative leaf":       hostileFrame(`{"type":"done","result":{"t":"s","n":-1}}`, nil, 0),
		"leaf past trailer":   hostileFrame(`{"type":"done","result":{"t":"b","n":2147483648}}`, junk, 600),
		"unclaimed trailer":   hostileFrame(`{"type":"done","result":{"t":"l","l":[{"t":"s","n":300},{"t":"b","n":299}]}}`, junk, 600),
		"trailer past bound":  hostileFrame(`{"type":"done"}`, nil, wire.MaxMessage+1),
		"envelope past bound": hostileFrame(strings.Repeat(" ", maxEnvelope+1), nil, 0),
		// decodeValue recurses per level: encoding/json's nesting limit
		// must refuse this before it runs.
		"nesting past the JSON limit": hostileFrame(`{"type":"done","result":`+
			strings.Repeat(`{"t":"l","l":[`, 5001)+strings.Repeat(`]}`, 5001)+`}`, nil, 0),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			cliEnd, srvEnd := net.Pipe()
			defer cliEnd.Close()
			go func() {
				defer srvEnd.Close()
				var req request
				if wire.NewFrameDecoder(srvEnd, maxEnvelope, 0).Decode(&req) == nil {
					srvEnd.Write(frame)
				}
			}()
			fn := NewClient(nil, nil).AttachStream(cliEnd).AttachFunction("tok")
			_, _, err := fn.Invoke("f")
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("got %v, want ErrTransport", err)
			}
		})
	}
}

// A result the wire cannot carry is the invocation's error, not a done
// frame that reads as None.
func TestUnsendableResultReported(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "alice", 230)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fn, err := conn.Spawn(basicManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer fn.Shutdown()
	if err := fn.Upload("def f():\n    return [1, f]\n"); err != nil {
		t.Fatal(err)
	}
	_, v, err := fn.Invoke("f")
	if err == nil || !strings.Contains(err.Error(), "cannot send") {
		t.Fatalf("unsendable result: value %v, error %v", v, err)
	}
	// The connection is still in frame sync.
	if _, err := conn.Policy(); err != nil {
		t.Fatalf("connection unusable after the refused result: %v", err)
	}
}

// A client whose announced lengths do not add up gets an error frame and
// keeps its connection: the server consumed the whole frame.
func TestServerRefusesMiscountedRequest(t *testing.T) {
	w := buildWorld(t, 3, 1)
	cli := w.client(t, "mallory", 231)
	conn, err := cli.Connect(cli.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, codeLen := range []int{-1, 3, 1 << 31} {
		req := &request{Op: opUpload, InvokeToken: "whatever", CodeLen: codeLen}
		req.trailer.AddString("x = 1")
		_, err := conn.roundTrip(req, nil)
		if err == nil || errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "wire:") {
			t.Fatalf("code_len %d over a 5-byte trailer: %v", codeLen, err)
		}
	}
	if _, err := conn.Policy(); err != nil {
		t.Fatalf("connection unusable after miscounted requests: %v", err)
	}
}
