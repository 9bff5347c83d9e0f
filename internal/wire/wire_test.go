package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// header is a frame header announcing the given lengths.
func header(envelope, trailer uint32) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], envelope)
	binary.BigEndian.PutUint32(hdr[4:8], trailer)
	return hdr[:]
}

type msg struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Blob  []byte `json:"blob,omitempty"`
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := msg{Name: "hello", Count: 42, Blob: []byte{1, 2, 3}}
	if err := WriteJSON(&buf, &want); err != nil {
		t.Fatal(err)
	}
	var got msg
	if err := NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Count != want.Count || !bytes.Equal(got.Blob, want.Blob) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestMultipleFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteJSON(&buf, &msg{Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		var got msg
		if err := NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Count != i {
			t.Fatalf("frame %d: got %d", i, got.Count)
		}
	}
	var extra msg
	if err := NewDecoder(&buf).Decode(&extra); err == nil {
		t.Fatal("read past last frame succeeded")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(MaxMessage+1, 0))
	var got msg
	if err := NewDecoder(&buf).Decode(&got); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	WriteJSON(&buf, &msg{Name: "x"})
	data := buf.Bytes()
	short := bytes.NewReader(data[:len(data)-2])
	var got msg
	if err := NewDecoder(short).Decode(&got); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestGarbageBody(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("not json at all")
	buf.Write(header(uint32(len(body)), 0))
	buf.Write(body)
	var got msg
	if err := NewDecoder(&buf).Decode(&got); err == nil {
		t.Fatal("garbage body accepted")
	}
}

func TestUnmarshalableValueRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, func() {}); err == nil {
		t.Fatal("function value marshaled")
	}
}

func TestDecoderReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	big := bytes.Repeat([]byte{7}, 4096)
	for i := 0; i < 8; i++ {
		blob := big
		if i%2 == 1 {
			blob = []byte{byte(i)} // shrinking frames must not shrink the buffer
		}
		if err := WriteJSON(&buf, &msg{Count: i, Blob: blob}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	var first msg
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	grown := cap(dec.buf)
	if grown == 0 {
		t.Fatal("decoder did not retain its buffer")
	}
	// Decoded values must survive later frames overwriting the buffer.
	for i := 1; i < 8; i++ {
		var got msg
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Count != i {
			t.Fatalf("frame %d: got count %d", i, got.Count)
		}
	}
	if cap(dec.buf) != grown {
		t.Fatalf("buffer reallocated: cap %d -> %d", grown, cap(dec.buf))
	}
	if !bytes.Equal(first.Blob, big) {
		t.Fatal("earlier decoded value corrupted by buffer reuse")
	}
}

func TestDecoderOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(MaxMessage+1, 0))
	var got msg
	if err := NewDecoder(&buf).Decode(&got); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// Property: any blob survives framing.
func TestFramingProperty(t *testing.T) {
	check := func(name string, blob []byte) bool {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, &msg{Name: name, Blob: blob}); err != nil {
			return false
		}
		var got msg
		if err := NewDecoder(&buf).Decode(&got); err != nil {
			return false
		}
		return got.Name == name && bytes.Equal(got.Blob, blob)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// countingWriter records how many Writes a frame took.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestTrailerRoundTrip(t *testing.T) {
	var w countingWriter
	blob := bytes.Repeat([]byte{0xa5}, 40000)
	var tr Trailer
	tr.AddString("head")
	tr.AddBytes(blob)
	tr.AddString("")
	if err := WriteFrame(&w, &msg{Name: "bulk"}, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&w, &msg{Name: "plain"}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 2 {
		t.Fatalf("two frames took %d writes, want one each", w.writes)
	}

	dec := NewFrameDecoder(&w, 1<<10, 1<<16)
	var got msg
	if err := dec.Decode(&got); err != nil || got.Name != "bulk" {
		t.Fatalf("decode: %+v, %v", got, err)
	}
	if err := dec.TrailerDone(); err == nil {
		t.Fatal("TrailerDone passed with the whole trailer unclaimed")
	}
	if p, err := dec.Take(4); err != nil || string(p) != "head" {
		t.Fatalf("Take(4) = %q, %v", p, err)
	}
	for _, n := range []int{-1, len(blob) + 1, 1 << 40} {
		if _, err := dec.Take(n); err == nil {
			t.Fatalf("Take(%d) of a %d-byte rest succeeded", n, len(blob))
		}
	}
	p, err := dec.Take(len(blob))
	if err != nil || !bytes.Equal(p, blob) {
		t.Fatalf("Take(blob): %d bytes, %v", len(p), err)
	}
	if p, err := dec.Take(0); err != nil || len(p) != 0 {
		t.Fatalf("Take(0) = %q, %v", p, err)
	}
	if err := dec.TrailerDone(); err != nil {
		t.Fatal(err)
	}
	// The next frame starts where the trailer ended, and has none to take.
	if err := dec.Decode(&got); err != nil || got.Name != "plain" {
		t.Fatalf("frame after trailer: %+v, %v", got, err)
	}
	if _, err := dec.Take(1); err == nil {
		t.Fatal("Take succeeded on a frame without a trailer")
	}
}

func TestTrailerBounds(t *testing.T) {
	var buf bytes.Buffer
	var tr Trailer
	tr.AddString("12345")
	if err := WriteFrame(&buf, &msg{}, tr); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	var got msg
	// A protocol without trailers refuses one.
	if err := NewDecoder(bytes.NewReader(frame)).Decode(&got); err == nil {
		t.Fatal("NewDecoder accepted a trailer")
	}
	if err := NewFrameDecoder(bytes.NewReader(frame), 1<<10, 4).Decode(&got); err == nil {
		t.Fatal("5-byte trailer passed a 4-byte bound")
	}
	d := NewFrameDecoder(bytes.NewReader(frame[:len(frame)-1]), 1<<10, 5)
	if err := d.Decode(&got); err == nil {
		t.Fatal("truncated trailer accepted")
	}
	if _, err := d.Take(1); err == nil {
		t.Fatal("Take served bytes of a frame that failed to decode")
	}
}

func FuzzDecoder(f *testing.F) {
	var buf bytes.Buffer
	var tr Trailer
	tr.AddString("trailer")
	WriteFrame(&buf, &msg{Name: "seed", Blob: []byte{1, 2, 3}}, tr)
	f.Add(buf.Bytes(), 3)
	f.Add(header(2, 0xffffffff), -1)
	f.Add(append(header(0xffffffff, 0), "{}"...), 0)
	f.Add(append(header(2, 3), "{}abc"...), 4)
	const maxEnvelope, maxTrailer = 1 << 10, 4 << 10
	f.Fuzz(func(t *testing.T, data []byte, take int) {
		d := NewFrameDecoder(bytes.NewReader(data), maxEnvelope, maxTrailer)
		for {
			var got msg
			if err := d.Decode(&got); err != nil {
				break
			}
			rest := len(d.trailer)
			p, err := d.Take(take)
			if ok := take >= 0 && take <= rest; ok != (err == nil) || len(p) != rest-len(d.trailer) {
				t.Fatalf("Take(%d) of %d: %d bytes, %v", take, rest, len(p), err)
			}
			if (d.TrailerDone() == nil) != (len(d.trailer) == 0) {
				t.Fatal("TrailerDone disagrees with the unclaimed rest")
			}
		}
		if cap(d.buf) > maxEnvelope+maxTrailer {
			t.Fatalf("decoder buffer grew to %d, past the frame bound", cap(d.buf))
		}
		// SplitFrame cuts the frames a Decoder with the same bounds reads,
		// and refuses what it refuses; Unmarshal decodes a cut frame, its
		// trailer included, as Decode does.
		split, r := SplitFrame(maxEnvelope, maxTrailer), bytes.NewReader(data)
		dec := NewFrameDecoder(r, maxEnvelope, maxTrailer)
		for rest := data; ; {
			n, splitErr := split(rest)
			var want, got msg
			decErr := dec.Decode(&want)
			if n == 0 {
				if decErr == nil {
					t.Fatalf("split cut no frame (%v) from %d bytes a Decoder read one from", splitErr, len(rest))
				}
				break
			}
			var cut Decoder
			if err := cut.Unmarshal(rest[:n], &got); (err == nil) != (decErr == nil) {
				t.Fatalf("Unmarshal of a cut frame: %v; Decode: %v", err, decErr)
			}
			if decErr != nil {
				break
			}
			if rest = rest[n:]; !reflect.DeepEqual(got, want) || !bytes.Equal(cut.trailer, dec.trailer) || r.Len() != len(rest) {
				t.Fatalf("cut %d bytes to %+v, trailer %q; Decoder read %+v, trailer %q, and left %d bytes, not %d",
					n, got, cut.trailer, want, dec.trailer, r.Len(), len(rest))
			}
		}
		// Whatever one frame of the input decodes to survives re-framing.
		var first msg
		if NewFrameDecoder(bytes.NewReader(data), maxEnvelope, maxTrailer).Decode(&first) != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, &first); err != nil {
			t.Fatal(err)
		}
		var again msg
		if err := NewDecoder(&out).Decode(&again); err != nil || again.Name != first.Name ||
			again.Count != first.Count || !bytes.Equal(again.Blob, first.Blob) {
			t.Fatalf("re-framed %+v as %+v: %v", first, again, err)
		}
		if _, err := out.ReadByte(); err != io.EOF {
			t.Fatal("a Decoder left bytes of its frame unread")
		}
	})
}

// stallReader serves data, then blocks its next Read until release is
// closed, signalling stalled first; after release it reports EOF.
type stallReader struct {
	data    []byte
	stalled chan struct{}
	release chan struct{}
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	close(r.stalled)
	<-r.release
	return 0, io.EOF
}

// TestAnnouncedLengthNotAllocated: a peer that announces MaxMessage and
// then stalls costs the decoder what it sent, not what it announced.
func TestAnnouncedLengthNotAllocated(t *testing.T) {
	sent := bytes.Repeat([]byte{'x'}, 1000)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"envelope", append(header(MaxMessage, 0), sent...)},
		{"trailer", append(append(header(2, MaxMessage), "{}"...), sent...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &stallReader{data: tc.frame, stalled: make(chan struct{}), release: make(chan struct{})}
			d := NewFrameDecoder(r, MaxMessage, MaxMessage)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			errc := make(chan error, 1)
			go func() {
				var got msg
				errc <- d.Decode(&got)
			}()
			<-r.stalled
			runtime.ReadMemStats(&after)
			close(r.release)
			if err := <-errc; err != io.ErrUnexpectedEOF {
				t.Fatalf("stalled frame decoded with %v, want %v", err, io.ErrUnexpectedEOF)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("announcing %d bytes and sending %d cost %d bytes of allocation", MaxMessage, len(sent), got)
			}
		})
	}
}
