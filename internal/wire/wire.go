// Package wire frames the messages of the directory protocol and the
// Bento client/server protocol. A frame is an 8-byte header (envelope
// length, trailer length; big-endian uint32 each), a JSON envelope, and
// an optional trailer of raw bytes that the envelope names only by
// length. A frame is always written with one Write.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MaxMessage bounds the envelope and the trailer of a single frame.
const MaxMessage = 64 << 20

const headerLen = 8

// Trailer queues the raw parts of a frame under construction, in the
// order the receiver will Take them. Parts are referenced, not copied,
// until WriteFrame.
type Trailer struct{ parts []part }

type part struct {
	s string
	b []byte
}

// AddString queues s.
func (t *Trailer) AddString(s string) { t.parts = append(t.parts, part{s: s}) }

// AddBytes queues b, which must not change before WriteFrame returns.
func (t *Trailer) AddBytes(b []byte) { t.parts = append(t.parts, part{b: b}) }

// maxPooledFrame keeps one huge upload from pinning its buffer in framePool.
const maxPooledFrame = 1 << 20

var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON frames and writes v as JSON, with no trailer.
func WriteJSON(w io.Writer, v any) error { return WriteFrame(w, v, Trailer{}) }

// WriteFrame writes v as the JSON envelope of a frame, followed by the
// parts queued on t.
func WriteFrame(w io.Writer, v any, t Trailer) error {
	buf := framePool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledFrame {
			framePool.Put(buf)
		}
	}()
	buf.Reset()
	var hdr [headerLen]byte
	buf.Write(hdr[:])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	envelope, trailer := buf.Len()-headerLen, 0
	for _, p := range t.parts {
		trailer += len(p.s) + len(p.b)
	}
	if envelope > MaxMessage || trailer > MaxMessage {
		return fmt.Errorf("wire: message too large (%d+%d bytes)", envelope, trailer)
	}
	buf.Grow(trailer)
	for _, p := range t.parts {
		buf.WriteString(p.s)
		buf.Write(p.b)
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame[0:4], uint32(envelope))
	binary.BigEndian.PutUint32(frame[4:8], uint32(trailer))
	_, err := w.Write(frame)
	return err
}

// Decoder reads frames from one reader through a single buffer, which
// grows to the largest frame seen and stays there. It grows as bytes
// arrive, not to the length a header announces, so a peer that announces
// a large frame and stalls holds only what it sent. A zero Decoder has no
// reader: it decodes frames already in memory (Unmarshal).
//
// A Decoder is not safe for concurrent use. json.Unmarshal copies every
// byte it keeps, so decoded values survive the next Decode; trailer bytes
// returned by Take do not.
type Decoder struct {
	r                       io.Reader
	buf                     []byte
	maxEnvelope, maxTrailer uint32
	trailer                 []byte // unclaimed rest of the last frame's trailer; aliases the frame
}

// NewDecoder returns a Decoder for a protocol without trailers: envelopes
// up to MaxMessage, any trailer refused.
func NewDecoder(r io.Reader) *Decoder { return NewFrameDecoder(r, MaxMessage, 0) }

// NewFrameDecoder returns a Decoder that refuses frames whose envelope or
// trailer exceeds the given bound.
func NewFrameDecoder(r io.Reader, maxEnvelope, maxTrailer uint32) *Decoder {
	return &Decoder{r: r, maxEnvelope: maxEnvelope, maxTrailer: maxTrailer}
}

// Decode reads the next frame: its envelope into v, its trailer into the
// Decoder for Take.
func (d *Decoder) Decode(v any) error {
	d.trailer = nil
	var hdr [headerLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return err
	}
	envelope, trailer, err := frameLen(hdr[:], d.maxEnvelope, d.maxTrailer)
	if err != nil {
		return err
	}
	body, err := ReadGrowing(d.r, d.buf, int(envelope)+int(trailer))
	if d.buf = body; err != nil {
		return err
	}
	return d.open(body, envelope, v)
}

// Unmarshal decodes frame, one whole frame as SplitFrame cut it: its
// envelope into v, its trailer into d for Take, which lends out frame's
// bytes.
func (d *Decoder) Unmarshal(frame []byte, v any) error {
	return d.open(frame[headerLen:], binary.BigEndian.Uint32(frame), v)
}

// open decodes a frame's body, whose first envelope bytes are the JSON.
func (d *Decoder) open(body []byte, envelope uint32, v any) error {
	d.trailer = nil
	if err := json.Unmarshal(body[:envelope], v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	d.trailer = body[envelope:]
	return nil
}

// frameLen reads a frame header's lengths and holds them to the bounds.
func frameLen(hdr []byte, maxEnvelope, maxTrailer uint32) (envelope, trailer uint32, err error) {
	envelope, trailer = binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	if envelope > maxEnvelope || trailer > maxTrailer {
		return 0, 0, fmt.Errorf("wire: oversized frame (%d+%d bytes)", envelope, trailer)
	}
	return envelope, trailer, nil
}

// SplitFrame returns a request server's split (simnet.Host.ServeRequests)
// that cuts whole frames, bounded as NewFrameDecoder(r, maxEnvelope,
// maxTrailer) bounds them.
func SplitFrame(maxEnvelope, maxTrailer uint32) func(buf []byte) (int, error) {
	return func(buf []byte) (int, error) {
		if len(buf) < headerLen {
			return 0, nil
		}
		envelope, trailer, err := frameLen(buf, maxEnvelope, maxTrailer)
		if n := headerLen + int(envelope) + int(trailer); err == nil && len(buf) >= n {
			return n, nil
		}
		return 0, err
	}
}

// growStep is the least a read grows the buffer by; past it the buffer
// doubles with the bytes received.
const growStep = 64 << 10

// ReadGrowing reads exactly n bytes from r, reusing buf's capacity, and
// returns them. n is a length a peer announced: past buf's capacity the
// buffer grows as bytes arrive, from growStep by doubling, so a peer that
// announces a large frame and stalls holds no more memory than it has
// sent. On error it returns what was read, with io.EOF after a partial
// read turned into io.ErrUnexpectedEOF.
func ReadGrowing(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf, want := buf[:0], n
	for len(buf) < want {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(max(len(buf), growStep), want-len(buf)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), want)])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// Take returns the next n bytes of the last frame's trailer, valid until
// the next Decode. n is a length the peer announced: one that is negative
// or exceeds what the trailer still holds is an error.
func (d *Decoder) Take(n int) ([]byte, error) {
	if n < 0 || n > len(d.trailer) {
		return nil, fmt.Errorf("wire: announced length %d, trailer holds %d", n, len(d.trailer))
	}
	p := d.trailer[:n:n]
	d.trailer = d.trailer[n:]
	return p, nil
}

// TrailerDone reports an error if the envelope's announced lengths left
// part of the trailer unclaimed.
func (d *Decoder) TrailerDone() error {
	if len(d.trailer) != 0 {
		return fmt.Errorf("wire: %d trailer bytes unclaimed", len(d.trailer))
	}
	return nil
}
