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

// ReadJSON reads one framed message into v. Loops that read many messages
// from one connection should keep a Decoder, which reuses its buffer.
func ReadJSON(r io.Reader, v any) error { return NewDecoder(r).Decode(v) }

// Decoder reads frames from one reader through a single buffer, which
// grows to the largest envelope or trailer seen and stays there.
//
// A Decoder is not safe for concurrent use. json.Unmarshal copies every
// byte it keeps, so decoded values survive the next Decode; trailer bytes
// returned by Take do not.
type Decoder struct {
	r                       io.Reader
	buf                     []byte
	maxEnvelope, maxTrailer uint32
	trailer                 []byte // unclaimed rest of the last frame's trailer; aliases buf
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
	var hdr [headerLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return err
	}
	envelope, trailer := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	if envelope > d.maxEnvelope || trailer > d.maxTrailer {
		return fmt.Errorf("wire: oversized frame (%d+%d bytes)", envelope, trailer)
	}
	d.trailer = nil
	body, err := d.read(envelope)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	// The envelope has been copied out, so the trailer reuses its buffer.
	if body, err = d.read(trailer); err != nil {
		return err
	}
	d.trailer = body
	return nil
}

func (d *Decoder) read(n uint32) ([]byte, error) {
	if uint32(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	_, err := io.ReadFull(d.r, d.buf[:n])
	return d.buf[:n], err
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
