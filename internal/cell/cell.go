// Package cell defines the fixed-size cell format of the emulated Tor
// overlay and the relay-cell payload layout carried inside onion-encrypted
// cells. The layout mirrors Tor's link protocol: a 4-byte circuit ID, a
// 1-byte command, and a fixed 509-byte payload, with relay cells embedding
// a recognized field, stream ID, rolling digest, length, and relay command.
//
// The package also provides the zero-copy datapath primitives: wire-frame
// accessors (WireCircID, WirePayload, ReadWire) for operating on raw
// Size-byte buffers in place, the pooled origination run (Origin), and
// the batched per-link writer (BatchWriter). Buffer ownership rules are
// documented in pool.go and in DESIGN.md under "Datapath & buffer
// ownership".
package cell

import (
	"encoding/binary"
	"fmt"
	"io"
)

const (
	// PayloadLen is the fixed payload size of every cell.
	PayloadLen = 509
	// Size is the total wire size of a cell.
	Size = 4 + 1 + PayloadLen

	// Relay payload layout offsets.
	RecognizedOffset = 0
	StreamIDOffset   = 2
	DigestOffset     = 4
	LengthOffset     = 8
	RelayCmdOffset   = 10
	RelayHeaderLen   = 11
	// MaxRelayData is the maximum application data per relay cell.
	MaxRelayData = PayloadLen - RelayHeaderLen
)

// Command is a link-level cell command.
type Command byte

// Link-level cell commands.
const (
	CmdPadding Command = iota
	CmdCreate
	CmdCreated
	CmdRelay
	CmdDestroy
)

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c {
	case CmdPadding:
		return "PADDING"
	case CmdCreate:
		return "CREATE"
	case CmdCreated:
		return "CREATED"
	case CmdRelay:
		return "RELAY"
	case CmdDestroy:
		return "DESTROY"
	default:
		return fmt.Sprintf("Command(%d)", byte(c))
	}
}

// RelayCommand is the command of a relay cell, interpreted after the
// onion-encryption layer addressed to a hop has been removed.
type RelayCommand byte

// Relay cell commands. The hidden-service commands follow Tor's
// rendezvous protocol structure.
const (
	RelayBegin RelayCommand = iota + 1
	RelayConnected
	RelayData
	RelayEnd
	RelayExtend
	RelayExtended
	RelayDrop // long-range padding; dropped at the recognizing hop
	RelayEstablishIntro
	RelayIntroEstablished
	RelayIntroduce1
	RelayIntroduce2
	RelayIntroduceAck
	RelayEstablishRendezvous
	RelayRendezvousEstablished
	RelayRendezvous1
	RelayRendezvous2
	RelayTruncate
	RelayTruncated
)

var relayCommandNames = map[RelayCommand]string{
	RelayBegin:                 "BEGIN",
	RelayConnected:             "CONNECTED",
	RelayData:                  "DATA",
	RelayEnd:                   "END",
	RelayExtend:                "EXTEND",
	RelayExtended:              "EXTENDED",
	RelayDrop:                  "DROP",
	RelayEstablishIntro:        "ESTABLISH_INTRO",
	RelayIntroEstablished:      "INTRO_ESTABLISHED",
	RelayIntroduce1:            "INTRODUCE1",
	RelayIntroduce2:            "INTRODUCE2",
	RelayIntroduceAck:          "INTRODUCE_ACK",
	RelayEstablishRendezvous:   "ESTABLISH_RENDEZVOUS",
	RelayRendezvousEstablished: "RENDEZVOUS_ESTABLISHED",
	RelayRendezvous1:           "RENDEZVOUS1",
	RelayRendezvous2:           "RENDEZVOUS2",
	RelayTruncate:              "TRUNCATE",
	RelayTruncated:             "TRUNCATED",
}

// String implements fmt.Stringer.
func (c RelayCommand) String() string {
	if s, ok := relayCommandNames[c]; ok {
		return s
	}
	return fmt.Sprintf("RelayCommand(%d)", byte(c))
}

// Cell is one fixed-size link cell.
type Cell struct {
	CircID  uint32
	Cmd     Command
	Payload [PayloadLen]byte
}

// --- wire-level accessors ---------------------------------------------------
//
// The hot datapath operates directly on Size-byte wire buffers without
// materializing Cell values: a relay reads a frame, decrypts the payload
// region in place, rewrites the circuit ID, and forwards the same bytes.
// These accessors define that layout in one place.

// WireCircID reads the circuit ID of a wire frame.
func WireCircID(buf []byte) uint32 { return binary.BigEndian.Uint32(buf[0:4]) }

// SetWireCircID rewrites the circuit ID of a wire frame in place (the only
// mutation a forwarding relay makes outside the payload region).
func SetWireCircID(buf []byte, id uint32) { binary.BigEndian.PutUint32(buf[0:4], id) }

// WireCmd reads the link command of a wire frame.
func WireCmd(buf []byte) Command { return Command(buf[4]) }

// SetWireCmd rewrites the link command of a wire frame in place.
func SetWireCmd(buf []byte, cmd Command) { buf[4] = byte(cmd) }

// WirePayload returns the payload region of a wire frame as a sub-slice
// (aliasing buf, not a copy).
func WirePayload(buf []byte) []byte { return buf[5:Size] }

// ReadWire reads one wire frame into buf, which must be at least Size
// bytes. It performs no allocation; buf is typically a per-connection
// reused buffer.
func ReadWire(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf[:Size])
	return err
}

// --- struct codec -----------------------------------------------------------

// EncodeInto serializes the cell into buf, which must be at least Size
// bytes. It is the allocation-free form of Marshal.
func (c *Cell) EncodeInto(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:4], c.CircID)
	buf[4] = byte(c.Cmd)
	copy(buf[5:Size], c.Payload[:])
}

// WriteTo writes the cell to w through a pooled buffer in a single Write
// call. It implements io.WriterTo.
func (c *Cell) WriteTo(w io.Writer) (int64, error) {
	buf := wires.Get().(*[Size]byte)
	c.EncodeInto(buf[:])
	n, err := w.Write(buf[:])
	wires.Put(buf)
	return int64(n), err
}

// UnmarshalInto parses a wire frame into an existing Cell, copying the
// payload but allocating nothing.
func UnmarshalInto(c *Cell, buf []byte) error {
	if len(buf) != Size {
		return fmt.Errorf("cell: bad length %d, want %d", len(buf), Size)
	}
	c.CircID = binary.BigEndian.Uint32(buf[0:4])
	c.Cmd = Command(buf[4])
	copy(c.Payload[:], buf[5:])
	return nil
}

// ReadInto reads one cell from r into an existing Cell without allocating.
func ReadInto(r io.Reader, c *Cell) error {
	buf := wires.Get().(*[Size]byte)
	defer wires.Put(buf)
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	return UnmarshalInto(c, buf[:])
}

// Marshal serializes the cell to a freshly allocated wire buffer. It is
// the compatibility codec for tests and cold paths; hot paths use
// EncodeInto with reused buffers.
func (c *Cell) Marshal() []byte {
	buf := make([]byte, Size)
	c.EncodeInto(buf)
	return buf
}

// Unmarshal parses a cell from exactly Size bytes into a fresh Cell
// (compatibility codec; hot paths use UnmarshalInto or the Wire*
// accessors).
func Unmarshal(buf []byte) (*Cell, error) {
	c := new(Cell)
	if err := UnmarshalInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// Read reads one cell from r into a fresh Cell (compatibility codec; hot
// paths use ReadInto or ReadWire with a reused buffer).
func Read(r io.Reader) (*Cell, error) {
	c := new(Cell)
	if err := ReadInto(r, c); err != nil {
		return nil, err
	}
	return c, nil
}

// Write writes one cell to w in a single Write call without allocating.
func Write(w io.Writer, c *Cell) error {
	_, err := c.WriteTo(w)
	return err
}

// RelayHeader is the parsed header of a relay cell payload.
type RelayHeader struct {
	StreamID uint16
	Cmd      RelayCommand
	Length   uint16
}

// PackRelay writes a relay header and data into payload (which must be
// PayloadLen bytes). The recognized and digest fields are zeroed; the
// digest is stamped later by the onion layer. Payload bytes past the data
// are zeroed too, so a reused buffer never leaks a previous cell's
// plaintext into the padding region.
func PackRelay(payload []byte, hdr RelayHeader, data []byte) error {
	if len(payload) != PayloadLen {
		return fmt.Errorf("cell: bad payload length %d", len(payload))
	}
	if len(data) > MaxRelayData {
		return fmt.Errorf("cell: relay data %d exceeds max %d", len(data), MaxRelayData)
	}
	binary.BigEndian.PutUint16(payload[RecognizedOffset:], 0)
	binary.BigEndian.PutUint16(payload[StreamIDOffset:], hdr.StreamID)
	for i := 0; i < 4; i++ {
		payload[DigestOffset+i] = 0
	}
	binary.BigEndian.PutUint16(payload[LengthOffset:], uint16(len(data)))
	payload[RelayCmdOffset] = byte(hdr.Cmd)
	copy(payload[RelayHeaderLen:], data)
	clear(payload[RelayHeaderLen+len(data):])
	return nil
}

// ParseRelay parses a decrypted relay payload, returning its header and a
// sub-slice of payload holding the data.
func ParseRelay(payload []byte) (RelayHeader, []byte, error) {
	if len(payload) != PayloadLen {
		return RelayHeader{}, nil, fmt.Errorf("cell: bad payload length %d", len(payload))
	}
	hdr := RelayHeader{
		StreamID: binary.BigEndian.Uint16(payload[StreamIDOffset:]),
		Cmd:      RelayCommand(payload[RelayCmdOffset]),
		Length:   binary.BigEndian.Uint16(payload[LengthOffset:]),
	}
	if int(hdr.Length) > MaxRelayData {
		return RelayHeader{}, nil, fmt.Errorf("cell: relay length %d exceeds max %d", hdr.Length, MaxRelayData)
	}
	return hdr, payload[RelayHeaderLen : RelayHeaderLen+int(hdr.Length)], nil
}

// Recognized reports whether the recognized field of a decrypted relay
// payload is zero (the cheap pre-check before digest verification).
func Recognized(payload []byte) bool {
	return payload[RecognizedOffset] == 0 && payload[RecognizedOffset+1] == 0
}
