// Package bento implements the paper's primary contribution: the Bento
// server (§5) that runs client-provided functions on Tor relays inside
// policy-constrained, optionally enclaved containers, and the Bento client
// used to discover nodes, negotiate policies, upload functions, and invoke
// them over Tor.
package bento

import (
	"encoding/base64"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"github.com/bento-nfv/bento/internal/enclave"
	"github.com/bento-nfv/bento/internal/interp"
	"github.com/bento-nfv/bento/internal/policy"
	"github.com/bento-nfv/bento/internal/wire"
)

// Port is the port Bento servers listen on, reachable either via an exit
// circuit to localhost or as a hidden service.
const Port = 5000

// Ops of the Bento client/server protocol.
const (
	opPolicy    = "policy"
	opAttest    = "attest"
	opChallenge = "challenge"
	opSpawn     = "spawn"
	opUpload    = "upload"
	opInvoke    = "invoke"
	opShutdown  = "shutdown"
)

// Bulk bytes ride a frame's trailer raw, named in the JSON envelope by
// length only: upload code, api.send payloads, and every Str or Bytes leaf
// of an argument or result longer than inlineMax. Sender and receiver
// walk the frame in the same order (code or payload, then values depth
// first), so the lengths alone place each part.
const (
	inlineMax = 256
	// maxEnvelope bounds the JSON either role accepts from its peer; the
	// trailer is bounded by wire.MaxMessage.
	maxEnvelope = 1 << 20
	// maxCode bounds uploaded source. Compiling holds several times the
	// source's size outside any container's accounting, and every shipped
	// function is a few KB.
	maxCode = 1 << 20
)

func newDecoder(r io.Reader) *wire.Decoder {
	return wire.NewFrameDecoder(r, maxEnvelope, wire.MaxMessage)
}

// request is one client message.
type request struct {
	Op       string           `json:"op"`
	Image    string           `json:"image,omitempty"`
	Manifest *policy.Manifest `json:"manifest,omitempty"`
	Nonce    []byte           `json:"nonce,omitempty"`

	InvokeToken   string `json:"invoke_token,omitempty"`
	ShutdownToken string `json:"shutdown_token,omitempty"`

	// Challenge and PoWNonce carry a spawn puzzle solution when the
	// node's policy demands one.
	Challenge []byte `json:"challenge,omitempty"`
	PoWNonce  uint64 `json:"pow_nonce,omitempty"`

	// SpawnKey makes a spawn idempotent: re-spawning with a key the
	// server has already honored replays the original tokens instead of
	// creating a second container, so a client may safely retry a spawn
	// whose response was lost in transit.
	SpawnKey string `json:"spawn_key,omitempty"`

	CodeLen int  `json:"code_len,omitempty"`
	Sealed  bool `json:"sealed,omitempty"`

	Function string     `json:"function,omitempty"`
	Args     []wireValu `json:"args,omitempty"`

	trailer wire.Trailer   // sender: the code, then the long leaves of Args
	code    []byte         // receiver: a view of the op's copy of the frame
	args    []interp.Value // receiver: Args decoded against the trailer
}

// open claims the request's parts of the trailer d holds.
func (r *request) open(d *wire.Decoder) (err error) {
	if r.code, err = d.Take(r.CodeLen); err != nil {
		return err
	}
	if len(r.code) > maxCode {
		return fmt.Errorf("bento: %d bytes of code is over the %d-byte limit", len(r.code), maxCode)
	}
	r.args = make([]interp.Value, len(r.Args))
	for i, w := range r.Args {
		if r.args[i], err = decodeValue(w, d); err != nil {
			return err
		}
	}
	return d.TrailerDone()
}

// response frame types.
const (
	frameOK     = "ok"
	frameError  = "error"
	frameTokens = "tokens"
	frameData   = "data"
	frameDone   = "done"
)

// response is one server frame.
type response struct {
	Type  string `json:"type"`
	Error string `json:"error,omitempty"`

	Policy *policy.Middlebox `json:"policy,omitempty"`
	Report *enclave.Report   `json:"report,omitempty"`

	InvokeToken   string `json:"invoke_token,omitempty"`
	ShutdownToken string `json:"shutdown_token,omitempty"`

	// Challenge is a fresh single-use spawn puzzle input.
	Challenge []byte `json:"challenge,omitempty"`

	PayloadLen int       `json:"payload_len,omitempty"`
	Result     *wireValu `json:"result,omitempty"`
	Stdout     string    `json:"stdout,omitempty"`

	// Restarted, on a done frame carrying an error, tells the client the
	// function died but the server's watchdog brought it back: the same
	// tokens remain valid and the invocation may be retried.
	Restarted bool `json:"restarted,omitempty"`
	// PermFailed, on a done frame carrying an error, tells the client the
	// restart-storm guard declared the function permanently failed:
	// retrying this token is futile, and a control plane should replace
	// the replica instead.
	PermFailed bool `json:"perm_failed,omitempty"`

	trailer wire.Trailer // sender: the payload, then the long leaves of Result
	payload []byte       // receiver: lent by the decoder until its next frame
	result  interp.Value // receiver: Result decoded against the trailer
}

// open claims the response's parts of the trailer d holds.
func (r *response) open(d *wire.Decoder) (err error) {
	if r.payload, err = d.Take(r.PayloadLen); err != nil {
		return err
	}
	if r.Result != nil {
		if r.result, err = decodeValue(*r.Result, d); err != nil {
			return err
		}
	}
	return d.TrailerDone()
}

// wireValu is the JSON encoding of an interp.Value crossing the protocol.
// N, when nonzero, is the length of a Str or Bytes leaf in the trailer.
type wireValu struct {
	T string     `json:"t"`
	I int64      `json:"i,omitempty"`
	N int        `json:"n,omitempty"`
	S string     `json:"s,omitempty"`
	B []byte     `json:"b,omitempty"`
	L []wireValu `json:"l,omitempty"`
	D []wirePair `json:"d,omitempty"`
	V bool       `json:"v,omitempty"`
}

type wirePair struct {
	K wireValu `json:"k"`
	V wireValu `json:"v"`
}

// Bounds on one value the peer must be able to read back: its JSON leaves
// the rest of a frame's envelope 1 KiB under maxEnvelope, and a list or
// dict level nests two or three JSON levels where encoding/json refuses
// nesting past 10 000. Its trailer must fit wire.MaxMessage.
const (
	maxValueJSON = maxEnvelope - 1<<10
	maxWireDepth = 3000
)

// encodeValue converts an interp.Value for the wire, queueing its long
// leaves on t, with interp's bounded walk. It refuses what the peer could
// not read back: a function, a list or dict that contains itself (a
// function can build one, and the wire format is a tree), nesting past
// maxWireDepth, and JSON or trailer past the peer's frame bounds. The JSON
// is counted as it would be at most, before json.Marshal builds it. The
// walk's node cap is maxValueJSON as well: every node counts at least as
// many JSON bytes as walk units, so the JSON bound always stops it first.
func encodeValue(v interp.Value, t *wire.Trailer) (wireValu, error) {
	var root wireValu
	var open []*wireValu // the lists and dicts being filled, innermost last
	size, raw := 0, 0    // JSON bytes counted, trailer bytes queued
	var digits [20]byte
	err := interp.Walk(v, maxValueJSON, func(parent interp.Value, i int, node interp.Value, cyclic bool) (bool, error) {
		var w wireValu
		n := 10 // {"t":"x"} and a comma
		switch x := node.(type) {
		case interp.Int:
			w, n = wireValu{T: "i", I: int64(x)}, n+5+len(strconv.AppendInt(digits[:0], int64(x), 10))
		case interp.Str:
			// JSON would rewrite bytes that are not UTF-8; the trailer is raw.
			if len(x) > inlineMax || !utf8.ValidString(string(x)) {
				t.AddString(string(x))
				w, n, raw = wireValu{T: "s", N: len(x)}, n+16, raw+len(x)
			} else {
				w, n = wireValu{T: "s", S: string(x)}, n+7+jsonLen(string(x))
			}
		case interp.Bytes:
			if len(x) > inlineMax {
				t.AddBytes(x)
				w, n, raw = wireValu{T: "b", N: len(x)}, n+16, raw+len(x)
			} else {
				w, n = wireValu{T: "b", B: []byte(x)}, n+7+base64.StdEncoding.EncodedLen(len(x))
			}
		case interp.Bool:
			w, n = wireValu{T: "o", V: bool(x)}, n+9
		case interp.NoneVal:
			w = wireValu{T: "n"}
		case *interp.List:
			w, n = wireValu{T: "l"}, n+7
		case *interp.Dict:
			w, n = wireValu{T: "d"}, n+7
		default:
			return false, fmt.Errorf("bento: cannot send %s over the wire", node.Type())
		}
		down := w.T == "l" || w.T == "d"
		if down && cyclic {
			return false, fmt.Errorf("bento: cannot send a %s that contains itself", node.Type())
		}
		if down && len(open) == maxWireDepth {
			return false, fmt.Errorf("bento: cannot send values nested over %d deep", maxWireDepth)
		}
		if _, ok := parent.(*interp.Dict); ok && i%2 == 0 {
			n += 12 // {"k":,"v":} and a comma
		}
		if size += n; size > maxValueJSON || raw > wire.MaxMessage {
			return false, fmt.Errorf("bento: cannot send a value larger than one frame")
		}
		// Place w in the container being filled: a list's next element, or
		// a dict's next key or that key's value.
		at := &root
		if p := len(open) - 1; p >= 0 && open[p].T == "l" {
			open[p].L = append(open[p].L, w)
			at = &open[p].L[len(open[p].L)-1]
		} else if p >= 0 && i%2 == 0 {
			open[p].D = append(open[p].D, wirePair{K: w})
			at = &open[p].D[len(open[p].D)-1].K
		} else if p >= 0 {
			at = &open[p].D[len(open[p].D)-1].V
		}
		*at = w
		if down {
			open = append(open, at)
		}
		return down, nil
	}, func(interp.Value) error {
		open = open[:len(open)-1]
		return nil
	})
	return root, err
}

// jsonLen bounds the length encoding/json gives s, valid UTF-8, inside its
// quotes: it escapes controls, quote, backslash, <, > and &, and U+2028 and
// U+2029 (lead byte 0xe2), in at most six bytes each.
func jsonLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c == 0xe2 {
			n += 5
		}
	}
	return n
}

// decodeValue converts a wire value back to an interp.Value, copying its
// long leaves out of dec's trailer.
func decodeValue(w wireValu, dec *wire.Decoder) (interp.Value, error) {
	switch w.T {
	case "i":
		return interp.Int(w.I), nil
	case "s":
		if w.N != 0 {
			p, err := dec.Take(w.N)
			return interp.Str(p), err
		}
		return interp.Str(w.S), nil
	case "b":
		if w.N != 0 {
			p, err := dec.Take(w.N)
			return interp.Bytes(append([]byte(nil), p...)), err
		}
		return interp.Bytes(w.B), nil
	case "o":
		return interp.Bool(w.V), nil
	case "n", "":
		return interp.None, nil
	case "l":
		l := &interp.List{}
		for _, e := range w.L {
			v, err := decodeValue(e, dec)
			if err != nil {
				return nil, err
			}
			l.Elems = append(l.Elems, v)
		}
		return l, nil
	case "d":
		d := interp.NewDict()
		for _, p := range w.D {
			k, err := decodeValue(p.K, dec)
			if err != nil {
				return nil, err
			}
			v, err := decodeValue(p.V, dec)
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, err
			}
		}
		return d, nil
	default:
		return nil, fmt.Errorf("bento: unknown wire value type %q", w.T)
	}
}
