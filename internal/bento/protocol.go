// Package bento implements the paper's primary contribution: the Bento
// server (§5) that runs client-provided functions on Tor relays inside
// policy-constrained, optionally enclaved containers, and the Bento client
// used to discover nodes, negotiate policies, upload functions, and invoke
// them over Tor.
package bento

import (
	"fmt"
	"io"
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
	code    []byte         // receiver: lent by the decoder until its next frame
	args    []interp.Value // receiver: Args decoded against the trailer
}

// open claims the request's parts of the trailer d holds.
func (r *request) open(d *wire.Decoder) (err error) {
	if r.code, err = d.Take(r.CodeLen); err != nil {
		return err
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

// encodeValue converts an interp.Value for the wire, queueing its long
// leaves on t. A list or dict that contains itself is an error: a function
// can build one, and the wire format is a tree.
func encodeValue(v interp.Value, t *wire.Trailer) (wireValu, error) {
	return encodeValueIn(v, t, nil)
}

// encodeValueIn carries the containers being encoded on the path to v; nil
// until the first one.
func encodeValueIn(v interp.Value, t *wire.Trailer, open map[interp.Value]bool) (wireValu, error) {
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
		// JSON would rewrite bytes that are not UTF-8; the trailer is raw.
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
			we, err := encodeValueIn(e, t, open)
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
			wk, err := encodeValueIn(keys[i], t, open)
			if err != nil {
				return wireValu{}, err
			}
			wv, err := encodeValueIn(vals[i], t, open)
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
