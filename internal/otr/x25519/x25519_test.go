package x25519

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"
	"unsafe"
)

// oracle is crypto/ecdh's X25519: the reference every path here is held to.
func oracle(scalar, point []byte) ([]byte, error) {
	priv, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		return nil, err
	}
	pub, err := ecdh.X25519().NewPublicKey(point)
	if err != nil {
		return nil, err
	}
	return priv.ECDH(pub)
}

func oraclePublic(scalar []byte) []byte {
	priv, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		panic(err)
	}
	return priv.PublicKey().Bytes()
}

// leU encodes n (reduced mod 2^256) as a 32-byte little-endian u.
func leU(n *big.Int) [32]byte {
	var out [32]byte
	b := new(big.Int).Mod(n, new(big.Int).Lsh(big.NewInt(1), 256)).Bytes()
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

func hexU(s string) [32]byte {
	var out [32]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		panic("bad test vector " + s)
	}
	copy(out[:], b)
	return out
}

var fieldP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// specialUs are the inputs where a comb could part from the ladder: every
// low-order u (the curve's points of order 1, 2, 4 and 8 and their
// non-canonical encodings), 0, 1, -1, p, p+1, twist points, and u with
// bit 255 set.
func specialUs() [][32]byte {
	us := [][32]byte{
		leU(big.NewInt(0)),
		leU(big.NewInt(1)),
		leU(new(big.Int).Sub(fieldP, big.NewInt(1))), // -1
		leU(fieldP),                                  // 0, non-canonical
		leU(new(big.Int).Add(fieldP, big.NewInt(1))), // 1, non-canonical
		leU(big.NewInt(2)),                           // on the twist
		leU(big.NewInt(9)),
		// Order-8 points (the list of Bernstein's curve25519 page).
		hexU("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
		hexU("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
		hexU("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
		hexU("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
		hexU("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
		hexU("cdeb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b880"),
		hexU("4c9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f11d7"),
		hexU("d9ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		hexU("daffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		hexU("dbffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
		hexU("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
	}
	// 9 with bit 255 set is 9.
	nine := leU(big.NewInt(9))
	nine[31] |= 0x80
	us = append(us, nine)
	return us
}

func randScalar(t testing.TB) [32]byte {
	var s [32]byte
	if _, err := rand.Read(s[:]); err != nil {
		t.Fatal(err)
	}
	return s
}

// check holds ScalarMult and, when u is on the curve, a Table for u to the
// oracle for one (scalar, u), including its low-order error.
func check(t testing.TB, s, u [32]byte) {
	want, werr := oracle(s[:], u[:])
	got, gerr := ScalarMult(&s, &u)
	if (werr != nil) != (gerr != nil) || (werr == nil && !bytes.Equal(got[:], want)) {
		t.Fatalf("ScalarMult(%x, %x) = %x, %v; oracle %x, %v", s, u, got, gerr, want, werr)
	}
	if tab := NewTable(&u); tab != nil {
		got, gerr := tab.ScalarMult(&s)
		if (werr != nil) != (gerr != nil) || (werr == nil && !bytes.Equal(got[:], want)) {
			t.Fatalf("Table(%x).ScalarMult(%x) = %x, %v; oracle %x, %v", u, s, got, gerr, want, werr)
		}
	}
}

func TestBaseMultMatchesOracle(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := randScalar(t)
		got := ScalarBaseMult(&s)
		if want := oraclePublic(s[:]); !bytes.Equal(got[:], want) {
			t.Fatalf("ScalarBaseMult(%x) = %x, oracle %x", s, got, want)
		}
	}
}

func TestRandomPointsMatchOracle(t *testing.T) {
	for i := 0; i < 50; i++ {
		s := randScalar(t)
		u := ScalarBaseMult(&s) // on the curve: exercises the Table
		if NewTable(&u) == nil {
			t.Fatalf("NewTable(%x) = nil for a public key", u)
		}
		for j := 0; j < 4; j++ {
			check(t, randScalar(t), u)
		}
		check(t, randScalar(t), randScalar(t)) // half of these are on the twist
	}
}

func TestSpecialPointsMatchOracle(t *testing.T) {
	for _, u := range specialUs() {
		for i := 0; i < 8; i++ {
			check(t, randScalar(t), u)
		}
	}
}

func TestTableNilOffCurve(t *testing.T) {
	minusOne := leU(new(big.Int).Sub(fieldP, big.NewInt(1)))
	if NewTable(&minusOne) != nil {
		t.Error("NewTable(-1) is not nil")
	}
	two := leU(big.NewInt(2))
	if NewTable(&two) != nil {
		t.Error("NewTable(2), a twist point, is not nil")
	}
	nine := leU(big.NewInt(9))
	if NewTable(&nine) == nil {
		t.Error("NewTable(9) is nil")
	}
}

// TestRFC7748Vectors is Section 5.2's two test vectors.
func TestRFC7748Vectors(t *testing.T) {
	for _, v := range []struct{ s, u, out string }{
		{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
			"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
			"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
		{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
			"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
			"95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
	} {
		s, u, want := hexU(v.s), hexU(v.u), hexU(v.out)
		got, err := ScalarMult(&s, &u)
		if err != nil || got != want {
			t.Errorf("ScalarMult = %x, %v; want %x", got, err, want)
		}
		if tab := NewTable(&u); tab != nil {
			if got, err := tab.ScalarMult(&s); err != nil || got != want {
				t.Errorf("Table.ScalarMult = %x, %v; want %x", got, err, want)
			}
		}
	}
}

func TestTableSize(t *testing.T) {
	if n := unsafe.Sizeof(Table{}); n > 8<<10 {
		t.Errorf("a Table is %d bytes, want <= 8 KiB", n)
	}
}

// FuzzX25519Parity holds the ladder, the base comb (at u = 9) and a
// per-point Table to crypto/ecdh for fuzzer-chosen scalars and points.
func FuzzX25519Parity(f *testing.F) {
	seedScalar := [32]byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, u := range specialUs() {
		f.Add(seedScalar[:], u[:])
	}
	f.Fuzz(func(t *testing.T, scalar, u []byte) {
		var s, p [32]byte // short inputs are zero-padded, long ones cut
		copy(s[:], scalar)
		copy(p[:], u)
		check(t, s, p)
		got := ScalarBaseMult(&s)
		if want := oraclePublic(s[:]); !bytes.Equal(got[:], want) {
			t.Fatalf("ScalarBaseMult(%x) = %x, oracle %x", s, got, want)
		}
	})
}

// sink keeps the benchmarked results live.
var sink [32]byte

func BenchmarkLadder(b *testing.B) {
	s, u := randScalar(b), ScalarBaseMult(&[32]byte{7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sink, err = ScalarMult(&s, &u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseMult(b *testing.B) {
	s := randScalar(b)
	ScalarBaseMult(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = ScalarBaseMult(&s)
	}
}

func BenchmarkKeyTableBuild(b *testing.B) {
	u := ScalarBaseMult(&[32]byte{7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if NewTable(&u) == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkKeyTableMult(b *testing.B) {
	s, u := randScalar(b), ScalarBaseMult(&[32]byte{7})
	tab := NewTable(&u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sink, err = tab.ScalarMult(&s); err != nil {
			b.Fatal(err)
		}
	}
}
