// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package x25519 implements the X25519 function of RFC 7748 three ways:
// a constant-time Montgomery ladder for a point seen once, a fixed-base comb
// of the generator for public keys, and a per-point comb (Table) for a
// point that is multiplied many times, such as a relay's onion key. All
// three return the bytes X25519 specifies for the same inputs; the tests
// hold them to crypto/ecdh.
//
// The field arithmetic (package field) and the Edwards point formulas are
// copied from Go 1.24's crypto/internal/fips140/edwards25519, and the ladder
// from crypto/ecdh; LICENSE is the Go license they are distributed under.
// The combs work on the Edwards form of the curve and never reduce the
// scalar modulo the group order, so a point with a small-order component
// gets the same answer from a comb as from the ladder.
package x25519

import (
	"errors"
	"sync"

	"github.com/bento-nfv/bento/internal/otr/x25519/field"
)

// ErrLowOrder is returned when the result is the all-zero value, which
// X25519 gives for a point of small order: crypto/ecdh rejects it the same
// way, since such a shared secret carries no contribution from the peer.
var ErrLowOrder = errors.New("x25519: low order point")

// ScalarMult returns X25519(scalar, point) computed with the Montgomery
// ladder, or ErrLowOrder if the result is all zeroes.
func ScalarMult(scalar, point *[32]byte) ([32]byte, error) {
	var out [32]byte
	ladder(&out, scalar, point)
	if isZero(&out) {
		return [32]byte{}, ErrLowOrder
	}
	return out, nil
}

// ScalarBaseMult returns X25519(scalar, 9), the public key for scalar. The
// clamped scalar is never a multiple of the generator's order, so the
// result is never zero.
func ScalarBaseMult(scalar *[32]byte) [32]byte {
	var p point
	p.combMult(baseTable(), scalar)
	var out [32]byte
	p.montgomeryU(&out)
	return out
}

// keyRows and keyCols shape a Table: row r holds 1..8 times 2^(4*keyCols*r)
// times the point, and a multiply takes keyCols-1 rounds of four doublings
// and keyRows*keyCols additions. 7 rows of 10 columns cover the 64 digits;
// 56 entries of 120 bytes keep a Table under 8 KiB even after the
// allocator rounds it up (to 6784 bytes; 8 rows of 8 would round to 8192).
const (
	keyRows = 7
	keyCols = 10
)

// Table is a precomputed comb for one point. Building it costs more than a
// ladder (the doubling chain that spans the scalar dominates); every
// multiply with it then costs about half of one.
type Table struct {
	rows [keyRows]affineLookupTable
}

// NewTable builds the comb for the point with Montgomery coordinate u. It
// returns nil when u is not on Curve25519 (a point on the twist, including
// u = -1, which has no Edwards image); the ladder handles those.
func NewTable(u *[32]byte) *Table {
	var p point
	if !p.fromMontgomery(u) {
		return nil
	}
	t := new(Table)
	buildComb(t.rows[:], &p)
	return t
}

// ScalarMult returns X25519(scalar, u) for the table's u, or ErrLowOrder if
// the result is all zeroes.
func (t *Table) ScalarMult(scalar *[32]byte) ([32]byte, error) {
	var p point
	p.combMult(t.rows[:], scalar)
	var out [32]byte
	p.montgomeryU(&out)
	if isZero(&out) {
		return [32]byte{}, ErrLowOrder
	}
	return out, nil
}

// baseTable is the 32x8 comb of the generator (u = 9): row r holds 1..8
// times 256^r times G, 30 KiB, built on first use.
func baseTable() []affineLookupTable {
	baseComb.once.Do(func() {
		var g point
		if !g.fromMontgomery(&[32]byte{9}) {
			panic("x25519: generator is not on the curve")
		}
		buildComb(baseComb.rows[:], &g)
	})
	return baseComb.rows[:]
}

var baseComb struct {
	once sync.Once
	rows [32]affineLookupTable
}

// fromMontgomery sets v to a point whose Montgomery coordinate is u, and
// reports whether there is one. With y = n/e = (u-1)/(u+1), the curve
// equation gives x^2 = (n^2-e^2)/(d*n^2+e^2), so v = (x*e : n : e : x*n)
// needs one square root and no inversion. The sign of x is arbitrary:
// u([s]P) = u([s](-P)).
func (v *point) fromMontgomery(u *[32]byte) bool {
	var uu, n, e, n2, e2, num, den field.Element
	uu.SetBytes(u[:])
	one := new(field.Element).One()
	n.Subtract(&uu, one)
	e.Add(&uu, one)
	if e.Equal(new(field.Element)) == 1 {
		return false
	}
	n2.Square(&n)
	e2.Square(&e)
	num.Subtract(&n2, &e2)
	den.Multiply(d, &n2)
	den.Add(&den, &e2)
	var x field.Element
	if _, ok := x.SqrtRatio(&num, &den); ok == 0 {
		return false
	}
	v.x.Multiply(&x, &e)
	v.y.Set(&n)
	v.z.Set(&e)
	v.t.Multiply(&x, &n)
	return true
}

// montgomeryU writes u = (1+y)/(1-y) = (Z+Y)/(Z-Y). The identity has
// Z = Y and maps to 0, as the ladder's point at infinity does.
func (v *point) montgomeryU(out *[32]byte) {
	var n, e field.Element
	n.Add(&v.z, &v.y)
	e.Subtract(&v.z, &v.y)
	e.Invert(&e)
	n.Multiply(&n, &e)
	copy(out[:], n.Bytes())
}

// buildComb fills rows[r] with 1..8 times 2^(4*cols*r) times p, where
// cols = combCols(rows), as affine entries. The points are made in extended
// coordinates and brought to affine together, with one inversion.
func buildComb(rows []affineLookupTable, p *point) {
	cols := combCols(rows)
	pts := make([]point, 8*len(rows))
	var c projCached
	var t projP1xP1
	var t2 projP2
	for r := range rows {
		row := pts[8*r : 8*r+8]
		if r == 0 {
			row[0] = *p
		} else {
			// 2^(4*cols) Q from the previous row's 8Q = 2^3 Q.
			t2.FromP3(&pts[8*r-1])
			for k := 0; k < 4*cols-4; k++ {
				t.Double(&t2)
				t2.FromP1xP1(&t)
			}
			t.Double(&t2)
			row[0].fromP1xP1(&t)
		}
		c.FromP3(&row[0])
		// row[k] = (k+1)Q: double for even multiples, add Q for odd ones.
		for k := 1; k < 8; k++ {
			if k%2 == 1 {
				t.Double(t2.FromP3(&row[k/2]))
			} else {
				t.Add(&row[k-1], &c)
			}
			row[k].fromP1xP1(&t)
		}
	}
	toAffine(rows, pts)
}

// toAffine sets rows' entries from pts, 8 per row, with one shared
// inversion (Montgomery's trick).
func toAffine(rows []affineLookupTable, pts []point) {
	prefix := make([]field.Element, len(pts))
	prefix[0] = pts[0].z
	for i := 1; i < len(pts); i++ {
		prefix[i].Multiply(&prefix[i-1], &pts[i].z)
	}
	var inv, zinv field.Element
	inv.Invert(&prefix[len(pts)-1])
	for i := len(pts) - 1; i >= 0; i-- {
		p := &pts[i]
		if i > 0 {
			zinv.Multiply(&inv, &prefix[i-1])
			inv.Multiply(&inv, &p.z)
		} else {
			zinv = inv
		}
		a := &rows[i/8].points[i%8]
		a.YplusX.Add(&p.y, &p.x)
		a.YplusX.Multiply(&a.YplusX, &zinv)
		a.YminusX.Subtract(&p.y, &p.x)
		a.YminusX.Multiply(&a.YminusX, &zinv)
		a.T2d.Multiply(&p.t, d2)
		a.T2d.Multiply(&a.T2d, &zinv)
	}
}

// combMult sets v to the clamped scalar times the point rows was built
// from, in constant time. With cols = combCols(rows), signed digit
// r*cols+c of the scalar, if there is one, selects from row r in column
// c, and the columns are accumulated from the top with four doublings
// between them.
func (v *point) combMult(rows []affineLookupTable, scalar *[32]byte) {
	e := clamp(scalar)
	digits := signedRadix16(&e)
	cols := combCols(rows)

	var m affineCached
	var t projP1xP1
	var t2 projP2
	v.identity()
	for c := cols - 1; c >= 0; c-- {
		if c < cols-1 {
			t2.FromP3(v)
			for k := 0; k < 3; k++ {
				t.Double(&t2)
				t2.FromP1xP1(&t)
			}
			t.Double(&t2)
			v.fromP1xP1(&t)
		}
		for r := range rows {
			i := r*cols + c
			if i >= len(digits) {
				break // past the last digit: the skip depends on the shape only
			}
			rows[r].SelectInto(&m, digits[i])
			t.AddAffine(v, &m)
			v.fromP1xP1(&t)
		}
	}
}

// combCols is the number of columns a comb of len(rows) rows needs to
// cover the 64 signed radix-16 digits of a scalar.
func combCols(rows []affineLookupTable) int {
	return (64 + len(rows) - 1) / len(rows)
}

func clamp(scalar *[32]byte) [32]byte {
	e := *scalar
	e[0] &= 248
	e[31] &= 127
	e[31] |= 64
	return e
}

// isZero reports whether x is all zeroes in constant time.
func isZero(x *[32]byte) bool {
	var acc byte
	for _, b := range x {
		acc |= b
	}
	return acc == 0
}
