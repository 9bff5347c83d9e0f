package cell

// FrameBuf reassembles delivered byte chunks into runs of whole wire
// cells for a LightConn deliver callback (the relay's light links and the
// client's guard link): simnet chunks both split and merge cells. The
// whole cells sitting aligned in a chunk are emitted in place as one run
// with no copy; only split cells touch the carry buffer. The zero value
// is ready to use.
type FrameBuf struct {
	carry []byte
}

// Feed hands data's whole cells to emit, completing the cell carried over
// from the previous Feed first, and keeps a trailing partial cell. emit
// may mutate the frames (in-place decrypt) and returns false to abort the
// feed (circuit gone); Feed then reports false.
func (fb *FrameBuf) Feed(data []byte, emit func(frames []byte) bool) bool {
	if len(fb.carry) > 0 {
		need := min(Size-len(fb.carry), len(data))
		fb.carry = append(fb.carry, data[:need]...)
		data = data[need:]
		if len(fb.carry) < Size {
			return true
		}
		if !emit(fb.carry) {
			return false
		}
		fb.carry = fb.carry[:0]
	}
	if whole := len(data) / Size * Size; whole > 0 {
		if !emit(data[:whole]) {
			return false
		}
		data = data[whole:]
	}
	fb.carry = append(fb.carry, data...)
	return true
}
