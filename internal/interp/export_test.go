package interp

// Exports for plain_test.go, which must live in package interp_test to
// import internal/functions.

// PlainSources are this package's benchmark and alloc-test programs.
var PlainSources = []string{benchComputeSrc, benchFibSrc, benchBuildSrc, spinSrc}

// UsesCells reports whether any code object of p holds a cell or closure
// opcode, or lays out a cell.
func UsesCells(p *Program) bool {
	var uses func(fp *funcProto) bool
	uses = func(fp *funcProto) bool {
		if len(fp.ownCells)+len(fp.captures)+len(fp.cellRefs) > 0 {
			return true
		}
		for _, in := range fp.code {
			if in.op == opLoadCell || in.op == opStoreCell || in.op == opDefCell {
				return true
			}
		}
		for _, c := range fp.consts {
			if f, ok := c.(*compiledFunc); ok && uses(f.proto) {
				return true
			}
		}
		return false
	}
	return uses(p.top)
}
