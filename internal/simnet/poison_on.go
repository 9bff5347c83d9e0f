//go:build simnet_poison

package simnet

// poisonChunks makes putChunk overwrite every recycled chunk. Built with
// -tags simnet_poison, any test above simnet doubles as a proof that no
// deliver callback or reader keeps a slice of a chunk it was lent: the
// retained bytes turn into 0xDB and the cell digests stop verifying.
const poisonChunks = true
