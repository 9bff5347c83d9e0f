//go:build simnet_poison

package cell

// poisonBursts makes PutBurst overwrite every recycled burst, the way
// simnet's poisonChunks does for chunks: a slice of a run kept past the
// run's release — by a stream, a writer, a control handler — turns into
// 0xDB and stops verifying instead of looking plausibly stale.
const poisonBursts = true
