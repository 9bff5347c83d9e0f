//go:build !simnet_poison

package simnet

// poisonChunks is off in normal builds; see poison_on.go.
const poisonChunks = false
