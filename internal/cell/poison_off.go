//go:build !simnet_poison

package cell

// poisonBursts is off in normal builds; see poison_on.go.
const poisonBursts = false
