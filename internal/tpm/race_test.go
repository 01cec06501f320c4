//go:build race

package tpm

// The race detector makes sync.Pool drop items at random, so math/big's
// pooled Exp scratch allocates a varying amount and the allocation budgets
// of RSA-bearing paths do not hold under -race.
func init() { raceEnabled = true }
