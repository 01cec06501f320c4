//go:build race

package pool

func init() { raceEnabled = true }
