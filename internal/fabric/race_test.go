//go:build race

package fabric

func init() { raceEnabled = true }
