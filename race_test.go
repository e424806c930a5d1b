//go:build race

package parsim

func init() { raceEnabled = true }
