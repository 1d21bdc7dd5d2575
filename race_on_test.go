//go:build race

package xmlproj

const raceEnabled = true
