//go:build !race

package xmlproj

const raceEnabled = false
