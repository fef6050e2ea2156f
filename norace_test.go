//go:build !race

package gossipstream

const raceEnabled = false
