//go:build !linux

package cpufeat

// requestTileData reports false: off Linux the tile path is not used.
func requestTileData() bool { return false }
