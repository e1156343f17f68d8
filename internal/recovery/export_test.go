package recovery

// SetWalkParts forces every counter walk, whatever its length, into
// parts runs until the returned restore runs. Tests that call it must
// not run in parallel with other recoveries.
func SetWalkParts(parts int) (restore func()) {
	prev := walkParts
	walkParts = func(int) int { return parts }
	return func() { walkParts = prev }
}
