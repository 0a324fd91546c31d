//go:build race

package mdlog

// The race detector makes sync.Pool drop a random share of Put items,
// so pooled engine state is reallocated at random and allocation
// counts are no longer exact; gate tests widen their bounds.
func init() { raceDetector = true }
