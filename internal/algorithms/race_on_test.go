//go:build race

package algorithms

// raceEnabled reports a race-detector build. Its sync.Pool drops pooled
// objects at random, so allocation counts vary between runs and the
// AllocsPerRun ceilings are enforced only in plain builds.
const raceEnabled = true
