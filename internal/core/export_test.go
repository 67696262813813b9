package core

// Test-only exports for the external core_test package, whose tests
// import packages that import core (the result cache).

// RaceEnabled is raceEnabled.
const RaceEnabled = raceEnabled

// WithEvalHook is withEvalHook: hook runs at the top of every candidate
// evaluation until the test ends.
var WithEvalHook = withEvalHook
