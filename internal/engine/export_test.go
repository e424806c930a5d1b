package engine

// Identity exposes the checkpoint identity a run is bound to, for the
// external tests.
var Identity = identity
