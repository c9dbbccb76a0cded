package object

// SetStepHook installs a callback that the store calls at named step
// points inside operations and the version sweep: "class-commit" between
// a class-churn operation's live mutation and its commit, and
// "sweep-shard", "sweep-stripe" and "sweep-index" before each lock the
// sweep takes. Tests use it to interleave readers and writers with a
// half-done operation. Install it before the store is shared.
func SetStepHook(s *Store, f func(point string)) { s.step = f }
