package sat

// Options tunes a Solver at construction. The search itself has one
// configuration (Luby restarts scaled by restartBase, saved phases,
// activity + LBD tiered reduction, context polls every ctxPollConflicts
// conflicts); Options only bounds it, so NewSolver() == New(Options{}).
type Options struct {
	// MaxConflicts, when positive, bounds the total conflicts per Solve
	// call; exceeding it returns Unknown.
	MaxConflicts int64
}

const (
	// restartBase scales the Luby restart sequence (MiniSat's schedule):
	// restart i gets restartBase·luby(i) conflicts.
	restartBase = 100
	// reduceBase is the initial learnt-clause budget added on top of
	// NumClauses/3 before the tiered reduction fires.
	reduceBase = 100
	// ctxPollConflicts is the conflict interval at which an in-flight
	// search polls its context. Restart boundaries alone are not enough:
	// late Luby restarts run thousands of conflicts.
	ctxPollConflicts = 256
)
