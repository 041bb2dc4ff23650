package lint

// DefaultAnalyzers returns the eleven protocol-aware rules configured for
// this repository, one per discipline, in the order findings are most
// useful to read. The last three are interprocedural: they share the
// whole-program call graph built by internal/lint/dataflow through the
// cross-package fact store.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewWallClock(),
		NewGlobalRand(),
		NewLockedBlocking(),
		NewDirtyBit(),
		NewMsgProvenance(),
		NewVTimeMono(),
		NewCampaignCapture(),
		NewUncheckedErr(),
		NewDetFlow(),
		NewLockOrder(),
		NewAtomicMix(),
	}
}
