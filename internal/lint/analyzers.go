package lint

// DefaultAnalyzers returns the seven protocol-aware rules configured for
// this repository, one per discipline, in the order findings are most
// useful to read. The last two are interprocedural: they share the
// whole-program call graph built by internal/lint/dataflow through the
// cross-package fact store. DESIGN.md §10 gives each rule's reason to stay.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewLockedBlocking(),
		NewDirtyBit(),
		NewMsgProvenance(),
		NewCampaignCapture(),
		NewUncheckedErr(),
		NewDetFlow(),
		NewLockOrder(),
	}
}
