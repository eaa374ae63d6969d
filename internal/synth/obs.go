package synth

import "stopwatchsim/internal/explore"

// Event is one record on a synthesis's live event stream (the body of
// GET /v1/synth/{id}/events), the synthesis wire form of explore.Event.
type Event struct {
	// Type is "point" (a point settled), "quarantine" (a point failed —
	// for a synthesis that aborts the run) or "status" (terminal state).
	Type   string `json:"type"`
	Synth  string `json:"synth"`
	Status string `json:"status,omitempty"`

	// Point fields, set on point/quarantine events.
	Point    string `json:"point,omitempty"` // idxKey form
	Source   string `json:"source,omitempty"`
	Feasible bool   `json:"feasible,omitempty"`
	Trace    string `json:"traceparent,omitempty"`

	// Progress: points evaluated so far against the space's evaluation
	// budget (refinement is adaptive, so the budget is the only known
	// total), plus the remaining-budget estimate from the points
	// histogram.
	Done        int     `json:"done"`
	Total       int     `json:"total,omitempty"`
	CoveragePct float64 `json:"coverage_pct,omitempty"`
	EtaMS       int64   `json:"eta_ms,omitempty"`
}

func (*kind) Event(e explore.Event) any {
	return Event{Type: e.Type, Synth: e.Run, Status: e.Status, Point: e.Point, Source: e.Source,
		Feasible: e.Verdict, Trace: e.Trace, Done: e.Done, Total: e.Total, CoveragePct: e.CoveragePct, EtaMS: e.EtaMS}
}
