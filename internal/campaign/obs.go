package campaign

import "stopwatchsim/internal/explore"

// Event is one record on a campaign's live event stream (the body of the
// GET /v1/campaigns/{id}/events SSE endpoint), the campaign wire form of
// explore.Event.
type Event struct {
	// Type is "point" (a point settled), "quarantine" (a point exhausted
	// its retries) or "status" (the campaign reached a terminal state).
	Type     string `json:"type"`
	Campaign string `json:"campaign"`
	Status   string `json:"status,omitempty"`

	// Point fields, set on point/quarantine events.
	Point       string `json:"point,omitempty"`
	Source      string `json:"source,omitempty"`
	Schedulable bool   `json:"schedulable,omitempty"`
	Trace       string `json:"traceparent,omitempty"`

	// Progress: points recorded so far, the known total (grid strategies;
	// 0 when the strategy's point count is open-ended), coverage percent
	// and the remaining-work estimate from the points histogram.
	Done        int     `json:"done"`
	Total       int     `json:"total,omitempty"`
	CoveragePct float64 `json:"coverage_pct,omitempty"`
	EtaMS       int64   `json:"eta_ms,omitempty"`
}

func (*kind) Event(e explore.Event) any {
	return Event{Type: e.Type, Campaign: e.Run, Status: e.Status, Point: e.Point, Source: e.Source,
		Schedulable: e.Verdict, Trace: e.Trace, Done: e.Done, Total: e.Total, CoveragePct: e.CoveragePct, EtaMS: e.EtaMS}
}
