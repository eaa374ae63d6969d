package main

// Observability endpoints: the span-tree view of one trace and the
// flight-recorder postmortem of a failed job. The live SSE event streams
// of campaigns and syntheses are in explorers.go.

import (
	"net/http"
	"strings"

	"stopwatchsim/internal/obs"
)

// spanTree serves GET /v1/traces/{id}: the recorded spans of one trace,
// reassembled into parent/child tree form. The id is either the 32-hex
// trace ID or a full W3C traceparent (as returned in the Traceparent
// response header and carried by campaign/synth points), so callers can
// paste either without reformatting.
func (s *server) spanTree(w http.ResponseWriter, r *http.Request) {
	tr := s.pool.Tracer()
	if tr == nil {
		httpError(w, http.StatusNotFound, "tracing disabled (-trace-spans 0)")
		return
	}
	id := r.PathValue("id")
	if tc, ok := obs.ParseTraceparent(id); ok {
		id = tc.TraceString()
	}
	spans := tr.Trace(strings.ToLower(id))
	if len(spans) == 0 {
		httpError(w, http.StatusNotFound, "no spans for trace %q (unknown, or evicted from the ring)", id)
		return
	}
	writeJSON(w, http.StatusOK, obs.SpanTree(spans))
}

// postmortem serves GET /v1/jobs/{id}/postmortem: the flight-recorder
// dump a dump-worthy failure (deadlock, stuck-run kill, panic, injected
// fault) left behind — from the registry while the job is live, from the
// artifact store after a restart.
func (s *server) postmortem(w http.ResponseWriter, r *http.Request) {
	pm, ok := s.pool.Postmortem(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no postmortem for job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, pm)
}
