package main

// The exploration endpoints. Campaigns (/v1/campaigns) and region
// syntheses (/v1/synth) run on the same exploration core, so one set of
// handlers serves both: start (content-addressed), list, status, cancel,
// the live SSE event stream and the kind's export. Each kind contributes
// only its spec parser, its list/status wire form and its export.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/synth"
)

// registry is what the handlers need of an exploration engine; the
// campaign and synthesis engines both get it from internal/explore.
type registry[S any] interface {
	Get(id string) (S, bool)
	List() []S
	Cancel(id string) bool
	Wait(ctx context.Context, id string) (S, error)
	Subscribe(id string) (<-chan any, func(), bool)
	StatusEvent(id string) (any, bool)
}

// explorer is the HTTP surface of one exploration kind: S is its state
// document, P its parsed spec.
type explorer[S, P any] struct {
	reg  registry[S]
	noun string // "campaign", "synthesis"
	path string // the collection route, e.g. "/v1/campaigns"

	parse func(io.Reader) (P, error)
	start func(P) (S, error)
	// meta reads a state's ID and status; view renders the list/status
	// wire form, with the point list only in the per-run view.
	meta func(S) (id, status string)
	view func(st S, withPoints bool) any

	// exportPath names the export route under {id}; export returns the
	// export document, nil while the run has none yet (409).
	exportPath string
	export     func(S) any
}

// mount registers the kind's routes.
func (x *explorer[S, P]) mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+x.path, x.startRun)
	mux.HandleFunc("GET "+x.path, x.list)
	mux.HandleFunc("GET "+x.path+"/{id}", x.status)
	mux.HandleFunc("DELETE "+x.path+"/{id}", x.cancel)
	mux.HandleFunc("GET "+x.path+"/{id}/"+x.exportPath, x.exportRun)
	mux.HandleFunc("GET "+x.path+"/{id}/events", x.events)
}

// startRun parses a spec (application/json) and starts it. Runs are
// content-addressed: re-posting the same spec returns the existing
// (possibly finished) run instead of launching a duplicate. ?wait=true
// blocks until the run reaches a terminal state.
func (x *explorer[S, P]) startRun(w http.ResponseWriter, r *http.Request) {
	spec, err := x.parse(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	st, err := x.start(spec)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	id, status := x.meta(st)
	if r.URL.Query().Get("wait") == "true" {
		final, err := x.reg.Wait(r.Context(), id)
		if err != nil {
			httpError(w, http.StatusGatewayTimeout, "waiting for %s: %v", id, err)
			return
		}
		writeJSON(w, http.StatusOK, x.view(final, true))
		return
	}
	w.Header().Set("Location", x.path+"/"+id)
	code := http.StatusAccepted
	if status != campaign.StatusRunning {
		code = http.StatusOK // content-addressed replay of a finished run
	}
	writeJSON(w, code, x.view(st, false))
}

func (x *explorer[S, P]) list(w http.ResponseWriter, r *http.Request) {
	all := x.reg.List()
	docs := make([]any, len(all))
	for i, st := range all {
		docs[i] = x.view(st, false)
	}
	writeJSON(w, http.StatusOK, docs)
}

// get fetches the run named by the path, answering 404 when unknown.
func (x *explorer[S, P]) get(w http.ResponseWriter, r *http.Request) (S, bool) {
	st, ok := x.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown %s %q", x.noun, r.PathValue("id"))
	}
	return st, ok
}

func (x *explorer[S, P]) status(w http.ResponseWriter, r *http.Request) {
	if st, ok := x.get(w, r); ok {
		writeJSON(w, http.StatusOK, x.view(st, true))
	}
}

func (x *explorer[S, P]) cancel(w http.ResponseWriter, r *http.Request) {
	st, ok := x.get(w, r)
	if !ok {
		return
	}
	id, status := x.meta(st)
	if !x.reg.Cancel(id) {
		httpError(w, http.StatusConflict, "%s %s already %s", x.noun, id, status)
		return
	}
	st, _ = x.reg.Get(id)
	writeJSON(w, http.StatusOK, x.view(st, false))
}

// exportRun serves the kind's export: the campaign summary at any time
// (a running campaign reports its progress so far), the synthesis region
// only once terminal — a partial cover would misrepresent the boundary.
func (x *explorer[S, P]) exportRun(w http.ResponseWriter, r *http.Request) {
	st, ok := x.get(w, r)
	if !ok {
		return
	}
	doc := x.export(st)
	if doc == nil {
		id, status := x.meta(st)
		httpError(w, http.StatusConflict, "%s %s is %s and has no %s yet", x.noun, id, status, x.exportPath)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// events serves the live SSE stream of point settlements, quarantines
// and the terminal status, each with coverage and ETA. The first record
// is always a synthetic status snapshot, so subscribers to an
// already-finished run are answered instead of hanging.
func (x *explorer[S, P]) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	first, ok := x.reg.StatusEvent(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown %s %q", x.noun, id)
		return
	}
	ch, cancel, ok := x.reg.Subscribe(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown %s %q", x.noun, id)
		return
	}
	serveSSE(w, r, first, ch, cancel)
}

// serveSSE writes first and then every subscribed event as SSE data
// records until the client disconnects. The subscription is best-effort
// by construction (the hub drops on a full buffer), so a slow client
// loses events rather than stalling the exploration.
func serveSSE(w http.ResponseWriter, r *http.Request, first any, ch <-chan any, cancel func()) {
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	write := func(ev any) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
	}
	write(first)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			write(ev)
		}
	}
}

// campaignDoc and synthDoc are the list/status wire forms: the state
// with the point list elided from listings (it can be large) but kept in
// the per-run view.
type campaignDoc struct {
	campaign.State
	PointsDone int `json:"points_done"`
}

type synthDoc struct {
	synth.State
	PointsDone int `json:"points_done"`
}

func campaigns(eng *campaign.Engine) *explorer[campaign.State, *campaign.Spec] {
	return &explorer[campaign.State, *campaign.Spec]{
		reg: eng, noun: "campaign", path: "/v1/campaigns",
		parse: campaign.ParseSpec,
		start: eng.Start,
		meta:  func(st campaign.State) (string, string) { return st.ID, st.Status },
		view: func(st campaign.State, withPoints bool) any {
			d := campaignDoc{State: st, PointsDone: len(st.Points)}
			if !withPoints {
				d.Points = nil
			}
			return d
		},
		exportPath: "result",
		export:     func(st campaign.State) any { return st.Summarize() },
	}
}

func syntheses(eng *synth.Engine) *explorer[synth.State, *synth.Space] {
	return &explorer[synth.State, *synth.Space]{
		reg: eng, noun: "synthesis", path: "/v1/synth",
		parse: synth.ParseSpace,
		start: eng.Start,
		meta:  func(st synth.State) (string, string) { return st.ID, st.Status },
		view: func(st synth.State, withPoints bool) any {
			d := synthDoc{State: st, PointsDone: len(st.Points)}
			if !withPoints {
				d.Points = nil
			}
			return d
		},
		exportPath: "region",
		export: func(st synth.State) any {
			if st.Region == nil {
				return nil
			}
			return st.Region
		},
	}
}
