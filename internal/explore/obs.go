package explore

// The ops view of a run: a live event stream (the body of the
// GET /v1/{campaigns,synth}/{id}/events SSE endpoints), coverage/ETA
// accounting from the settled-point duration histogram, the straggler
// report embedded in run status, and the run's span tree. All of it is
// best-effort telemetry — publishing never blocks point evaluation, and a
// slow subscriber loses events rather than stalling the exploration.

import (
	"sort"
	"time"

	"stopwatchsim/internal/obs"
)

// Event is one record on a run's live event stream, published in the
// explorer's wire form (Kind.Event).
type Event struct {
	// Type is "point" (a point settled), "quarantine" (a point failed
	// for good) or "status" (the run reached a terminal state).
	Type   string
	Run    string
	Status string

	// Point fields, set on point/quarantine events.
	Point   string
	Source  string
	Verdict bool
	Trace   string

	// Progress: points recorded so far, the known total (0 when
	// open-ended), coverage percent and the remaining-work estimate from
	// the points histogram.
	Done        int
	Total       int
	CoveragePct float64
	EtaMS       int64
}

// Subscribe attaches a live event subscriber to a run, returning its
// channel and a cancel function. The channel is closed by cancel, not by
// run completion — subscribers see the terminal "status" event and
// detach themselves.
func (e *Engine[S, C]) Subscribe(id string) (<-chan any, func(), bool) {
	r := e.lookup(id)
	if r == nil {
		return nil, nil, false
	}
	ch, cancel := r.hub.Subscribe(16)
	return ch, cancel, true
}

// StatusEvent builds a status event from the run's current state — the
// opening record of every SSE subscription, so a subscriber to an
// already-terminal run still sees its status.
func (e *Engine[S, C]) StatusEvent(id string) (any, bool) {
	r := e.lookup(id)
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	ev := Event{Type: "status", Status: *e.kind.Fields(r.state).Status}
	r.progressLocked(&ev)
	r.mu.Unlock()
	return e.kind.Event(ev), true
}

// progressLocked fills the progress fields of ev. Callers hold r.mu.
func (r *Run[S, C]) progressLocked(ev *Event) {
	k := r.eng.kind
	ev.Run = *k.Fields(r.state).ID
	ev.Done = k.Points(r.state)
	total, par := k.Progress(r.state)
	if total <= 0 {
		return
	}
	ev.Total = total
	ev.CoveragePct = 100 * float64(ev.Done) / float64(total)
	if ev.Done >= total {
		return
	}
	if s := r.durs.Snapshot(); s.Count > 0 {
		mean := float64(s.Sum) / float64(s.Count)
		ev.EtaMS = int64(mean * float64(total-ev.Done) / float64(par) / float64(time.Millisecond))
	}
}

// publish pushes ev, with the run's progress, onto the stream.
func (r *Run[S, C]) publish(ev Event) {
	if r.hub.Subscribers() == 0 {
		return
	}
	r.mu.Lock()
	r.progressLocked(&ev)
	r.mu.Unlock()
	r.hub.Publish(r.eng.kind.Event(ev))
}

// publishPoint pushes a settled (or finally failed) point.
func (r *Run[S, C]) publishPoint(key string, res Result) {
	ev := Event{Type: "point", Point: key, Source: res.Source, Verdict: res.Verdict, Trace: res.Trace}
	if res.Source == SourceFailed {
		ev.Type = "quarantine"
	}
	r.publish(ev)
}

// publishStatus pushes the run's terminal state.
func (r *Run[S, C]) publishStatus(status string) {
	r.publish(Event{Type: "status", Status: status})
}

// maxStragglers bounds the straggler report.
const maxStragglers = 5

// Rank folds item into a worst-first straggler report of at most five
// entries, replacing an earlier entry for the same point (a healed
// re-evaluation must never duplicate it). of returns an entry's point key
// and elapsed time.
func Rank[T any](list []T, item T, of func(T) (string, int64)) []T {
	key, elapsed := of(item)
	for j := range list {
		if k, _ := of(list[j]); k == key {
			list = append(list[:j], list[j+1:]...)
			break
		}
	}
	i := sort.Search(len(list), func(i int) bool {
		_, e := of(list[i])
		return e < elapsed
	})
	if i >= maxStragglers {
		return list
	}
	list = append(list, item)
	copy(list[i+1:], list[i:])
	list[i] = item
	if len(list) > maxStragglers {
		list = list[:maxStragglers]
	}
	return list
}

// pointTrace mints one point's child trace context, zero when the run is
// untraced.
func (r *Run[S, C]) pointTrace() obs.TraceContext {
	if r.trace.Valid() {
		return r.trace.Child()
	}
	return obs.TraceContext{}
}

// closePointSpan records the point's span under the run's root. No-op
// for untraced points.
func (r *Run[S, C]) closePointSpan(tc obs.TraceContext, key string, start time.Time) {
	if tr := r.eng.pool.Tracer(); tr != nil && tc.Valid() {
		tr.Record(tc, r.trace.SpanID, r.eng.cfg.Key+".point", key,
			start.UnixNano(), time.Since(start).Nanoseconds())
	}
}

// armTraceLocked mints (or, on resume, re-adopts) the run's root trace
// context when the pool traces. Callers hold e.mu; the run goroutine is
// not yet running.
func (r *Run[S, C]) armTraceLocked() {
	if r.eng.pool.Tracer() == nil {
		return
	}
	f := r.eng.kind.Fields(r.state)
	if tc, ok := obs.ParseTraceparent(*f.Trace); ok {
		r.trace = tc
		return
	}
	r.trace = obs.NewTrace()
	*f.Trace = r.trace.Traceparent()
}
